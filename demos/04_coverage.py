"""How often the simulated 95% intervals cover the truth: a seeded study.

The fixture's model-25 maximum-likelihood coefficients are taken as the
truth. Each replicate table keeps the fixture's cells and draws every cell's
successes as binomial(totals, p) at the true risks, in cell order, from one
Generator per table size: the fixture's own totals (109 subjects) and ten
times them. A replicate whose fit stops at separation has no interval; every
other one simulates 1000 robust draws at seed r, the replicate's number, and
counts as covered for a measure when its 95% interval holds the measure at
the true coefficients.

The seeds and the replicate count are fixed: tests/test_coverage.py pins
what this study finds with them.
"""

import numpy as np

import epinteract as ei

REPLICATES = 400
SEED = 20261020  # one np.random.default_rng(SEED) per table size


def coverage(scale: int):
    """(separated tables, {measure: share of the other tables whose 95%
    interval holds the true measure}) over REPLICATES tables with `scale`
    times the fixture's totals."""
    data = ei.load_fixture("nguyen2008")
    spec = ei.parse_formula(ei.model_25_formula)
    dist = ei.covariate_distribution(data)
    X, s, n = ei.expand_dataset(data, spec)
    truth = ei.fit(X, s, n).coefficients
    true_values = ei.measure_set(truth, spec, dist).as_dict()
    totals = scale * n.astype(np.int64)
    p = 1.0 / (1.0 + np.exp(-(X @ truth)))
    rng = np.random.default_rng(SEED)
    separated, covered = 0, dict.fromkeys(ei.MEASURE_IDS, 0)
    for r in range(REPLICATES):
        fitted = ei.fit(X, rng.binomial(totals, p).astype(float), totals.astype(float))
        if not fitted.converged:
            separated += 1
            continue
        config = ei.SimulationConfig(n_draws=1000, seed=r, levels=(0.95,),
                                     covariance_choice="robust")
        sim = ei.simulate(fitted, spec, dist, config)
        for mid in ei.MEASURE_IDS:
            lower, upper = sim[mid].endpoints[0.95]
            covered[mid] += lower <= true_values[mid] <= upper
    return separated, {mid: c / (REPLICATES - separated) for mid, c in covered.items()}


if __name__ == "__main__":
    print(f"{REPLICATES} replicate tables per size, seed {SEED}; share of the fitted\n"
          "tables whose 95% interval holds the true measure\n")
    print(f"{'totals':<13}{'separated':>9}" + "".join(f"{mid:>7}" for mid in ei.MEASURE_IDS))
    for scale in (1, 10):
        separated, shares = coverage(scale)
        print(f"{f'fixture x{scale}':<13}{separated:>9}"
              + "".join(f"{shares[mid]:>7.3f}" for mid in ei.MEASURE_IDS))
