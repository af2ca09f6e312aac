"""Simulation-based percentile intervals for the interaction measures.

Instead of a delta-method variance for each measure, parameter vectors are
drawn from the fitted normal approximation N(coefficients, covariance) and
every measure is recomputed per draw; interval endpoints are empirical
quantiles of the resulting distributions. A text histogram sketches the
skewness that makes a plain normal interval a poor fit for ratio measures.
"""

import numpy as np

import epinteract as ei

data = ei.load_fixture("nguyen2008")
dist = ei.covariate_distribution(data)
spec = ei.parse_formula(ei.model_25_formula, data.variable_names)
X, s, n = ei.expand_dataset(data, spec)
result = ei.fit(X, s, n)

config = ei.SimulationConfig(n_draws=20_000, seed=11, levels=(0.50, 0.95))
sim = ei.simulate(result, spec, dist, config)

print(f"{config.n_draws} draws, seed {config.seed}, "
      f"{sim.n_clamped_draws} clamped, jitter {sim.jitter:g}\n")
print(f"{'measure':<8}{'estimate':>10}{'50% CI':>22}{'95% CI':>24}")
for mid in ei.MEASURE_IDS:
    est = sim[mid]
    l50, u50 = est.endpoints[0.50]
    l95, u95 = est.endpoints[0.95]
    print(f"{mid:<8}{est.point:>10.2f}"
          f"{f'({l50:.2f}, {u50:.2f})':>22}"
          f"{f'({l95:.2f}, {u95:.2f})':>24}")

print("\nlog-scale histogram of the RCOR draws:")
log_draws = np.log(sim["RCOR"].draws)
for left, right, count in ei.histogram(log_draws, 25):
    bar = "#" * int(60 * count / config.n_draws * 5)
    print(f"  [{left:6.2f}, {right:6.2f})  {bar}")

print("\nhistogram of the DMRD draws (roughly symmetric, bounded):")
for left, right, count in ei.histogram(sim["DMRD"].draws, 25):
    bar = "#" * int(60 * count / config.n_draws * 5)
    print(f"  [{left:6.2f}, {right:6.2f})  {bar}")
