"""Fit the bundled H. pylori eradication data and read off all five
interaction measures from a single logistic model.

The dataset crosses a therapy dose (z1) with urban/rural environment (z2)
over strata of age, gender and antibiotic resistance (x1, x2, x3). Two
specifications are compared: one carrying a dose-by-gender product term and
one without it.
"""

import numpy as np

import epinteract as ei

data = ei.load_fixture("nguyen2008")
print(f"{data.n_total} subjects in {len(data.cells)} covariate-exposure cells")

dist = ei.covariate_distribution(data)
print("\ncovariate pattern weights:")
for x, w in sorted(dist.weights.items()):
    print(f"  x={x}: {w:.4f}")

for formula in (ei.model_25_formula, ei.model_26_formula):
    print(f"\n=== {formula} ===")
    spec = ei.parse_formula(formula)
    X, s, n = ei.expand_dataset(data, spec)
    result = ei.fit(X, s, n)
    assert result.converged

    with np.printoptions(precision=2, suppress=True):
        print("coefficients:", result.coefficients)
        print(f"dispersion:   {result.dispersion:.2f} "
              "(>1: the counts are over-dispersed relative to binomial)")

    ms = ei.measure_set(result.coefficients, spec, dist)
    print("population risks PR(y=1|z):")
    for z, pr in ms.population_risks.items():
        print(f"  z={z}: {pr:.3f}")
    for mid, value in ms.as_dict().items():
        print(f"  {mid}: {value:.2f}")

    # the conditional and marginal ratio measures disagree (odds and risk
    # ratios are non-collapsible), while the difference measure coincides
    table = ei.risk_table(result.coefficients, spec, dist)
    print(f"  DCRD == DMRD: {ei.dcrd(table, dist):.4f} == {ms.dmrd:.4f}")
