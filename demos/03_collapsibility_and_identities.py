"""Structural identities of the five measures, checked numerically.

Three facts shape how the measures relate:
  * risk differences are collapsible, so the covariate-averaged conditional
    difference always equals the marginal difference;
  * odds ratios and risk ratios are not, so the conditional and marginal
    ratio measures genuinely differ;
  * in a logit model with no triple-product term, every stratum shares the
    same odds-ratio contrast and the conditional odds-ratio measure reduces
    to exp of the exposure-product coefficient.
"""

import math

import numpy as np

import epinteract as ei

data = ei.load_fixture("nguyen2008")
dist = ei.covariate_distribution(data)
spec = ei.parse_formula(ei.model_25_formula)
X, s, n = ei.expand_dataset(data, spec)
result = ei.fit(X, s, n)
coef = result.coefficients

table = ei.risk_table(coef, spec, dist)
pr = ei.population_risk(table, dist)

print("collapsibility of the difference measure:")
print(f"  DCRD = {ei.dcrd(table, dist):.6f}")
print(f"  DMRD = {ei.dmrd(pr):.6f}")

print("\nnon-collapsibility of the ratio measures:")
print(f"  RCOR = {ei.rcor(table, dist):.4f}  vs  RMOR = {ei.rmor(pr):.4f}")
print(f"  RCRR = {ei.rcrr(table, dist):.4f}  vs  RMRR = {ei.rmrr(pr):.4f}")

b3 = coef[3]  # coefficient of the z1:z2 product
print("\nexp(interaction coefficient) identity for RCOR:")
print(f"  exp({b3:.4f}) = {math.exp(b3):.6f}")
print(f"  RCOR         = {ei.rcor(table, dist):.6f}")

print("\nexposure symmetry (swapping z1 and z2 changes nothing):")
swapped = table.swap_exposures()
pr_s = ei.population_risk(swapped, dist)
print(f"  RCOR {ei.rcor(swapped, dist):.6f}, RMOR {ei.rmor(pr_s):.6f}, "
      f"DMRD {ei.dmrd(pr_s):.6f}")

print("\nand the identities hold for arbitrary parameter vectors:")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    c = rng.normal(0, 1, len(coef))
    t = ei.risk_table(c, spec, dist)
    worst = max(worst, abs(ei.rcor(t, dist) - math.exp(c[3])),
                abs(ei.dcrd(t, dist) - ei.dmrd(ei.population_risk(t, dist))))
print(f"  worst deviation over 200 random models: {worst:.2e}")
