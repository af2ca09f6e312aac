#!/usr/bin/env python3
"""Seeded synthetic count data for the ``wide-strata`` benchmark workload.

Twelve binary covariates give 4096 covariate patterns; every pattern is
crossed with the four exposure pairs, so the table has 16 384 cells. Cell
totals are drawn uniformly from [20, 200). Successes are binomial under a
true logistic model that has the same 22 terms as ``FORMULA``, so the fit is
well posed and the formula is correctly specified.

The same seed always gives the same bytes. Run it on its own with

    python3 perfbench/gen_wide.py --seed 1 --out wide.csv
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

N_COVARIATES = 12
COVARIATE_NAMES = tuple(f"x{i + 1}" for i in range(N_COVARIATES))
EXPOSURE_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
N_PATTERNS = 2 ** N_COVARIATES
N_CELLS = N_PATTERNS * len(EXPOSURE_PAIRS)
TOTALS_RANGE = (20, 200)  # half-open, as numpy's integers() takes it

_PRODUCTS = tuple(f"{z}:x{i}" for z in ("z1", "z2") for i in (1, 2, 3))
FORMULA = "y ~ " + " + ".join(("z1", "z2", "z1:z2") + COVARIATE_NAMES + _PRODUCTS)
N_PARAMETERS = 1 + 3 + N_COVARIATES + len(_PRODUCTS)


def _true_coefficients(rng) -> dict[str, float]:
    coef = {"(intercept)": -1.0}
    for name, lo, hi in (("z1", 0.2, 0.6), ("z2", 0.2, 0.6), ("z1:z2", 0.3, 0.7)):
        coef[name] = rng.uniform(lo, hi)
    for name in COVARIATE_NAMES:
        coef[name] = rng.uniform(-0.35, 0.35)
    for name in _PRODUCTS:
        coef[name] = rng.uniform(-0.3, 0.3)
    return coef


def generate(seed: int) -> np.ndarray:
    """Integer table with columns x1..x12, z1, z2, successes, totals; one
    row per cell, patterns in binary order with x1 as the high bit."""
    rng = np.random.Generator(np.random.PCG64(seed))
    coef = _true_coefficients(rng)
    bits = np.arange(N_COVARIATES - 1, -1, -1)
    patterns = (np.arange(N_PATTERNS)[:, None] >> bits) & 1
    x = np.repeat(patterns, len(EXPOSURE_PAIRS), axis=0)
    z = np.tile(np.array(EXPOSURE_PAIRS), (N_PATTERNS, 1))
    columns = {name: x[:, j] for j, name in enumerate(COVARIATE_NAMES)}
    columns["z1"], columns["z2"] = z[:, 0], z[:, 1]
    eta = np.full(N_CELLS, coef["(intercept)"])
    for label, beta in coef.items():
        if label == "(intercept)":
            continue
        factors = [columns[v] for v in label.split(":")]
        eta += beta * np.prod(factors, axis=0)
    p = 1.0 / (1.0 + np.exp(-eta))
    totals = rng.integers(*TOTALS_RANGE, size=N_CELLS)
    successes = rng.binomial(totals, p)
    return np.column_stack([x, z, successes, totals]).astype(np.int64)


def to_csv_text(table: np.ndarray) -> str:
    header = ",".join(COVARIATE_NAMES + ("z1", "z2", "successes", "totals"))
    body = "\n".join(",".join(map(str, row)) for row in table.tolist())
    return header + "\n" + body + "\n"


def write(seed: int, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv_text(generate(seed)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="CSV file to write")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    write(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
