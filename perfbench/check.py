"""Output check for one benchmark analysis.

Everything here is recomputed with the benchmark's own numpy code from the
input cells and the coefficients the program reported; no epinteract code
is used, so a defect in the library cannot hide in its own check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MEASURE_IDS = ("RCOR", "RCRR", "RMOR", "RMRR", "DMRD")
EXPOSURE_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Nguyen et al. (2008) H. pylori data, model 25, as printed in the paper:
# two decimals, so a value matches when it is within one unit of the last
# printed digit.
PUBLISHED_COEFFICIENTS = {
    "(intercept)": 1.19, "z1": -0.87, "z2": 0.10, "z1:z2": 2.18,
    "x1": -0.57, "x2": -1.82, "x3": 0.55, "x2:z1": 1.96,
}
PUBLISHED_MEASURES = {"RCOR": 8.85, "RCRR": 1.60, "RMOR": 8.62, "RMRR": 1.58, "DMRD": 0.34}
PUBLISHED_UNIT = 0.01

# The fit stops when max |score| < 1e-8 or the Newton step is below 1e-10;
# scaled by the number of subjects, either leaves the score far below this.
SCORE_TOL_PER_SUBJECT = 1e-9
MEASURE_RTOL = 1e-9
MEASURE_ATOL = 1e-12


class Cells:
    """Input table as arrays: one named 0/1 column per variable plus counts."""

    def __init__(self, csv_path):
        with open(csv_path, encoding="utf-8") as fh:
            header = [h.strip() for h in fh.readline().split(",")]
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        self.covariate_names = tuple(header[:-4])
        self.columns = {name: table[:, j].astype(float) for j, name in enumerate(header[:-2])}
        self.successes = table[:, -2].astype(float)
        self.totals = table[:, -1].astype(float)
        x = table[:, : len(self.covariate_names)]
        self.patterns, inverse = np.unique(x, axis=0, return_inverse=True)
        self.weights = np.bincount(inverse.ravel(), weights=self.totals) / self.totals.sum()


def _column(label, columns, n_rows):
    if label == "(intercept)":
        return np.ones(n_rows)
    return np.prod([columns[v] for v in label.split(":")], axis=0)


def _design(labels, columns, n_rows):
    return np.column_stack([_column(label, columns, n_rows) for label in labels])


def _expit(eta):
    return 1.0 / (1.0 + np.exp(-eta))


def recompute_measures(cells: Cells, coefficients: dict) -> dict:
    """The five measures at the reported coefficients, from first
    principles: risks per exposure pair and pattern, weighted by the share
    of subjects in each pattern."""
    labels = list(coefficients)
    beta = np.array([coefficients[label] for label in labels])
    S = len(cells.patterns)
    P = np.empty((4, S))
    for i, (z1, z2) in enumerate(EXPOSURE_PAIRS):
        columns = {name: cells.patterns[:, j].astype(float)
                   for j, name in enumerate(cells.covariate_names)}
        columns["z1"], columns["z2"] = np.full(S, float(z1)), np.full(S, float(z2))
        P[i] = _expit(_design(labels, columns, S) @ beta)
    w = cells.weights
    odds = P / (1.0 - P)
    pr = P @ w
    pr_odds = pr / (1.0 - pr)
    return {
        "RCOR": float(((odds[3] / odds[1]) / (odds[2] / odds[0])) @ w),
        "RCRR": float(((P[3] / P[1]) / (P[2] / P[0])) @ w),
        "RMOR": float((pr_odds[3] / pr_odds[1]) / (pr_odds[2] / pr_odds[0])),
        "RMRR": float((pr[3] / pr[1]) / (pr[2] / pr[0])),
        "DMRD": float(pr[3] - pr[1] - pr[2] + pr[0]),
    }


def check_bundle(bundle: dict, cells: Cells, published: bool) -> list[str]:
    """Problems with a parsed report.json; an empty list means it passed."""
    problems = []
    coefficients = bundle["coefficients"]
    labels = list(coefficients)
    beta = np.array([coefficients[label] for label in labels], dtype=float)
    if not np.all(np.isfinite(beta)):
        return ["non-finite coefficient"]

    X = _design(labels, cells.columns, len(cells.totals))
    g = X.T @ (cells.successes - cells.totals * _expit(X @ beta))
    limit = SCORE_TOL_PER_SUBJECT * cells.totals.sum()
    if np.max(np.abs(g)) > limit:
        problems.append(f"score max |X'(s - n p)| = {np.max(np.abs(g)):.3g} > {limit:.3g}")

    expected = recompute_measures(cells, coefficients)
    for mid in MEASURE_IDS:
        got = bundle["measures"][mid]["point"]
        if not math.isclose(got, expected[mid], rel_tol=MEASURE_RTOL, abs_tol=MEASURE_ATOL):
            problems.append(f"{mid} point {got!r} != recomputed {expected[mid]!r}")

    if published:
        for label, value in PUBLISHED_COEFFICIENTS.items():
            if abs(coefficients.get(label, math.inf) - value) > PUBLISHED_UNIT + 1e-12:
                problems.append(f"coefficient {label} = {coefficients.get(label)} vs published {value}")
        for mid, value in PUBLISHED_MEASURES.items():
            if abs(bundle["measures"][mid]["point"] - value) > PUBLISHED_UNIT + 1e-12:
                problems.append(f"{mid} point {bundle['measures'][mid]['point']} vs published {value}")

    for mid in MEASURE_IDS:
        intervals = bundle["measures"][mid]["intervals"]
        ends = [intervals[k] for k in sorted(intervals, key=float)]
        flat = [v for pair in ends for v in pair]
        if not all(math.isfinite(v) for v in flat):
            problems.append(f"{mid} has a non-finite interval endpoint")
            continue
        # narrowest level first: each wider interval must contain the last
        for (lo_in, hi_in), (lo_out, hi_out) in zip(ends, ends[1:]):
            if not lo_out <= lo_in <= hi_in <= hi_out:
                problems.append(f"{mid} intervals are not nested: {ends}")
    return problems


def expected_files(formats) -> list[str]:
    names = []
    if "table" in formats:
        names.append("report.txt")
    if "json" in formats:
        names.append("report.json")
    if "csv" in formats:
        names += ["coefficients.csv", "measures.csv", "draws.csv"]
        names += [f"hist_{mid}.csv" for mid in MEASURE_IDS]
    return names


def check_run(rc: int, out_dir: Path, formats, n_draws: int, cells: Cells,
              published: bool, reference_json: bytes | None) -> list[str]:
    """Problems with one finished CLI analysis written to out_dir."""
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [n for n in expected_files(formats) if not (out_dir / n).is_file()]
    if missing:
        return [f"missing output files {missing}"]
    problems = []
    if "csv" in formats:
        lines = (out_dir / "draws.csv").read_bytes().count(b"\n")
        if lines != 1 + len(MEASURE_IDS) * n_draws:
            problems.append(f"draws.csv has {lines} lines, expected {1 + len(MEASURE_IDS) * n_draws}")
    raw = (out_dir / "report.json").read_bytes()
    if reference_json is not None and raw != reference_json:
        problems.append("report.json differs from the same-seed reference run")
    try:
        return problems + check_bundle(json.loads(raw), cells, published)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return problems + [f"malformed report.json: {exc!r}"]
