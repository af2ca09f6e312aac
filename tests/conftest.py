import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import epinteract as ei

# Frozen expected values for the bundled H. pylori dataset.
FULL_MODEL = "y ~ z1 + z2 + z1:z2 + x1 + x2 + x3 + z1:x2"
REDUCED_MODEL = "y ~ z1 + z2 + z1:z2 + x1 + x2 + x3"

FULL_COEFS = np.array([1.19, -0.87, 0.10, 2.18, -0.57, -1.82, 0.55, 1.96])

FULL_COV_ROBUST = np.array([
    [0.64, -0.53, -0.32, 0.29, -0.12, -0.42, -0.13, 0.47],
    [-0.53, 1.06, 0.31, -0.67, -0.14, 0.45, 0.10, -0.89],
    [-0.32, 0.31, 0.72, -0.71, 0.00, 0.05, 0.06, -0.07],
    [0.29, -0.67, -0.71, 1.86, 0.05, -0.05, -0.04, 0.32],
    [-0.12, -0.14, 0.00, 0.05, 0.37, -0.04, -0.05, 0.03],
    [-0.42, 0.45, 0.05, -0.05, -0.04, 0.69, -0.01, -0.69],
    [-0.13, 0.10, 0.06, -0.04, -0.05, -0.01, 0.39, -0.10],
    [0.47, -0.89, -0.07, 0.32, 0.03, -0.69, -0.10, 1.40],
])

FULL_MEASURES = {"RCOR": 8.85, "RCRR": 1.60, "RMOR": 8.62, "RMRR": 1.58, "DMRD": 0.34}
REDUCED_MEASURES = {"RCOR": 6.05, "RCRR": 1.47, "RMOR": 5.47, "RMRR": 1.41, "DMRD": 0.27}

# Published interval endpoints (2.5th, 25th, 75th, 97.5th percentiles) for the
# full model; they carry Monte Carlo noise from only 1000 unseeded draws.
FULL_INTERVALS = {
    "RCOR": (0.66, 3.61, 21.95, 127.04),
    "RCRR": (0.74, 1.22, 2.27, 4.60),
    "RMOR": (0.72, 3.50, 15.93, 88.51),
    "RMRR": (0.77, 1.23, 1.90, 3.40),
    "DMRD": (-0.10, 0.18, 0.45, 0.72),
}


def _count_table(rows):
    """CSV bytes of an (x1, x2, z1, z2) count table written as "/"-separated rows."""
    return ("x1,x2,z1,z2,successes,totals\n"
            + "".join(row.strip() + "\n" for row in rows.split("/"))).encode()


# Ill-conditioned tables from a seeded sweep of random 16-cell tables (totals
# 10**U(0, 9), generator seed 7), named by their index in it, each with the
# formula it is fitted by. A (2132): an LU inverse of its information is
# asymmetric beyond cholesky's symmetry tolerance. B (3786): its model
# covariance's least eigenvalue, 1.2e-9, is below an LU inverse's rounding.
# C (3472): the information is numerically singular (scaled condition number
# 1e15). D (227): the raw condition number is 6e15, but the scaled one only
# 1e8, so only a scale-free singularity test lets it through.
SWEEP_TABLES = {
    "A": (_count_table("0,0,0,0,47577,110179 / 0,0,0,1,6,7 / 0,1,0,0,127045546,992101409 / "
                       "0,1,1,0,8112,32308 / 1,0,0,0,1,3 / 1,0,1,0,2,2 / "
                       "1,0,1,1,379275929,733931009 / 1,1,1,1,700,2853"),
          "y ~ z1 + z2 + z1:z2 + x1"),
    "B": (_count_table("0,0,0,0,329,811 / 0,0,0,1,21,53 / 0,0,1,0,6,7 / 0,0,1,1,3,7 / "
                       "0,1,0,0,2242,4167 / 0,1,0,1,41,655 / 1,0,0,0,150,169 / "
                       "1,0,1,0,39048,43460 / 1,0,1,1,329780870,515131192 / "
                       "1,1,0,0,1649,18094 / 1,1,1,0,7413,13485 / 1,1,1,1,315663,383699"),
          "y ~ z1 + z2 + z1:z2 + x1 + z1:x1 + z2:x1"),
    "C": (_count_table("0,0,0,0,435639,2040724 / 0,0,1,1,9647723,10452775 / 0,1,0,0,1,14 / "
                       "0,1,1,1,1,3 / 1,0,0,1,94279,712092 / 1,0,1,0,5,5 / "
                       "1,1,0,0,214190,218054"),
          "y ~ z1 + z2 + z1:z2 + x1 + x2"),
    "D": (_count_table("0,0,1,0,203,206 / 0,0,1,1,3,67 / 0,1,0,0,22457060,22555635 / "
                       "0,1,0,1,93532,150240 / 0,1,1,1,111,266 / 1,1,0,0,1,2 / "
                       "1,1,1,0,10132172,29846182 / 1,1,1,1,0,3"),
          "y ~ z1 + z2 + z1:z2 + x1 + z1:x1 + z2:x1"),
}


@pytest.fixture(scope="session")
def dataset():
    return ei.load_fixture("nguyen2008")


@pytest.fixture(scope="session")
def dist(dataset):
    return ei.covariate_distribution(dataset)


@pytest.fixture(scope="session")
def spec_full():
    return ei.parse_formula(FULL_MODEL)


@pytest.fixture(scope="session")
def spec_reduced():
    return ei.parse_formula(REDUCED_MODEL)


@pytest.fixture(scope="session")
def fit_full(dataset, spec_full):
    X, s, n = ei.expand_dataset(dataset, spec_full)
    return ei.fit(X, s, n)


@pytest.fixture(scope="session")
def fit_reduced(dataset, spec_reduced):
    X, s, n = ei.expand_dataset(dataset, spec_reduced)
    return ei.fit(X, s, n)


def random_risk_table(rng, n_strata):
    """A fully populated risk table over n_strata covariate patterns with a
    matching weight distribution."""
    n_strata = int(n_strata)
    width = max(1, (n_strata - 1).bit_length())
    patterns = [
        tuple(int(b) for b in np.binary_repr(i, width=width))
        for i in range(n_strata)
    ]
    raw = rng.uniform(0.2, 1.0, size=n_strata)
    weights = {x: float(v) for x, v in zip(patterns, raw / raw.sum())}
    # re-normalize exactly
    total = sum(weights.values())
    weights = {x: v / total for x, v in weights.items()}
    values = {
        (z, x): float(rng.uniform(0.05, 0.95))
        for z in ei.measures.EXPOSURE_LEVELS
        for x in patterns
    }
    return ei.RiskTable(values=values), ei.CovariateDistribution(weights=weights)


def many_patterns(n=100_000, k=17):
    """A dataset of n cells of one subject each, with n distinct patterns of
    k binary covariates. Added one by one, its n weights of 1/n miss 1 by
    about 2e-12."""
    rng = np.random.default_rng(0)
    x = (np.arange(n)[:, None] >> np.arange(k)) & 1
    z, s = rng.integers(0, 2, size=(n, 2)), rng.integers(0, 2, size=(n, 1))
    cells = np.hstack([x, z, s, np.ones_like(s)])
    return ei.Dataset(cells=cells, covariate_names=tuple(f"x{i + 1}" for i in range(k)))


@st.composite
def binary_tables(draw, max_total=50):
    """(cells (n, K + 4) as a list of rows, covariate names, formula) of a
    random binary table: K from 0 to 3, cells in any order, patterns that
    miss some exposure pairs, and a formula of main effects and products of
    any two variables. Totals run up to max_total."""
    k = draw(st.integers(0, 3))
    names = tuple(f"x{i + 1}" for i in range(k))
    patterns = draw(st.lists(st.tuples(*[st.integers(0, 1)] * k),
                             min_size=1, max_size=2**k, unique=True))
    rows = []
    for x in patterns:
        for z in draw(st.lists(st.sampled_from(ei.measures.EXPOSURE_LEVELS),
                               min_size=1, max_size=4, unique=True)):
            n = draw(st.integers(1, max_total))
            rows.append([*x, *z, draw(st.integers(0, n)), n])
    rows = draw(st.permutations(rows))
    variables = (*names, "z1", "z2")
    terms = [(v,) for v in variables] + [
        (a, b) for i, a in enumerate(variables) for b in variables[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(terms), max_size=8, unique=True))
    formula = "y ~ " + " + ".join(":".join(t) for t in chosen or [("z1",)])
    return rows, names, formula


def gen_wide_module():
    """The benchmark's seeded wide-strata generator, perfbench/gen_wide.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen_wide.py"
    spec = importlib.util.spec_from_file_location("gen_wide", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
