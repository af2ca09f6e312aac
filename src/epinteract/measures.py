"""The five interaction measures for two binary exposures on a binary outcome.

Conditional measures (RCOR, RCRR, DCRD) average a per-stratum contrast over
the covariate distribution; marginal measures (RMOR, RMRR, DMRD) are formed
from covariate-standardized population risks. All are functions of the
conditional risk pr(y=1 | z, x) and the covariate weights only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import CovariateDistribution
from .model import ModelSpec, design_matrix

__all__ = [
    "RiskTable",
    "MeasureSet",
    "MEASURE_IDS",
    "EXPOSURE_LEVELS",
    "risk_table",
    "rcor",
    "rcrr",
    "dcrd",
    "population_risk",
    "rmor",
    "rmrr",
    "dmrd",
    "measure_set",
    "batch_measures",
]

MEASURE_IDS = ("RCOR", "RCRR", "RMOR", "RMRR", "DMRD")
EXPOSURE_LEVELS = ((0, 0), (0, 1), (1, 0), (1, 1))

# risks are pulled away from {0, 1} before odds are formed, so simulation
# draws with extreme linear predictors stay finite
RISK_CLAMP = 1e-12

# batch_measures evaluates draws in blocks of about this many risks (1 MB of
# float64), so its memory does not grow with the number of draws
BLOCK_ELEMENTS = 2**17


@dataclass(frozen=True, eq=False)
class RiskTable:
    """Conditional risks pr(y=1 | z, x) for every exposure pair and
    covariate pattern."""

    values: dict[tuple[tuple[int, int], tuple[int, ...]], float]
    clamped: bool = False

    def risk(self, z, x) -> float:
        return self.values[(tuple(z), tuple(x))]

    def swap_exposures(self) -> "RiskTable":
        """Relabel (z1, z2) -> (z2, z1); the five measures are symmetric
        under this."""
        return RiskTable(
            values={((z[1], z[0]), x): p for (z, x), p in self.values.items()},
            clamped=self.clamped,
        )


@dataclass(frozen=True, eq=False)
class MeasureSet:
    rcor: float
    rcrr: float
    rmor: float
    rmrr: float
    dmrd: float
    population_risks: dict[tuple[int, int], float]
    clamped: bool = False

    @property
    def dcrd(self) -> float:
        # risk differences are collapsible, so the conditional and marginal
        # difference measures coincide
        return self.dmrd

    def as_dict(self) -> dict[str, float]:
        return {
            "RCOR": self.rcor,
            "RCRR": self.rcrr,
            "RMOR": self.rmor,
            "RMRR": self.rmrr,
            "DMRD": self.dmrd,
        }


def _pattern_design(spec: ModelSpec, dist: CovariateDistribution, covariate_names):
    """Design rows at every (z, x), (4*S, k) in EXPOSURE_LEVELS x pattern
    order, plus the pattern weights (S,)."""
    patterns = dist.patterns
    T = design_matrix(np.repeat(EXPOSURE_LEVELS, len(patterns), axis=0),
                      np.tile(patterns, (4, 1)), spec, covariate_names)
    w = np.array([dist.weights[x] for x in patterns])
    return T, w


def _risks(P):
    """Clamped risks from the linear predictors P = B @ T.T, (n, 4*S), with
    shape (n, 4, S), plus a per-row flag marking rows where any risk was
    pulled away from {0, 1}. P is overwritten."""
    expit(P, out=P)
    clamped = (P.min(axis=1) < RISK_CLAMP) | (P.max(axis=1) > 1.0 - RISK_CLAMP)
    np.clip(P, RISK_CLAMP, 1.0 - RISK_CLAMP, out=P)
    return P.reshape(len(P), 4, P.shape[1] // 4), clamped


def _point_risks(coefficients, spec, dist, covariate_names):
    """Risks (4, S), weights and clamp flag at one parameter vector."""
    T, w = _pattern_design(spec, dist, covariate_names)
    P, clamped = _risks(np.asarray(coefficients, dtype=float)[None, :] @ T.T)
    return P[0], w, bool(clamped[0])


def risk_table(coefficients, spec: ModelSpec, dist: CovariateDistribution,
               covariate_names=None) -> RiskTable:
    """Inverse-link of the linear predictor at every (z, x) combination."""
    P, _, clamped = _point_risks(coefficients, spec, dist, covariate_names)
    values = {
        (z, x): p
        for z, row in zip(EXPOSURE_LEVELS, P.tolist())
        for x, p in zip(dist.patterns, row)
    }
    return RiskTable(values=values, clamped=clamped)


def _stack(table: RiskTable, dist: CovariateDistribution):
    """Risks as a (4, S) array in EXPOSURE_LEVELS x pattern order, plus weights."""
    patterns = dist.patterns
    P = np.array(
        [[table.risk(z, x) for x in patterns] for z in EXPOSURE_LEVELS]
    )
    w = np.array([dist.weights[x] for x in patterns])
    return P, w


def _measures_from_risks(P, w):
    """All five measures from risks P with shape (..., 4, S) and weights (S,).

    Axis -2 indexes the exposure pairs in EXPOSURE_LEVELS order:
    (0,0), (0,1), (1,0), (1,1).
    """
    p00, p01, p10, p11 = P[..., 0, :], P[..., 1, :], P[..., 2, :], P[..., 3, :]
    odds = 1.0 - P
    np.divide(P, odds, out=odds)  # P / (1 - P) with one (..., 4, S) temporary
    o00, o01, o10, o11 = odds[..., 0, :], odds[..., 1, :], odds[..., 2, :], odds[..., 3, :]

    rcor_ = ((o11 / o01) / (o10 / o00)) @ w
    rcrr_ = ((p11 / p01) / (p10 / p00)) @ w

    pr = P @ w  # (..., 4) population-adjusted risks
    pr_odds = pr / (1.0 - pr)
    rmor_ = (pr_odds[..., 3] / pr_odds[..., 1]) / (pr_odds[..., 2] / pr_odds[..., 0])
    rmrr_ = (pr[..., 3] / pr[..., 1]) / (pr[..., 2] / pr[..., 0])
    dmrd_ = pr[..., 3] - pr[..., 1] - pr[..., 2] + pr[..., 0]
    return rcor_, rcrr_, rmor_, rmrr_, dmrd_, pr


def rcor(table: RiskTable, dist: CovariateDistribution) -> float:
    """Covariate-weighted mean of the per-stratum ratio of odds ratios."""
    P, w = _stack(table, dist)
    return float(_measures_from_risks(P, w)[0])


def rcrr(table: RiskTable, dist: CovariateDistribution) -> float:
    """Covariate-weighted mean of the per-stratum ratio of risk ratios."""
    P, w = _stack(table, dist)
    return float(_measures_from_risks(P, w)[1])


def dcrd(table: RiskTable, dist: CovariateDistribution) -> float:
    """Covariate-weighted mean of the per-stratum difference of risk
    differences."""
    P, w = _stack(table, dist)
    contrast = P[3] - P[1] - P[2] + P[0]
    return float(contrast @ w)


def population_risk(table: RiskTable, dist: CovariateDistribution):
    """Covariate-standardized risk PR(y=1 | z) for each exposure pair."""
    P, w = _stack(table, dist)
    pr = P @ w
    return {z: float(pr[i]) for i, z in enumerate(EXPOSURE_LEVELS)}


def _pr_vector(pr) -> np.ndarray:
    return np.array([pr[z] for z in EXPOSURE_LEVELS])


def rmor(pr) -> float:
    """Ratio of marginal odds ratios from the four population risks."""
    v = _pr_vector(pr)
    o = v / (1.0 - v)
    return float((o[3] / o[1]) / (o[2] / o[0]))


def rmrr(pr) -> float:
    """Ratio of marginal risk ratios from the four population risks."""
    v = _pr_vector(pr)
    return float((v[3] / v[1]) / (v[2] / v[0]))


def dmrd(pr) -> float:
    """Difference of marginal risk differences from the four population
    risks."""
    v = _pr_vector(pr)
    return float(v[3] - v[1] - v[2] + v[0])


def measure_set(coefficients, spec: ModelSpec, dist: CovariateDistribution,
                covariate_names=None) -> MeasureSet:
    """Evaluate all five measures from one parameter vector."""
    P, w, clamped = _point_risks(coefficients, spec, dist, covariate_names)
    rcor_, rcrr_, rmor_, rmrr_, dmrd_, pr = _measures_from_risks(P, w)
    return MeasureSet(
        rcor=float(rcor_),
        rcrr=float(rcrr_),
        rmor=float(rmor_),
        rmrr=float(rmrr_),
        dmrd=float(dmrd_),
        population_risks={z: float(pr[i]) for i, z in enumerate(EXPOSURE_LEVELS)},
        clamped=clamped,
    )


def batch_measures(coefficient_matrix, spec: ModelSpec, dist: CovariateDistribution,
                   covariate_names=None):
    """Vectorized measure evaluation over many parameter vectors.

    Returns (dict measure_id -> array of shape (n,), clamp count). Each row of
    `coefficient_matrix` gives the same values as `measure_set` on that row.
    Rows are evaluated in blocks of a multiple of four rows, about
    BLOCK_ELEMENTS // (4 * S), and the results do not depend on the block
    size.
    """
    T, w = _pattern_design(spec, dist, covariate_names)
    B = np.asarray(coefficient_matrix, dtype=float)
    values = np.empty((len(MEASURE_IDS), len(B)))
    n_clamped = 0
    step = 4 * max(1, BLOCK_ELEMENTS // (4 * len(T)))
    for start in range(0, len(B), step):
        block = B[start:start + step]
        m = len(block)
        # Only a last, short block is padded with zero rows to a multiple of
        # four for the product, so that every row takes the same BLAS path
        # however the rows are blocked: numpy hands a one-row product to gemv
        # instead of gemm, and OpenBLAS's gemv sums a row outside a group of
        # four in another order.
        if m % 4:
            block = np.vstack([block, np.zeros((4 - m % 4, B.shape[1]))])
        P, clamped = _risks((block @ T.T)[:m])
        for out, v in zip(values, _measures_from_risks(P, w)):
            out[start:start + m] = v
        n_clamped += int(clamped.sum())
    return dict(zip(MEASURE_IDS, values)), n_clamped
