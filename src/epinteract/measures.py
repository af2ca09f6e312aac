"""The five interaction measures for two binary exposures on a binary outcome.

Conditional measures (RCOR, RCRR, DCRD) average a per-stratum contrast over
the covariate distribution; marginal measures (RMOR, RMRR, DMRD) are formed
from covariate-standardized population risks. All are functions of the
conditional risk pr(y=1 | z, x) and the covariate weights only.

Every path evaluates one kernel on the linear predictors (log-odds) eta:
the per-stratum odds-ratio ratio is exp(eta11 - eta01 - eta10 + eta00), so
no odds array is formed, and with e = exp(-eta) the risks are p = 1/(1 + e)
and 1 - p = e*p, which keeps full precision as risks approach 1. Extreme
draws are clamped in log-odds, at +-LOGIT_CLAMP. The last bits of a value
depend on numpy's SIMD dispatch of exp, as they depend on the BLAS kernel
behind the products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

# risks are kept inside [RISK_CLAMP, 1 - RISK_CLAMP], so simulation draws
# with extreme linear predictors stay finite: the linear predictor is clipped
# to +-LOGIT_CLAMP, the log-odds of 1 - RISK_CLAMP
RISK_CLAMP = 1e-12
LOGIT_CLAMP = float(np.log((1.0 - RISK_CLAMP) / RISK_CLAMP))

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


def _measures(eta, w):
    """The kernel: all five measures from a block of linear predictors
    eta = B @ T.T, shape (m, 4*S) in EXPOSURE_LEVELS x pattern order, and
    the weights w (S,). eta is overwritten.

    Returns the measures (5, m) in MEASURE_IDS order, the population risks
    (m, 4), the risks (m, 4, S) and a per-row flag marking rows where any
    linear predictor was clipped to +-LOGIT_CLAMP.
    """
    clamped = (eta.min(axis=1) < -LOGIT_CLAMP) | (eta.max(axis=1) > LOGIT_CLAMP)
    np.clip(eta, -LOGIT_CLAMP, LOGIT_CLAMP, out=eta)
    E = eta.reshape(len(eta), 4, -1)
    # grouped so that swapping z1 and z2 gives the same bits
    rcor_ = np.exp((E[:, 3] + E[:, 0]) - (E[:, 1] + E[:, 2])) @ w
    Q = np.exp(np.negative(E, out=E), out=E)  # e = exp(-eta), in place
    P = 1.0 + Q
    np.divide(1.0, P, out=P)  # risks 1 / (1 + e)
    Q *= P  # 1 - P, without cancellation
    rcrr_ = ((P[:, 3] / P[:, 1]) / (P[:, 2] / P[:, 0])) @ w
    pr, qr = P @ w, Q @ w  # population risks and their complements
    mo = pr / qr
    values = np.stack([
        rcor_,
        rcrr_,
        (mo[:, 3] / mo[:, 1]) / (mo[:, 2] / mo[:, 0]),
        (pr[:, 3] / pr[:, 1]) / (pr[:, 2] / pr[:, 0]),
        pr[:, 3] - pr[:, 1] - pr[:, 2] + pr[:, 0],
    ])
    return values, pr, P, clamped


def _point(coefficients, spec, dist, covariate_names, design=None):
    """The kernel at one parameter vector."""
    T, w = design or _pattern_design(spec, dist, covariate_names)
    return _measures(np.asarray(coefficients, dtype=float)[None, :] @ T.T, w)


def risk_table(coefficients, spec: ModelSpec, dist: CovariateDistribution,
               covariate_names=None) -> RiskTable:
    """Inverse-link of the linear predictor at every (z, x) combination."""
    _, _, P, clamped = _point(coefficients, spec, dist, covariate_names)
    values = {
        (z, x): p
        for z, row in zip(EXPOSURE_LEVELS, P[0].tolist())
        for x, p in zip(dist.patterns, row)
    }
    return RiskTable(values=values, clamped=bool(clamped[0]))


def _table_measures(table: RiskTable, dist: CovariateDistribution):
    """The five measures (5,) and population risks (4,) of a risk table,
    through the kernel on the log-odds of its risks."""
    patterns = dist.patterns
    P = np.array(
        [[table.risk(z, x) for x in patterns] for z in EXPOSURE_LEVELS]
    )
    w = np.array([dist.weights[x] for x in patterns])
    values, pr, _, _ = _measures(np.log(P / (1.0 - P)).reshape(1, -1), w)
    return values[:, 0], pr[0]


def rcor(table: RiskTable, dist: CovariateDistribution) -> float:
    """Covariate-weighted mean of the per-stratum ratio of odds ratios."""
    return float(_table_measures(table, dist)[0][0])


def rcrr(table: RiskTable, dist: CovariateDistribution) -> float:
    """Covariate-weighted mean of the per-stratum ratio of risk ratios."""
    return float(_table_measures(table, dist)[0][1])


def dcrd(table: RiskTable, dist: CovariateDistribution) -> float:
    """Covariate-weighted mean of the per-stratum difference of risk
    differences; it equals DMRD, since risk differences are collapsible."""
    return float(_table_measures(table, dist)[0][4])


def population_risk(table: RiskTable, dist: CovariateDistribution):
    """Covariate-standardized risk PR(y=1 | z) for each exposure pair."""
    pr = _table_measures(table, dist)[1]
    return dict(zip(EXPOSURE_LEVELS, pr.tolist()))


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
                covariate_names=None, design=None) -> MeasureSet:
    """Evaluate all five measures from one parameter vector. `design` is
    the (T, w) pair of `_pattern_design`, when the caller has built it."""
    values, pr, _, clamped = _point(coefficients, spec, dist, covariate_names, design)
    return MeasureSet(
        *values[:, 0].tolist(),
        population_risks=dict(zip(EXPOSURE_LEVELS, pr[0].tolist())),
        clamped=bool(clamped[0]),
    )


def batch_measures(coefficient_matrix, spec: ModelSpec, dist: CovariateDistribution,
                   covariate_names=None, design=None):
    """Vectorized measure evaluation over many parameter vectors.

    Returns (dict measure_id -> array of shape (n,), clamp count). Each row of
    `coefficient_matrix` gives the same values as `measure_set` on that row.
    Rows are evaluated in blocks of a multiple of four rows, about
    BLOCK_ELEMENTS // (4 * S), and the results do not depend on the block
    size. `design` is as for `measure_set`.
    """
    T, w = design or _pattern_design(spec, dist, covariate_names)
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
        values[:, start:start + m], _, _, clamped = _measures((block @ T.T)[:m], w)
        n_clamped += int(clamped.sum())
    return dict(zip(MEASURE_IDS, values)), n_clamped
