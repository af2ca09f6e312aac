"""The five interaction measures for two binary exposures on a binary outcome.

Conditional measures (RCOR, RCRR, DCRD) average a per-stratum contrast over
the covariate distribution; marginal measures (RMOR, RMRR, DMRD) are formed
from covariate-standardized population risks. All are functions of the
conditional risk pr(y=1 | z, x) and the covariate weights only.

Every path evaluates one kernel on the linear predictors (log-odds) eta:
the per-stratum odds-ratio ratio is exp(eta11 - eta01 - eta10 + eta00), so
no odds array is formed, and with e = exp(-eta) the risks are p = 1/(1 + e)
and 1 - p = e*p, which keeps full precision as risks approach 1. A point
estimate and a block of simulation draws reach the kernel through the same
padded blocks, so a value does not depend on how rows are blocked. Extreme
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
    "PopulationRisks",
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


class PopulationRisks(dict):
    """PR(y=1 | z) for each exposure pair z; `complements` holds the four
    1 - PR(y=1 | z) in EXPOSURE_LEVELS order, formed without cancellation."""

    def __init__(self, risks, complements):
        super().__init__(zip(EXPOSURE_LEVELS, risks))
        self.complements = tuple(complements)


@dataclass(frozen=True, eq=False)
class MeasureSet:
    rcor: float
    rcrr: float
    rmor: float
    rmrr: float
    dmrd: float
    population_risks: PopulationRisks
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


def _pattern_design(spec: ModelSpec, dist: CovariateDistribution):
    """Design rows at every (z, x), (4*S, k) in EXPOSURE_LEVELS x pattern
    order, plus the pattern weights (S,)."""
    patterns = dist.patterns
    T = design_matrix(np.repeat(EXPOSURE_LEVELS, len(patterns), axis=0),
                      np.tile(patterns, (4, 1)), spec, dist.covariate_names)
    w = np.array([dist.weights[x] for x in patterns])
    return T, w


def _marginal(pr, qr):
    """RMOR, RMRR and DMRD from the population risks pr and their
    complements qr, each of shape (..., 4) in EXPOSURE_LEVELS order."""
    mo = pr / qr
    return (
        (mo[..., 3] / mo[..., 1]) / (mo[..., 2] / mo[..., 0]),
        (pr[..., 3] / pr[..., 1]) / (pr[..., 2] / pr[..., 0]),
        pr[..., 3] - pr[..., 1] - pr[..., 2] + pr[..., 0],
    )


def _measures(eta, w):
    """The kernel: all five measures from a block of linear predictors
    eta = B @ T.T, shape (m, 4*S) in EXPOSURE_LEVELS x pattern order, and
    the weights w (S,). eta is overwritten.

    Returns the measures (5, m) in MEASURE_IDS order, the population risks
    and their complements (m, 4) each, the risks (m, 4, S) and a per-row flag
    marking rows where any linear predictor was clipped to +-LOGIT_CLAMP.
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
    values = np.stack([rcor_, rcrr_, *_marginal(pr, qr)])
    return values, pr, qr, P, clamped


def _blocks(B, design):
    """Run the kernel over the rows of B (n, k), with `design` the (T, w)
    pair of `_pattern_design`, in blocks of a multiple of four rows (about
    BLOCK_ELEMENTS // (4 * S) rows). Yields, per block, its first row
    `start` and the kernel's outputs (values, pr, qr, P, clamped) for the
    block's rows of B."""
    T, w = design
    step = 4 * max(1, BLOCK_ELEMENTS // (4 * len(T)))
    for start in range(0, len(B), step):
        block = B[start:start + step]
        m = len(block)
        # A short block, a single row included, is padded with zero rows to
        # a multiple of four before the product and the kernel, so that every
        # row takes the same BLAS paths however the rows are blocked: numpy
        # hands a one-row product to gemv instead of gemm, and the kernel's
        # weighted sums go through OpenBLAS's gemv, which sums the rows after
        # the last group of four in another order.
        if m % 4:
            block = np.vstack([block, np.zeros((4 - m % 4, B.shape[1]))])
        values, pr, qr, P, clamped = _measures(block @ T.T, w)
        yield start, values[:, :m], pr[:m], qr[:m], P[:m], clamped[:m]


def risk_table(coefficients, spec: ModelSpec, dist: CovariateDistribution) -> RiskTable:
    """Inverse-link of the linear predictor at every (z, x) combination."""
    B = np.asarray(coefficients, dtype=float)[None, :]
    [(_, _, _, _, P, clamped)] = _blocks(B, _pattern_design(spec, dist))
    values = {
        (z, x): p
        for z, row in zip(EXPOSURE_LEVELS, P[0].tolist())
        for x, p in zip(dist.patterns, row)
    }
    return RiskTable(values=values, clamped=bool(clamped[0]))


def _table_measures(table: RiskTable, dist: CovariateDistribution):
    """The five measures (5,), population risks (4,) and their complements
    (4,) of a risk table, through the kernel on the log-odds of its risks."""
    patterns = dist.patterns
    P = np.array(
        [[table.risk(z, x) for x in patterns] for z in EXPOSURE_LEVELS]
    )
    w = np.array([dist.weights[x] for x in patterns])
    values, pr, qr, _, _ = _measures(np.log(P / (1.0 - P)).reshape(1, -1), w)
    return values[:, 0], pr[0], qr[0]


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


def population_risk(table: RiskTable, dist: CovariateDistribution) -> PopulationRisks:
    """Covariate-standardized risk PR(y=1 | z) for each exposure pair."""
    _, pr, qr = _table_measures(table, dist)
    return PopulationRisks(pr.tolist(), qr.tolist())


def _marginal_of(pr):
    """`_marginal` of a dict of the four population risks, with the
    complements of a PopulationRisks, or else 1 - PR."""
    v = np.array([pr[z] for z in EXPOSURE_LEVELS])
    return _marginal(v, np.array(getattr(pr, "complements", 1.0 - v)))


def rmor(pr) -> float:
    """Ratio of marginal odds ratios from the four population risks."""
    return float(_marginal_of(pr)[0])


def rmrr(pr) -> float:
    """Ratio of marginal risk ratios from the four population risks."""
    return float(_marginal_of(pr)[1])


def dmrd(pr) -> float:
    """Difference of marginal risk differences from the four population
    risks."""
    return float(_marginal_of(pr)[2])


def measure_set(coefficients, spec: ModelSpec, dist: CovariateDistribution,
                design=None) -> MeasureSet:
    """Evaluate all five measures from one parameter vector, with the same
    bits as `batch_measures` on a matrix holding it as a row. `design` is the
    (T, w) pair of `_pattern_design`, when the caller has built it."""
    B = np.asarray(coefficients, dtype=float)[None, :]
    [(_, values, pr, qr, _, clamped)] = _blocks(B, design or _pattern_design(spec, dist))
    return MeasureSet(
        *values[:, 0].tolist(),
        population_risks=PopulationRisks(pr[0].tolist(), qr[0].tolist()),
        clamped=bool(clamped[0]),
    )


def batch_measures(coefficient_matrix, spec: ModelSpec, dist: CovariateDistribution,
                   design=None):
    """Vectorized measure evaluation over many parameter vectors.

    Returns (dict measure_id -> array of shape (n,), clamp count). Each row of
    `coefficient_matrix` gives the same values as `measure_set` on that row,
    and no value depends on the block size. `design` is as for
    `measure_set`.
    """
    B = np.asarray(coefficient_matrix, dtype=float)
    values = np.empty((len(MEASURE_IDS), len(B)))
    n_clamped = 0
    for start, block, _, _, _, clamped in _blocks(B, design or _pattern_design(spec, dist)):
        values[:, start:start + len(clamped)] = block
        n_clamped += int(clamped.sum())
    return dict(zip(MEASURE_IDS, values)), n_clamped
