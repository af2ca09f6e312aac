"""The five interaction measures for two binary exposures on a binary outcome.

Conditional measures (RCOR, RCRR, DCRD) average a per-stratum contrast over
the covariate distribution; marginal measures (RMOR, RMRR, DMRD) are formed
from covariate-standardized population risks. All are functions of the
conditional risk pr(y=1 | z, x) and the covariate weights only.

Formulas hold no term beyond a pairwise product, so the linear predictor
(log-odds) is eta(z, x) = eta00(x) + z1*d1(x) + z2*d2(x) + z1*z2*beta12:
three products of one design at z = (1, 1), and RCOR = exp(beta12)*sum(w).
One kernel takes -eta; with e = exp(-eta) the risks are p = 1/(1 + e) and
1 - p = e*p, which keeps full precision as risks approach 1. It runs on
blocks of rows, PATTERN_TILE patterns at a time so that each pass reads
from cache, and sums over patterns add up tile by tile in pattern order.
Point estimates and draws share the same padded blocks, so no value
depends on the row blocking. A row with a predictor beyond +-LOGIT_CLAMP is
clipped there and its RCOR, like a risk table's, is the weighted
per-stratum contrast. The last bits of a value depend on numpy's SIMD exp,
the BLAS kernel and, past one tile, the tiling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import EXPOSURE_LEVELS, CovariateDistribution
from .model import ModelSpec, pattern_design

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

# risks are kept inside [RISK_CLAMP, 1 - RISK_CLAMP], so simulation draws
# with extreme linear predictors stay finite: the linear predictor is clipped
# to +-LOGIT_CLAMP, the log-odds of 1 - RISK_CLAMP
RISK_CLAMP = 1e-12
LOGIT_CLAMP = float(np.log((1.0 - RISK_CLAMP) / RISK_CLAMP))

# batch_measures evaluates draws in blocks of about this many risks (1 MB of
# float64), so its memory does not grow with the number of draws
BLOCK_ELEMENTS = 2**17
# the kernel takes the patterns this many at a time, so that a block's
# predictors, risks and RCRR quotients stay in a core's L2 cache
PATTERN_TILE = 128


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
        return {mid: getattr(self, mid.lower()) for mid in MEASURE_IDS}


def _pattern_design(spec: ModelSpec, dist: CovariateDistribution):
    """The design at z = (1, 1): the columns on at (0, 0) (no exposure) and
    those on at (1, 0), or at (0, 1), but not at (0, 0) (z1 only, z2 only);
    the tiles, each a slice of at most PATTERN_TILE patterns, the groups'
    designs D (len(columns), tile width) and weights; the z1:z2 column, on at
    (1, 1) alone (None without it); each column's largest |entry| per tile
    (k, tiles) and the weights (S,). At z = (1, 1) every term is largest, so
    |eta| <= sum_j |beta_j| * colmax_j in a tile."""
    w = dist.weight_array
    T, on = pattern_design(spec, dist.pattern_array, dist.covariate_names)
    groups = [np.flatnonzero(g) for g in (on[0], on[2] > on[0], on[1] > on[0])]
    [j12] = np.flatnonzero(on[3] > (on[1] | on[2])).tolist() or [None]
    cuts = [slice(i, i + PATTERN_TILE) for i in range(0, len(w), PATTERN_TILE)]
    tiles = [(s, [T[s, g].T for g in groups], w[s]) for s in cuts]
    colmax = np.stack([np.abs(T[s]).max(axis=0) for s in cuts], axis=1)
    return groups, tiles, j12, colmax, w


def _predictors(parts, beta12, D, V):
    """-eta at one tile's patterns, with D from `_pattern_design`, of the
    rows whose negated column groups are `parts` and z1:z2 coefficients
    beta12 (m,), into V[:4] in EXPOSURE_LEVELS x row x pattern order."""
    Q, d1, d2 = V[:4], V[4], V[5]
    np.matmul(parts[0], D[0], out=Q[0])
    np.matmul(parts[1], D[1], out=d1)
    np.matmul(parts[2], D[2], out=d2)
    Q[1:] = Q[0]
    Q[1] += d2
    Q[2] += d1
    d1 += d2  # grouped so that swapping z1 and z2 gives the same bits
    d1 -= beta12[:, None]
    Q[3] += d1


def _contrast(Q, w):
    """Weighted sum of the per-stratum odds-ratio ratios
    exp(eta11 - eta01 - eta10 + eta00), from Q = -eta (4, m, S)."""
    # grouped so that swapping z1 and z2 gives the same bits
    return np.exp((Q[1] + Q[2]) - (Q[3] + Q[0])) @ w


def _marginal(pr, qr):
    """RMOR, RMRR and DMRD from the population risks pr and their
    complements qr, each of shape (4, ...) in EXPOSURE_LEVELS order."""
    mo = pr / qr
    return (
        (mo[3] / mo[1]) / (mo[2] / mo[0]),
        (pr[3] / pr[1]) / (pr[2] / pr[0]),
        pr[3] - pr[1] - pr[2] + pr[0],
    )


def _kernel(V, w, scan, contrast, clamped):
    """The kernel on one tile of weights w (St,), from -eta in V[:4] of V
    (10, m, St), which then holds 1 - P, the risks P and RCRR quotients. With
    `scan`, a row beyond +-LOGIT_CLAMP is clipped and flagged in `clamped`
    (m,); without, the caller has ruled such rows out. Returns the weighted
    sums (10, m) of 1 - P, P, RCRR and, with `contrast`, the contrast, or 0."""
    Q, P, R = V[:4], V[4:8], V[8:]
    if scan and (Q.min() < -LOGIT_CLAMP or Q.max() > LOGIT_CLAMP):  # one scan per tile
        clamped |= (Q.min(axis=(0, 2)) < -LOGIT_CLAMP) | (Q.max(axis=(0, 2)) > LOGIT_CLAMP)
        np.clip(Q, -LOGIT_CLAMP, LOGIT_CLAMP, out=Q)
    sums = np.empty((10, Q.shape[1]))
    sums[9] = _contrast(Q, w) if contrast else 0.0
    np.exp(Q, out=Q)  # e = exp(-eta), in place
    np.add(1.0, Q, out=P)
    np.divide(1.0, P, out=P)  # risks 1 / (1 + e)
    Q *= P  # 1 - P, without cancellation
    np.divide(P[3], P[1], out=R[0])
    np.divide(P[2], P[0], out=R[1])
    np.divide(R[0], R[1], out=R[0])
    np.matmul(V[:9], w, out=sums[:9])  # sums of 1 - P, of P and of RCRR
    return sums


def _measures(block, design, scan, buffer, risks=None):
    """The five measures (5, m) in MEASURE_IDS order, population risks and
    complements (4, m) and clamp flags (m,) of the rows `block` (m, k), m a
    multiple of four, tile by tile in `buffer` (10 * m * first tile's width
    floats), adding the tiles' sums in pattern order. `scan` (tiles,) marks
    the tiles that may pass the clamp; if any does, each row's RCOR, if it
    is clipped, is its contrast. `risks` (4, m, S) receives the risks."""
    groups, tiles, j12, _, w = design
    m = len(block)
    # rounding is symmetric, so products with -beta give -eta exactly
    parts = [-block[:, g] for g in groups]
    beta12 = np.zeros(m) if j12 is None else block[:, j12]
    sums, clamped, contrast = None, np.zeros(m, dtype=bool), scan.any()
    for (cut, D, wt), scan_tile in zip(tiles, scan):
        V = buffer[:10 * m * len(wt)].reshape(10, m, len(wt))
        _predictors(parts, beta12, D, V)
        tile = _kernel(V, wt, scan_tile, contrast, clamped)
        sums = tile if sums is None else np.add(sums, tile, out=sums)
        if risks is not None:
            risks[:, :, cut] = V[4:8]
    with np.errstate(over="ignore"):  # beta12 > 709 only in a clamped row
        rcor_ = np.where(clamped, sums[9], np.exp(beta12) * w.sum())
    values = np.stack([rcor_, sums[8], *_marginal(sums[4:8], sums[:4])])
    return values, sums[4:8], sums[:4], clamped


# a tile's rows may reach the clamp only when their bound sum_j |beta_j| *
# colmax_j does; the margin is far wider than the rounding of -eta, which is
# within a few k * eps of that bound
CLAMP_BOUND = LOGIT_CLAMP * (1.0 - 1e-9)


def _blocks(B, design, risks=None):
    """Run the kernel over the rows of B (n, k) in blocks of a multiple of
    four rows: about BLOCK_ELEMENTS // (4 * S) rows if the S patterns fit one
    tile, at most PATTERN_TILE if not. Yields, per block, its first row and
    the outputs of `_measures` for its rows of B. A tile whose coefficient
    bound is clear of LOGIT_CLAMP skips the clamp scan; a NaN bound scans."""
    _, tiles, _, colmax, _ = design
    width = len(tiles[0][-1])
    step = 4 * max(1, BLOCK_ELEMENTS // (16 * width))
    if len(tiles) > 1:  # slabs of PATTERN_TILE rows x tile width stay in L2
        step = min(step, PATTERN_TILE)
    # a tile's predictors, risks and RCRR quotients, reused by every block
    buffer = np.empty(10 * min(step, len(B) + -len(B) % 4) * width)
    for start in range(0, len(B), step):
        block = B[start:start + step]
        m = len(block)
        # A short block, a single row included, is padded with zero rows to
        # a multiple of four, so that every row takes the same BLAS paths
        # however the rows are blocked: numpy hands a one-row product to
        # gemv, not gemm, and OpenBLAS's gemv sums the rows after the last
        # group of four in another order.
        if m % 4:
            block = np.vstack([block, np.zeros((4 - m % 4, B.shape[1]))])
        scan = ~((np.abs(block) @ colmax).max(axis=0) < CLAMP_BOUND)
        values, pr, qr, clamped = _measures(block, design, scan, buffer, risks)
        yield start, values[:, :m], pr[:, :m], qr[:, :m], clamped[:m]


def risk_table(coefficients, spec: ModelSpec, dist: CovariateDistribution) -> RiskTable:
    """Inverse-link of the linear predictor at every (z, x) combination."""
    B = np.asarray(coefficients, dtype=float)[None, :]
    P = np.empty((4, 4, len(dist.patterns)))  # the row, padded to four rows
    [(_, _, _, _, clamped)] = _blocks(B, _pattern_design(spec, dist), P)
    values = {
        (z, x): p
        for z, row in zip(EXPOSURE_LEVELS, P[:, 0].tolist())
        for x, p in zip(dist.patterns, row)
    }
    return RiskTable(values=values, clamped=bool(clamped[0]))


def _table_measures(table: RiskTable, dist: CovariateDistribution):
    """The five measures (5,), population risks (4,) and their complements
    (4,) of a risk table of risks in [0, 1], through the kernel on their
    log-odds; a table the kernel clamps gets a warning."""
    patterns = dist.patterns
    P = np.array([[table.risk(z, x) for x in patterns] for z in EXPOSURE_LEVELS])
    if not ((P >= 0.0) & (P <= 1.0)).all():
        raise ValueError("risk table holds a risk that is not a number in [0, 1]")
    w = dist.weight_array
    V, clamped = np.empty((10, 1, len(w))), np.zeros(1, dtype=bool)
    with np.errstate(divide="ignore"):
        V[:4, 0] = np.log((1.0 - P) / P)  # -eta; risks of 0 and 1 give -+inf
    sums = _kernel(V, w, True, True, clamped)
    if clamped[0]:
        warnings.warn(f"risk table clamped: log-odds clipped to +-{LOGIT_CLAMP:.4g}",
                      RuntimeWarning, stacklevel=3)
    values = np.stack([sums[9], sums[8], *_marginal(sums[4:8], sums[:4])])
    return values[:, 0], sums[4:8, 0], sums[:4, 0]


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
    bits as `batch_measures` on a matrix holding it as a row. `design` is
    the result of `_pattern_design`, when the caller has built it."""
    B = np.asarray(coefficients, dtype=float)[None, :]
    [(_, values, pr, qr, clamped)] = _blocks(B, design or _pattern_design(spec, dist))
    return MeasureSet(
        *values[:, 0].tolist(),
        population_risks=PopulationRisks(pr[:, 0].tolist(), qr[:, 0].tolist()),
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
    for start, block, _, _, clamped in _blocks(B, design or _pattern_design(spec, dist)):
        values[:, start:start + len(clamped)] = block
        n_clamped += int(clamped.sum())
    return dict(zip(MEASURE_IDS, values)), n_clamped
