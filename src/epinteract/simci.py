"""Simulation-based percentile confidence intervals for the interaction
measures.

Parameter vectors are drawn from N(pi_hat, Sigma_hat) using the fitted
covariance; each draw is pushed through the measure pipeline and interval
endpoints are read off the empirical quantiles.

Randomness is counter-based: one Philox-4x64 stream keyed by the seed
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
With b = ceil(k / 4) counter blocks per draw, draw i reads the 4*b raw words
that follow counter [i*b, 0, 0, 0], keeps the first k, maps each to the
midpoint of one of 2**52 equal cells of (0, 1) and applies the inverse
normal CDF. Draw i therefore depends only on (seed, i): any range of draws
comes from one random_raw call, and serial, chunked or per-index evaluation
give bit-identical normals.

The inverse normal CDF is Wichura's PPND16 (Algorithm AS 241, Applied
Statistics 37, 1988) in numpy, within 8 ulp of scipy.special.ndtri on the
grid, so a well-posed run imports no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CovariateDistribution
from .fitting import FitResult
from .measures import MEASURE_IDS, MeasureSet, _pattern_design, batch_measures, measure_set
from .model import ModelSpec

__all__ = [
    "SimulationConfig",
    "IntervalEstimate",
    "SimulationResult",
    "cholesky",
    "draw_parameters",
    "simulate",
    "percentile_interval",
    "histogram",
    "NotPositiveSemiDefiniteError",
    "COVARIANCE_CHOICES",
]

JITTERS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
CHUNK = 4096  # draws generated per step; bounds temporaries
# CHUNK must be a multiple of four, so chunked products take the BLAS paths of one whole product
COVARIANCE_CHOICES = ("robust", "model")  # FitResult.cov_robust or FitResult.cov_model
# float64 values in the largest array numpy can index; it refuses a larger
# one with a ValueError, not a MemoryError
MAX_FLOATS = np.iinfo(np.intp).max // 8


class NotPositiveSemiDefiniteError(np.linalg.LinAlgError):
    """Covariance could not be factorized even with maximal jitter."""


@dataclass(frozen=True)
class SimulationConfig:
    n_draws: int = 1000
    seed: int = 0
    levels: tuple[float, ...] = (0.50, 0.95)
    covariance_choice: str = "robust"

    def __post_init__(self):
        if self.n_draws < 2:
            raise ValueError("n_draws must be >= 2")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must lie in [0, 2**128)")
        if not all(0.0 < lv < 1.0 for lv in self.levels):
            raise ValueError("levels must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if self.covariance_choice not in COVARIANCE_CHOICES:
            raise ValueError(f"covariance_choice must be one of {COVARIANCE_CHOICES}")

    def covariance(self, fit: FitResult) -> np.ndarray:
        """The fitted covariance that covariance_choice selects."""
        return fit.cov_robust if self.covariance_choice == "robust" else fit.cov_model


@dataclass(frozen=True, eq=False)
class IntervalEstimate:
    point: float
    draws: np.ndarray  # sorted ascending
    endpoints: dict[float, tuple[float, float]]


@dataclass(frozen=True, eq=False)
class SimulationResult:
    intervals: dict[str, IntervalEstimate]
    n_clamped_draws: int
    jitter: float
    point: MeasureSet | None = None  # all measures at the fitted coefficients

    def __getitem__(self, measure_id: str) -> IntervalEstimate:
        return self.intervals[measure_id]


def cholesky(sigma):
    """Lower-triangular factor of sigma, with escalating diagonal jitter if
    the plain factorization fails. Returns (L, jitter_used)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma must be square")
    # rounding leaves an inverse asymmetric in proportion to its largest entry
    if not np.allclose(sigma, sigma.T, atol=1e-8 * max(1.0, np.abs(sigma).max())):
        raise ValueError("sigma must be symmetric")
    if not sigma.any():
        return np.zeros_like(sigma), 0.0  # degenerate: no parameter uncertainty
    eye = np.eye(sigma.shape[0])
    for jitter in JITTERS:
        try:
            L = np.linalg.cholesky(sigma + jitter * eye)
            return L, jitter
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveSemiDefiniteError(
        "covariance is not positive semi-definite within maximal jitter 1e-6"
    )


def _open_unit(raw: np.ndarray) -> np.ndarray:
    # top 52 bits -> cell midpoint, exact in float64, so never 0.0 or 1.0
    # (a 53-bit midpoint rounds up to 1.0 for the largest word)
    return np.multiply(u := np.add(raw >> 12, 0.5), 2.0**-52, out=u)


def _rational(coef: np.ndarray, r: np.ndarray) -> np.ndarray:
    """P(r) / Q(r), rows P and Q of coef highest power first, in two in-place Horner passes."""
    num, den = coef[:, :1] * r
    for acc, row in ((num, coef[0]), (den, coef[1])):
        for c in row[1:-1]:
            acc += c
            acc *= r
        acc += row[-1]
    num /= den
    return num


def _coefficients(num, den):
    return np.array([num[::-1], den[::-1]])


# AS 241 coefficients, lowest power first: the central region |p - 1/2| <=
# 0.425 in r = 0.180625 - (p - 1/2)**2, then the tails in r = sqrt(-log(min(p,
# 1 - p))), shifted by 1.6 up to r = 5 (p ~ exp(-25)) and by 5 beyond
_CENTRAL = _coefficients(
    [3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3],
    [1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3])
_NEAR_TAIL = _coefficients(
    [1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4],
    [1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9])
_FAR_TAIL = _coefficients(
    [6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7],
    [1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15])


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of p strictly inside (0, 1), by AS 241: the
    central formula on every value, the near tail on the gathered tail (about
    15%), the far tail where r > 5; x(1 - p) == -x(p) wherever 1 - p is exact."""
    shape = p.shape
    p = p.ravel()
    q = p - 0.5
    x = q * _rational(_CENTRAL, 0.180625 - q * q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    pt = p[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    xt = _rational(_NEAR_TAIL, r - 1.6)
    far = np.flatnonzero(r > 5.0)
    xt[far] = _rational(_FAR_TAIL, r[far] - 5.0)
    x[tail] = np.copysign(xt, q[tail])
    return x.reshape(shape)


def _normal_block(seed: int, start: int, count: int, k: int) -> np.ndarray:
    """Standard normals for draws start .. start+count-1, shape (count, k)."""
    b = -(-k // 4)  # Philox blocks of four words per draw
    bits = np.random.Philox(key=seed, counter=[start * b, 0, 0, 0])
    raw = bits.random_raw(count * 4 * b).reshape(count, 4 * b)[:, :k]
    return _ndtri(_open_unit(raw))


def draw_parameters(fit: FitResult, config: SimulationConfig, draw_index: int) -> np.ndarray:
    """One deterministic draw from N(coefficients, selected covariance)."""
    if not 0 <= draw_index < config.n_draws:
        raise ValueError(f"draw_index {draw_index} outside [0, {config.n_draws})")
    L, _ = cholesky(config.covariance(fit))
    # four rows, as in simulate: a one-row product goes to gemv, not gemm
    U = _normal_block(config.seed, draw_index, 4, len(fit.coefficients))
    return fit.coefficients + (U @ L.T)[0]


def percentile_interval(draws, level: float):
    """Equal-tailed empirical interval with linear order-statistic
    interpolation."""
    draws = np.asarray(draws, dtype=float)
    if draws.size < 2:
        raise ValueError("need at least two draws for a percentile interval")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return _endpoints(draws, (level,))[level]


def _endpoints(draws: np.ndarray, levels) -> dict[float, tuple[float, float]]:
    """percentile_interval at every level, from one np.quantile call."""
    ends = np.quantile(draws, [(1.0 + side * level) / 2.0
                               for level in levels for side in (-1, 1)]).tolist()
    return {level: (ends[2 * j], ends[2 * j + 1]) for j, level in enumerate(levels)}


def histogram(draws, n_bins: int):
    """Equal-width bins over [min, max]; rightmost bin is closed. Returns a
    list of (left, right, count)."""
    draws = np.asarray(draws, dtype=float)
    if not 1 <= n_bins < MAX_FLOATS:
        raise ValueError(f"n_bins must lie in [1, {MAX_FLOATS})")
    lo, hi = float(draws.min()), float(draws.max())
    if hi <= lo:
        hi = lo + 1e-12  # degenerate range rule
    # numpy needs n_bins distinct edges: span at least 2 * n_bins ulps of the
    # larger end, so the bins stay distinct even if hi crosses a binade
    hi = max(hi, lo + 2 * n_bins * float(np.spacing(max(abs(lo), abs(hi)))))
    if not (draws[:-1] <= draws[1:]).all():  # simulate leaves its draws sorted
        draws = np.sort(draws)
    # np.histogram's own edges; a value on an interior edge counts to the
    # right, and the last bin is closed
    edges = np.histogram_bin_edges(draws, bins=n_bins, range=(lo, hi))
    cuts = np.searchsorted(draws, edges, side="left")
    cuts[-1] = len(draws)
    counts = np.diff(cuts)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))


def simulate(fit: FitResult, spec: ModelSpec, dist: CovariateDistribution,
             config: SimulationConfig) -> SimulationResult:
    """Approximate sampling distribution of every measure, from one shared
    stream of parameter draws, generated and evaluated one CHUNK at a time."""
    if not fit.converged:
        raise ValueError("cannot simulate from a non-converged fit")
    L, jitter = cholesky(config.covariance(fit))
    if len(MEASURE_IDS) * config.n_draws > MAX_FLOATS:
        raise MemoryError(f"{config.n_draws} draws of {len(MEASURE_IDS)} measures exceed "
                          "the largest array numpy can index")
    values = np.empty((len(MEASURE_IDS), config.n_draws))
    n_clamped = 0
    design = _pattern_design(spec, dist)
    for start in range(0, config.n_draws, CHUNK):
        count = min(CHUNK, config.n_draws - start)
        # a short last chunk is padded with the next draws to a multiple of four
        # rows, so that a single row does not go to gemv instead of gemm
        U = _normal_block(config.seed, start, count + -count % 4, len(fit.coefficients))
        chunk, clamped = batch_measures((fit.coefficients + U @ L.T)[:count], spec, dist, design)
        values[:, start:start + count] = list(chunk.values())
        n_clamped += clamped
    values.sort(axis=1)
    point = measure_set(fit.coefficients, spec, dist, design)
    point_values = point.as_dict()

    intervals = {
        mid: IntervalEstimate(point_values[mid], draws, _endpoints(draws, config.levels))
        for mid, draws in zip(MEASURE_IDS, values)
    }
    return SimulationResult(
        intervals=intervals, n_clamped_draws=n_clamped, jitter=jitter, point=point
    )
