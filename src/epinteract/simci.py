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
normal CDF (scipy.special.ndtri). Draw i therefore depends only on
(seed, i): any range of draws comes from one random_raw call, and serial,
chunked or per-index evaluation give bit-identical normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

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
]

JITTERS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
CHUNK = 4096  # draws generated, or CSV rows joined, per step; bounds temporaries


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
        if self.covariance_choice not in ("robust", "model_based"):
            raise ValueError(
                "covariance_choice must be 'robust' or 'model_based'"
            )

    def covariance(self, fit: FitResult) -> np.ndarray:
        """The fitted covariance that covariance_choice selects."""
        return fit.cov_robust if self.covariance_choice == "robust" else fit.cov_model


@dataclass(frozen=True, eq=False)
class IntervalEstimate:
    measure_id: str
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
    if not np.allclose(sigma, sigma.T, atol=1e-8):
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
    return ((raw >> 12) + 0.5) * 2.0**-52


def _normal_block(seed: int, start: int, count: int, k: int) -> np.ndarray:
    """Standard normals for draws start .. start+count-1, shape (count, k)."""
    b = -(-k // 4)  # Philox blocks of four words per draw
    bits = np.random.Philox(key=seed, counter=[start * b, 0, 0, 0])
    raw = bits.random_raw(count * 4 * b).reshape(count, 4 * b)[:, :k]
    return ndtri(_open_unit(raw))


def _standard_normals(seed: int, draw_index: int, k: int) -> np.ndarray:
    return _normal_block(seed, draw_index, 1, k)[0]


def draw_parameters(fit: FitResult, config: SimulationConfig, draw_index: int) -> np.ndarray:
    """One deterministic draw from N(coefficients, selected covariance)."""
    if not 0 <= draw_index < config.n_draws:
        raise ValueError(f"draw_index {draw_index} outside [0, {config.n_draws})")
    L, _ = cholesky(config.covariance(fit))
    u = _standard_normals(config.seed, draw_index, len(fit.coefficients))
    return fit.coefficients + L @ u


def percentile_interval(draws, level: float):
    """Equal-tailed empirical interval with linear order-statistic
    interpolation."""
    draws = np.asarray(draws, dtype=float)
    if draws.size < 2:
        raise ValueError("need at least two draws for a percentile interval")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    lo, hi = np.quantile(draws, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return float(lo), float(hi)


def histogram(draws, n_bins: int):
    """Equal-width bins over [min, max]; rightmost bin is closed. Returns a
    list of (left, right, count)."""
    draws = np.asarray(draws, dtype=float)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    lo, hi = float(draws.min()), float(draws.max())
    if hi <= lo:
        hi = lo + 1e-12  # degenerate range rule
    # numpy needs n_bins distinct edges: span at least 2 * n_bins ulps of the
    # larger end, so the bins stay distinct even if hi crosses a binade
    hi = max(hi, lo + 2 * n_bins * float(np.spacing(max(abs(lo), abs(hi)))))
    counts, edges = np.histogram(draws, bins=n_bins, range=(lo, hi))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(n_bins)
    ]


def simulate(fit: FitResult, spec: ModelSpec, dist: CovariateDistribution,
             config: SimulationConfig) -> SimulationResult:
    """Approximate sampling distribution of every measure, from one shared
    stream of parameter draws."""
    if not fit.converged:
        raise ValueError("cannot simulate from a non-converged fit")
    L, jitter = cholesky(config.covariance(fit))
    k = len(fit.coefficients)
    U = np.empty((config.n_draws, k))
    for start in range(0, config.n_draws, CHUNK):
        count = min(CHUNK, config.n_draws - start)
        U[start:start + count] = _normal_block(config.seed, start, count, k)
    draws = fit.coefficients + U @ L.T

    design = _pattern_design(spec, dist)
    values, n_clamped = batch_measures(draws, spec, dist, design)
    point = measure_set(fit.coefficients, spec, dist, design)
    point_values = point.as_dict()

    intervals = {}
    for mid in MEASURE_IDS:
        sorted_draws = np.sort(values[mid])
        endpoints = {
            level: percentile_interval(sorted_draws, level)
            for level in config.levels
        }
        intervals[mid] = IntervalEstimate(
            measure_id=mid,
            point=point_values[mid],
            draws=sorted_draws,
            endpoints=endpoints,
        )
    return SimulationResult(
        intervals=intervals, n_clamped_draws=n_clamped, jitter=jitter, point=point
    )
