"""Simulation-based percentile confidence intervals for the interaction
measures.

Parameter vectors are drawn from N(pi_hat, Sigma_hat) using the fitted
covariance; each draw is pushed through the measure pipeline and interval
endpoints are read off the empirical quantiles.

Each draw is rounded to float32 for batch_measures, whose kernel then runs
in float32 up to the per-pattern sums (see measures); the point estimates
are measure_set's, in float64. With an all-zero covariance every draw is
the point and stays float64, so it evaluates to measure_set's bits.

Randomness is keyed by (seed, chunk). Draw i is row i % CHUNK of chunk
c = i // CHUNK, whose normals are numpy's Generator normals (the ziggurat of
Marsaglia & Tsang, J. Stat. Software 5(8), 2000) from an SFC64 generator
seeded by SeedSequence(seed, spawn_key=(c,)), numpy's documented way to make
independent streams, read row by row. The first m rows of a chunk do not
depend on m, so draw i depends only on (seed, i), and serial, chunked,
per-index or whole-matrix evaluation give bit-identical normals. CHUNK is
part of the stream: changing it changes the draws. simulate makes and
evaluates the draws one chunk at a time on the caller's thread and starts no
other.
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
    "histogram",
    "NotPositiveSemiDefiniteError",
    "COVARIANCE_CHOICES",
]

CHUNK = 4096  # draws per (seed, chunk) stream and per step; part of the stream, bounds temporaries
# CHUNK must be a multiple of four, so chunked products take the BLAS paths of one whole product
COVARIANCE_CHOICES = ("robust", "model")  # FitResult.cov_robust or FitResult.cov_model
# float64 values in the largest array numpy can index, the bound of simulate's
# (5, n_draws) values; numpy refuses a larger one with a ValueError, not a MemoryError
MAX_FLOATS = np.iinfo(np.intp).max // 8


class NotPositiveSemiDefiniteError(np.linalg.LinAlgError):
    """Covariance is not positive definite, so it has no Cholesky factor."""


@dataclass(frozen=True)
class SimulationConfig:
    """A run's simulation settings; the CLI takes its defaults from here."""
    n_draws: int = 1000
    seed: int = 0
    levels: tuple[float, ...] = (0.50, 0.95)
    covariance_choice: str = "robust"

    def __post_init__(self):
        if not 2 <= self.n_draws <= MAX_FLOATS // len(MEASURE_IDS):
            raise ValueError(f"n_draws must lie in [2, {MAX_FLOATS // len(MEASURE_IDS)}]")
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
    point: MeasureSet | None = None  # all measures at the fitted coefficients

    def __getitem__(self, measure_id: str) -> IntervalEstimate:
        return self.intervals[measure_id]


def cholesky(sigma):
    """Lower-triangular factor L of sigma, with L @ L.T == sigma."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma must be square")
    # fit's covariances are exactly symmetric; another's rounding may scale with its largest entry
    if not np.allclose(sigma, sigma.T, atol=1e-8 * max(1.0, np.abs(sigma).max())):
        raise ValueError("sigma must be symmetric")
    if not sigma.any():
        return np.zeros_like(sigma)  # degenerate: no parameter uncertainty
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveSemiDefiniteError("covariance is not positive definite") from None


def _normal_block(seed: int, start: int, count: int, k: int) -> np.ndarray:
    """Standard normals for draws start .. start+count-1, shape (count, k).
    Chunk c holds draws c * CHUNK .. (c + 1) * CHUNK - 1: numpy's Generator
    normals from SFC64(SeedSequence(seed, spawn_key=(c,))), row by row."""
    stop = start + count
    pieces = []
    for c in range(start // CHUNK, -(-stop // CHUNK)):
        first = c * CHUNK
        stream = np.random.SeedSequence(seed, spawn_key=(c,))
        normals = np.random.Generator(np.random.SFC64(stream))
        rows = normals.standard_normal((min(stop - first, CHUNK), k))
        pieces.append(rows[max(start - first, 0):])
    return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]


def draw_parameters(fit: FitResult, config: SimulationConfig, draw_index: int) -> np.ndarray:
    """One deterministic draw from N(coefficients, selected covariance)."""
    if not 0 <= draw_index < config.n_draws:
        raise ValueError(f"draw_index {draw_index} outside [0, {config.n_draws})")
    L = cholesky(config.covariance(fit))
    # the aligned four rows of its chunk that hold the draw, as in simulate:
    # a one-row product goes to gemv, not gemm
    U = _normal_block(config.seed, draw_index - draw_index % 4, 4, len(fit.coefficients))
    return fit.coefficients + (U @ L.T)[draw_index % 4]


def _endpoints(draws: np.ndarray, levels) -> dict[float, tuple[float, float]]:
    """The equal-tailed empirical interval at every level, read off draws,
    which must be sorted ascending, with np.quantile's linear method: at
    quantile q, v = (n - 1) * q, i = floor(v) and g = v - i, and the endpoint
    lies between order statistics a = draws[i] and b = draws[i + 1] as
    a + (b - a) * g when g < 0.5, else b - (b - a) * (1 - g). Every endpoint
    is NaN when the last draw is. The bits equal np.quantile's, except that
    where -0.0 and +0.0 meet at an order statistic a zero endpoint takes its
    sign from the sorted order, np.quantile's from its partition of a copy."""
    n = len(draws)
    if np.isnan(draws[-1]):  # NaN sorts last
        return {level: (np.nan, np.nan) for level in levels}
    ends = []
    for level in levels:
        for side in (-1, 1):
            v = (n - 1) * ((1.0 + side * level) / 2.0)
            i = int(v)  # floor: v >= 0
            g = v - i
            a, b = draws[i].item(), draws[min(i + 1, n - 1)].item()
            ends.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1.0 - g))
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
    stream of parameter draws, generated and evaluated one CHUNK at a time on
    the caller's thread, in float32 unless the covariance is all zero."""
    if not fit.converged:
        raise ValueError("cannot simulate from a non-converged fit")
    L = cholesky(config.covariance(fit))
    values = np.empty((len(MEASURE_IDS), config.n_draws))
    design = _pattern_design(spec, dist)
    point = measure_set(fit.coefficients, spec, dist, design)
    point_values = point.as_dict()
    # an all-zero factor makes every draw the point: float64 rows then give
    # measure_set's bits and clamp flag
    precision = np.float32 if L.any() else float
    n_clamped = 0
    for start in range(0, config.n_draws, CHUNK):
        count = min(CHUNK, config.n_draws - start)
        # a short last chunk is padded with its next draws to a multiple of
        # four rows, so that a single row does not go to gemv instead of gemm
        U = _normal_block(config.seed, start, count + -count % 4, len(fit.coefficients))
        rows = (fit.coefficients + U @ L.T)[:count].astype(precision)
        chunk, clamped = batch_measures(rows, spec, dist, design)
        values[:, start:start + count] = list(chunk.values())
        n_clamped += clamped
    values.sort(axis=1)

    intervals = {
        mid: IntervalEstimate(point_values[mid], draws, _endpoints(draws, config.levels))
        for mid, draws in zip(MEASURE_IDS, values)
    }
    return SimulationResult(intervals=intervals, n_clamped_draws=n_clamped, point=point)
