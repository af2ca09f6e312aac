import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epinteract as ei
from epinteract import cli, simci
from epinteract.cli import export_draws_csv
from epinteract.simci import (
    CHUNK,
    IntervalEstimate,
    NotPositiveSemiDefiniteError,
    SimulationConfig,
    MAX_FLOATS,
    SimulationResult,
    _endpoints,
    _normal_block,
    cholesky,
    draw_parameters,
    histogram,
    simulate,
)

from conftest import FULL_MODEL


class TestCholesky:
    def test_identity(self):
        L = cholesky(np.eye(3))
        np.testing.assert_array_equal(L, np.eye(3))

    def test_two_by_two(self):
        sigma = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = cholesky(sigma)
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-12)
        np.testing.assert_allclose(L @ L.T, sigma, atol=1e-12)

    def test_fitted_covariance_reconstructs(self, fit_full):
        L = cholesky(fit_full.cov_robust)
        np.testing.assert_allclose(L @ L.T, fit_full.cov_robust, atol=1e-10)

    def test_zero_matrix(self):
        L = cholesky(np.zeros((4, 4)))
        assert not L.any()

    def test_singular_covariance_is_refused(self):
        # cholesky adds no diagonal jitter: a singular covariance is refused
        v = np.array([1.0, 1.0])
        sigma = np.outer(v, v)  # rank one
        with pytest.raises(NotPositiveSemiDefiniteError):
            cholesky(sigma)

    def test_not_psd_raises(self):
        with pytest.raises(NotPositiveSemiDefiniteError):
            cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError) as err:
            cholesky(np.ones((2, 3)))
        assert str(err.value) == "sigma must be square"

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rounding_asymmetry_of_a_large_matrix_accepted(self):
        # an inverted information matrix with a variance of 4e8 can differ
        # from its transpose by 2e-8 next to a zero: 5e-17 of its scale
        sigma = np.array([[4e8, 0.0], [2e-8, 1.0]])
        L = cholesky(sigma)
        np.testing.assert_allclose(L @ L.T, np.tril(sigma) + np.tril(sigma, -1).T)


class TestDrawParameters:
    def test_deterministic(self, fit_full):
        config = SimulationConfig(n_draws=10, seed=42)
        a = draw_parameters(fit_full, config, 3)
        b = draw_parameters(fit_full, config, 3)
        np.testing.assert_array_equal(a, b)

    def test_distinct_draws_differ(self, fit_full):
        config = SimulationConfig(n_draws=10, seed=42)
        a = draw_parameters(fit_full, config, 3)
        c = draw_parameters(fit_full, config, 4)
        assert not np.array_equal(a, c)

    def test_zero_covariance_returns_point(self, fit_full):
        degenerate = dataclasses.replace(
            fit_full, cov_robust=np.zeros_like(fit_full.cov_robust)
        )
        config = SimulationConfig(n_draws=5, seed=0)
        for i in range(5):
            np.testing.assert_array_equal(
                draw_parameters(degenerate, config, i), fit_full.coefficients
            )

    def test_out_of_range_index(self, fit_full):
        config = SimulationConfig(n_draws=5, seed=0)
        with pytest.raises(ValueError):
            draw_parameters(fit_full, config, 5)

    def test_moments_match_target(self, fit_full):
        # law of large numbers: sample mean and covariance approach the target
        config = SimulationConfig(n_draws=100_000, seed=9)
        sigma = fit_full.cov_robust
        from epinteract.simci import cholesky as chol

        L = chol(sigma)
        U = _normal_block(config.seed, 0, config.n_draws, len(fit_full.coefficients))
        draws = fit_full.coefficients + U @ L.T
        se = np.sqrt(np.diag(sigma) / config.n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - fit_full.coefficients) < 3 * se)
        emp = np.cov(draws, rowvar=False)
        rel = np.linalg.norm(emp - sigma) / np.linalg.norm(sigma)
        assert rel < 0.05


class TestPercentileInterval:
    def test_four_draws_half_level(self):
        lo, hi = _endpoints(np.array([10.0, 20.0, 30.0, 40.0]), (0.50,))[0.50]
        assert (lo, hi) == pytest.approx((17.5, 32.5))

    def test_thousand_draws(self):
        draws = np.arange(1.0, 1001.0)
        lo, hi = _endpoints(draws, (0.95,))[0.95]
        assert (lo, hi) == pytest.approx((25.975, 975.025))

    def test_constant_draws(self):
        lo, hi = _endpoints(np.full(10, 3.3), (0.95,))[0.95]
        assert lo == hi == 3.3

    def test_matches_explicit_interpolation(self):
        rng = np.random.default_rng(0)
        draws = np.sort(rng.normal(size=101))
        for level in (0.5, 0.8, 0.95):
            lo, hi = _endpoints(draws, (level,))[level]
            # independent order-statistic interpolation
            for p, got in (((1 - level) / 2, lo), ((1 + level) / 2, hi)):
                h = (len(draws) - 1) * p
                f = int(np.floor(h))
                c = int(np.ceil(h))
                expected = draws[f] + (h - f) * (draws[c] - draws[f])
                assert got == pytest.approx(expected, abs=1e-14)

    @st.composite
    def sorted_draws(draw):
        # a few values repeated many times (ties, ±inf, ±0.0, huge and tiny
        # magnitudes) mixed with normals, sorted, with up to two NaNs last
        n = draw(st.integers(2, 5000))
        pool = np.array(draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        draws = np.where(rng.random(n) < draw(st.floats(0, 1)),
                         rng.choice(pool, size=n), rng.normal(size=n))
        draws[n - draw(st.integers(0, 2)):] = np.nan
        return np.sort(draws)

    @settings(max_examples=300, deadline=None)
    @given(draws=sorted_draws(),
           extra=st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True), max_size=3))
    def test_equals_np_quantile(self, draws, extra):
        # np.quantile's bits, read off the sorted draws without its partition
        # of a copy; where -0.0 and +0.0 meet, only the sign of a zero
        # endpoint may differ
        levels = tuple(sorted({0.5, 0.95, 0.999, *extra}))
        zeros = np.signbit(draws[draws == 0])
        both_zeros = zeros.any() and not zeros.all()
        got = _endpoints(draws, levels)
        with np.errstate(invalid="ignore"):
            want = np.quantile(draws, [(1 + side * level) / 2
                                       for level in levels for side in (-1, 1)])
        for j, level in enumerate(levels):
            for end, expected in zip(got[level], want[2 * j:2 * j + 2]):
                if np.isnan(expected):
                    assert np.isnan(end), (level, end)
                elif both_zeros:
                    assert end == expected, (level, end, expected)
                else:
                    assert np.float64(end).tobytes() == expected.tobytes(), (level, end, expected)

    def test_report_endpoints_equal_np_quantile(self, monkeypatch, tmp_path):
        # the fixture at 100 000 draws: every report.json endpoint is
        # np.quantile of the run's own draws
        runs = []

        def keep(*args):
            runs.append(simulate(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "simulate", keep)
        assert cli.main(["--fixture", "nguyen2008", "--formula", FULL_MODEL,
                         "--draws", "100000", "--seed", "1", "--levels", "0.5,0.95",
                         "--format", "json", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        (sim,) = runs
        for mid in ei.MEASURE_IDS:
            ends = report["measures"][mid]["intervals"]
            assert ends == {
                label: np.quantile(sim[mid].draws, [(1 - level) / 2, (1 + level) / 2]).tolist()
                for label, level in (("0.5", 0.5), ("0.95", 0.95))
            }, mid


class TestHistogram:
    def test_hand_countable(self):
        bins = histogram(np.array([0.0, 0.5, 1.0]), 2)
        assert bins == [(0.0, 0.5, 1), (0.5, 1.0, 2)]

    def test_counts_sum(self):
        rng = np.random.default_rng(1)
        draws = rng.normal(size=10_000)
        bins = histogram(draws, 37)
        assert sum(c for _, _, c in bins) == 10_000

    def test_constant_draws_degenerate_bin(self):
        bins = histogram(np.full(5, 2.0), 3)
        assert sum(c for _, _, c in bins) == 5
        assert bins[0][1] - bins[-1][0] <= 1e-12 + 1e-12

    @pytest.mark.parametrize("draws", [
        np.full(5, 3400.0),
        np.array([8.85, np.nextafter(np.nextafter(8.85, 9.0), 9.0)]),
        np.array([-1e300, -1e300]),
    ])
    def test_narrow_range_gives_distinct_bins(self, draws):
        # numpy refuses a range narrower than n_bins representable steps
        bins = histogram(draws, 30)
        assert sum(c for _, _, c in bins) == len(draws)
        edges = [left for left, _, _ in bins] + [bins[-1][1]]
        assert edges[0] == draws.min() and all(np.diff(edges) > 0)

    @pytest.mark.parametrize("n_bins", [0, 2**62, 2**63 - 1, 10**19])
    def test_bin_count_outside_numpy_range_rejected(self, n_bins):
        with pytest.raises(ValueError, match="n_bins"):
            histogram(np.array([0.0, 1.0]), n_bins)

    @pytest.mark.parametrize("draws, n_bins", [
        (np.linspace(0.0, 3.0, 31), 30),  # every value on an edge
        (np.repeat([0.0, 0.25, 0.5, 0.75, 1.0], 3), 4),  # ties on interior edges
        (np.full(7, 2.0), 3),  # constant: hi = lo + 1e-12
        (np.full(4, 1e7), 5),  # constant, where 1e-12 is below an ulp
        (np.array([1.0, np.nextafter(1.0, 2.0)]), 30),  # 2 * n_bins ulps wide
        (np.array([-1e300, -1e300, np.nextafter(-1e300, 0.0)]), 17),
        (np.array([8.85, np.nextafter(np.nextafter(8.85, 9.0), 9.0)]), 30),
        (np.array([-2.0, 0.5, 7.25]), 1000),  # more bins than draws
        (np.array([3.0, 1.0, 2.0, 2.0, 5.0]), 4),  # unsorted: sorted first
    ])
    def test_equals_numpy_histogram(self, draws, n_bins):
        got = histogram(draws, n_bins)
        counts, edges = np.histogram(draws, bins=n_bins, range=(got[0][0], got[-1][1]))
        assert got == list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))

    def test_nan_draws_rejected(self):
        with pytest.raises(ValueError, match=r"^supplied range of \[nan, nan\] is not finite$"):
            histogram(np.array([1.0, 2.0, np.nan]), 3)

    def test_random_sorted_draws_with_ties_equal_numpy_histogram(self):
        rng, shuffle = np.random.default_rng(12), np.random.default_rng(13)
        for _ in range(300):
            n_bins = int(rng.integers(1, 60))
            scale = 10.0 ** rng.integers(-8, 9)
            grid = rng.integers(0, rng.integers(2, 200), rng.integers(1, 500))
            sorted_draws = np.sort(np.round(rng.normal(size=grid.size), 1) * scale + grid)
            for draws in (sorted_draws, shuffle.permutation(sorted_draws)):
                got = histogram(draws, n_bins)
                counts, edges = np.histogram(draws, bins=n_bins,
                                             range=(got[0][0], got[-1][1]))
                assert got == list(zip(edges[:-1].tolist(), edges[1:].tolist(),
                                       counts.tolist()))

    def test_bell_shape(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal(100_000)
        bins = histogram(draws, 50)
        counts = [c for _, _, c in bins]
        peak = max(range(50), key=lambda i: counts[i])
        center = (bins[peak][0] + bins[peak][1]) / 2
        assert abs(center) < 0.3


@pytest.fixture(scope="module")
def sim(fit_full, spec_full, dist):
    config = SimulationConfig(n_draws=4000, seed=7)
    return simulate(fit_full, spec_full, dist, config)


class TestSimulate:
    def test_point_equals_measure_set(self, sim, fit_full, spec_full, dist):
        ms = ei.measure_set(fit_full.coefficients, spec_full, dist)
        for mid, expected in ms.as_dict().items():
            assert sim[mid].point == pytest.approx(expected, abs=1e-12)

    def test_result_keeps_point_measure_set(self, sim):
        assert isinstance(sim.point, ei.MeasureSet)
        for mid, value in sim.point.as_dict().items():
            assert sim[mid].point == value

    def test_pattern_design_built_once(self, fit_full, spec_full, dist, monkeypatch):
        built = []
        real = simci._pattern_design

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(simci, "_pattern_design", counting)
        monkeypatch.setattr(ei.measures, "_pattern_design", counting)
        result = simulate(fit_full, spec_full, dist, SimulationConfig(n_draws=10, seed=3))
        assert len(built) == 1
        expected = ei.measure_set(fit_full.coefficients, spec_full, dist)
        assert result.point.as_dict() == expected.as_dict()
        assert result.point.population_risks == expected.population_risks
        assert result.point.clamped == expected.clamped

    def test_draws_sorted_and_sized(self, sim):
        for mid in ei.MEASURE_IDS:
            d = sim[mid].draws
            assert len(d) == 4000
            assert np.all(np.diff(d) >= 0)

    def test_intervals_nested(self, sim):
        for mid in ei.MEASURE_IDS:
            lo50, hi50 = sim[mid].endpoints[0.50]
            lo95, hi95 = sim[mid].endpoints[0.95]
            assert lo95 <= lo50 <= hi50 <= hi95

    def test_median_inside_half_interval(self, sim):
        for mid in ei.MEASURE_IDS:
            lo, hi = sim[mid].endpoints[0.50]
            med = float(np.median(sim[mid].draws))
            assert lo <= med <= hi

    def test_reproducible(self, sim, fit_full, spec_full, dist):
        again = simulate(fit_full, spec_full, dist, SimulationConfig(n_draws=4000, seed=7))
        for mid in ei.MEASURE_IDS:
            np.testing.assert_array_equal(sim[mid].draws, again[mid].draws)

    def test_seed_changes_draws(self, sim, fit_full, spec_full, dist):
        other = simulate(fit_full, spec_full, dist, SimulationConfig(n_draws=4000, seed=8))
        assert not np.array_equal(sim["RCOR"].draws, other["RCOR"].draws)

    def test_zero_covariance_degenerates(self, fit_full, spec_full, dist):
        degenerate = dataclasses.replace(
            fit_full, cov_robust=np.zeros_like(fit_full.cov_robust)
        )
        sim = simulate(degenerate, spec_full, dist, SimulationConfig(n_draws=100, seed=0))
        for mid in ei.MEASURE_IDS:
            lo, hi = sim[mid].endpoints[0.95]
            assert lo == pytest.approx(sim[mid].point, rel=1e-9)
            assert hi == pytest.approx(sim[mid].point, rel=1e-9)

    def test_draws_match_draw_parameters(self, fit_full, spec_full, dist, monkeypatch):
        # the fixture's robust covariance: draw_parameters pads its product to
        # four rows as simulate does, so each draw and its measures are equal
        # to simulate's bit for bit, on either side of a CHUNK boundary
        seen = []
        real = simci.batch_measures

        def capture(draws, *args):
            values, clamped = real(draws, *args)
            seen.append((draws.copy(), values))
            return values, clamped

        monkeypatch.setattr(simci, "batch_measures", capture)
        config = SimulationConfig(n_draws=CHUNK + 5, seed=13)
        simulate(fit_full, spec_full, dist, config)
        draws = np.concatenate([d for d, _ in seen])
        rcor = np.concatenate([v["RCOR"] for _, v in seen])
        for i in [*range(50), *range(CHUNK - 5, CHUNK + 5)]:
            coef = draw_parameters(fit_full, config, i)
            np.testing.assert_array_equal(coef, draws[i])
            assert ei.measure_set(coef, spec_full, dist).rcor == rcor[i]

    def test_unconverged_fit_rejected(self, fit_full, spec_full, dist):
        bad = dataclasses.replace(fit_full, converged=False)
        with pytest.raises(ValueError):
            simulate(bad, spec_full, dist, SimulationConfig(n_draws=10, seed=0))

    def test_dmrd_negates_under_exposure_relabel(self, fit_full, spec_full, dist):
        """Relabeling z1's levels flips the sign of the difference measure and
        inverts the marginal ratio measures."""
        table = ei.risk_table(fit_full.coefficients, spec_full, dist)
        flipped = ei.RiskTable(
            values={((1 - z[0], z[1]), x): p for (z, x), p in table.values.items()}
        )
        pr, pr_f = ei.population_risk(table, dist), ei.population_risk(flipped, dist)
        assert ei.dmrd(pr_f) == pytest.approx(-ei.dmrd(pr), abs=1e-12)
        assert ei.rmor(pr_f) == pytest.approx(1.0 / ei.rmor(pr), rel=1e-12)
        assert ei.rmrr(pr_f) == pytest.approx(1.0 / ei.rmrr(pr), rel=1e-12)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_draws=1)
        # the (5, n_draws) values must be an array numpy can index; only the
        # configs are built, so nothing is allocated
        with pytest.raises(ValueError, match=rf"n_draws must lie in \[2, {MAX_FLOATS // 5}\]"):
            SimulationConfig(n_draws=MAX_FLOATS // 5 + 1)
        assert SimulationConfig(n_draws=MAX_FLOATS // 5).n_draws == MAX_FLOATS // 5
        with pytest.raises(ValueError):
            SimulationConfig(levels=(0.95, 0.5))
        with pytest.raises(ValueError):
            SimulationConfig(levels=(0.0, 0.95))
        with pytest.raises(ValueError):
            SimulationConfig(covariance_choice="bootstrap")

    def test_covariance_choice_uses_the_cli_words(self, fit_full):
        from epinteract.simci import COVARIANCE_CHOICES

        assert COVARIANCE_CHOICES == ("robust", "model")
        assert SimulationConfig().covariance(fit_full) is fit_full.cov_robust
        assert SimulationConfig(covariance_choice="model").covariance(fit_full) \
            is fit_full.cov_model
        with pytest.raises(ValueError, match="covariance_choice"):
            SimulationConfig(covariance_choice="model_based")

    def test_seed_range(self):
        # SimulationConfig's seed range is [0, 2**128): anything outside is
        # rejected up front
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(seed=2**128)
        SimulationConfig(seed=2**128 - 1)


class TestStream:
    @pytest.mark.parametrize("k", [1, 4, 5, 8, 22])
    def test_block_equals_stacked_rows(self, k):
        for start, count in ((0, 7), (5, 3), (1000, 4), (CHUNK - 3, 7), (2 * CHUNK - 1, 2)):
            rows = np.stack(
                [_normal_block(11, i, 1, k)[0] for i in range(start, start + count)]
            )
            block = _normal_block(11, start, count, k)
            assert block.shape == (count, k)
            np.testing.assert_array_equal(block, rows)

    def test_simulate_rows_equal_draw_parameters_across_chunks(
            self, fit_full, spec_full, dist, monkeypatch):
        # zero mean, identity covariance: each parameter draw is exactly its
        # normals, so any chunking slip shows up as a bit difference
        k = len(fit_full.coefficients)
        unit = dataclasses.replace(
            fit_full, coefficients=np.zeros(k), cov_robust=np.eye(k)
        )
        config = SimulationConfig(n_draws=CHUNK + 3, seed=5)
        seen = _kernel_inputs(monkeypatch, unit, spec_full, dist, config)
        # one kernel call per chunk, none larger than CHUNK rows
        assert len(seen) == -(-config.n_draws // CHUNK)
        assert all(len(chunk) <= CHUNK for chunk in seen)
        draws = np.concatenate(seen)
        assert draws.shape == (CHUNK + 3, k)
        for i in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2):
            np.testing.assert_array_equal(draws[i], draw_parameters(unit, config, i))
        np.testing.assert_array_equal(draws, _normal_block(5, 0, CHUNK + 3, k))

    @pytest.mark.parametrize("n_draws", [CHUNK + 1, CHUNK + 3])
    def test_simulate_equals_one_whole_matrix_pass(self, fit_full, spec_full, dist, n_draws):
        # the fixture's robust covariance, so the chunked products U @ L.T and
        # the chunk boundaries are held to one whole product and one kernel
        # pass, bit for bit; a last chunk of one row must not change a bit
        config = SimulationConfig(n_draws=n_draws, seed=5)
        sim = simulate(fit_full, spec_full, dist, config)
        L = cholesky(fit_full.cov_robust)
        U = _normal_block(5, 0, n_draws, len(fit_full.coefficients))
        whole, n_clamped = simci.batch_measures(fit_full.coefficients + U @ L.T, spec_full, dist)
        for mid in ei.MEASURE_IDS:
            np.testing.assert_array_equal(sim[mid].draws, np.sort(whole[mid]))
        assert sim.n_clamped_draws == n_clamped

    def test_memory_does_not_grow_with_draws_times_parameters(
            self, fit_full, spec_full, dist):
        # the only array that grows with N is the (5, N) measure values; N x k
        # normals and parameter draws would read 43 MB here
        n_draws = 200_000
        simulate(fit_full, spec_full, dist, SimulationConfig(n_draws=10, seed=0))
        tracemalloc.start()
        try:
            simulate(fit_full, spec_full, dist, SimulationConfig(n_draws=n_draws, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(ei.MEASURE_IDS) * n_draws * 8

    def test_normals_finite(self):
        z = _normal_block(0, 0, 50_000, 8)
        assert np.isfinite(z).all()
        assert abs(z.mean()) < 0.01 and abs(z.std() - 1.0) < 0.01

    # draws 0 and 4096 at k = 8: the first rows of chunks 0 and 1. The draw
    # index is a literal, so a new CHUNK moves draw 4096 to another row or
    # stream and fails here, as does any change to the (seed, chunk) keying or
    # to numpy's SFC64, SeedSequence or Generator normals (the ziggurat)
    GOLDEN = {
        (0, 0): [-0.5504811808293575, 0.5197080686753037, 0.23055672602603425,
                 0.5962049767396235, -0.781511832030868, -1.5973617357447034,
                 1.0328581837813788, 1.3831322946060869],
        (0, 4096): [0.6102401562409981, 0.19051316586596187, -0.13357070129219653,
                    -0.6600521038836318, -0.3074686909375674, 1.2545880707711712,
                    -0.7841454574681547, 0.47953710996907056],
        (2**128 - 1, 0): [1.8641589329219541, 0.21796836185730112, 0.9323434987704686,
                          0.4342025392898749, 0.49755392573034884, -1.9481253062667319,
                          -1.1979025895584172, 0.5147482956427322],
        (2**128 - 1, 4096): [0.29412639860385337, -2.4416783457833287, -0.7441835584727573,
                             -1.7195813835473697, -0.12910813770963628, -1.5678589015008861,
                             -0.027714584817888216, -2.3674448944200295],
    }

    @pytest.mark.parametrize("seed, draw", list(GOLDEN), ids=str)
    def test_golden_normals(self, seed, draw):
        np.testing.assert_array_equal(_normal_block(seed, draw, 1, 8)[0], self.GOLDEN[seed, draw])

    def test_no_two_seed_chunk_pairs_share_a_stream(self):
        # the first row of every chunk (s, c): a keying that folds the chunk
        # into the seed, such as SFC64(seed + c) or SeedSequence(seed ^ c),
        # gives two pairs one stream
        k = 8
        rows = {(s, c): _normal_block(s, c * CHUNK, 1, k)[0]
                for s in (0, 1, 2, 2**64, 2**128 - 1) for c in (0, 1, 2)}
        assert len({row.tobytes() for row in rows.values()}) == len(rows)
        # the stream's definition, stated once outside the package
        stream = np.random.SFC64(np.random.SeedSequence(2**64, spawn_key=(2,)))
        np.testing.assert_array_equal(
            rows[2**64, 2], np.random.Generator(stream).standard_normal((1, k))[0])

    @pytest.mark.parametrize("n_draws", [10, CHUNK + 1])
    def test_run_is_a_prefix_of_a_longer_run(self, fit_full, spec_full, dist, monkeypatch,
                                              n_draws):
        # the fixture's robust covariance: an N-draw run's parameter rows are
        # the first N rows of any longer run, bit for bit, so a run can grow N
        # and keep the draws it already has
        short, longer = (
            np.concatenate(_kernel_inputs(monkeypatch, fit_full, spec_full, dist,
                                          SimulationConfig(n_draws=n, seed=21)))
            for n in (n_draws, n_draws + CHUNK + 3))
        assert short.shape == (n_draws, len(fit_full.coefficients))
        np.testing.assert_array_equal(short, longer[:n_draws])

    @pytest.mark.parametrize("n_draws", [CHUNK, CHUNK + 1, 3 * CHUNK])
    def test_no_thread_for_any_chunk_count(
            self, fit_full, spec_full, dist, monkeypatch, n_draws):
        # simulate runs every chunk on the caller's thread and starts no other
        before = threading.active_count()
        calls = []
        real = simci.batch_measures

        def count_threads(draws, *args):
            calls.append(threading.active_count())
            return real(draws, *args)

        monkeypatch.setattr(simci, "batch_measures", count_threads)
        simulate(fit_full, spec_full, dist, SimulationConfig(n_draws=n_draws, seed=4))
        assert calls == [before] * -(-n_draws // CHUNK)
        assert threading.active_count() == before

    def test_kernel_error_stops_the_run(self, fit_full, spec_full, dist, monkeypatch):
        # a kernel error on the second of three chunks reaches the caller as
        # raised, no later chunk is evaluated and no thread is left behind
        before = threading.active_count()
        calls = []
        real = simci.batch_measures

        def fail_second(draws, *args):
            calls.append(threading.active_count())
            if len(calls) == 2:
                raise RuntimeError("kernel failed")
            return real(draws, *args)

        monkeypatch.setattr(simci, "batch_measures", fail_second)
        with pytest.raises(RuntimeError, match="kernel failed") as raised:
            simulate(fit_full, spec_full, dist, SimulationConfig(n_draws=3 * CHUNK, seed=4))
        assert raised.traceback[-1].name == "fail_second"
        assert calls == [before] * 2
        assert threading.active_count() == before

def _kernel_inputs(monkeypatch, fit, spec, dist, config):
    """The blocks of parameter rows simulate hands to the measure kernel, in order."""
    seen = []
    real = simci.batch_measures

    def capture(draws, *args):
        seen.append(draws.copy())
        return real(draws, *args)

    with monkeypatch.context() as patch:
        patch.setattr(simci, "batch_measures", capture)
        simulate(fit, spec, dist, config)
    return seen


def _reference_draws_csv(result):
    fh = io.StringIO()
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["measure_id", "draw_index", "value"])
    for mid in ei.MEASURE_IDS:
        for i, v in enumerate(result[mid].draws):
            w.writerow([mid, i, repr(float(v))])
    return fh.getvalue()


def _result_with_draws(columns):
    intervals = {
        mid: IntervalEstimate(0.0, np.asarray(col, dtype=float), {})
        for mid, col in zip(ei.MEASURE_IDS, columns)
    }
    return SimulationResult(intervals=intervals, n_clamped_draws=0)


SPECIAL_VALUES = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
    2.2250738585072014e-308, 1e-05, 1e16, 1e-4, 123456789012345.6,
    # either side of the magnitudes 1e-4 and 1e16, where repr switches
    # between positional and exponent notation
    float(np.nextafter(1e-4, 0)), float(np.nextafter(1e-4, 1)), -1e-4,
    float(np.nextafter(1e16, 0)), -1e16, 1e15, 0.001, 5e-05,
]


class TestExportDrawsCsv:
    @given(st.lists(
        st.lists(
            st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                      st.sampled_from(SPECIAL_VALUES)),
            max_size=30,
        ),
        min_size=5, max_size=5,
    ))
    @settings(max_examples=100, deadline=None)
    def test_matches_csv_writer(self, columns):
        result = _result_with_draws(columns)
        fh = io.BytesIO()
        export_draws_csv(result, fh)
        assert fh.getvalue() == _reference_draws_csv(result).encode()

    def test_special_values_and_chunk_boundary_to_file(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = [rng.lognormal(0, 3, CHUNK + 2) for _ in ei.MEASURE_IDS]
        columns[0][: len(SPECIAL_VALUES)] = SPECIAL_VALUES
        result = _result_with_draws(columns)
        target = tmp_path / "draws.csv"
        with open(target, "wb") as fh:
            export_draws_csv(result, fh)
        assert target.read_bytes() == _reference_draws_csv(result).encode("utf-8")

    def test_random_bit_patterns(self):
        # 20 000 uniform 64-bit words hold subnormal, tiny, positional, huge
        # and nan doubles of either sign; SPECIAL_VALUES adds the infinities
        # and both notation switch points
        words = np.random.default_rng(64).integers(0, 2**64, size=20_000, dtype=np.uint64)
        columns = [col.copy() for col in np.split(words.view(np.float64),
                                                  [5000, 10000, 15000, 19500])]
        for col in columns[:4]:
            for at in (CHUNK // 2, CHUNK + 200):  # mid-chunk, in the first and second chunk
                col[at:at + len(SPECIAL_VALUES)] = SPECIAL_VALUES
        result = _result_with_draws(columns)
        fh = io.BytesIO()
        export_draws_csv(result, fh)
        assert fh.getvalue() == _reference_draws_csv(result).encode()

    @pytest.mark.parametrize("columns", [
        [[], [], [], [], []],  # orjson spells an empty chunk "[]"
        [[], [2.5], [], [-0.0], []],
        [[1.5], [float("nan")], [1e300], [0.25], [5e-324]],
    ], ids=["all-empty", "some-empty", "one-value"])
    def test_empty_and_one_value_columns(self, columns):
        result = _result_with_draws(columns)
        fh = io.BytesIO()
        export_draws_csv(result, fh)
        assert fh.getvalue() == _reference_draws_csv(result).encode()

    def test_fast_chunk_next_to_mixed_chunks(self):
        # chunk 0 holds only values that orjson spells, chunk 1 repr's too,
        # and the short last chunk ends on a value that only repr spells
        rng = np.random.default_rng(4)
        column = rng.uniform(0.5, 2.0, 2 * CHUNK + 3)
        column[CHUNK + 7] = 1e-7
        column[-1] = float("inf")
        result = _result_with_draws([column, column[::-1].copy(), column[:CHUNK],
                                     column[CHUNK:], column[-3:]])
        fh = io.BytesIO()
        export_draws_csv(result, fh)
        assert fh.getvalue() == _reference_draws_csv(result).encode()

    def test_row_blocks(self):
        # rows join in blocks of 10 000: block 0 spells bare indices, later
        # blocks their block number then four zero-padded digits, and the
        # block number reaches two digits at row 100 000; special values sit
        # on both sides of each of those boundaries
        rng = np.random.default_rng(15)
        columns = [rng.lognormal(0, 3, n) for n in (9_999, 10_000, 10_001, 20_003, 100_001)]
        for shift, col in enumerate(columns):
            for at in (9_999, 10_000, 100_000):
                window = col[at:at + len(SPECIAL_VALUES)]
                window[:] = np.roll(SPECIAL_VALUES, shift)[:len(window)]
        result = _result_with_draws(columns)
        fh = io.BytesIO()
        export_draws_csv(result, fh)
        assert fh.getvalue() == _reference_draws_csv(result).encode()

    @pytest.mark.parametrize("row_block", [10, 1000])
    def test_index_widths_at_small_blocks(self, monkeypatch, row_block):
        # the row digits follow ROW_BLOCK: block 0's bare indices change width
        # at 10, 100, ..., and the block number reaches three digits at
        # 100 * ROW_BLOCK; special values straddle each of those boundaries
        monkeypatch.setattr(cli, "ROW_BLOCK", row_block)
        cli._index_digits.cache_clear()
        try:
            rng = np.random.default_rng(16)
            big = 100 * row_block
            columns = [rng.lognormal(0, 3, n) for n in
                       (big + 1, big + 3, row_block, row_block - 1, 10 * row_block + 7)]
            half = len(SPECIAL_VALUES) // 2
            for shift, col in enumerate(columns):
                for at in 10 ** np.arange(1, len(str(big))):
                    window = col[at - half:at - half + len(SPECIAL_VALUES)]
                    window[:] = np.roll(SPECIAL_VALUES, shift)[:len(window)]
            result = _result_with_draws(columns)
            fh = io.BytesIO()
            export_draws_csv(result, fh)
            assert cli._index_digits().shape == (row_block, len(str(row_block)) - 1)
        finally:
            cli._index_digits.cache_clear()
        assert fh.getvalue() == _reference_draws_csv(result).encode()

    def test_non_contiguous_and_float32_draws(self):
        # orjson's numpy path takes only C-contiguous arrays, and float32
        # values must be spelled as the doubles repr(float(v)) sees
        rng = np.random.default_rng(6)
        table = rng.lognormal(0, 2, (CHUNK + 9, 5))
        columns = [table[:, j] for j in range(4)] + [table[::-2, 4].astype(np.float32)]
        assert not any(c.flags.c_contiguous for c in columns[:4])
        result = SimulationResult(
            intervals={mid: IntervalEstimate(0.0, col, {})
                       for mid, col in zip(ei.MEASURE_IDS, columns)},
            n_clamped_draws=0)
        fh = io.BytesIO()
        export_draws_csv(result, fh)
        assert fh.getvalue() == _reference_draws_csv(result).encode()


def _fresh_stdout(code, *argv):
    """stdout of python -c code in a fresh interpreter that imports this epinteract."""
    src = str(Path(ei.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()


def test_import_loads_no_orjson():
    # only a run that writes draws.csv loads orjson and builds the row digit
    # table, and nothing loads concurrent.futures: importing the library or
    # the CLI module must not pay for any of them
    code = ("import sys, epinteract.cli as cli; "
            "print('orjson' in sys.modules, cli._index_digits.cache_info().currsize, "
            "'concurrent.futures' in sys.modules)")
    assert _fresh_stdout(code) == ["False", "0", "False"]


@pytest.mark.parametrize("n_draws", [1000, CHUNK + 1])
def test_no_run_loads_concurrent_futures(tmp_path, n_draws):
    # simulate starts no thread, so neither a one-chunk run, such as the
    # default 1000 draws, nor a longer one pays for concurrent.futures
    code = ("import sys; from epinteract import cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, 'concurrent.futures' in sys.modules)")
    assert _fresh_stdout(code, "--fixture", "nguyen2008", "--formula", FULL_MODEL,
                         "--draws", str(n_draws), "--seed", "1", "--format", "json",
                         "--out", str(tmp_path)) == ["0", "False"]
