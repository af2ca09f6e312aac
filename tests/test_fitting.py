import io
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import epinteract as ei
from epinteract.fitting import (
    SingularDesignError,
    _check_rank,
    deviance,
    log_likelihood,
    observed_information,
    score,
)

from conftest import FULL_COEFS, FULL_COV_ROBUST, SWEEP_TABLES, gen_wide_module


def random_grouped_dataset(rng, n_rows=6, n_params=3):
    """Small random grouped-binomial problem with a well-behaved design."""
    while True:
        X = np.column_stack(
            [np.ones(n_rows)] + [rng.integers(0, 2, n_rows) for _ in range(n_params - 1)]
        ).astype(float)
        if np.linalg.matrix_rank(X) == n_params:
            break
    n = rng.integers(3, 12, n_rows).astype(float)
    beta = rng.normal(0, 0.8, n_params)
    p = 1 / (1 + np.exp(-(X @ beta)))
    s = rng.binomial(n.astype(int), p).astype(float)
    s = np.clip(s, 1, n - 1)  # avoid separation in these small instances
    return X, s, n


class TestFit:
    def test_full_model_coefficients(self, fit_full):
        assert fit_full.converged
        np.testing.assert_allclose(fit_full.coefficients, FULL_COEFS, atol=0.02)

    def test_saturated_single_record(self):
        f = ei.fit(np.array([[1.0]]), np.array([3.0]), np.array([4.0]))
        assert f.converged
        assert f.coefficients[0] == pytest.approx(np.log(3), abs=1e-8)
        p = 1 / (1 + np.exp(-f.coefficients[0]))
        assert p == pytest.approx(0.75, abs=1e-10)

    def test_two_by_two_log_odds_ratio(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        f = ei.fit(X, np.array([2.0, 8.0]), np.array([10.0, 10.0]))
        assert f.converged
        assert f.coefficients[1] == pytest.approx(np.log(16), abs=1e-8)

    def test_score_small_at_convergence(self, dataset, spec_full, fit_full):
        X, s, n = ei.expand_dataset(dataset, spec_full)
        g = score(fit_full.coefficients, X, s, n)
        assert np.max(np.abs(g)) < 1e-6

    def test_one_dimensional_design_refused(self):
        with pytest.raises(ValueError) as err:
            ei.fit(np.ones(2), np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert str(err.value) == "design must be a 2-D matrix"

    def test_successes_over_totals_refused(self):
        with pytest.raises(ValueError) as err:
            ei.fit(np.ones((2, 1)), np.array([1.0, 3.0]), np.array([2.0, 2.0]))
        assert str(err.value) == "counts must satisfy 0 <= successes <= totals, totals >= 1"

    def test_rank_deficient_design_named(self):
        X = np.array([[1.0, 1.0, 2.0], [1.0, 0.0, 0.0], [1.0, 1.0, 2.0], [1.0, 0.0, 0.0]])
        with pytest.raises(SingularDesignError) as err:
            ei.fit(X, np.array([1, 1, 2, 1.0]), np.array([3, 3, 3, 3.0]))
        assert err.value.column in (1, 2)

    def test_separation_flagged_not_silent(self):
        # complete separation: success iff x = 1
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        f = ei.fit(X, np.array([0.0, 9.0]), np.array([9.0, 9.0]))
        assert not f.converged
        assert "separation" in f.message

    def test_invariant_to_row_order(self, dataset, spec_full, fit_full):
        X, s, n = ei.expand_dataset(dataset, spec_full)
        perm = np.random.default_rng(3).permutation(len(s))
        f2 = ei.fit(X[perm], s[perm], n[perm])
        np.testing.assert_allclose(f2.coefficients, fit_full.coefficients, atol=1e-8)

    def test_merging_duplicate_cells_preserves_mle(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        f_split = ei.fit(X, np.array([1.0, 1.0, 5.0]), np.array([4.0, 4.0, 7.0]))
        f_merged = ei.fit(
            np.array([[1.0, 0.0], [1.0, 1.0]]),
            np.array([2.0, 5.0]),
            np.array([8.0, 7.0]),
        )
        np.testing.assert_allclose(
            f_split.coefficients, f_merged.coefficients, atol=1e-8
        )

    def test_loglik_nondecreasing_resilience(self):
        # ill-scaled but solvable problem; step-halving must not overshoot
        rng = np.random.default_rng(11)
        X, s, n = random_grouped_dataset(rng, n_rows=8, n_params=4)
        f = ei.fit(X, s, n)
        assert f.converged
        assert np.max(np.abs(score(f.coefficients, X, s, n))) < 1e-6


class TestDerivatives:
    @pytest.mark.parametrize("trial", range(5))
    def test_score_matches_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        X, s, n = random_grouped_dataset(rng)
        beta = rng.normal(0, 0.5, X.shape[1])
        g = score(beta, X, s, n)
        h = 1e-6
        for j in range(len(beta)):
            e = np.zeros_like(beta)
            e[j] = h
            fd = (
                log_likelihood(beta + e, X, s, n) - log_likelihood(beta - e, X, s, n)
            ) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("trial", range(5))
    def test_information_matches_finite_differences(self, trial):
        rng = np.random.default_rng(200 + trial)
        X, s, n = random_grouped_dataset(rng)
        beta = rng.normal(0, 0.5, X.shape[1])
        info = observed_information(beta, X, n)
        h = 1e-6
        for j in range(len(beta)):
            e = np.zeros_like(beta)
            e[j] = h
            fd = -(score(beta + e, X, s, n) - score(beta - e, X, s, n)) / (2 * h)
            np.testing.assert_allclose(info[:, j], fd, rtol=1e-5, atol=1e-6)


class TestObservedInformation:
    def test_single_record_half_probability(self):
        info = observed_information(np.array([0.0]), np.array([[1.0]]), np.array([4.0]))
        assert info[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_at_extreme_probabilities(self):
        X = np.array([[1.0], [1.0]])
        info = observed_information(np.array([80.0]), X, np.array([5.0, 7.0]))
        assert np.all(np.abs(info) < 1e-20)

    def test_inverse_matches_cov_model(self, dataset, spec_full, fit_full):
        X, s, n = ei.expand_dataset(dataset, spec_full)
        info = observed_information(fit_full.coefficients, X, n)
        np.testing.assert_allclose(
            np.linalg.inv(info), fit_full.cov_model, atol=1e-6
        )


class TestCovariances:
    def test_robust_matches_published_matrix(self, fit_full):
        np.testing.assert_allclose(fit_full.cov_robust, FULL_COV_ROBUST, atol=0.05)

    def test_symmetry_and_psd(self, fit_full):
        for cov in (fit_full.cov_model, fit_full.cov_robust):
            np.testing.assert_allclose(cov, cov.T, atol=1e-10)
            assert np.all(np.linalg.eigvalsh(cov) > -1e-10)

    def test_robust_near_model_when_correctly_specified(self):
        # large sample generated exactly from a logistic model
        rng = np.random.default_rng(7)
        X = np.array(
            [[1.0, a, b, a * b] for a in (0, 1) for b in (0, 1)] * 250, dtype=float
        )
        beta = np.array([0.3, -0.5, 0.4, 0.6])
        n = np.full(len(X), 100.0)
        p = 1 / (1 + np.exp(-(X @ beta)))
        s = rng.binomial(n.astype(int), p).astype(float)
        f = ei.fit(X, s, n)
        assert f.converged
        rel = np.linalg.norm(f.cov_robust - f.cov_model) / np.linalg.norm(f.cov_model)
        assert rel < 0.10

    def test_saturated_single_record_zero_robust(self):
        f = ei.fit(np.array([[1.0]]), np.array([3.0]), np.array([4.0]))
        np.testing.assert_allclose(f.cov_robust, 0.0, atol=1e-15)

    def test_fit_robust_is_dispersion_times_model(self, fit_full):
        assert np.array_equal(
            fit_full.cov_robust, fit_full.dispersion * fit_full.cov_model
        )

    def test_dispersion_positive_on_fixture(self, fit_full):
        assert fit_full.dispersion > 1.0  # this data is over-dispersed

    def test_deviance_zero_at_saturation(self):
        dev = deviance(
            np.array([np.log(3.0)]), np.array([[1.0]]), np.array([3.0]), np.array([4.0])
        )
        assert dev == pytest.approx(0.0, abs=1e-10)


def pivoted_qr_column(design):
    """The column a pivoted QR names as linearly dependent, or None: the
    rank test that _check_rank's numpy screen must agree with."""
    from scipy.linalg import qr

    _, R, piv = qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    bad = np.flatnonzero(diag <= max(design.shape) * np.finfo(float).eps * diag[0])
    return int(piv[bad[0]]) if bad.size else None


@st.composite
def zero_one_designs(draw):
    """A 0/1 design, as drawn, or with one column replaced by a combination
    of the others, exactly or up to 1e-13 in one row."""
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, min(n, 8)))
    X = draw(hnp.arrays(np.float64, (n, k), elements=st.sampled_from([0.0, 1.0])))
    kind = draw(st.sampled_from(["drawn", "dependent", "nearly dependent"]))
    if kind != "drawn" and k > 1:
        j = draw(st.integers(0, k - 1))
        others = np.delete(np.arange(k), j)
        weights = draw(hnp.arrays(np.float64, k - 1, elements=st.sampled_from([-1.0, 1.0, 2.0])))
        X[:, j] = X[:, others] @ weights
        if kind == "nearly dependent":
            X[draw(st.integers(0, n - 1)), j] += 1e-13
    return X


class TestRankScreen:
    @given(zero_one_designs())
    @settings(max_examples=300, deadline=None)
    def test_verdict_and_column_match_pivoted_qr(self, X):
        expected = pivoted_qr_column(X)
        if expected is None:
            _check_rank(X)
        else:
            with pytest.raises(SingularDesignError) as err:
                _check_rank(X)
            assert err.value.column == expected

    def test_fixture_and_wide_designs_need_no_scipy(self, dataset, spec_full, monkeypatch):
        gen_wide = gen_wide_module()
        wide = ei.Dataset(cells=gen_wide.generate(1), covariate_names=gen_wide.COVARIATE_NAMES)
        designs = [ei.expand_dataset(dataset, spec_full)[0], ei.expand_dataset(
            wide, ei.parse_formula(gen_wide.FORMULA))[0]]
        assert designs[1].shape == (gen_wide.N_CELLS, gen_wide.N_PARAMETERS)
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)  # importing it fails
        for X in designs:
            _check_rank(X)

    def test_singular_information_after_one_rank_check(self, dataset, spec_full, monkeypatch):
        checks = []

        def spy(design):
            checks.append(design.shape)
            return _check_rank(design)

        def singular(info):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(ei.fitting, "_check_rank", spy)
        monkeypatch.setattr(np.linalg, "cholesky", singular)
        X, s, n = ei.expand_dataset(dataset, spec_full)
        with pytest.raises(SingularDesignError, match="^observed information is singular$"):
            ei.fit(X, s, n)
        assert checks == [X.shape]

    def test_numerically_singular_information_names_its_column(self):
        csv_bytes, formula = SWEEP_TABLES["C"]
        data = ei.Dataset.from_csv(io.StringIO(csv_bytes.decode()))
        X, s, n = ei.expand_dataset(data, ei.parse_formula(formula))
        _check_rank(X)  # the design itself has full rank
        with pytest.raises(SingularDesignError, match="numerically singular: column 3 ") as err:
            ei.fit(X, s, n)
        assert err.value.column == 3


class TestCovariance:
    def test_model_covariance_is_the_inverse_information(self, dataset, spec_full):
        gen_wide = gen_wide_module()
        wide = ei.Dataset(cells=gen_wide.generate(1), covariate_names=gen_wide.COVARIATE_NAMES)
        for data, spec in ((dataset, spec_full),
                           (wide, ei.parse_formula(gen_wide.FORMULA))):
            X, s, n = ei.expand_dataset(data, spec)
            f = ei.fit(X, s, n)
            inverse = np.linalg.inv(observed_information(f.coefficients, X, n))
            scale = np.abs(f.cov_model).max()
            assert np.abs(f.cov_model - inverse).max() <= 1e-14 * scale
            np.testing.assert_array_equal(f.cov_robust, f.dispersion * f.cov_model)

    def test_separated_fit_has_no_covariance(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        f = ei.fit(X, np.array([0.0, 9.0]), np.array([9.0, 9.0]))
        assert not f.converged
        assert np.isnan(f.cov_model).all() and np.isnan(f.cov_robust).all()


@st.composite
def grid_csv(draw):
    """A complete covariate-by-exposure table as CSV lines, with both
    outcomes in every cell, so the MLE is finite."""
    k = draw(st.integers(1, 2))
    lines = []
    for x in itertools.product((0, 1), repeat=k):
        for z in ((0, 0), (0, 1), (1, 0), (1, 1)):
            n = draw(st.integers(2, 60))
            s = draw(st.integers(1, n - 1))
            lines.append(",".join(map(str, x + z + (s, n))))
    header = ",".join([f"x{i + 1}" for i in range(k)] + ["z1", "z2", "successes", "totals"])
    formula = "y ~ z1 + z2 + z1:z2 + z1:x1" + "".join(f" + x{i + 1}" for i in range(k))
    return header, lines, formula


def fit_csv(header, lines, formula):
    """MLE and measures of a CSV table, read by the CLI's own path."""
    data = ei.Dataset.from_csv(io.StringIO(header + "\n" + "\n".join(lines) + "\n"))
    spec = ei.parse_formula(formula)
    f = ei.fit(*ei.expand_dataset(data, spec))
    assert f.converged
    dist = ei.covariate_distribution(data)
    return f, ei.measure_set(f.coefficients, spec, dist)


class TestCsvPipelineInvariance:
    @given(table=grid_csv(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cell_order_does_not_matter(self, table, data):
        header, lines, formula = table
        order = data.draw(st.permutations(range(len(lines))))
        f, ms = fit_csv(header, lines, formula)
        g, ms2 = fit_csv(header, [lines[i] for i in order], formula)
        np.testing.assert_allclose(g.coefficients, f.coefficients, rtol=1e-9, atol=1e-11)
        for mid, value in ms.as_dict().items():
            assert ms2.as_dict()[mid] == pytest.approx(value, rel=1e-9), mid

    @given(table=grid_csv(), c=st.integers(2, 50))
    @settings(max_examples=60, deadline=None)
    def test_scaling_counts_keeps_the_mle(self, table, c):
        header, lines, formula = table
        scaled = []
        for line in lines:
            *cell, s, n = map(int, line.split(","))
            scaled.append(",".join(map(str, cell + [c * s, c * n])))
        f, _ = fit_csv(header, lines, formula)
        g, _ = fit_csv(header, scaled, formula)
        # the same MLE; the fit stops on an absolute score tolerance, and the
        # score grows with c, so the two stop at slightly different iterates
        np.testing.assert_allclose(g.coefficients, f.coefficients, rtol=1e-7, atol=1e-7)

    @given(table=grid_csv())
    @settings(max_examples=60, deadline=None)
    def test_swapping_exposures_keeps_the_measures(self, table):
        # the five measures are symmetric in z1 and z2, so swapping the two
        # CSV columns under a model symmetric in them must not move them
        header, lines, _ = table
        k = header.count(",") - 3
        formula = "y ~ z1 + z2 + z1:z2" + "".join(
            f" + x{i + 1} + z1:x{i + 1} + z2:x{i + 1}" for i in range(k))
        swapped = []
        for line in lines:
            *x, z1, z2, s, n = line.split(",")
            swapped.append(",".join(x + [z2, z1, s, n]))
        _, ms = fit_csv(header, lines, formula)
        _, ms2 = fit_csv(header, swapped, formula)
        for mid, value in ms.as_dict().items():
            assert ms2.as_dict()[mid] == pytest.approx(value, rel=1e-9, abs=1e-9), mid
