import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epinteract as ei
from epinteract.data import EXPOSURE_NAMES, CovariateDistribution
from epinteract.measures import (CLAMP_BOUND, EXPOSURE_LEVELS, LOGIT_CLAMP, PATTERN_TILE,
                                 RiskTable, _blocks, _contrast, _in_precision, _measures,
                                 _pattern_design, _predictors)
from epinteract.model import design_matrix
from epinteract.simci import _normal_block, cholesky

from conftest import (FULL_MEASURES, FULL_MODEL, REDUCED_MEASURES, REDUCED_MODEL,
                      binary_tables, gen_wide_module, random_risk_table)


# ---------------------------------------------------------------------------
# Independent straight-line oracles, written directly from the defining
# probability contrasts and kept free of the library's array plumbing.

def oracle_rcor(table, dist):
    total = 0.0
    for x, w in dist.weights.items():
        p = {z: table.risk(z, x) for z in EXPOSURE_LEVELS}
        num = (p[(1, 1)] * (1 - p[(0, 1)])) / ((1 - p[(1, 1)]) * p[(0, 1)])
        den = (p[(1, 0)] * (1 - p[(0, 0)])) / ((1 - p[(1, 0)]) * p[(0, 0)])
        total += w * num / den
    return total


def oracle_rcrr(table, dist):
    total = 0.0
    for x, w in dist.weights.items():
        p = {z: table.risk(z, x) for z in EXPOSURE_LEVELS}
        total += w * (p[(1, 1)] / p[(0, 1)]) / (p[(1, 0)] / p[(0, 0)])
    return total


def oracle_dcrd(table, dist):
    total = 0.0
    for x, w in dist.weights.items():
        p = {z: table.risk(z, x) for z in EXPOSURE_LEVELS}
        total += w * ((p[(1, 1)] - p[(0, 1)]) - (p[(1, 0)] - p[(0, 0)]))
    return total


def oracle_population_risk(table, dist):
    return {
        z: sum(w * table.risk(z, x) for x, w in dist.weights.items())
        for z in EXPOSURE_LEVELS
    }


def oracle_rmor(pr):
    num = (pr[(1, 1)] * (1 - pr[(0, 1)])) / ((1 - pr[(1, 1)]) * pr[(0, 1)])
    den = (pr[(1, 0)] * (1 - pr[(0, 0)])) / ((1 - pr[(1, 0)]) * pr[(0, 0)])
    return num / den


def oracle_rmrr(pr):
    return (pr[(1, 1)] / pr[(0, 1)]) / (pr[(1, 0)] / pr[(0, 0)])


def oracle_dmrd(pr):
    return pr[(1, 1)] - pr[(0, 1)] - pr[(1, 0)] + pr[(0, 0)]


def predictors(block, design):
    """-eta (4, m, S) of the coefficient rows `block` (m, k), built tile by
    tile as the kernel builds it, and each row's RCOR exp(beta12) * sum(w)
    before any clamp."""
    groups, tiles, j12, _, w = design
    beta12 = np.zeros(len(block)) if j12 is None else block[:, j12]
    Q = []
    for _, D, wt in tiles:
        V = np.empty((10, len(block), len(wt)))
        _predictors([-block[:, g] for g in groups], beta12, D, V)
        Q.append(V[:4])
    return np.concatenate(Q, axis=-1), np.exp(beta12) * w.sum()


@pytest.fixture(scope="module")
def wide():
    """gen_wide's seed-1 table, whose 4096 patterns span 32 pattern tiles:
    its formula, the dataset, spec, covariate distribution and fitted
    coefficients."""
    gen_wide = gen_wide_module()
    data = ei.Dataset(cells=gen_wide.generate(1), covariate_names=gen_wide.COVARIATE_NAMES)
    spec = ei.parse_formula(gen_wide.FORMULA)
    beta = ei.fit(*ei.expand_dataset(data, spec)).coefficients
    return gen_wide.FORMULA, data, spec, ei.covariate_distribution(data), beta


def single_stratum_table(p11, p01, p10, p00):
    values = {
        ((1, 1), (0,)): p11,
        ((0, 1), (0,)): p01,
        ((1, 0), (0,)): p10,
        ((0, 0), (0,)): p00,
    }
    return RiskTable(values=values), CovariateDistribution(weights={(0,): 1.0})


# ---------------------------------------------------------------------------

class TestRiskTable:
    def test_zero_coefficients_give_half(self, spec_full, dist):
        table = ei.risk_table(np.zeros(8), spec_full, dist)
        assert all(v == pytest.approx(0.5) for v in table.values.values())

    def test_baseline_cell(self, spec_full, dist, fit_full):
        table = ei.risk_table(fit_full.coefficients, spec_full, dist)
        expected = 1 / (1 + math.exp(-fit_full.coefficients[0]))
        assert table.risk((0, 0), (0, 0, 0)) == pytest.approx(expected, abs=1e-12)
        assert table.risk((0, 0), (0, 0, 0)) == pytest.approx(0.7666, abs=0.01)

    def test_all_active_terms_cell(self, spec_full, dist, fit_full):
        c = fit_full.coefficients
        # z=(1,1), x=(0,1,0): intercept, z1, z2, z1z2, x2, z1*x2 active
        eta = c[0] + c[1] + c[2] + c[3] + c[5] + c[7]
        table = ei.risk_table(c, spec_full, dist)
        assert table.risk((1, 1), (0, 1, 0)) == pytest.approx(
            1 / (1 + math.exp(-eta)), abs=1e-12
        )

    def test_complete_over_distribution(self, spec_full, dist, fit_full):
        table = ei.risk_table(fit_full.coefficients, spec_full, dist)
        assert len(table.values) == 4 * len(dist.weights)

    def test_extreme_draws_clamped_and_flagged(self, spec_full, dist):
        coef = np.array([1000.0, 0, 0, 0, 0, 0, 0, 0])
        table = ei.risk_table(coef, spec_full, dist)
        assert table.clamped
        assert all(0.0 < v < 1.0 for v in table.values.values())


class TestSingleStratumArithmetic:
    def test_rcor(self):
        table, dist = single_stratum_table(0.8, 0.4, 0.5, 0.5)
        assert ei.rcor(table, dist) == pytest.approx(6.0, abs=1e-12)

    def test_rcrr(self):
        table, dist = single_stratum_table(0.8, 0.4, 0.5, 0.5)
        assert ei.rcrr(table, dist) == pytest.approx(2.0, abs=1e-12)

    def test_dcrd(self):
        table, dist = single_stratum_table(0.8, 0.4, 0.5, 0.5)
        assert ei.dcrd(table, dist) == pytest.approx(0.4, abs=1e-12)

    def test_rmor_rmrr_dmrd(self):
        pr = {(1, 1): 0.8, (0, 1): 0.4, (1, 0): 0.5, (0, 0): 0.5}
        assert ei.rmor(pr) == pytest.approx(6.0, abs=1e-12)
        assert ei.rmrr(pr) == pytest.approx(2.0, abs=1e-12)
        assert ei.dmrd(pr) == pytest.approx(0.4, abs=1e-12)

    def test_constant_table_is_null(self):
        table, dist = single_stratum_table(0.3, 0.3, 0.3, 0.3)
        assert ei.rcor(table, dist) == pytest.approx(1.0)
        assert ei.rcrr(table, dist) == pytest.approx(1.0)
        assert ei.dcrd(table, dist) == pytest.approx(0.0)
        pr = ei.population_risk(table, dist)
        assert ei.rmor(pr) == pytest.approx(1.0)
        assert ei.rmrr(pr) == pytest.approx(1.0)
        assert ei.dmrd(pr) == pytest.approx(0.0)


class TestTableInput:
    TABLE_FUNCTIONS = (ei.rcor, ei.rcrr, ei.dcrd, ei.population_risk)

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan, math.inf])
    def test_risk_outside_unit_interval_rejected(self, bad):
        table, dist = single_stratum_table(bad, 0.4, 0.5, 0.5)
        for function in self.TABLE_FUNCTIONS:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                function(table, dist)

    @pytest.mark.parametrize("risks", [(1.0, 0.4, 0.5, 0.5), (0.8, 0.0, 0.5, 0.5)])
    def test_risks_of_zero_and_one_clamp_with_one_warning(self, risks):
        table, dist = single_stratum_table(*risks)
        for function in self.TABLE_FUNCTIONS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = function(table, dist)
            assert [w.category for w in caught] == [RuntimeWarning]
            assert "clamp" in str(caught[0].message)
            assert caught[0].filename == __file__
            values = result.values() if isinstance(result, dict) else [result]
            assert all(map(math.isfinite, values))

    def test_inner_risks_do_not_warn(self):
        table, dist = single_stratum_table(0.8, 0.4, 0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ei.rcor(table, dist) == pytest.approx(6.0, abs=1e-12)


class TestPopulationRisk:
    def test_two_equal_strata_mean(self):
        values = {}
        for z in EXPOSURE_LEVELS:
            values[(z, (0,))] = 0.2
            values[(z, (1,))] = 0.6
        table = RiskTable(values=values)
        dist = CovariateDistribution(weights={(0,): 0.5, (1,): 0.5})
        pr = ei.population_risk(table, dist)
        assert all(v == pytest.approx(0.4, abs=1e-12) for v in pr.values())


class TestMeasureSet:
    def test_full_model_reproduces_published_column(self, fit_full, spec_full, dist):
        ms = ei.measure_set(fit_full.coefficients, spec_full, dist)
        for mid, expected in FULL_MEASURES.items():
            assert ms.as_dict()[mid] == pytest.approx(expected, abs=0.02), mid

    def test_reduced_model_reproduces_published_column(
        self, fit_reduced, spec_reduced, dist
    ):
        ms = ei.measure_set(fit_reduced.coefficients, spec_reduced, dist)
        for mid, expected in REDUCED_MEASURES.items():
            assert ms.as_dict()[mid] == pytest.approx(expected, abs=0.02), mid

    def test_zero_coefficients(self, spec_full, dist):
        ms = ei.measure_set(np.zeros(8), spec_full, dist)
        assert ms.as_dict() == pytest.approx(
            {"RCOR": 1.0, "RCRR": 1.0, "RMOR": 1.0, "RMRR": 1.0, "DMRD": 0.0}
        )

    def test_dcrd_equals_dmrd(self, fit_full, spec_full, dist):
        ms = ei.measure_set(fit_full.coefficients, spec_full, dist)
        table = ei.risk_table(fit_full.coefficients, spec_full, dist)
        assert ei.dcrd(table, dist) == pytest.approx(ms.dmrd, abs=1e-12)
        assert ms.dcrd == ms.dmrd

    def test_batch_agrees_with_scalar(self, fit_full, spec_full, dist):
        rng = np.random.default_rng(5)
        B = fit_full.coefficients + rng.normal(0, 0.5, size=(20, 8))
        values, _ = ei.measures.batch_measures(B, spec_full, dist)
        for i in range(20):
            ms = ei.measure_set(B[i], spec_full, dist)
            for mid, arr in values.items():
                assert arr[i] == ms.as_dict()[mid], mid

    def test_covariate_column_order_does_not_matter(self, dataset, fit_full, spec_full,
                                                    dist):
        # the fixture with its covariate columns stored as x2, x1, x3
        reordered = ei.Dataset(cells=dataset.cells[:, [1, 0, *range(2, 7)]],
                               covariate_names=("x2", "x1", "x3"))
        spec = ei.parse_formula(FULL_MODEL)
        f = ei.fit(*ei.expand_dataset(reordered, spec))
        dist_r = ei.covariate_distribution(reordered)
        config = ei.SimulationConfig(n_draws=10, seed=3)
        expected = ei.measure_set(fit_full.coefficients, spec_full, dist).as_dict()
        for got in (ei.measure_set(f.coefficients, spec, dist_r),
                    ei.simulate(f, spec, dist_r, config).point):
            assert got.as_dict() == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_batch_clamp_count_matches_scalar_flags(self, fit_full, spec_full, dist):
        B = np.tile(fit_full.coefficients, (5, 1))
        B[1, 0] = 1000.0
        B[3, 0] = -1000.0
        _, n_clamped = ei.measures.batch_measures(B, spec_full, dist)
        flags = [ei.measure_set(b, spec_full, dist).clamped for b in B]
        assert flags == [False, True, False, True, False]
        assert n_clamped == 2


class TestExpBeta3Identity:
    """Without triple products every stratum shares the same odds-ratio
    contrast, so RCOR collapses to exp of the exposure-product coefficient."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_models(self, seed, spec_full, dist):
        rng = np.random.default_rng(seed)
        coef = rng.normal(0, 1.0, 8)
        table = ei.risk_table(coef, spec_full, dist)
        assert ei.rcor(table, dist) == pytest.approx(
            math.exp(coef[3]), rel=1e-12
        )

    def test_zero_interaction_gives_one(self, spec_full, dist):
        rng = np.random.default_rng(77)
        coef = rng.normal(0, 1.0, 8)
        coef[3] = 0.0
        table = ei.risk_table(coef, spec_full, dist)
        assert ei.rcor(table, dist) == pytest.approx(1.0, abs=1e-12)


class TestAlgebraicProperties:
    @pytest.mark.parametrize("seed", range(50))
    def test_collapsibility(self, seed):
        rng = np.random.default_rng(seed)
        table, dist = random_risk_table(rng, rng.integers(1, 6))
        lhs = ei.dcrd(table, dist)
        rhs = ei.dmrd(ei.population_risk(table, dist))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_exposure_symmetry(self, seed):
        rng = np.random.default_rng(1000 + seed)
        table, dist = random_risk_table(rng, rng.integers(1, 6))
        swapped = table.swap_exposures()
        assert ei.rcor(table, dist) == pytest.approx(ei.rcor(swapped, dist), abs=1e-12)
        assert ei.rcrr(table, dist) == pytest.approx(ei.rcrr(swapped, dist), abs=1e-12)
        assert ei.dcrd(table, dist) == pytest.approx(ei.dcrd(swapped, dist), abs=1e-12)
        pr, pr_s = ei.population_risk(table, dist), ei.population_risk(swapped, dist)
        assert ei.rmor(pr) == pytest.approx(ei.rmor(pr_s), abs=1e-12)
        assert ei.rmrr(pr) == pytest.approx(ei.rmrr(pr_s), abs=1e-12)
        assert ei.dmrd(pr) == pytest.approx(ei.dmrd(pr_s), abs=1e-12)

    def test_non_collapsibility_on_fixture(self, fit_full, spec_full, dist):
        ms = ei.measure_set(fit_full.coefficients, spec_full, dist)
        assert abs(ms.rcor - ms.rmor) > 0.01
        assert abs(ms.rcrr - ms.rmrr) > 0.001

    @pytest.mark.parametrize("seed", range(20))
    def test_dmrd_bounded(self, seed):
        rng = np.random.default_rng(2000 + seed)
        table, dist = random_risk_table(rng, rng.integers(1, 6))
        assert -2.0 <= ei.dmrd(ei.population_risk(table, dist)) <= 2.0

    def test_ratio_measures_invariant_to_pattern_relabel(self):
        rng = np.random.default_rng(42)
        table, dist = random_risk_table(rng, 4)
        relabel = {x: tuple(reversed(x)) for x in dist.weights}
        table2 = RiskTable(
            values={(z, relabel[x]): p for (z, x), p in table.values.items()}
        )
        dist2 = CovariateDistribution(
            weights={relabel[x]: w for x, w in dist.weights.items()}
        )
        assert ei.rcor(table2, dist2) == pytest.approx(ei.rcor(table, dist), abs=1e-12)
        assert ei.rcrr(table2, dist2) == pytest.approx(ei.rcrr(table, dist), abs=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_tables_up_to_three_strata(self, seed):
        rng = np.random.default_rng(3000 + seed)
        table, dist = random_risk_table(rng, rng.integers(1, 4))
        assert ei.rcor(table, dist) == pytest.approx(oracle_rcor(table, dist), rel=1e-12)
        assert ei.rcrr(table, dist) == pytest.approx(oracle_rcrr(table, dist), rel=1e-12)
        assert ei.dcrd(table, dist) == pytest.approx(oracle_dcrd(table, dist), abs=1e-12)
        pr = ei.population_risk(table, dist)
        opr = oracle_population_risk(table, dist)
        for z in EXPOSURE_LEVELS:
            assert pr[z] == pytest.approx(opr[z], abs=1e-12)
        assert ei.rmor(pr) == pytest.approx(oracle_rmor(opr), rel=1e-12)
        assert ei.rmrr(pr) == pytest.approx(oracle_rmrr(opr), rel=1e-12)
        assert ei.dmrd(pr) == pytest.approx(oracle_dmrd(opr), abs=1e-12)

    @given(
        p=st.tuples(*[st.sampled_from([i / 10 for i in range(1, 10)])] * 4)
    )
    @settings(max_examples=200, deadline=None)
    def test_single_stratum_grid(self, p):
        table, dist = single_stratum_table(*p)
        assert ei.rcor(table, dist) == pytest.approx(oracle_rcor(table, dist), rel=1e-12)
        assert ei.rcrr(table, dist) == pytest.approx(oracle_rcrr(table, dist), rel=1e-12)
        assert ei.dcrd(table, dist) == pytest.approx(oracle_dcrd(table, dist), abs=1e-14)


class TestFactoredPredictor:
    """Models hold no term beyond a pairwise product, so the kernel builds the
    four exposure levels from three products of one design at z = (1, 1)."""

    FORMULAS = {
        "model25": FULL_MODEL,
        "model26": REDUCED_MODEL,
        "no_z1z2": "y ~ z1 + z2 + x1 + x2 + x3 + z1:x2 + z2:x3",
        "z2_only": "y ~ z2 + x1 + x2 + x3",
    }

    @staticmethod
    def wide_case():
        # gen_wide's 22-term formula, with z1:x and z2:x products, on the
        # cells of 24 of its 4096 covariate patterns
        gen_wide = gen_wide_module()
        cells = gen_wide.generate(3).reshape(gen_wide.N_PATTERNS, 4, -1)
        rows = np.random.default_rng(3).choice(gen_wide.N_PATTERNS, 24, replace=False)
        data = ei.Dataset(cells=cells[np.sort(rows)].reshape(-1, cells.shape[-1]),
                          covariate_names=gen_wide.COVARIATE_NAMES)
        return gen_wide.FORMULA, data

    def cases(self, dataset):
        yield from ((f, dataset) for f in self.FORMULAS.values())
        yield self.wide_case()

    @staticmethod
    def swap(formula, data):
        """z1 and z2 exchanged in the formula, keeping the term order, and in
        the data."""
        k = len(data.covariate_names)
        cells = data.cells[:, [*range(k), k + 1, k, k + 2, k + 3]]
        formula = formula.replace("z1", "_").replace("z2", "z1").replace("_", "z2")
        return formula, ei.Dataset(cells=cells, covariate_names=data.covariate_names)

    @staticmethod
    def eta(formula, data, beta):
        spec = ei.parse_formula(formula)
        dist = ei.covariate_distribution(data)
        Q, rcor_ = predictors(beta[None], _pattern_design(spec, dist))
        return -Q[:, 0], rcor_[0], spec, dist

    @staticmethod
    def scanned_groups(spec):
        """The columns of the terms with no exposure, with z1 only and with z2
        only, and the z1:z2 column or None, read off each term's exposure
        variables."""
        exposures = [tuple(v for v in t.variables if v in EXPOSURE_NAMES) for t in spec.terms]
        z1, z2 = EXPOSURE_NAMES
        groups = [[j for j, e in enumerate(exposures) if e == g] for g in ((), (z1,), (z2,))]
        j12 = exposures.index(EXPOSURE_NAMES) if EXPOSURE_NAMES in exposures else None
        return groups, j12

    @given(binary_tables())
    @settings(max_examples=200, deadline=None)
    def test_column_groups_match_the_term_scan(self, table):
        rows, names, formula = table
        spec = ei.parse_formula(formula)
        dist = ei.covariate_distribution(ei.Dataset(cells=rows, covariate_names=names))
        groups, _, j12, _, _ = _pattern_design(spec, dist)
        assert ([g.tolist() for g in groups], j12) == self.scanned_groups(spec)

    def test_levels_match_the_full_design(self, dataset):
        rng = np.random.default_rng(11)
        for formula, data in self.cases(dataset):
            beta = rng.normal(0, 1.0, len(ei.parse_formula(formula).terms))
            eta, _, spec, dist = self.eta(formula, data, beta)
            S = len(dist.patterns)
            D = design_matrix(np.repeat(EXPOSURE_LEVELS, S, axis=0),
                              np.tile(dist.patterns, (4, 1)), spec, dist.covariate_names)
            expected = (D @ beta).reshape(4, S)
            # a few ulps of the largest partial sum
            scale = (np.abs(D) @ np.abs(beta)).reshape(4, S)
            assert np.all(np.abs(eta - expected) <= 4 * np.finfo(float).eps * scale), formula

    def test_swapping_exposures_gives_the_same_bits(self, dataset):
        rng = np.random.default_rng(12)
        for formula, data in self.cases(dataset):
            beta = rng.normal(0, 1.0, len(ei.parse_formula(formula).terms))
            eta, rcor_, _, _ = self.eta(formula, data, beta)
            # the swapped formula keeps the term order, so beta keeps its meaning
            swapped, rcor_s, _, _ = self.eta(*self.swap(formula, data), beta)
            np.testing.assert_array_equal(swapped[[0, 2, 1, 3]], eta, err_msg=formula)
            assert rcor_s == rcor_

    def test_rcor_is_exp_beta12_on_unclamped_rows(self, fit_full, spec_full, dist):
        rng = np.random.default_rng(13)
        B = fit_full.coefficients + rng.normal(0, 0.5, size=(30, 8))
        values, n_clamped = ei.measures.batch_measures(B, spec_full, dist)
        w = _pattern_design(spec_full, dist)[-1]
        assert n_clamped == 0
        np.testing.assert_array_equal(values["RCOR"], np.exp(B[:, 3]) * w.sum())

    def test_rcor_without_z1z2_is_the_weight_sum(self, dataset):
        formula = self.FORMULAS["no_z1z2"]
        spec = ei.parse_formula(formula)
        dist = ei.covariate_distribution(dataset)
        beta = np.random.default_rng(14).normal(0, 1.0, len(spec.terms))
        ms = ei.measure_set(beta, spec, dist)
        assert ms.rcor == _pattern_design(spec, dist)[-1].sum()
        assert ms.rcor == pytest.approx(1.0, abs=1e-15)

    def test_clamped_row_keeps_the_clipped_contrast(self, fit_full, spec_full, dist):
        coef = fit_full.coefficients.copy()
        coef[0] = 1000.0
        design = _pattern_design(spec_full, dist)
        # the row as the kernel sees it: padded with zero rows to four
        Q, rcor_ = predictors(np.vstack([coef, np.zeros((3, 8))]), design)
        np.clip(Q, -LOGIT_CLAMP, LOGIT_CLAMP, out=Q)
        expected = _contrast(Q, design[-1])[0]
        ms = ei.measure_set(coef, spec_full, dist)
        assert ms.clamped
        assert ms.rcor == expected
        assert ms.rcor != pytest.approx(rcor_[0])
        batch, n_clamped = ei.measures.batch_measures(
            np.vstack([fit_full.coefficients, coef]), spec_full, dist)
        assert n_clamped == 1
        assert batch["RCOR"][1] == expected

    def test_overflowing_beta12_is_clamped_without_a_warning(self, fit_full, spec_full,
                                                            dist):
        coef = fit_full.coefficients.copy()
        coef[3] = 800.0  # exp(800) overflows float64; the row is always clamped
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ms = ei.measure_set(coef, spec_full, dist)
        assert ms.clamped
        assert math.isfinite(ms.rcor)

    def test_simulated_rcor_endpoints_match_the_closed_form(self, fit_full, spec_full,
                                                           dist):
        # each draw's RCOR is sum(w) * exp(beta12), and beta12 is drawn from
        # N(beta12_hat, se12^2), so the q-quantile of the RCOR draws estimates
        # sum(w) * exp(beta12_hat + z_q * se12); the q-quantile of N draws
        # lies within its binomial(N, q) rank band (3.29 sd, two-sided 0.1%)
        from scipy.special import ndtri

        n = 100_000
        config = ei.SimulationConfig(n_draws=n, seed=20080527)
        sim = ei.simulate(fit_full, spec_full, dist, config)
        assert sim.n_clamped_draws == 0
        draws = sim["RCOR"].draws
        wsum = _pattern_design(spec_full, dist)[-1].sum()
        beta12, se12 = fit_full.coefficients[3], math.sqrt(config.covariance(fit_full)[3, 3])
        for level, endpoints in sim["RCOR"].endpoints.items():
            for q, got in zip(((1 - level) / 2, (1 + level) / 2), endpoints):
                exact = wsum * math.exp(beta12 + ndtri(q) * se12)
                band = 3.29 * math.sqrt(n * q * (1 - q))
                lo, hi = draws[math.floor(q * (n - 1) - band)], draws[math.ceil(q * (n - 1) + band)]
                assert lo <= exact <= hi, (level, q)
                assert lo <= got <= hi, (level, q)


class TestBlockedBatch:
    """batch_measures evaluates draws block by block; the block size must not
    show in any value or in the clamp count."""

    @staticmethod
    def draws(fit_full, n):
        rng = np.random.default_rng(9)
        B = fit_full.coefficients + rng.normal(0, 0.5, size=(n, 8))
        B[n - 5, 0] = 1000.0  # one clamped row, in a later block
        return B

    @staticmethod
    def batch(B, spec, dist, monkeypatch, rows):
        # blocks of patterns spanning more than one tile hold `rows` rows
        per_row = 4 * min(len(dist.weights), PATTERN_TILE)
        monkeypatch.setattr(ei.measures, "BLOCK_ELEMENTS", per_row * rows)
        return ei.measures.batch_measures(B, spec, dist)

    @pytest.mark.parametrize("rows", [1, 3, 4, 5, 8, 12])
    def test_block_size_does_not_change_results(self, rows, fit_full, spec_full, dist,
                                                monkeypatch):
        # 50 and 57 draws leave a last block of two rows and of one row
        for n in (47, 50, 57):
            B = self.draws(fit_full, n)
            # a budget of len(B) + 3 rows makes one block of every row
            whole, whole_clamped = self.batch(B, spec_full, dist, monkeypatch, len(B) + 3)
            values, n_clamped = self.batch(B, spec_full, dist, monkeypatch, rows)
            assert n_clamped == whole_clamped == 1
            for mid in ei.MEASURE_IDS:
                np.testing.assert_array_equal(values[mid], whole[mid], err_msg=f"n={n}")

    @pytest.mark.parametrize("n", [47, 48, 50, 57, 103])
    def test_matches_single_product(self, n, fit_full, spec_full, dist, monkeypatch):
        # blocked values equal those of one product over all rows, padded with
        # zero rows to a multiple of four as every block is; an unpadded
        # product sums its last n % 4 rows in another order, and agrees on
        # the rest
        B = self.draws(fit_full, n)
        design = _pattern_design(spec_full, dist)

        def kernel(rows):
            # every tile scanned, in one buffer for all rows
            scan = np.ones(len(design[1]), dtype=bool)
            return _measures(rows, design, scan, np.empty(10 * len(rows) * len(dist.weights)))

        padded = np.vstack([B, np.zeros((-n % 4, 8))])
        expected, _, _, clamped = kernel(padded)
        unpadded = kernel(B)[0]
        values, n_clamped = self.batch(B, spec_full, dist, monkeypatch, 3)
        assert n_clamped == int(clamped.sum()) == 1
        for mid, v, u in zip(ei.MEASURE_IDS, expected, unpadded):
            np.testing.assert_array_equal(values[mid], v[:n])
            np.testing.assert_array_equal(values[mid][:n - n % 4], u[:n - n % 4])

    @pytest.mark.parametrize("rows, step", [(1, 4), (3, 4), (7, 4), (8, 8), (13, 12)])
    def test_blocks_hold_a_multiple_of_four_rows(self, rows, step, fit_full, spec_full,
                                                 dist, monkeypatch):
        # a budget below four rows still gives four-row blocks, and only the
        # last block can be short; it reaches the kernel padded to a multiple
        # of four, one row more than the 47 % step rows it holds
        B = self.draws(fit_full, 47)
        kernel, sizes = ei.measures._measures, []

        def recording(block, *args):
            sizes.append(len(block))
            return kernel(block, *args)

        monkeypatch.setattr(ei.measures, "_measures", recording)
        self.batch(B, spec_full, dist, monkeypatch, rows)
        assert sizes == [step] * (47 // step) + [47 % step + 1]

    @pytest.mark.parametrize("rows", [1, 3, 4, 5, 8, 12, 50])
    def test_multi_tile_rows_match_measure_set(self, rows, wide, monkeypatch):
        # 4096 patterns span 32 tiles, and each row's sums over them add up
        # tile by tile in the same order in a block of any size; a budget of
        # 50 rows makes one block of every row
        _, _, spec, dist, beta = wide
        design = _pattern_design(spec, dist)
        B = beta + np.random.default_rng(23).normal(0, 0.05, size=(47, len(beta)))
        B[42, 0] = 1000.0  # one clamped row, in a later block
        values, n_clamped = self.batch(B, spec, dist, monkeypatch, rows)
        assert n_clamped == 1
        for i, row in enumerate(B):
            expected = ei.measure_set(row, spec, dist, design).as_dict()
            assert {mid: v[i] for mid, v in values.items()} == expected, i

    def test_memory_does_not_grow_with_draws(self, fit_full, spec_full, dist):
        import tracemalloc

        def peak(n):
            B = fit_full.coefficients + np.zeros((n, 8))
            tracemalloc.start()
            try:
                ei.measures.batch_measures(B, spec_full, dist)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # only the (5, n) result grows, by 40 bytes a row; evaluating all rows
        # at once grew by about 650 bytes a row here
        assert peak(40_000) - peak(10_000) < 30_000 * 64


class TestPatternTiles:
    """The kernel takes the patterns PATTERN_TILE at a time, and sums over
    patterns add up tile by tile in pattern order."""

    @staticmethod
    def draws(beta, n):
        return beta + np.random.default_rng(24).normal(0, 0.05, size=(n, len(beta)))

    def test_wide_design_spans_full_tiles(self, wide):
        _, _, spec, dist, _ = wide
        tiles = _pattern_design(spec, dist)[1]
        assert [len(wt) for _, _, wt in tiles] == [PATTERN_TILE] * (4096 // PATTERN_TILE)

    def test_risk_table_holds_every_tile(self, wide):
        _, _, spec, dist, beta = wide
        table = ei.risk_table(beta, spec, dist)
        Q, _ = predictors(np.vstack([beta, np.zeros((3, len(beta)))]),
                          _pattern_design(spec, dist))
        got = [[table.risk(z, x) for x in dist.patterns] for z in EXPOSURE_LEVELS]
        np.testing.assert_array_equal(got, 1.0 / (1.0 + np.exp(Q[:, 0])))

    def test_swapping_exposures_gives_the_same_bits(self, wide):
        formula, data, spec, dist, beta = wide
        swapped, data_s = TestFactoredPredictor.swap(formula, data)
        spec_s = ei.parse_formula(swapped)
        dist_s = ei.covariate_distribution(data_s)
        B = self.draws(beta, 8)
        Q, rcor_ = predictors(B, _pattern_design(spec, dist))
        Q_s, rcor_s = predictors(B, _pattern_design(spec_s, dist_s))
        np.testing.assert_array_equal(Q_s[[0, 2, 1, 3]], Q)
        np.testing.assert_array_equal(rcor_s, rcor_)
        for row in B:
            ms, ms_s = ei.measure_set(row, spec, dist), ei.measure_set(row, spec_s, dist_s)
            pr, pr_s = ms.population_risks, ms_s.population_risks
            assert [pr_s[z[::-1]] for z in EXPOSURE_LEVELS] == [pr[z] for z in EXPOSURE_LEVELS]
            assert pr_s.complements == tuple(np.array(pr.complements)[[0, 2, 1, 3]])
            assert ms_s.rcor == ms.rcor

    def test_one_tile_agrees(self, wide, monkeypatch):
        _, _, spec, dist, beta = wide
        B = self.draws(beta, 61)
        tiled, n_clamped = ei.measures.batch_measures(B, spec, dist)
        monkeypatch.setattr(ei.measures, "PATTERN_TILE", len(dist.weights))
        assert len(_pattern_design(spec, dist)[1]) == 1
        whole, whole_clamped = ei.measures.batch_measures(B, spec, dist)
        assert n_clamped == whole_clamped == 0
        for mid in ei.MEASURE_IDS:
            np.testing.assert_allclose(tiled[mid], whole[mid], rtol=1e-13, atol=0)

    # patterns are in binary order with x1 the high bit, so x1..x5 are all 1
    # only in the last tile and all 0 only in the first; with s of them 1,
    # eta gains a + b * s, which passes the clamp at s = 5 (last tile) or at
    # s = 0 (first tile) alone
    SHIFTS = {-1: (-22.0, 11.0), 0: (33.0, -11.0)}

    @classmethod
    def clamped_row(cls, spec, beta, tile):
        a, b = cls.SHIFTS[tile]
        row = beta.copy()
        row[0] += a
        row[[spec.terms.index(t) for t in spec.terms if t.variables in
             [(f"x{j}",) for j in range(1, 6)]]] += b
        return row

    @pytest.mark.parametrize("tile", [-1, 0])
    def test_row_clamped_in_one_tile_only(self, tile, wide, monkeypatch):
        _, _, spec, dist, beta = wide
        design = _pattern_design(spec, dist)
        row = self.clamped_row(spec, beta, tile)
        Q, _ = predictors(np.vstack([row, np.zeros((3, len(row)))]), design)
        eta, cut = np.abs(Q[:, 0]), design[1][tile][0]
        outside = np.delete(eta, np.arange(len(dist.weights))[cut], axis=1)
        assert outside.max() < LOGIT_CLAMP < eta[:, cut].max()
        np.clip(Q, -LOGIT_CLAMP, LOGIT_CLAMP, out=Q)
        expected = np.zeros(4)
        for s, _, wt in design[1]:  # the clipped contrast, summed tile by tile
            expected += _contrast(Q[:, :, s], wt)
        ms = ei.measure_set(row, spec, dist, design)
        assert ms.clamped
        assert ms.rcor == expected[0]
        B = self.draws(beta, 20)
        B[13] = row
        values, n_clamped = ei.measures.batch_measures(B, spec, dist)
        assert n_clamped == 1
        assert {mid: v[13] for mid, v in values.items()} == ms.as_dict()
        monkeypatch.setattr(ei.measures, "CLAMP_BOUND", -np.inf)
        scanned, scanned_clamped = ei.measures.batch_measures(B, spec, dist)
        assert scanned_clamped == 1
        for mid in ei.MEASURE_IDS:
            np.testing.assert_array_equal(scanned[mid], values[mid])

    def test_rows_clamped_in_different_tiles_are_each_counted(self, wide):
        _, _, spec, dist, beta = wide
        B = self.draws(beta, 20)  # one block
        B[5], B[13] = self.clamped_row(spec, beta, 0), self.clamped_row(spec, beta, -1)
        values, n_clamped = ei.measures.batch_measures(B, spec, dist)
        assert n_clamped == 2
        for i in (5, 13):
            ms = ei.measure_set(B[i], spec, dist)
            assert ms.clamped
            assert {mid: v[i] for mid, v in values.items()} == ms.as_dict()


class TestClampBound:
    """A pattern tile whose bound sum_j |beta_j| * colmax_j is clear of
    LOGIT_CLAMP skips the kernel's clamp scan; no value and no clamp count
    may show it."""

    @staticmethod
    def wide_draws():
        gen_wide = gen_wide_module()
        data = ei.Dataset(cells=gen_wide.generate(1), covariate_names=gen_wide.COVARIATE_NAMES)
        spec = ei.parse_formula(gen_wide.FORMULA)
        beta = ei.fit(*ei.expand_dataset(data, spec)).coefficients
        B = beta + np.random.default_rng(21).normal(0, 0.05, size=(61, len(beta)))
        return B, spec, ei.covariate_distribution(data)

    def forced_scan_cases(self, fit_full, spec_full, dist, dtype):
        """Rows of dtype: random rows near the fixture's and the wide data's
        fits, and for each, rows whose bound, which the all-ones pattern at
        z = (1, 1) attains, lies just under CLAMP_BOUND, with alternating
        signs."""
        rng = np.random.default_rng(20)
        cases = [(fit_full.coefficients + rng.normal(0, 0.5, size=(1001, 8)), spec_full, dist),
                 self.wide_draws()]
        for B, spec, d in cases[:]:
            colmax = _pattern_design(spec, d)[3]
            edge = np.abs(rng.normal(0, 1, size=(64, B.shape[1])))
            edge[::2] *= -1  # eta at +bound and at -bound
            edge *= (CLAMP_BOUND * (1 - 1e-6) / (np.abs(edge) @ colmax).max(axis=1))[:, None]
            cases.append((edge, spec, d))
        cases = [(B.astype(dtype), spec, d) for B, spec, d in cases]
        for B, spec, d in cases[2:]:
            assert (np.abs(B) @ _pattern_design(spec, d)[3]).max() < CLAMP_BOUND
        return cases

    def test_forced_scan_gives_the_same_bits(self, fit_full, spec_full, dist, monkeypatch):
        cases = self.forced_scan_cases(fit_full, spec_full, dist, float)
        self.check_forced_scan(cases, "CLAMP_BOUND", monkeypatch)

    def test_forced_float32_scan_gives_the_same_bits(self, fit_full, spec_full, dist,
                                                     monkeypatch):
        cases = self.forced_scan_cases(fit_full, spec_full, dist, np.float32)
        self.check_forced_scan(cases, "CLAMP_BOUND", monkeypatch)

    @staticmethod
    def check_forced_scan(cases, bound, monkeypatch):
        """No row of `cases` comes near the clamp; forcing every tile to scan by
        setting `bound` to -inf changes no bit and no count."""
        kernel, scans = ei.measures._measures, []

        def recording(block, design, scan, *args):
            scans.extend(scan)  # one flag per pattern tile
            return kernel(block, design, scan, *args)

        monkeypatch.setattr(ei.measures, "_measures", recording)
        for B, spec, d in cases:
            scans.clear()
            values, n_clamped = ei.measures.batch_measures(B, spec, d)
            assert n_clamped == 0
            assert not any(scans)  # the bound ruled every tile's scan out
            with monkeypatch.context() as m:
                m.setattr(ei.measures, bound, -np.inf)
                scans.clear()
                scanned, scanned_clamped = ei.measures.batch_measures(B, spec, d)
                assert all(scans)
            assert scanned_clamped == 0
            for mid in ei.MEASURE_IDS:
                np.testing.assert_array_equal(values[mid], scanned[mid])

    def test_one_row_past_the_clamp_is_clamped_and_counted(self, fit_full, spec_full, dist):
        B = fit_full.coefficients + np.random.default_rng(22).normal(0, 0.1, size=(20, 8))
        B[5, 0] = LOGIT_CLAMP + 10  # one block of 20 rows, one of them past the clamp
        values, n_clamped = ei.measures.batch_measures(B, spec_full, dist)
        assert n_clamped == 1
        ms = ei.measure_set(B[5], spec_full, dist)
        assert ms.clamped
        assert [values[mid][5] for mid in ei.MEASURE_IDS] == list(ms.as_dict().values())

    @staticmethod
    def clamp_flags(B, spec, dist):
        """Each row's clamp flag, from the kernel run in B's precision."""
        design = _in_precision(_pattern_design(spec, dist), B.dtype)
        return np.concatenate([clamped for *_, clamped in _blocks(B, design)])

    def test_float32_row_past_the_float32_clip_is_clamped(self, spec_full, dist):
        # the intercept alone: -eta is -beta0 at every cell, so a float32 row
        # meets the float32 clip exactly at beta0 = +-clip and passes it one
        # float32 step beyond
        clip = np.float32(LOGIT_CLAMP)
        beyond = np.nextafter(clip, np.float32(np.inf))
        B = np.zeros((5, 8), np.float32)
        B[:, 0] = [clip, -clip, beyond, -beyond, 0.0]
        assert (self.clamp_flags(B, spec_full, dist) == [False, False, True, True, False]).all()
        values, n_clamped = ei.measures.batch_measures(B, spec_full, dist)
        assert n_clamped == 2
        for mid in ei.MEASURE_IDS:
            assert np.isfinite(values[mid]).all()
        # every stratum's contrast is exp(0): a clipped row's RCOR is the weight sum
        np.testing.assert_allclose(values["RCOR"], 1.0, rtol=1e-6)

    def test_float32_clipped_contrast_passes_float32_range(self, spec_full, dist):
        # eta00 = eta11 = 100 and eta01 = eta10 = -100, all clipped: every
        # stratum's contrast is exp(4 * LOGIT_CLAMP), about 1e48, beyond
        # float32's range, so it is summed in float64
        B = np.zeros((1, 8), np.float32)
        B[0, :4] = [100.0, -200.0, -200.0, 400.0]
        values, n_clamped = ei.measures.batch_measures(B, spec_full, dist)
        assert n_clamped == 1
        assert values["RCOR"][0] == pytest.approx(math.exp(4 * LOGIT_CLAMP), rel=1e-4)
        assert values["RCOR"][0] > np.finfo(np.float32).max

    def test_float32_rows_clamp_as_float64_rows_do(self, fit_full, spec_full, dist):
        # 4099 draws 12 standard errors out, rounded to float32 as simulate
        # rounds its draws; about a quarter of them pass the clamp. The
        # float32 kernel clamps and counts the same rows as a float64 pass of
        # the same rows, a clipped row's RCOR (its contrast, summed in float64
        # since it may pass float32's range) stays finite, and every value
        # stays within float32 rounding of the float64 one
        U = _normal_block(3, 0, 4100, 8)[:4099]
        B = (fit_full.coefficients + 12 * U @ cholesky(fit_full.cov_robust).T).astype(np.float32)
        flags = self.clamp_flags(B, spec_full, dist)
        np.testing.assert_array_equal(flags, self.clamp_flags(B.astype(float), spec_full, dist))
        single, n_single = ei.measures.batch_measures(B, spec_full, dist)
        double, n_double = ei.measures.batch_measures(B.astype(float), spec_full, dist)
        assert n_single == n_double == flags.sum() > 1000
        assert single["RCOR"][flags].max() > 1e20
        for mid in ei.MEASURE_IDS:
            assert single[mid].dtype == np.float64
            assert np.isfinite(single[mid]).all()
            if mid == "DMRD":
                np.testing.assert_allclose(single[mid], double[mid], rtol=0, atol=1e-6)
            else:
                np.testing.assert_allclose(single[mid], double[mid], rtol=1e-5)

    def test_bound_reads_the_column_maxima(self):
        # the constructor accepts a covariate of 2: x1 = 2 doubles beta_x1's
        # share of eta, so a bound that took covariates as 0/1 would miss it
        dist = CovariateDistribution(weights={(0,): 0.5, (2,): 0.5}, covariate_names=("x1",))
        spec = ei.parse_formula("y ~ z1 + z2 + z1:z2 + x1")
        beta = np.array([0.0, 0.0, 0.0, 0.0, 0.6 * LOGIT_CLAMP])
        assert ei.measure_set(beta, spec, dist).clamped
        assert ei.measures.batch_measures(beta[None], spec, dist)[1] == 1
        table = ei.risk_table(beta, spec, dist)
        assert table.clamped
        assert table.risk((0, 0), (2,)) == pytest.approx(1.0 - ei.measures.RISK_CLAMP, abs=1e-15)


class TestLogOddsPrecision:
    """Risks near 1 must not cost digits: RCOR and RMOR against a 40-digit
    decimal reference computed from the linear predictors."""

    @staticmethod
    def reference(coef, spec, dist):
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = 40
            beta = [Decimal(float(b)) for b in coef]
            rcor_, pr, qr = Decimal(0), [Decimal(0)] * 4, [Decimal(0)] * 4
            for x, w in dist.weights.items():
                w = Decimal(w)
                values = dict(zip([f"x{i + 1}" for i in range(len(x))], x))
                eta = []
                for z1, z2 in EXPOSURE_LEVELS:
                    values.update(z1=z1, z2=z2)
                    eta.append(sum(
                        b * math.prod(values[v] for v in term.variables)
                        for b, term in zip(beta, spec.terms)
                    ))
                rcor_ += w * (eta[3] - eta[1] - eta[2] + eta[0]).exp()
                for i, e in enumerate(eta):
                    p = 1 / (1 + (-e).exp())
                    pr[i] += w * p
                    qr[i] += w * (1 - p)  # 40 digits leave ~30 near p = 1
            odds = [p / q for p, q in zip(pr, qr)]
            rmor_ = (odds[3] / odds[1]) / (odds[2] / odds[0])
            return float(rcor_), float(rmor_), [float(p) for p in pr]

    @staticmethod
    def vectors(fit_full):
        # the MLE with the intercept raised until the population risks are
        # about 1 - 1e-9, then draws 4 standard errors from the MLE in every
        # coefficient
        rng = np.random.default_rng(25)
        sd = np.sqrt(np.diag(fit_full.cov_robust))
        high = fit_full.coefficients.copy()
        high[0] += 19.0
        signs = rng.choice([-1.0, 1.0], size=(8, 8))
        return np.vstack([high, fit_full.coefficients + 4 * sd * signs])

    def test_near_one_risks_keep_full_precision(self, fit_full, spec_full, dist):
        B = self.vectors(fit_full)
        _, _, pr = self.reference(B[0], spec_full, dist)
        assert 1e-10 < 1.0 - max(pr) and 1.0 - min(pr) < 1e-8
        batch, _ = ei.measures.batch_measures(B, spec_full, dist)
        for i, coef in enumerate(B):
            rcor_, rmor_, _ = self.reference(coef, spec_full, dist)
            ms = ei.measure_set(coef, spec_full, dist)
            assert not ms.clamped
            for got in (ms.rcor, batch["RCOR"][i]):
                assert got == pytest.approx(rcor_, rel=1e-13)
            for got in (ms.rmor, batch["RMOR"][i], ei.rmor(ms.population_risks)):
                assert got == pytest.approx(rmor_, rel=1e-13)

    def test_rcor_is_exp_beta3_near_one(self, fit_reduced, spec_reduced, dist):
        # no z-x products: every stratum's ratio of odds ratios is exp(beta3)
        coef = fit_reduced.coefficients.copy()
        coef[0] += 19.0
        ms = ei.measure_set(coef, spec_reduced, dist)
        assert 1.0 - ms.population_risks[(1, 1)] < 1e-8
        assert ms.rcor == pytest.approx(math.exp(coef[3]), rel=1e-13)
