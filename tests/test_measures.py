import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epinteract as ei
from epinteract.data import CovariateDistribution
from epinteract.measures import EXPOSURE_LEVELS, RiskTable

from conftest import FULL_MEASURES, FULL_MODEL, REDUCED_MEASURES, random_risk_table


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
        spec = ei.parse_formula(FULL_MODEL, reordered.variable_names)
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
        per_row = 4 * len(dist.weights)
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
        from epinteract.measures import _measures, _pattern_design

        B = self.draws(fit_full, n)
        T, w = _pattern_design(spec_full, dist)
        padded = np.vstack([B, np.zeros((-n % 4, 8))])
        expected, _, _, _, clamped = _measures(padded @ T.T, w)
        unpadded = _measures(B @ T.T, w)[0]
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

        def recording(eta, w):
            sizes.append(len(eta))
            return kernel(eta, w)

        monkeypatch.setattr(ei.measures, "_measures", recording)
        self.batch(B, spec_full, dist, monkeypatch, rows)
        assert sizes == [step] * (47 // step) + [47 % step + 1]

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
