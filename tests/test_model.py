import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epinteract as ei
from epinteract.data import Dataset, StratumRecord
from epinteract.model import ModelSpec, SpecificationError, Term

VARIABLES = ("x1", "x2", "x3", "z1", "z2")
_product = st.tuples(st.sampled_from(VARIABLES), st.sampled_from(VARIABLES)).filter(
    lambda pair: pair[0] != pair[1]
).map(lambda pair: tuple(sorted(pair)))
TERM_FACTORS = st.one_of(st.sampled_from(VARIABLES).map(lambda v: (v,)), _product)


class TestTerm:
    def test_product_variables_canonical(self):
        assert Term("product", ("z1", "x2")) == Term("product", ("x2", "z1"))

    def test_product_needs_distinct_variables(self):
        with pytest.raises(SpecificationError):
            Term("product", ("z1", "z1"))

    def test_exactly_one_intercept(self):
        with pytest.raises(SpecificationError):
            ModelSpec(terms=(Term("main", ("z1",)),))
        with pytest.raises(SpecificationError):
            ModelSpec(terms=(Term("intercept"), Term("intercept")))


class TestBuildDesignRow:
    def test_full_model_reference_points(self, spec_full):
        row = ei.build_design_row((1, 1), (0, 0, 0), spec_full)
        assert np.array_equal(row, [1, 1, 1, 1, 0, 0, 0, 0])
        row = ei.build_design_row((1, 0), (0, 1, 0), spec_full)
        assert np.array_equal(row, [1, 1, 0, 0, 0, 1, 0, 1])

    def test_reduced_model_baseline(self, spec_reduced):
        row = ei.build_design_row((0, 0), (0, 0, 0), spec_reduced)
        assert np.array_equal(row, [1, 0, 0, 0, 0, 0, 0])

    def test_unresolvable_variable(self):
        spec = ei.parse_formula("y ~ z1 + x9")
        with pytest.raises(SpecificationError, match="x9"):
            ei.build_design_row((0, 0), (0, 0, 0), spec)

    @given(st.integers(0, 4), st.data())
    def test_flipping_one_variable_touches_only_its_columns(self, idx, data):
        spec = ei.parse_formula("y ~ z1 + z2 + z1:z2 + x1 + x2 + z1:x2 + x1:x2")
        bits = data.draw(st.lists(st.integers(0, 1), min_size=5, max_size=5))
        names = ["x1", "x2", "x3", "z1", "z2"]
        flipped = list(bits)
        flipped[idx] ^= 1
        row_a = ei.build_design_row(tuple(bits[3:]), tuple(bits[:3]), spec)
        row_b = ei.build_design_row(tuple(flipped[3:]), tuple(flipped[:3]), spec)
        changed = {j for j in range(len(spec.terms)) if row_a[j] != row_b[j]}
        referencing = {
            j for j, t in enumerate(spec.terms) if names[idx] in t.variables
        }
        assert changed <= referencing


class TestDesignMatrix:
    @given(
        factors=st.lists(TERM_FACTORS, min_size=1, max_size=10, unique=True),
        order=st.permutations(VARIABLES[:3]),
        rows=st.lists(
            st.fixed_dictionaries({v: st.integers(0, 1) for v in VARIABLES}),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_term_oracle(self, factors, order, rows):
        spec = ei.parse_formula("y ~ " + " + ".join(":".join(f) for f in factors))
        X = ei.design_matrix(
            [(r["z1"], r["z2"]) for r in rows],
            [[r[name] for name in order] for r in rows],
            spec,
            order,
        )
        expected = [
            [float(np.prod([r[v] for v in term.variables])) for term in spec.terms]
            for r in rows
        ]
        assert X.shape == (len(rows), len(spec.terms))
        assert X.tolist() == expected


class TestExpandDataset:
    def test_full_model_shape(self, dataset, spec_full):
        X, s, n = ei.expand_dataset(dataset, spec_full)
        assert X.shape == (30, 8)
        assert s.shape == n.shape == (30,)

    def test_reduced_model_shape(self, dataset, spec_reduced):
        X, _, _ = ei.expand_dataset(dataset, spec_reduced)
        assert X.shape == (30, 7)

    def test_intercept_only_single_record(self):
        from epinteract.data import Dataset, StratumRecord

        data = Dataset(
            records=(StratumRecord((0,), (0, 0), 1, 2),), covariate_names=("x1",)
        )
        spec = ModelSpec(terms=(Term("intercept"),))
        X, s, n = ei.expand_dataset(data, spec)
        assert X.tolist() == [[1.0]]

    def test_rows_match_build_design_row(self, dataset, spec_full):
        X, _, _ = ei.expand_dataset(dataset, spec_full)
        for i, rec in enumerate(dataset.records):
            row = ei.build_design_row(
                rec.exposures, rec.covariates, spec_full, dataset.covariate_names
            )
            assert np.array_equal(X[i], row)

    def test_no_covariates_expand_fit_and_measure(self):
        cells = {(0, 0): (3, 10), (0, 1): (5, 12), (1, 0): (4, 9), (1, 1): (8, 11)}
        data = Dataset(
            records=tuple(StratumRecord((), z, s, n) for z, (s, n) in cells.items()),
            covariate_names=(),
        )
        spec = ei.parse_formula("y ~ z1 + z2", data.variable_names)
        X, s, n = ei.expand_dataset(data, spec)
        assert X.tolist() == [[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
        f = ei.fit(X, s, n)
        assert f.converged
        dist = ei.covariate_distribution(data)
        ms = ei.measure_set(f.coefficients, spec, dist)
        fitted = 1.0 / (1.0 + np.exp(-(X @ f.coefficients)))
        for i, z in enumerate(cells):
            assert ms.population_risks[z] == pytest.approx(fitted[i], rel=1e-12)
        assert np.isfinite(list(ms.as_dict().values())).all()

    def test_unknown_variable_rejected(self, dataset):
        spec = ei.parse_formula("y ~ z1 + x7")
        with pytest.raises(SpecificationError, match="x7"):
            ei.expand_dataset(dataset, spec)


class TestParseFormula:
    def test_simple(self):
        spec = ei.parse_formula("y ~ z1 + z2 + z1:z2")
        assert len(spec.terms) == 4
        assert spec.terms[0].kind == "intercept"

    def test_full_model_term_count(self, dataset):
        spec = ei.parse_formula(
            "y ~ z1 + z2 + z1:z2 + x1 + x2 + x3 + z1:x2", dataset.variable_names
        )
        assert len(spec.terms) == 8

    def test_duplicate_rejected(self):
        with pytest.raises(SpecificationError, match="duplicate"):
            ei.parse_formula("y ~ z1 + z1")
        with pytest.raises(SpecificationError, match="duplicate"):
            ei.parse_formula("y ~ z1:z2 + z2:z1")

    def test_unknown_variable_with_header(self):
        with pytest.raises(SpecificationError, match="q"):
            ei.parse_formula("y ~ q", header=("x1", "z1", "z2"))

    def test_malformed(self):
        with pytest.raises(SpecificationError):
            ei.parse_formula("y ~ z1 + ")
        with pytest.raises(SpecificationError):
            ei.parse_formula("")
        with pytest.raises(SpecificationError):
            ei.parse_formula("y ~ z1:z2:x1")
