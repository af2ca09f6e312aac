import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epinteract as ei
from epinteract.data import InputError, StratumRecord, Dataset
from epinteract.measures import EXPOSURE_LEVELS


class TestStratumRecord:
    def test_counts_validated(self):
        with pytest.raises(InputError):
            StratumRecord((0, 0), (0, 1), successes=5, totals=4)
        with pytest.raises(InputError):
            StratumRecord((0, 0), (0, 1), successes=0, totals=0)
        with pytest.raises(InputError):
            StratumRecord((0, 2), (0, 1), successes=1, totals=2)

    def test_duplicate_cells_rejected(self):
        rec = StratumRecord((0,), (0, 1), 1, 2)
        with pytest.raises(InputError, match="duplicate"):
            Dataset(records=(rec, rec), covariate_names=("x1",))

    @pytest.mark.parametrize("successes, totals", [(2.0, 5), (1, 5.0), (1, 2**63)])
    def test_dataset_takes_only_int64_counts(self, successes, totals):
        # a record may hold a float or an unbounded int; a dataset stores
        # its cells as int64 and rejects both
        rec = StratumRecord((0,), (0, 1), successes, totals)
        with pytest.raises(InputError, match=r"cells must be integers of shape \(n, 5\)"):
            Dataset(records=(rec,), covariate_names=("x1",))


class TestFixture:
    def test_cell_count_and_total(self, dataset):
        assert len(dataset.records) == 30
        assert dataset.n_total == 109

    def test_covariate_names(self, dataset):
        assert dataset.covariate_names == ("x1", "x2", "x3")
        assert dataset.variable_names == ("x1", "x2", "x3", "z1", "z2")

    def test_unknown_fixture(self):
        with pytest.raises(InputError):
            ei.load_fixture("nope")


class TestCovariateDistribution:
    def test_reference_pattern_weight(self, dataset, dist):
        # totals 4 + 7 + 3 + 8 across the four exposure cells of x=(0,0,0)
        assert dist.weights[(0, 0, 0)] == pytest.approx(22 / 109, abs=1e-15)

    def test_weights_sum_to_one(self, dist):
        assert sum(dist.weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(dist.weights) == 8

    def test_single_pattern(self):
        data = Dataset(
            records=(StratumRecord((1,), (0, 0), 1, 3),),
            covariate_names=("x1",),
        )
        d = ei.covariate_distribution(data)
        assert d.weights == {(1,): 1.0}

    def test_carries_covariate_names(self, dataset, dist):
        assert dist.covariate_names == dataset.covariate_names

    def test_name_count_must_match_pattern_width(self):
        with pytest.raises(InputError, match="1 covariate names"):
            ei.CovariateDistribution(weights={(0, 1): 1.0}, covariate_names=("x1",))

    def test_invariant_to_record_order(self, dataset):
        reversed_data = Dataset(
            records=tuple(reversed(dataset.records)),
            covariate_names=dataset.covariate_names,
        )
        assert ei.covariate_distribution(reversed_data).weights == \
            ei.covariate_distribution(dataset).weights


class TestCsv:
    def test_round_trip(self, dataset):
        buf = io.StringIO()
        dataset.to_csv(buf)
        again = Dataset.from_csv(io.StringIO(buf.getvalue()))
        assert again == dataset

    def test_round_trip_without_covariates(self):
        # to_csv writes a dataset with no covariates as a four-column header
        data = Dataset(
            records=tuple(StratumRecord((), z, 3 + i, 10)
                          for i, z in enumerate(EXPOSURE_LEVELS)),
            covariate_names=(),
        )
        buf = io.StringIO()
        data.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "z1,z2,successes,totals"
        again = Dataset.from_csv(io.StringIO(buf.getvalue()))
        assert again == data
        assert again.covariate_names == ()
        assert ei.covariate_distribution(again).weights == {(): 1.0}

    def test_malformed_row_cites_line(self):
        text = "x1,z1,z2,successes,totals\n0,0,0,1,2\n0,1,oops,1,2\n"
        with pytest.raises(InputError, match="line 3"):
            Dataset.from_csv(io.StringIO(text))

    def test_bad_header(self):
        with pytest.raises(InputError, match="header"):
            Dataset.from_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_count_violation_cites_line(self):
        text = "x1,z1,z2,successes,totals\n0,0,0,3,2\n"
        with pytest.raises(InputError, match="line 2"):
            Dataset.from_csv(io.StringIO(text))


HEADER = "x1,x2,z1,z2,successes,totals\n"


class TestIngestionParity:
    """Bulk ingestion raises the row-by-row reader's message and line number
    for the first bad row."""

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,0,1,2,5\n0,2,0,1,2,5\n",
             "line 3: covariates must be binary, got (0, 2)"),
            ("0,1,0,1,2,5\n0,1,2,0,2,5\n",
             "line 3: exposures must be a binary pair, got (2, 0)"),
            ("0,1,0,1,0,0\n", "line 2: totals must be >= 1, got 0"),
            ("0,1,0,1,6,5\n", "line 2: successes must lie in [0, totals], got 6/5"),
            ("0,1,0,1,-1,5\n", "line 2: successes must lie in [0, totals], got -1/5"),
            ("0,1,0,1,x,5\n",
             "line 2: non-integer field (invalid literal for int() with base 10: 'x')"),
            ("0,1,0,1,5\n", "line 2: expected 6 fields, got 5"),
            ("0,1,0,1,1,5\n1,1,0,0,1,2\n0,1,0,1,2,3\n",
             "duplicate cell for ((0, 1), (0, 1))"),
            # blank and all-empty rows are skipped but still counted
            ("0,1,0,1,1,5\n\n\n0,2,0,1,1,5\n",
             "line 5: covariates must be binary, got (0, 2)"),
            ("\n,,,,,\n0,1,0,1,1,5\n \n0,1,0,1,9,5\n",
             "line 6: successes must lie in [0, totals], got 9/5"),
            ("\n\n0,1,0,1,x,5\n",
             "line 4: non-integer field (invalid literal for int() with base 10: 'x')"),
            ("0,1,0,1,1,5\n\n0,1\n", "line 4: expected 6 fields, got 2"),
            # the first bad row wins, whatever is wrong with it
            ("0,1,0,0,9,5\n0,1,0,1,x,5\n",
             "line 2: successes must lie in [0, totals], got 9/5"),
            ("0,1,0,1,x,5\n0,1,0,0,9,5\n",
             "line 2: non-integer field (invalid literal for int() with base 10: 'x')"),
            ("0,1,0,1,1,5\n0,3,0,1,1,5\n0,1,0,1,1,5\n",
             "line 3: covariates must be binary, got (0, 3)"),
            ("0,1,0,1,1,5\n0,1,0,1,1,5\n0,1,0,1,y,5\n",
             "line 4: non-integer field (invalid literal for int() with base 10: 'y')"),
            ("2,1,5,0,9,0\n", "line 2: covariates must be binary, got (2, 1)"),
            ("", "dataset must contain at least one record"),
        ],
    )
    def test_first_bad_row_message(self, body, message):
        with pytest.raises(InputError) as err:
            Dataset.from_csv(io.StringIO(HEADER + body))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "body",
        [
            " 1,+1,0,0,1_0,2_0\n",  # int() accepts spaces, signs and underscores
            "1,1,0,0,1,20\r\n0,0,0,0,1,2\r\n",
            '"0",1,0,1,1,5\n',
            "00,01,0,1,001,5\n-0,1,0,0,1,5",
        ],
    )
    def test_int_rules_kept(self, body):
        data = Dataset.from_csv(io.StringIO(HEADER + body))
        expected = [[int(c) for c in line.replace('"', "").split(",")]
                    for line in body.splitlines()]
        assert data.cells.tolist() == expected

    def test_large_counts_do_not_wrap(self):
        text = HEADER + f"0,0,0,0,1,{2**62}\n0,0,0,1,1,{2**62 - 1}\n"
        data = Dataset.from_csv(io.StringIO(text))
        assert data.n_total == 2**63 - 1
        assert ei.covariate_distribution(data).weights == {(0, 0): 1.0}
        with pytest.raises(InputError, match="less than 2"):
            Dataset.from_csv(io.StringIO(text + "1,0,0,0,1,1\n"))
        with pytest.raises(InputError, match="line 3: field outside"):
            Dataset.from_csv(io.StringIO(HEADER + f"0,0,0,0,1,2\n0,0,0,1,1,{2**63}\n"))

    def test_csv_module_errors_are_input_errors(self):
        huge = "1" * 200_000
        with pytest.raises(InputError, match="line 3: field larger than field limit"):
            Dataset.from_csv(io.StringIO(HEADER + f"0,0,0,0,1,2\n0,0,0,1,1,{huge}\n"))
        with pytest.raises(InputError, match="line 1: field larger"):
            Dataset.from_csv(io.StringIO(huge + "\n"))

    def test_path_and_text_agree(self, tmp_path, dataset):
        path = tmp_path / "d.csv"
        dataset.to_csv(path)
        assert Dataset.from_csv(path) == dataset
        assert Dataset.from_csv(io.StringIO(path.read_text())) == dataset


def _row_by_row(text):
    """Reference reader: one StratumRecord per row, as CSV ingestion worked
    before it became columnar."""
    import csv

    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise InputError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            vals = [int(c) for c in row]
        except ValueError as exc:
            raise InputError(f"line {lineno}: non-integer field ({exc})") from None
        try:
            records.append(StratumRecord(tuple(vals[:-4]), (vals[-4], vals[-3]),
                                         vals[-2], vals[-1]))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return Dataset(records=tuple(records), covariate_names=tuple(header[:-4]))


def _outcome(read, text):
    try:
        return read(text).records
    except InputError as exc:
        return str(exc)


_FIELDS = st.sampled_from(
    ["0", "1", "1", "0", "2", "-1", "7", " 1", "+1", "1_0", "", "x", "00", "-0", "3.0"]
)


@st.composite
def _tables(draw):
    k = draw(st.integers(0, 3))
    rows = draw(st.lists(
        st.tuples(st.lists(st.integers(0, 1), min_size=k + 2, max_size=k + 2),
                  st.integers(1, 40), st.integers(0, 40)),
        min_size=1, max_size=12,
    ))
    lines = [",".join(map(str, bits + [min(s, n), n])) for bits, n, s in rows]
    return k, lines


class TestIngestionProperties:
    @given(table=_tables(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_by_row_reader(self, table, data):
        k, lines = table
        lines = list(lines)
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(lines) - 1))
            fields = lines[i].split(",")
            j = data.draw(st.integers(0, len(fields) - 1))
            fields[j] = data.draw(_FIELDS)
            if data.draw(st.booleans()):
                fields = fields[:-1]
            lines[i] = ",".join(fields)
        if data.draw(st.booleans()):
            lines.insert(data.draw(st.integers(0, len(lines))), "")
        header = ",".join([f"x{i + 1}" for i in range(k)] + ["z1", "z2", "successes", "totals"])
        text = header + "\n" + "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))
        expected = _outcome(_row_by_row, text)
        assert _outcome(lambda t: Dataset.from_csv(io.StringIO(t)), text) == expected

    @given(table=_tables(), order=st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_and_views(self, table, order):
        k, lines = table
        names = tuple(f"x{i + 1}" for i in range(k))
        header = ",".join(names + ("z1", "z2", "successes", "totals"))
        try:
            built = _row_by_row(header + "\n" + "\n".join(lines) + "\n")
        except InputError:
            return  # duplicate cells
        records = list(built.records)
        order.shuffle(records)
        built = Dataset(records=tuple(records), covariate_names=names)
        buf = io.StringIO()
        built.to_csv(buf)
        read = Dataset.from_csv(io.StringIO(buf.getvalue()))
        assert read == built
        assert read.records == built.records
        assert read.n_total == built.n_total
        spec = ei.parse_formula("y ~ z1 + z2 + z1:z2" + "".join(f" + {x}" for x in names))
        for a, b in zip(ei.expand_dataset(read, spec), ei.expand_dataset(built, spec)):
            np.testing.assert_array_equal(a, b)
        assert ei.covariate_distribution(read).weights == \
            ei.covariate_distribution(built).weights
        assert list(ei.covariate_distribution(read).weights) == list(
            dict.fromkeys(r.covariates for r in records))
