import dataclasses
import importlib
import io
import shutil
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import epinteract as ei
from epinteract import data as data_module
from epinteract.data import InputError, Dataset
from epinteract.measures import EXPOSURE_LEVELS

from conftest import binary_tables, many_patterns

# two pattern totals that sum past 2**53, where numpy's division of the
# totals as doubles rounds differently from Python's correctly rounded c / n
BIG_TOTALS = (14841613484987477, 139138151020518971)


def duplicate_message_reference(rows, k):
    """Plain-Python reference: the message for the first row whose
    (pattern, exposure pair) an earlier row already has, or None."""
    seen = set()
    for row in rows:
        key = (tuple(row[:k]), tuple(row[k:k + 2]))
        if key in seen:
            return f"duplicate cell for {key}"
        seen.add(key)
    return None


class TestStratumRecord:
    """One stratum record, a row of `Dataset.cells`: the cell rules, no
    duplicate cells, and counts that fit in int64."""

    def test_counts_validated(self):
        for row, message in [
            ((0, 0, 0, 1, 5, 4), "successes must lie in [0, totals], got 5/4"),
            ((0, 0, 0, 1, 0, 0), "totals must be >= 1, got 0"),
            ((0, 2, 0, 1, 1, 2), "covariates must be binary, got (0, 2)"),
        ]:
            with pytest.raises(InputError) as err:
                Dataset(cells=[row], covariate_names=("x1", "x2"))
            assert str(err.value) == message

    def test_duplicate_cells_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            Dataset(cells=[(0, 0, 1, 1, 2), (0, 0, 1, 1, 2)], covariate_names=("x1",))

    @given(binary_tables())
    @settings(max_examples=100, deadline=None)
    def test_pattern_rows(self, table):
        rows, names, _ = table
        data = Dataset(cells=rows, covariate_names=names)
        patterns, group = data.pattern_rows()
        k = len(names)
        assert patterns.tolist() == [list(x) for x in dict.fromkeys(tuple(r[:k]) for r in rows)]
        assert patterns[group].tolist() == [r[:k] for r in rows]
        assert not group.flags.writeable

    @given(binary_tables(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_duplicate_message_names_the_first_repeat(self, table, data):
        rows, names, _ = table
        repeats = data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
        rows = data.draw(st.permutations(rows + [[*r[:-2], 0, 1] for r in repeats]))
        with pytest.raises(InputError) as err:
            Dataset(cells=rows, covariate_names=names)
        assert str(err.value) == duplicate_message_reference(rows, len(names))

    @pytest.mark.parametrize("successes, totals",
                             [(2.0, 5), (1, 5.0), (1, 2**63), (2**64 - 1, 5)])
    def test_dataset_takes_only_int64_counts(self, successes, totals):
        # a float, or an int past int64, makes a float array; a dataset
        # stores its cells as int64 and rejects it
        with pytest.raises(InputError, match=r"cells must be integers of shape \(n, 5\)"):
            Dataset(cells=[(0, 1, 0, successes, totals)], covariate_names=("x1",))
        if isinstance(successes, int) and isinstance(totals, int):
            # as uint64 the value must be named, not wrapped to a negative int64
            cells = np.array([(0, 1, 0, successes, totals)], dtype=np.uint64)
            with pytest.raises(InputError) as err:
                Dataset(cells=cells, covariate_names=("x1",))
            assert str(err.value) == f"cells must fit in int64, got {max(successes, totals)}"

    @pytest.mark.parametrize("names, message", [
        (("x1", "x1"), "covariate name 'x1' appears twice"),
        (("z2", "x2"), "covariate name 'z2' is an exposure's name"),
    ])
    def test_covariate_names_distinct_and_not_exposures(self, names, message):
        with pytest.raises(InputError) as err:
            Dataset(cells=[(0, 0, 0, 1, 1, 2)], covariate_names=names)
        assert str(err.value) == message


class TestFixture:
    def test_cell_count_and_total(self, dataset):
        assert len(dataset.cells) == 30
        assert dataset.n_total == 109

    def test_covariate_names(self, dataset):
        assert dataset.covariate_names == ("x1", "x2", "x3")

    def test_unknown_fixture(self):
        with pytest.raises(InputError):
            ei.load_fixture("nope")

    def test_a_copy_under_another_name_loads_its_own_fixture(self, tmp_path, monkeypatch):
        # the fixture is found relative to the package that loads it
        copy = tmp_path / "epinteract_copy"
        shutil.copytree(Path(data_module.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        fixture = copy / "fixtures" / "nguyen2008.csv"
        fixture.write_text("".join(fixture.read_text().splitlines(keepends=True)[:-1]))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            loaded = importlib.import_module("epinteract_copy").load_fixture("nguyen2008")
        finally:
            for name in [m for m in sys.modules if m.partition(".")[0] == "epinteract_copy"]:
                del sys.modules[name]
        assert len(loaded.cells) == 29
        assert len(ei.load_fixture("nguyen2008").cells) == 30


class TestCovariateDistribution:
    def test_reference_pattern_weight(self, dataset, dist):
        # totals 4 + 7 + 3 + 8 across the four exposure cells of x=(0,0,0)
        assert dist.weights[(0, 0, 0)] == pytest.approx(22 / 109, abs=1e-15)

    def test_weights_sum_to_one(self, dist):
        assert sum(dist.weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(dist.weights) == 8

    def test_single_pattern(self):
        data = Dataset(
            cells=[(1, 0, 0, 1, 3)],
            covariate_names=("x1",),
        )
        d = ei.covariate_distribution(data)
        assert d.weights == {(1,): 1.0}

    def test_carries_covariate_names(self, dataset, dist):
        assert dist.covariate_names == dataset.covariate_names

    def test_name_count_must_match_pattern_width(self):
        with pytest.raises(InputError, match="1 covariate names"):
            ei.CovariateDistribution(weights={(0, 1): 1.0}, covariate_names=("x1",))

    @pytest.mark.parametrize("names", [("z1",), ("x1", "x1")])
    def test_names_distinct_and_not_exposures(self, names):
        with pytest.raises(InputError, match="covariate name"):
            ei.CovariateDistribution(weights={(0,) * len(names): 1.0}, covariate_names=names)

    def test_many_patterns_sum_to_one(self):
        # a plain float sum of the 1e5 weights reads 0.9999999999980838
        dist = ei.covariate_distribution(many_patterns())
        assert len(dist.weights) == 100_000

    @pytest.mark.parametrize("weights", [
        {(0,): float("nan")},
        {(0,): float("inf"), (1,): float("-inf")},
        {(0,): 0.5, (1,): float("nan"), (2,): 0.5},
        {(0,): 1.5, (1,): -0.5},
    ])
    def test_weights_lie_in_the_unit_interval(self, weights):
        with pytest.raises(InputError) as err:
            ei.CovariateDistribution(weights=weights)
        assert str(err.value) == "weights must lie in [0, 1]"

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError) as err:
            ei.CovariateDistribution(weights={(0,): 0.5, (1,): 0.25})
        assert str(err.value) == "weights must sum to 1, got 0.75"

    def test_ragged_patterns_refused(self):
        # without names there is no width to compare with, but a ragged
        # table is no (S, K) pattern array
        with pytest.raises(InputError) as err:
            ei.CovariateDistribution(weights={(0,): 0.5, (0, 1): 0.5})
        assert str(err.value) == "patterns of unequal lengths: (0,) and (0, 1)"

    def test_arrays_hold_the_dict(self, dist):
        assert dist.pattern_array.tolist() == [list(x) for x in dist.patterns]
        assert dist.weight_array.tolist() == list(dist.weights.values())
        given = {(0, 1): 0.25, (1, 1): 0.75}
        d = ei.CovariateDistribution(weights=given, covariate_names=("a", "b"))
        given[(0, 1)] = 0.5
        assert d.weights == {(0, 1): 0.25, (1, 1): 0.75}
        assert d.pattern_array.tolist() == [[0, 1], [1, 1]]
        assert d.weight_array.tolist() == [0.25, 0.75]
        assert repr(d) == ("CovariateDistribution(weights={(0, 1): 0.25, (1, 1): 0.75}, "
                           "covariate_names=('a', 'b'))")

    def test_frozen(self, dist):
        # the arrays are what the measures read: neither they nor any
        # attribute can be changed after construction
        for a in (dist.pattern_array, dist.weight_array):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            dist.weights = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            dist.covariate_names = ("a", "b", "c")
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete"):
            del dist.weight_array

    @given(binary_tables(max_total=2**57))
    @example(([[0, 0, 0, 1, BIG_TOTALS[0]], [1, 0, 0, 1, BIG_TOTALS[1]]], ("x1",), "y ~ z1"))
    @settings(max_examples=200, deadline=None)
    def test_weights_are_python_quotients(self, table):
        rows, names, _ = table
        k = len(names)
        totals = {}
        for row in rows:
            totals[tuple(row[:k])] = totals.get(tuple(row[:k]), 0) + row[-1]
        n = sum(totals.values())
        dist = ei.covariate_distribution(Dataset(cells=rows, covariate_names=names))
        assert list(dist.weights.items()) == [(x, c / n) for x, c in totals.items()]
        assert dist.pattern_array.tolist() == [list(x) for x in totals]

    def test_invariant_to_record_order(self, dataset):
        reversed_data = Dataset(
            cells=dataset.cells[::-1],
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
            cells=[(*z, 3 + i, 10) for i, z in enumerate(EXPOSURE_LEVELS)],
            covariate_names=(),
        )
        buf = io.StringIO()
        data.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "z1,z2,successes,totals"
        again = Dataset.from_csv(io.StringIO(buf.getvalue()))
        assert again == data
        assert again.covariate_names == ()
        assert ei.covariate_distribution(again).weights == {(): 1.0}

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(InputError) as err:
            Dataset.from_csv(path)
        assert str(err.value) == "empty CSV: no header row"

    def test_equality_and_hash(self, dataset):
        copy = Dataset(cells=dataset.cells.copy(), covariate_names=dataset.covariate_names)
        assert copy == dataset and hash(copy) == hash(dataset)
        assert (dataset == 3) is False
        assert dataset != Dataset(cells=dataset.cells[::-1],
                                  covariate_names=dataset.covariate_names)

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

    def test_quoted_line_break_counts_as_a_line(self):
        # the first row's quoted field spans lines 2 and 3, so the bad row
        # is on line 5 of the file, though it is the fourth CSV row
        text = 'x1,z1,z2,successes,totals\n"0\n",0,0,1,2\n1,0,0,1,2\n1,0,1,9,2\n'
        with pytest.raises(InputError) as err:
            Dataset.from_csv(io.StringIO(text))
        assert str(err.value) == "line 5: successes must lie in [0, totals], got 9/2"


def first_appearance_reference(rows):
    """Plain-Python grouping: each distinct row tuple numbered in order of
    first appearance."""
    groups = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        groups.setdefault(row, i)
    number = {row: g for g, row in enumerate(groups)}
    return list(groups.values()), [number[row] for row in map(tuple, rows.tolist())]


@st.composite
def zero_one_rows(draw):
    """Rows drawn from a pool of at most four 0/1 rows, so that repeats are
    common at any width."""
    k = draw(st.sampled_from([0, 1, 7, 8, 9, 64, 65, 70]))
    pool = draw(hnp.arrays(np.int64, (draw(st.integers(1, 4)), k), elements=st.integers(0, 1)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return pool[picks]


class TestFirstAppearance:
    @given(zero_one_rows())
    @example(np.zeros((1, 70), np.int64))  # a single row
    @example(np.ones((5, 65), np.int64))  # all rows equal
    @example(np.zeros((3, 0), np.int64))  # zero columns form one group
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_python(self, rows):
        first, group = data_module._first_appearance(rows)
        assert (first.tolist(), group.tolist()) == first_appearance_reference(rows)


class TestEncoding:
    """A CSV is UTF-8 text; a leading byte-order mark, which spreadsheet
    programs write, is not part of the first column's name."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_byte_order_mark_dropped(self, tmp_path, dataset, newline):
        buf = io.StringIO()
        dataset.to_csv(buf)
        text = "\ufeff" + buf.getvalue().replace("\n", newline)
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8"))
        assert Dataset.from_csv(path) == dataset
        assert Dataset.from_csv(io.StringIO(text, newline="")) == dataset
        with open(path, encoding="utf-8", newline="") as fh:
            assert Dataset.from_csv(fh) == dataset

    def test_byte_order_mark_before_a_quoted_name(self):
        text = '\ufeff"x1",z1,z2,successes,totals\n0,0,0,1,2\n'
        assert Dataset.from_csv(io.StringIO(text)).covariate_names == ("x1",)

    @pytest.mark.parametrize("body, line", [
        (b"\xff\xfe,0,0,1,2\n", 2),
        (b"0,0,0,1,2\r\n1,0,0,1,2\r\n1,\xe9,0,1,2\r\n", 4),
    ])
    def test_undecodable_bytes_name_their_line(self, tmp_path, body, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x1,z1,z2,successes,totals\n" + body)
        with pytest.raises(InputError, match=f"^line {line}: not UTF-8 text"):
            Dataset.from_csv(path)


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
        for huge in ("1" * 200_000, "0" * 200_000 + "1"):  # numpy reads the second as 1
            with pytest.raises(InputError, match="line 3: field larger than field limit"):
                Dataset.from_csv(io.StringIO(HEADER + f"0,0,0,0,1,2\n0,0,0,1,1,{huge}\n"))
        with pytest.raises(InputError, match="line 1: field larger"):
            Dataset.from_csv(io.StringIO(huge + "\n"))

    @pytest.mark.parametrize("spell", [
        lambda raw: raw,
        lambda raw: raw.replace(b"\n", b"\r\n"),
        lambda raw: b"\xef\xbb\xbf" + raw,
    ], ids=["lf", "crlf", "bom"])
    def test_valid_csv_is_checked_once_and_not_read_row_by_row(self, tmp_path, dataset, spell):
        path = tmp_path / "d.csv"
        path.write_bytes(spell(resources.files("epinteract.fixtures")
                               .joinpath("nguyen2008.csv").read_bytes()))
        patch = mock.patch.object
        with patch(data_module, "_check_cells", wraps=data_module._check_cells) as check, \
                patch(data_module, "_csv_cells", wraps=data_module._csv_cells) as rows:
            assert Dataset.from_csv(path) == dataset
        assert (check.call_count, rows.call_count) == (1, 0)

    def test_path_and_text_agree(self, tmp_path, dataset):
        path = tmp_path / "d.csv"
        dataset.to_csv(path)
        assert Dataset.from_csv(path) == dataset
        assert Dataset.from_csv(io.StringIO(path.read_text())) == dataset


def _row_by_row(text):
    """Reference reader: each row checked on its own, as CSV ingestion worked
    before it became columnar, with its own copy of the cell rules."""
    import csv

    reader = csv.reader(io.StringIO(text))
    header = [h.strip() for h in next(reader)]
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise InputError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            vals = [int(c) for c in row]
        except ValueError as exc:
            raise InputError(f"line {lineno}: non-integer field ({exc})") from None
        x, z, s, n = tuple(vals[:-4]), (vals[-4], vals[-3]), vals[-2], vals[-1]
        if not all(v in (0, 1) for v in x):
            raise InputError(f"line {lineno}: covariates must be binary, got {x}")
        if not all(v in (0, 1) for v in z):
            raise InputError(f"line {lineno}: exposures must be a binary pair, got {z}")
        if n < 1:
            raise InputError(f"line {lineno}: totals must be >= 1, got {n}")
        if not 0 <= s <= n:
            raise InputError(f"line {lineno}: successes must lie in [0, totals], got {s}/{n}")
        rows.append(vals)
    if not rows:
        raise InputError("dataset must contain at least one record")
    return Dataset(cells=rows, covariate_names=tuple(header[:-4]))


def _outcome(read, text):
    try:
        return read(text).cells.tolist()
    except InputError as exc:
        return str(exc)


_FIELDS = st.sampled_from(
    ["0", "1", "1", "0", "2", "-1", "7", " 1", "+1", "1_0", "", "x", "00", "-0", "3.0",
     "1e3", "\t1", "\xa01", "\uff11", '"1"', "#1", "nan", "0" * 4300 + "1"]
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
        if data.draw(st.booleans()):  # one field too many on every row
            lines = [line + "," + data.draw(_FIELDS) for line in lines]
        if data.draw(st.booleans()):
            blank = data.draw(st.sampled_from(["", " ", ","]))
            lines.insert(data.draw(st.integers(0, len(lines))), blank)
        header = ",".join([f"x{i + 1}" for i in range(k)] + ["z1", "z2", "successes", "totals"])
        text = header + "\n" + "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))
        expected = _outcome(_row_by_row, text)
        assert _outcome(lambda t: Dataset.from_csv(io.StringIO(t)), text) == expected
        for eol in ("\r\n", "\r"):  # read as from a path, CRLF and CR give the LF outcome
            spelled = io.StringIO(text.replace("\n", eol), newline="")
            assert _outcome(Dataset.from_csv, spelled) == expected

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
        rows = built.cells.tolist()
        order.shuffle(rows)
        built = Dataset(cells=rows, covariate_names=names)
        buf = io.StringIO()
        built.to_csv(buf)
        read = Dataset.from_csv(io.StringIO(buf.getvalue()))
        assert read == built
        assert read.cells.tolist() == built.cells.tolist()
        assert read.n_total == built.n_total
        spec = ei.parse_formula("y ~ z1 + z2 + z1:z2" + "".join(f" + {x}" for x in names))
        for a, b in zip(ei.expand_dataset(read, spec), ei.expand_dataset(built, spec)):
            np.testing.assert_array_equal(a, b)
        assert ei.covariate_distribution(read).weights == \
            ei.covariate_distribution(built).weights
        assert list(ei.covariate_distribution(read).weights) == list(
            dict.fromkeys(tuple(r[:k]) for r in rows))
