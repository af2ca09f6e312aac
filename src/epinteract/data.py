"""Stratified count data: datasets, CSV ingestion and the empirical
covariate distribution used for standardization.

A dataset keeps its cells in one integer array, one row per cell. CSV
ingestion fills that array directly, and every array is checked in bulk
against the cell rules.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import warnings
from dataclasses import FrozenInstanceError, dataclass
from importlib import resources

import numpy as np

__all__ = [
    "Dataset",
    "CovariateDistribution",
    "covariate_distribution",
    "load_fixture",
    "FIXTURES",
    "InputError",
]


# the CSV header ends with the two exposures and the two counts
EXPOSURE_NAMES = ("z1", "z2")
EXPOSURE_LEVELS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (z1, z2); per-pair arrays keep this order
COUNT_NAMES = ("successes", "totals")


class InputError(ValueError):
    """Malformed or inconsistent input data."""


def _check_cells(cells, k, linenos=None):
    """Raise an InputError for the first row of `cells` that breaks a cell
    rule, after "line N: " when `linenos` holds the rows' line numbers. The
    rules, checked in this order: binary covariates, a binary exposure pair,
    totals >= 1, and successes in [0, totals]."""
    bits, s, n = cells[:, :k + 2], cells[:, -2], cells[:, -1]
    bad = np.flatnonzero(((bits != 0) & (bits != 1)).any(axis=1) | (n < 1) | (s < 0) | (s > n))
    if bad.size:
        row = cells[bad[0]].tolist()
        x, z, (s, n) = tuple(row[:k]), tuple(row[k:k + 2]), row[-2:]
        if not all(v in (0, 1) for v in x):
            rule = f"covariates must be binary, got {x}"
        elif not all(v in (0, 1) for v in z):
            rule = f"exposures must be a binary pair, got {z}"
        elif n < 1:
            rule = f"totals must be >= 1, got {n}"
        else:
            rule = f"successes must lie in [0, totals], got {s}/{n}"
        where = "" if linenos is None else f"line {linenos[bad[0]]}: "
        raise InputError(where + rule)


def _check_names(names):
    """Raise an InputError unless the covariate names are distinct and none
    is an exposure's, so that each name picks out its own column."""
    for j, name in enumerate(names):
        if name in names[:j]:
            raise InputError(f"covariate name {name!r} appears twice")
        if name in EXPOSURE_NAMES:
            raise InputError(f"covariate name {name!r} is an exposure's name")


def _first_appearance(rows):
    """Group the equal rows of a 0/1 array: the index of each group's first
    row, in order of first appearance, and the group number of every row."""
    # eight columns to a byte and eight bytes to a big-endian word (at least
    # one, so that zero columns form one group); a stable sort by the words
    # puts each group's rows together, its first row first
    packed = np.packbits(rows.astype(bool), axis=1)
    width = 8 * max(1, -(-packed.shape[1] // 8))
    words = np.zeros((len(rows), width), np.uint8)
    words[:, :packed.shape[1]] = packed
    words = words.view(">u8")
    order = np.lexsort(words.T)
    ordered = words[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    firsts = order[starts]  # each group's first row, groups in sorted order
    rank = np.argsort(firsts)
    number = np.empty_like(rank)
    number[rank] = np.arange(len(rank))
    group = np.empty_like(order)
    group[order] = number[np.cumsum(starts) - 1]
    return firsts[rank], group


@dataclass(frozen=True, eq=False)
class Dataset:
    """Cells plus covariate labels, `Dataset(cells, covariate_names)`. Row i
    of `cells` holds cell i's covariates x1..xK, then z1, z2, successes and
    totals. Cells with zero totals are simply absent, never stored.

    `cells` may be any integer array-like of shape (n, K + 4) whose values
    fit in int64; it is kept as a read-only int64 array. A float count such
    as 2.0 is rejected. The cells are grouped by covariate pattern once;
    `pattern_rows` returns that grouping.
    """

    cells: np.ndarray
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        names = tuple(self.covariate_names)
        _check_names(names)
        k = len(names)
        cells = np.array(self.cells)
        if cells.dtype.kind not in "biu" or cells.ndim != 2 or cells.shape[1] != k + 4:
            raise InputError(
                f"cells must be integers of shape (n, {k + 4}), "
                f"got {cells.dtype} {cells.shape}"
            )
        if not len(cells):
            raise InputError("dataset must contain at least one record")
        # an unsigned value of 2**63 or more would wrap in the cast below
        if cells.dtype.kind == "u" and int(cells.max()) >= 2**63:
            raise InputError(f"cells must fit in int64, got {cells.max()}")
        cells = cells.astype(np.int64, copy=False)
        _check_cells(cells, k)
        # so that no 64-bit sum of totals can wrap
        if sum(cells[:, -1].tolist()) >= 2**63:
            raise InputError("totals must add up to less than 2**63")
        first, group = _first_appearance(cells[:, :k])
        # a cell is its pattern and exposure pair; name the first row whose
        # pattern and pair an earlier row has
        firsts = np.unique(4 * group + 2 * cells[:, k] + cells[:, k + 1], return_index=True)[1]
        if len(firsts) < len(cells):
            row = cells[np.setdiff1d(np.arange(len(cells)), firsts)[0]].tolist()
            raise InputError(f"duplicate cell for {(tuple(row[:k]), tuple(row[k:k + 2]))}")
        cells.setflags(write=False)
        group.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "covariate_names", names)
        object.__setattr__(self, "_patterns", (first, group))

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.covariate_names == other.covariate_names
                and np.array_equal(self.cells, other.cells))

    def __hash__(self):
        return hash((self.covariate_names, self.cells.tobytes()))

    def pattern_rows(self):
        """The covariate patterns (S, K), in order of first appearance, and
        each cell's pattern number (n,), read-only."""
        first, group = self._patterns
        return self.cells[first, :len(self.covariate_names)], group

    @property
    def n_total(self) -> int:
        return int(self.cells[:, -1].sum())

    @classmethod
    def from_csv(cls, source) -> "Dataset":
        """Read a dataset from a CSV path, which must be UTF-8, or a text
        file object; a leading byte-order mark is dropped.

        Expected header: x-covariate columns, then z1, z2, successes, totals.
        """
        if hasattr(source, "read"):
            return cls._parse(source)
        with open(source, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise InputError(f"line {line}: not UTF-8 text ({exc.reason})") from None
        return cls._parse(io.StringIO(text, newline=""))

    @classmethod
    def _parse(cls, fh) -> "Dataset":
        lines = list(fh)
        lines[:1] = [line.removeprefix("\ufeff") for line in lines[:1]]  # a byte-order mark
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("empty CSV: no header row") from None
        except csv.Error as exc:
            raise InputError(f"line 1: {exc}") from None
        header = [h.strip() for h in header]
        tail = [*EXPOSURE_NAMES, *COUNT_NAMES]
        if header[-4:] != tail:
            raise InputError(f"CSV header must end with {tail}, got {header}")
        cov_names = tuple(header[:-4])
        body = lines[reader.line_num:]
        try:  # numpy's C reader; a body it refuses, or cells the dataset refuses, go row by row
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy 1.x reads "3.0" as 3, with a warning
                cells = np.loadtxt(body, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
            # int() refuses a field over 4300 digits (csv one over 131072 chars) that numpy reads
            if max(map(len, body)) <= 4300:
                return cls(cells=cells, covariate_names=cov_names)
        except (ValueError, Warning):
            pass
        cells, linenos, error = _csv_cells(reader, len(header))
        # a row-by-row reader stops at the first bad row, whatever is wrong
        # with it; rows after an unparsable one are never read
        _check_cells(cells, len(cov_names), linenos)
        if error is not None:
            raise error
        return cls(cells=cells, covariate_names=cov_names)

    def to_csv(self, target) -> None:
        """Write the dataset back out in the ingestion format."""
        def _write(fh):
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(self.covariate_names + EXPOSURE_NAMES + COUNT_NAMES)
            w.writerows(self.cells.tolist())

        if hasattr(target, "write"):
            _write(target)
        else:
            with open(target, "w", newline="", encoding="utf-8") as fh:
                _write(fh)


def _csv_cells(reader, width: int):
    """Rows read one at a time with the csv module and int(): (cells, line
    numbers, error). Reading stops at the first row that cannot be parsed,
    and the error for it is returned rather than raised."""
    rows, linenos, error = [], [], None
    try:
        for row in reader:
            lineno = reader.line_num  # the row's last line; a quoted field may span lines
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != width:
                error = InputError(
                    f"line {lineno}: expected {width} fields, got {len(row)}"
                )
                break
            try:
                vals = [int(c) for c in row]
            except ValueError as exc:
                error = InputError(f"line {lineno}: non-integer field ({exc})")
                break
            if not -2**63 <= min(vals) <= max(vals) < 2**63:
                error = InputError(
                    f"line {lineno}: field outside the 64-bit integer range"
                )
                break
            rows.append(vals)
            linenos.append(lineno)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        error = InputError(f"line {reader.line_num}: {exc}")
    return np.array(rows, dtype=np.int64).reshape(-1, width), linenos, error


def _check_weights(w):
    """Raise an InputError unless the weights w (S,) are a distribution."""
    if not ((w >= 0) & (w <= 1)).all():
        raise InputError("weights must lie in [0, 1]")
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > 1e-12:
        raise InputError(f"weights must sum to 1, got {total!r}")


class CovariateDistribution:
    """Empirical distribution of covariate patterns: pattern -> sample
    proportion. `covariate_names` names the pattern's columns in order; None
    reads them as x1..xK. The patterns are kept as the read-only rows of
    `pattern_array` (S, K) and their weights as the read-only `weight_array`
    (S,); the dict `weights` (a copy of the one given) and the list
    `patterns` are built on first use. Attributes cannot be assigned."""

    def __init__(self, weights: dict[tuple[int, ...], float], covariate_names=None):
        w = np.fromiter(weights.values(), float, len(weights))
        _check_weights(w)
        if covariate_names is not None:
            _check_names(covariate_names)
        patterns = list(weights)
        width = len(patterns[0] if covariate_names is None else covariate_names)
        for x in patterns:
            if len(x) != width:
                raise InputError(f"patterns of unequal lengths: {patterns[0]} and {x}"
                                 if covariate_names is None else
                                 f"{width} covariate names for the pattern {x}")
        self._fill(np.array(patterns).reshape(len(w), width), w, covariate_names)
        self.__dict__["weights"] = dict(weights)

    @classmethod
    def _from_arrays(cls, patterns, w, covariate_names):
        """The distribution of the pattern rows (S, K) with weights w (S,)."""
        _check_weights(w)
        dist = cls.__new__(cls)
        dist._fill(patterns, w, covariate_names)
        return dist

    def _fill(self, patterns, w, covariate_names):
        patterns.setflags(write=False)
        w.setflags(write=False)
        self.__dict__.update(pattern_array=patterns, weight_array=w,
                             covariate_names=covariate_names)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return (f"{type(self).__qualname__}(weights={self.weights!r}, "
                f"covariate_names={self.covariate_names!r})")

    @functools.cached_property
    def weights(self) -> dict[tuple[int, ...], float]:
        return dict(zip(map(tuple, self.pattern_array.tolist()), self.weight_array.tolist()))

    @property
    def patterns(self) -> list[tuple[int, ...]]:
        return list(self.weights)


def covariate_distribution(data: Dataset) -> CovariateDistribution:
    """Proportion of subjects with each covariate pattern, marginal over
    exposure, with the dataset's covariate names; patterns in order of first
    appearance."""
    patterns, group = data.pattern_rows()
    counts = np.zeros(len(patterns), dtype=np.int64)
    np.add.at(counts, group, data.cells[:, -1])
    n = data.n_total
    w = np.array([c / n for c in counts.tolist()])
    return CovariateDistribution._from_arrays(patterns, w, data.covariate_names)


FIXTURES = ("nguyen2008",)


def load_fixture(name: str) -> Dataset:
    """Load a bundled dataset by name."""
    if name not in FIXTURES:
        raise InputError(f"unknown fixture {name!r}; available: {FIXTURES}")
    text = (resources.files(__package__) / "fixtures" / f"{name}.csv").read_text()
    return Dataset.from_csv(io.StringIO(text))
