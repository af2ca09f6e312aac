"""Stratified count data: cell records, datasets, CSV ingestion and the
empirical covariate distribution used for standardization.

A dataset keeps its cells in one integer array, one row per cell. CSV
ingestion fills that array directly and validates it in bulk; per-cell
`StratumRecord` objects are built only when `Dataset.records` is read.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

__all__ = [
    "StratumRecord",
    "Dataset",
    "CovariateDistribution",
    "covariate_distribution",
    "load_fixture",
    "FIXTURES",
    "InputError",
]


class InputError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class StratumRecord:
    """One covariate-by-exposure cell: counts of successes out of totals."""

    covariates: tuple[int, ...]
    exposures: tuple[int, int]
    successes: int
    totals: int

    def __post_init__(self):
        if not all(v in (0, 1) for v in self.covariates):
            raise InputError(f"covariates must be binary, got {self.covariates}")
        if len(self.exposures) != 2 or not all(v in (0, 1) for v in self.exposures):
            raise InputError(f"exposures must be a binary pair, got {self.exposures}")
        if self.totals < 1:
            raise InputError(f"totals must be >= 1, got {self.totals}")
        if not 0 <= self.successes <= self.totals:
            raise InputError(
                f"successes must lie in [0, totals], got {self.successes}/{self.totals}"
            )

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, int]]:
        return (self.covariates, self.exposures)


def _invalid_row(cells, k):
    """(index, reason) for the first row of `cells` that StratumRecord would
    reject, with its reason; None when every row is a valid cell."""
    x, z, s, n = cells[:, :k], cells[:, k:k + 2], cells[:, -2], cells[:, -1]
    failed = np.stack([
        ((x != 0) & (x != 1)).any(axis=1),
        ((z != 0) & (z != 1)).any(axis=1),
        n < 1,
        (s < 0) | (s > n),
    ])
    bad = np.flatnonzero(failed.any(axis=0))
    if not bad.size:
        return None
    i = int(bad[0])
    row = cells[i].tolist()
    reasons = (
        f"covariates must be binary, got {tuple(row[:k])}",
        f"exposures must be a binary pair, got {tuple(row[k:k + 2])}",
        f"totals must be >= 1, got {row[-1]}",
        f"successes must lie in [0, totals], got {row[-2]}/{row[-1]}",
    )
    return i, reasons[int(np.argmax(failed[:, i]))]


def _first_appearance(rows):
    """Group the equal rows of a 0/1 array: the index of each group's first
    row, in order of first appearance, and the group number of every row."""
    # eight columns to a byte; unique(axis=0) sorts the short packed rows
    # many times faster than the int64 rows
    rows = np.packbits(rows.astype(bool), axis=1)
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    group = np.empty_like(order)
    group[order] = np.arange(len(order))
    return first[order], group[inverse.reshape(-1)]


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Cells plus covariate labels. Row i of `cells` holds cell i's
    covariates x1..xK, then z1, z2, successes and totals. Cells with zero
    totals are simply absent, never stored.

    Build it from records, `Dataset(records, covariate_names)`, or from the
    integer array, `Dataset(cells=..., covariate_names=...)`. Either way
    every count must be an integer that fits in int64; a record holding a
    float count such as 2.0 is rejected.
    """

    cells: np.ndarray
    covariate_names: tuple[str, ...]

    def __init__(self, records=None, covariate_names=(), cells=None):
        names = tuple(covariate_names)
        k = len(names)
        if cells is None:
            records = tuple(records or ())
            for rec in records:
                if len(rec.covariates) != k:
                    raise InputError(
                        f"record has {len(rec.covariates)} covariates, expected {k}"
                    )
            cells = [
                r.covariates + r.exposures + (r.successes, r.totals) for r in records
            ] or np.empty((0, k + 4), dtype=np.int64)
            self.__dict__["records"] = records  # the cache of the property below
        cells = np.array(cells)
        if cells.dtype.kind not in "biu" or cells.ndim != 2 or cells.shape[1] != k + 4:
            raise InputError(
                f"cells must be integers of shape (n, {k + 4}), "
                f"got {cells.dtype} {cells.shape}"
            )
        cells = cells.astype(np.int64, copy=False)
        if not len(cells):
            raise InputError("dataset must contain at least one record")
        bad = _invalid_row(cells, k)
        if bad is not None:
            raise InputError(bad[1])
        # so that no 64-bit sum of totals can wrap
        if sum(cells[:, -1].tolist()) >= 2**63:
            raise InputError("totals must add up to less than 2**63")
        first, group = _first_appearance(cells[:, :k + 2])
        repeats = np.flatnonzero(first[group] != np.arange(len(cells)))
        if repeats.size:
            row = cells[repeats[0]].tolist()
            raise InputError(f"duplicate cell for {(tuple(row[:k]), tuple(row[k:k + 2]))}")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "covariate_names", names)

    @cached_property
    def records(self) -> tuple[StratumRecord, ...]:
        k = len(self.covariate_names)
        return tuple(
            StratumRecord(tuple(r[:k]), tuple(r[k:k + 2]), r[-2], r[-1])
            for r in self.cells.tolist()
        )

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.covariate_names == other.covariate_names
                and np.array_equal(self.cells, other.cells))

    def __hash__(self):
        return hash((self.covariate_names, self.cells.tobytes()))

    @property
    def n_total(self) -> int:
        return int(self.cells[:, -1].sum())

    @property
    def variable_names(self) -> tuple[str, ...]:
        return self.covariate_names + ("z1", "z2")

    @classmethod
    def from_csv(cls, source) -> "Dataset":
        """Read a dataset from a CSV path or text file object.

        Expected header: x-covariate columns, then z1, z2, successes, totals.
        """
        if hasattr(source, "read"):
            return cls._parse(source)
        with open(source, newline="", encoding="utf-8") as fh:
            return cls._parse(fh)

    @classmethod
    def _parse(cls, fh) -> "Dataset":
        lines = list(fh)
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("empty CSV: no header row") from None
        except csv.Error as exc:
            raise InputError(f"line 1: {exc}") from None
        header = [h.strip() for h in header]
        tail = ["z1", "z2", "successes", "totals"]
        if header[-4:] != tail:
            raise InputError(
                f"CSV header must end with {tail}, got {header}"
            )
        cov_names = tuple(header[:-4])
        cells = _plain_cells("".join(lines[reader.line_num:]), len(header))
        if cells is not None:
            linenos, error = range(2, len(cells) + 2), None
        else:
            cells, linenos, error = _csv_cells(reader, len(header))
        # a row-by-row reader stops at the first bad row, whatever is wrong
        # with it; rows after an unparsable one are never read
        bad = _invalid_row(cells, len(cov_names))
        if bad is not None:
            raise InputError(f"line {linenos[bad[0]]}: {bad[1]}")
        if error is not None:
            raise error
        return cls(cells=cells, covariate_names=cov_names)

    def to_csv(self, target) -> None:
        """Write the dataset back out in the ingestion format."""
        def _write(fh):
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(list(self.covariate_names) + ["z1", "z2", "successes", "totals"])
            w.writerows(self.cells.tolist())

        if hasattr(target, "write"):
            _write(target)
        else:
            with open(target, "w", newline="", encoding="utf-8") as fh:
                _write(fh)


def _plain_cells(body: str, width: int):
    """The rows of a CSV body as an (n, width) integer array when the body
    is plain: every line holds `width` fields of 1 to 18 digits and no blank
    line comes before the last row. None for any other body."""
    body = body.rstrip("\n")
    if not body or not body.isascii():
        return None
    chars = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    # every character below "0" is taken for a separator here; the layout
    # check below rejects any that is not the right "," or "\n"
    seps = np.flatnonzero(chars < ord("0"))
    lengths = np.diff(seps, prepend=-1, append=len(chars)) - 1
    if (chars.max() > ord("9") or lengths.min() < 1 or lengths.max() > 18
            or (len(seps) + 1) % width):
        return None
    layout = np.append(chars[seps], ord("\n")).reshape(-1, width)
    if (layout[:, :-1] != ord(",")).any() or (layout[:, -1] != ord("\n")).any():
        return None
    values = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
    return values.reshape(-1, width)


def _csv_cells(reader, width: int):
    """Rows read one at a time with the csv module and int(): (cells, line
    numbers, error). Reading stops at the first row that cannot be parsed,
    and the error for it is returned rather than raised."""
    rows, linenos, error = [], [], None
    try:
        for lineno, row in enumerate(reader, start=2):
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


@dataclass(frozen=True, eq=False)
class CovariateDistribution:
    """Empirical distribution of covariate patterns: pattern -> sample
    proportion. `covariate_names` names the pattern's columns in order; None
    reads them as x1..xK."""

    weights: dict[tuple[int, ...], float]
    covariate_names: tuple[str, ...] | None = None

    def __post_init__(self):
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"weights must sum to 1, got {total!r}")
        if self.covariate_names is not None:
            width = len(self.covariate_names)
            for x in self.weights:
                if len(x) != width:
                    raise InputError(f"{width} covariate names for the pattern {x}")

    @property
    def patterns(self) -> list[tuple[int, ...]]:
        return list(self.weights)


def covariate_distribution(data: Dataset) -> CovariateDistribution:
    """Proportion of subjects with each covariate pattern, marginal over
    exposure, with the dataset's covariate names; patterns in order of first
    appearance."""
    k = len(data.covariate_names)
    first, group = _first_appearance(data.cells[:, :k])
    counts = np.zeros(len(first), dtype=np.int64)
    np.add.at(counts, group, data.cells[:, -1])
    n = data.n_total
    patterns = map(tuple, data.cells[first, :k].tolist())
    return CovariateDistribution(
        weights={x: c / n for x, c in zip(patterns, counts.tolist())},
        covariate_names=data.covariate_names,
    )


FIXTURES = ("nguyen2008",)


def load_fixture(name: str) -> Dataset:
    """Load a bundled dataset by name."""
    if name not in FIXTURES:
        raise InputError(f"unknown fixture {name!r}; available: {FIXTURES}")
    text = resources.files("epinteract.fixtures").joinpath(f"{name}.csv").read_text()
    return Dataset.from_csv(io.StringIO(text))
