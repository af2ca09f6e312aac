"""Command-line front end: CSV in, fitted coefficients, measure table with
percentile intervals, and histogram data out."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import shutil
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np

from .data import Dataset, InputError, covariate_distribution, load_fixture, FIXTURES
from .fitting import SingularDesignError, fit
from .measures import MEASURE_IDS, RISK_CLAMP
from .model import SpecificationError, expand_dataset, parse_formula
from .simci import (COVARIANCE_CHOICES, MAX_FLOATS, NotPositiveSemiDefiniteError,
                    SimulationConfig, histogram, simulate)

EXIT_OK = 0
EXIT_INPUT = 2       # CSV / formula / argument problems
EXIT_SINGULAR = 3    # rank-deficient design or numerically singular information
EXIT_NO_CONVERGE = 4  # no usable fit: no convergence, or an unfactorizable covariance
ROW_BLOCK = 10_000  # draws.csv rows per block; a power of ten, see _index_digits


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="epinteract",
        description=(
            "Estimate five exposure-exposure interaction measures (RCOR, "
            "RCRR, RMOR, RMRR, DMRD) from stratified count data, with "
            "simulation-based percentile confidence intervals."
        ),
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="CSV", help="path to a count-data CSV")
    src.add_argument(
        "--fixture", choices=FIXTURES, help="name of a bundled dataset"
    )
    p.add_argument(
        "--formula",
        required=True,
        help='model formula, e.g. "y ~ z1 + z2 + z1:z2 + x1 + x2 + x3 + z1:x2"',
    )
    # a simulation setting left out takes SimulationConfig's default
    p.add_argument("--draws", type=int, help="simulation draws")
    p.add_argument("--seed", type=int, help="simulation seed")
    p.add_argument("--levels", help="comma-separated central confidence levels")
    p.add_argument("--covariance", choices=COVARIANCE_CHOICES,
                   help="covariance matrix used for parameter draws")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--format",
        default="table,json,csv",
        help="comma-separated subset of {table,json,csv}",
    )
    p.add_argument("--bins", type=int, default=30, help="histogram bins")
    return p


def _fmt_matrix(names, matrix):
    width = max(len(n) for n in names) + 2
    head = " " * width + "".join(f"{n:>9}" for n in names)
    lines = [head]
    for name, row in zip(names, matrix):
        lines.append(f"{name:<{width}}" + "".join(f"{v:9.2f}" for v in row))
    return "\n".join(lines)


def _level_label(level: float, percent=False) -> str:
    """A confidence level written exactly, "0.95" or as a percentage "95%"."""
    exact = repr(level)
    return f"{Decimal(exact).scaleb(2).normalize():f}%" if percent else exact


def _render_report(labels, result_fit, sim, levels):
    lines = []
    lines.append("Coefficients (maximum likelihood)")
    lines.append("  " + "  ".join(f"{n}={c:.2f}" for n, c in zip(labels, result_fit.coefficients)))
    lines.append("")
    lines.append("Model-based covariance (inverse observed information)")
    lines.append(_fmt_matrix(labels, result_fit.cov_model))
    lines.append("")
    lines.append("Over-dispersion-adjusted covariance")
    lines.append(_fmt_matrix(labels, result_fit.cov_robust))
    lines.append("")
    # (label, least width, values); a column widens to hold its label and a
    # space before each value
    columns = [("Estimate", 10, [sim[mid].point for mid in MEASURE_IDS])] + [
        (f" {_level_label(level, percent=True)} {side}", 12,
         [sim[mid].endpoints[level][j] for mid in MEASURE_IDS])
        for level in levels for j, side in enumerate(("lower", "upper"))]
    cells = [[f"{v:.2f}" for v in values] for _, _, values in columns]
    widths = [max(least, len(label), *(len(c) + 1 for c in col))
              for (label, least, _), col in zip(columns, cells)]
    lines.append(f"{'Measure':<14}" + "".join(
        f"{label:>{w}}" for (label, _, _), w in zip(columns, widths)))
    for i, mid in enumerate(MEASURE_IDS):
        label = "DMRD (=DCRD)" if mid == "DMRD" else mid
        lines.append(f"{label:<14}" + "".join(f"{col[i]:>{w}}" for col, w in zip(cells, widths)))
    lines.append("")
    lines.append(f"simulation: {len(sim[MEASURE_IDS[0]].draws)} draws, "
                 f"{sim.n_clamped_draws} clamped")
    return "\n".join(lines) + "\n"


def _error(message, code=EXIT_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def simulation_config(args) -> SimulationConfig:
    """The run's simulation settings from parsed arguments; each one the
    command line leaves out takes SimulationConfig's default."""
    given = {"n_draws": args.draws, "seed": args.seed, "covariance_choice": args.covariance}
    if args.levels is not None:
        try:
            given["levels"] = tuple(float(t) for t in args.levels.split(","))
        except ValueError:
            raise ValueError(f"cannot parse levels {args.levels!r}") from None
    return SimulationConfig(**{name: v for name, v in given.items() if v is not None})


def run(args) -> int:
    out = Path(args.out)
    formats = {f.strip() for f in args.format.split(",") if f.strip()}
    bad = formats - {"table", "json", "csv"}
    if bad:
        return _error(f"unknown output format(s) {sorted(bad)}")
    if not formats:
        return _error("--format names no output format")
    if not 1 <= args.bins < MAX_FLOATS:
        return _error(f"--bins must lie in [1, {MAX_FLOATS}), got {args.bins}")
    try:
        np.empty(args.bins + 1)  # the histogram edges, refused before any data is read
    except MemoryError as exc:
        return _error(f"--bins {args.bins}: {exc}")
    try:
        config = simulation_config(args)
    except ValueError as exc:
        return _error(f"simulation config: {exc}")
    try:
        # the nearest existing path decides whether the directory can be made
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"{existing} is not a directory")
    except OSError as exc:
        return _error(f"output stage: {exc}")

    try:
        data = load_fixture(args.fixture) if args.fixture else Dataset.from_csv(args.input)
    except (InputError, OSError) as exc:
        return _error(f"input stage: {exc}")

    try:
        spec = parse_formula(args.formula)
        X, s, n = expand_dataset(data, spec)
    except SpecificationError as exc:
        return _error(f"formula stage: {exc}")

    try:
        fitted = fit(X, s, n)
    except SingularDesignError as exc:
        return _error(f"fitting stage: {exc}", EXIT_SINGULAR)
    if not fitted.converged:
        return _error(f"fitting stage: did not converge ({fitted.message}; "
                      f"{fitted.iterations} iterations)", EXIT_NO_CONVERGE)

    dist = covariate_distribution(data)
    try:
        sim = simulate(fitted, spec, dist, config)
    except MemoryError as exc:
        return _error(f"simulation stage: {exc}")
    except NotPositiveSemiDefiniteError as exc:
        return _error(f"simulation stage: {exc}", EXIT_NO_CONVERGE)
    if not config.covariance(fitted).any():
        print(f"warning: the {config.covariance_choice} covariance is all zeros, so every "
              "interval equals its point estimate", file=sys.stderr)
    elif config.covariance_choice == "robust" and fitted.dispersion < 1:  # NaN compares False
        print(f"warning: the dispersion {fitted.dispersion:.3g} is below 1, so the robust "
              "intervals are narrower than the model-based ones", file=sys.stderr)
    if sim.n_clamped_draws:
        print(f"warning: {sim.n_clamped_draws} of {config.n_draws} draws had a risk "
              f"clamped to within {RISK_CLAMP:g} of 0 or 1", file=sys.stderr)
    labels = spec.term_labels
    report = _render_report(labels, fitted, sim, config.levels) if "table" in formats else None
    try:
        _write_bundle(out, lambda stage: _write_files(
            stage, formats, args, config, labels, fitted, sim, report))
    except (OSError, MemoryError) as exc:
        return _error(f"output stage: {exc}")
    if report is not None:
        print(report, end="")
    return EXIT_OK


def _write_bundle(out: Path, write) -> None:
    """Call write(stage) on a new staging directory inside out, then move
    every file it wrote into out. On any failure out is left as it was: the
    staging directory is removed, and so is out if this call created it."""
    made = None if out.exists() else next(
        p for p in (out, *out.parents) if p.parent.exists())
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        try:
            write(stage)
            for staged in stage.iterdir():
                os.replace(staged, out / staged.name)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def _write_files(stage, formats, args, config, labels, fitted, sim, report):
    """Write every requested output file into the directory stage."""
    def create(name):
        return open(stage / name, "w", newline="", encoding="utf-8")

    if report is not None:
        with create("report.txt") as fh:
            fh.write(report)
    if "csv" in formats:
        with create("coefficients.csv") as fh:
            _write_rows(fh, ["term", "estimate", "se_model", "se_robust"], [
                [name, repr(float(fitted.coefficients[j])),
                 repr(float(fitted.cov_model[j, j] ** 0.5)),
                 repr(float(fitted.cov_robust[j, j] ** 0.5))]
                for j, name in enumerate(labels)
            ])
        with create("measures.csv") as fh:
            _write_rows(
                fh,
                ["measure", "estimate"]
                + [f"{side}_{_level_label(level)}" for level in config.levels
                   for side in ("lower", "upper")],
                [[mid, repr(float(sim[mid].point))]
                 + [repr(float(v)) for level in config.levels for v in sim[mid].endpoints[level]]
                 for mid in MEASURE_IDS],
            )
        with open(stage / "draws.csv", "wb") as fh:
            export_draws_csv(sim, fh)
        for mid in MEASURE_IDS:
            with create(f"hist_{mid}.csv") as fh:
                _write_rows(fh, ["bin_left", "bin_right", "count"], [
                    [repr(left), repr(right), count]
                    for left, right, count in histogram(sim[mid].draws, args.bins)
                ])
    if "json" in formats:
        bundle = summary_dict(sim, fitted, labels, args.formula, config)
        with create("report.json") as fh:
            fh.write(json.dumps(bundle, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_rows(fh, header, rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


@functools.cache
def _index_digits() -> np.ndarray:
    """Row j's index in a draws.csv block as zero-padded ASCII digits, row j
    of a (ROW_BLOCK, log10(ROW_BLOCK)) uint8 table stored column by column."""
    places = 10 ** np.arange(len(str(ROW_BLOCK)) - 2, -1, -1)
    return (np.arange(ROW_BLOCK) // places[:, None] % 10 + ord("0")).astype(np.uint8).T


def export_draws_csv(sim, fh) -> None:
    """Write every sorted draw to the open binary file fh, as CSV rows
    measure_id,draw_index,value."""
    # same bytes as csv.writer rows [mid, i, repr(float(v))]: orjson's Ryu digits
    # equal repr's for 1e-4 <= |v| < 1e16 and for zero, and repr respells the rest.
    # Row c * ROW_BLOCK + j is "\nmid,c" (no c in block 0), j's digits and the
    # value. Per run of j with one digit count, one replace turns each comma of
    # orjson's array into that prefix with zeros, which j's digits overwrite.
    import orjson  # loaded only by a run that writes draws.csv

    width = len(str(ROW_BLOCK)) - 1
    fh.write(b"measure_id,draw_index,value")
    for mid in MEASURE_IDS:
        draws = sim[mid].draws
        for c, start in enumerate(range(0, len(draws), ROW_BLOCK)):
            # orjson takes only C-contiguous arrays
            chunk = np.ascontiguousarray(draws[start:start + ROW_BLOCK], dtype=float)
            size = np.abs(chunk)
            fast = ((1e-4 <= size) & (size < 1e16)) | (chunk == 0)  # nan compares False
            head = f"\n{mid},{c or ''}".encode()
            # block 0's bare indices gain a digit at 10, 100, ...
            cuts = [0] if c else [0] + [10 ** w for w in range(1, width) if 10 ** w < len(chunk)]
            for lo, hi in zip(cuts, cuts[1:] + [len(chunk)]):
                rows = bytearray(b",") + memoryview(  # "[a,b]" becomes ",a,b"
                    orjson.dumps(chunk[lo:hi], option=orjson.OPT_SERIALIZE_NUMPY))[1:-1]
                if not fast[lo:hi].all():  # split this run, respell, rejoin
                    values = rows.split(b",")
                    for j in np.flatnonzero(~fast[lo:hi]).tolist():
                        values[1 + j] = repr(float(chunk[lo + j])).encode()
                    rows = bytearray(b",").join(values)
                w = width if c else len(str(lo))
                rows = rows.replace(b",", head + b"0" * w + b",")
                view = np.frombuffer(rows, np.uint8)  # rows is not resized from here on
                at = np.flatnonzero(view == ord("\n")) + len(head) - 1
                for k, column in enumerate(_index_digits()[lo:hi, width - w:].T, 1):
                    view[at + k] = column
                fh.write(rows)
    fh.write(b"\n")


def summary_dict(sim, fitted, labels, formula, config) -> dict:
    """The report.json bundle: measures with their interval endpoints,
    coefficients, covariances, fit and simulation diagnostics, and the
    run's formula and simulation settings."""
    measures = {
        mid: {
            "point": sim[mid].point,
            "intervals": {_level_label(level): list(sim[mid].endpoints[level])
                          for level in config.levels},
        }
        for mid in MEASURE_IDS
    }
    measures["DCRD"] = {"point": sim.point.dcrd, "equals": "DMRD"}
    return {
        "measures": measures,
        "diagnostics": {"n_clamped_draws": sim.n_clamped_draws},
        "coefficients": {name: float(c) for name, c in zip(labels, fitted.coefficients)},
        "covariance_model": fitted.cov_model.tolist(),
        "covariance_robust": fitted.cov_robust.tolist(),
        "fit": {
            "log_likelihood": fitted.log_likelihood,
            "iterations": fitted.iterations,
            "converged": fitted.converged,
            # NaN with no residual degrees of freedom; JSON has no NaN
            "dispersion": fitted.dispersion if math.isfinite(fitted.dispersion) else None,
        },
        "population_risks": {f"z={z}": v for z, v in sim.point.population_risks.items()},
        "config": {"formula": formula, "draws": config.n_draws, "seed": config.seed,
                   "levels": list(config.levels), "covariance": config.covariance_choice},
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
