"""Command-line front end: CSV in, fitted coefficients, measure table with
percentile intervals, and histogram data out."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

from .data import Dataset, InputError, covariate_distribution, load_fixture, FIXTURES
from .fitting import SingularDesignError, fit
from .measures import MEASURE_IDS, RISK_CLAMP
from .model import SpecificationError, expand_dataset, parse_formula
from .simci import CHUNK, SimulationConfig, histogram, simulate

EXIT_OK = 0
EXIT_INPUT = 2       # CSV / formula / argument problems
EXIT_SINGULAR = 3    # rank-deficient design
EXIT_NO_CONVERGE = 4


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
    p.add_argument("--draws", type=int, default=1000, help="simulation draws")
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument(
        "--levels",
        default="0.50,0.95",
        help="comma-separated central confidence levels",
    )
    p.add_argument(
        "--covariance",
        choices=("robust", "model"),
        default="robust",
        help="covariance matrix used for parameter draws",
    )
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
    header = f"{'Measure':<14}{'Estimate':>10}"
    for level in levels:
        header += f"{f'{level:.0%} lower':>12}{f'{level:.0%} upper':>12}"
    lines.append(header)
    for mid in MEASURE_IDS:
        est = sim[mid]
        label = "DMRD (=DCRD)" if mid == "DMRD" else mid
        row = f"{label:<14}{est.point:>10.2f}"
        for level in levels:
            lo, hi = est.endpoints[level]
            row += f"{lo:>12.2f}{hi:>12.2f}"
        lines.append(row)
    lines.append("")
    lines.append(
        f"simulation: {len(sim[MEASURE_IDS[0]].draws)} draws, "
        f"{sim.n_clamped_draws} clamped, jitter {sim.jitter:g}"
    )
    return "\n".join(lines) + "\n"


def _error(message, code=EXIT_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def run(args) -> int:
    out = Path(args.out)
    formats = {f.strip() for f in args.format.split(",") if f.strip()}
    bad = formats - {"table", "json", "csv"}
    if bad:
        return _error(f"unknown output format(s) {sorted(bad)}")
    if not formats:
        return _error("--format names no output format")
    try:
        levels = tuple(float(t) for t in args.levels.split(","))
    except ValueError:
        return _error(f"cannot parse levels {args.levels!r}")
    if args.bins < 1:
        return _error(f"--bins must be >= 1, got {args.bins}")
    try:
        config = SimulationConfig(
            n_draws=args.draws,
            seed=args.seed,
            levels=levels,
            covariance_choice="robust" if args.covariance == "robust" else "model_based",
        )
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
        spec = parse_formula(args.formula, header=data.variable_names)
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
    if not config.covariance(fitted).any():
        print(f"warning: the {args.covariance} covariance is all zeros, so every "
              "interval equals its point estimate", file=sys.stderr)
    if sim.n_clamped_draws:
        print(f"warning: {sim.n_clamped_draws} of {args.draws} draws had a risk "
              f"clamped to within {RISK_CLAMP:g} of 0 or 1", file=sys.stderr)
    labels = spec.term_labels
    report = _render_report(labels, fitted, sim, levels) if "table" in formats else None
    try:
        _write_bundle(out, lambda stage: _write_files(
            stage, formats, args, levels, labels, fitted, sim, report))
    except OSError as exc:
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


def _write_files(stage, formats, args, levels, labels, fitted, sim, report):
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
                + [f"{side}_{level:g}" for level in levels for side in ("lower", "upper")],
                [[mid, repr(float(sim[mid].point))]
                 + [repr(float(v)) for level in levels for v in sim[mid].endpoints[level]]
                 for mid in MEASURE_IDS],
            )
        with create("draws.csv") as fh:
            export_draws_csv(sim, fh)
        for mid in MEASURE_IDS:
            with create(f"hist_{mid}.csv") as fh:
                _write_rows(fh, ["bin_left", "bin_right", "count"], [
                    [repr(left), repr(right), count]
                    for left, right, count in histogram(sim[mid].draws, args.bins)
                ])
    if "json" in formats:
        bundle = summary_dict(sim, fitted, labels, args, levels)
        with create("report.json") as fh:
            fh.write(json.dumps(bundle, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_rows(fh, header, rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def export_draws_csv(sim, fh) -> None:
    """Write every sorted draw to the open text file fh, as CSV rows
    measure_id,draw_index,value."""
    # same bytes as csv.writer rows [mid, i, repr(float(v))]: no field
    # ever needs quoting, and tolist() yields the Python floats repr sees;
    # converting per CHUNK keeps the peak RSS of a long-lived process flat
    fh.write("measure_id,draw_index,value\n")
    for mid in MEASURE_IDS:
        draws = sim[mid].draws
        for start in range(0, len(draws), CHUNK):
            fh.write("".join([
                f"{mid},{i},{v!r}\n"
                for i, v in enumerate(draws[start:start + CHUNK].tolist(), start)
            ]))


def summary_dict(sim, fitted, labels, args, levels) -> dict:
    """The report.json bundle: measures with their interval endpoints,
    coefficients, covariances, fit and simulation diagnostics, and the
    run's settings."""
    measures = {
        mid: {
            "point": sim[mid].point,
            "intervals": {f"{level:g}": list(sim[mid].endpoints[level]) for level in levels},
        }
        for mid in MEASURE_IDS
    }
    measures["DCRD"] = {"point": sim.point.dcrd, "equals": "DMRD"}
    return {
        "measures": measures,
        "diagnostics": {"n_clamped_draws": sim.n_clamped_draws, "cholesky_jitter": sim.jitter},
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
        "config": {"formula": args.formula, "draws": args.draws, "seed": args.seed,
                   "levels": list(levels), "covariance": args.covariance},
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
