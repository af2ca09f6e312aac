"""Command-line front end: CSV in, fitted coefficients, measure table with
percentile intervals, and histogram data out."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .data import Dataset, InputError, covariate_distribution, load_fixture, FIXTURES
from .fitting import SingularDesignError, fit
from .measures import MEASURE_IDS
from .model import SpecificationError, expand_dataset, parse_formula
from .simci import (
    SimulationConfig,
    export_draws_csv,
    histogram,
    simulate,
    summary_dict,
)

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


def run(args) -> int:
    out = Path(args.out)
    formats = {f.strip() for f in args.format.split(",") if f.strip()}
    bad = formats - {"table", "json", "csv"}
    if bad:
        print(f"error: unknown output format(s) {sorted(bad)}", file=sys.stderr)
        return EXIT_INPUT
    if not formats:
        print("error: --format names no output format", file=sys.stderr)
        return EXIT_INPUT
    try:
        levels = tuple(float(t) for t in args.levels.split(","))
    except ValueError:
        print(f"error: cannot parse levels {args.levels!r}", file=sys.stderr)
        return EXIT_INPUT
    if args.bins < 1:
        print(f"error: --bins must be >= 1, got {args.bins}", file=sys.stderr)
        return EXIT_INPUT
    try:
        config = SimulationConfig(
            n_draws=args.draws,
            seed=args.seed,
            levels=levels,
            covariance_choice="robust" if args.covariance == "robust" else "model_based",
        )
    except ValueError as exc:
        print(f"error: simulation config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        # the nearest existing path decides whether the directory can be made
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"{existing} is not a directory")
    except OSError as exc:
        print(f"error: output stage: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        data = load_fixture(args.fixture) if args.fixture else Dataset.from_csv(args.input)
    except (InputError, OSError) as exc:
        print(f"error: input stage: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        spec = parse_formula(args.formula, header=data.variable_names)
        X, s, n = expand_dataset(data, spec)
    except SpecificationError as exc:
        print(f"error: formula stage: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        fitted = fit(X, s, n)
    except SingularDesignError as exc:
        print(f"error: fitting stage: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    if not fitted.converged:
        print(
            f"error: fitting stage: did not converge ({fitted.message}; "
            f"{fitted.iterations} iterations)",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGE

    dist = covariate_distribution(data)
    sim = simulate(fitted, spec, dist, config, data.covariate_names)
    try:
        _write_outputs(out, formats, args, levels, spec.term_labels, fitted, sim)
    except OSError as exc:
        print(f"error: output stage: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def _write_outputs(out, formats, args, levels, labels, fitted, sim):
    out.mkdir(parents=True, exist_ok=True)
    if "table" in formats:
        report = _render_report(labels, fitted, sim, levels)
        (out / "report.txt").write_text(report, encoding="utf-8")
        print(report, end="")

    if "csv" in formats:
        with open(out / "coefficients.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["term", "estimate", "se_model", "se_robust"])
            for j, name in enumerate(labels):
                w.writerow(
                    [
                        name,
                        repr(float(fitted.coefficients[j])),
                        repr(float(fitted.cov_model[j, j] ** 0.5)),
                        repr(float(fitted.cov_robust[j, j] ** 0.5)),
                    ]
                )
        with open(out / "measures.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            head = ["measure", "estimate"]
            for level in levels:
                head += [f"lower_{level:g}", f"upper_{level:g}"]
            w.writerow(head)
            for mid in MEASURE_IDS:
                est = sim[mid]
                row = [mid, repr(float(est.point))]
                for level in levels:
                    lo, hi = est.endpoints[level]
                    row += [repr(float(lo)), repr(float(hi))]
                w.writerow(row)
        export_draws_csv(sim, out / "draws.csv")
        for mid in MEASURE_IDS:
            with open(out / f"hist_{mid}.csv", "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["bin_left", "bin_right", "count"])
                for left, right, count in histogram(sim[mid].draws, args.bins):
                    w.writerow([repr(left), repr(right), count])

    if "json" in formats:
        bundle = summary_dict(sim)
        bundle["coefficients"] = {
            name: float(fitted.coefficients[j]) for j, name in enumerate(labels)
        }
        bundle["covariance_model"] = fitted.cov_model.tolist()
        bundle["covariance_robust"] = fitted.cov_robust.tolist()
        bundle["fit"] = {
            "log_likelihood": fitted.log_likelihood,
            "iterations": fitted.iterations,
            "converged": fitted.converged,
            "dispersion": fitted.dispersion,
        }
        bundle["population_risks"] = {
            f"z={z}": v for z, v in sim.point.population_risks.items()
        }
        bundle["measures"]["DCRD"] = {"point": sim.point.dcrd, "equals": "DMRD"}
        bundle["config"] = {
            "formula": args.formula,
            "draws": args.draws,
            "seed": args.seed,
            "levels": list(levels),
            "covariance": args.covariance,
        }
        (out / "report.json").write_text(
            json.dumps(bundle, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
