#!/usr/bin/env python3
"""Benchmark of the epinteract command line, end to end and per layer.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload nguyen-export --seed 1 --seconds 45 --trace 0

Each run drives ``epinteract.cli.main`` in one warm process, closed loop,
one analysis at a time, and checks every analysis's outputs with the
benchmark's own numpy code (check.py). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced analyses and reports
the per-layer metrics (tracing.py). A human-readable table with units,
sample counts and the run environment goes to stdout, and the last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads. On a few shared cores OpenBLAS's
# idle threads spin for the next call and compete with the analysis itself,
# which makes the timings measure the scheduler. A caller's own setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import csv
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import gen_wide
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

NGUYEN_CSV = SRC / "epinteract" / "fixtures" / "nguyen2008.csv"
MODEL_25 = "y ~ z1 + z2 + z1:z2 + x1 + x2 + x3 + z1:x2"
LEVELS = "0.50,0.95"
MIN_SAMPLES = 3
SETUP_SAMPLES = 5  # fresh interpreters per run, after one discarded warm-up


@dataclass(frozen=True)
class Workload:
    draws: int
    formats: str
    synthetic: bool  # generated wide-strata CSV, else the bundled fixture


WORKLOADS = {
    "nguyen-draws": Workload(draws=100_000, formats="json", synthetic=False),
    "nguyen-export": Workload(draws=100_000, formats="table,json,csv", synthetic=False),
    "wide-strata": Workload(draws=1000, formats="json", synthetic=True),
}

# Bounded in BENCHMARK.json. Raw times drift with the host's speed, so the
# bounded timings are interquartile means of each analysis's time relative
# to the reference kernel timed around it (see run_end_to_end); the raw
# medians (RAW_TIMINGS) are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "wall_vs_ref": "ratio",
    "cpu_vs_ref": "ratio",
    "peak_mem_mb": "MB",
}
RAW_TIMINGS = {"wall_s": "s", "draws_per_s": "1/s", "cpu_s": "s"}
PER_LAYER = {
    "cli.main.s": "s", "cli.main.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "data.load.s": "s", "data.covariate_distribution.s": "s",
    "data.records": "count", "data.patterns": "count", "data.self_s": "s",
    "model.parse_formula.s": "s", "model.expand_dataset.s": "s",
    "model.build_design_row.calls": "count", "model.build_design_row.s": "s",
    "model.self_s": "s",
    "fitting.fit.s": "s", "fitting.fit.iterations": "count",
    "fitting.observed_information.calls": "count", "fitting.log_likelihood.calls": "count",
    "fitting.deviance.calls": "count", "fitting.self_s": "s",
    "measures.batch_measures.s": "s", "measures.batch_measures.self_s": "s",
    "measures.batch_measures.peak_mb": "MB", "measures.measure_set.s": "s",
    "measures.measure_set.calls": "count", "measures.risk_table.calls": "count",
    "measures.clamped_draws": "count", "measures.self_s": "s",
    "simci.simulate.s": "s", "simci.simulate.self_s": "s", "simci.cholesky.s": "s",
    "simci.cholesky.jitter": "var", "simci.percentile_interval.s": "s",
    "simci.export_draws_csv.s": "s", "simci.histogram.s": "s", "simci.self_s": "s",
}


class Inputs:
    """Inputs of one workload at one seed, and the CLI argv that analyses them."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.cli_seed = seed % 2 ** 32
        if self.workload.synthetic:
            csv_path = work / f"wide-{seed}.csv"
            gen_wide.write(seed % 2 ** 63, csv_path)
            self.source = ["--input", str(csv_path)]
            self.formula = gen_wide.FORMULA
        else:
            csv_path = NGUYEN_CSV
            self.source = ["--fixture", "nguyen2008"]
            self.formula = MODEL_25
        self.cells = check.Cells(csv_path)
        self.work = work

    def argv(self, out_dir: Path, draws=None) -> list[str]:
        return self.source + [
            "--formula", self.formula,
            "--draws", str(draws or self.workload.draws),
            "--seed", str(self.cli_seed),
            "--levels", LEVELS,
            "--format", self.workload.formats,
            "--out", str(out_dir),
        ]


class Runner:
    """Runs and checks analyses; counts what was attempted and what failed."""

    def __init__(self, inputs: Inputs):
        import epinteract.cli

        self.cli = epinteract.cli  # main is looked up per call, so tracing sees it
        self.inputs = inputs
        self.out_dir = inputs.work / "out"
        self.attempted = 0
        self.failed = 0
        self.reference_json = None
        self.problems = []

    def run_cli(self):
        """One CLI analysis, timed and unchecked; returns (exit code, wall
        seconds, CPU seconds)."""
        argv = self.inputs.argv(self.out_dir)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed analysis, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            rc = 1
        return rc, time.perf_counter() - t0, time.process_time() - c0

    def clean(self):
        # deleting the last outputs first also drops their unwritten pages,
        # so no write-back overlaps the reference kernel or the next analysis
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()

    def analyze(self):
        """One checked analysis, with the reference kernel timed just before
        it; returns (wall seconds, CPU seconds, reference seconds)."""
        self.clean()
        ref = reference_seconds()
        rc, wall, cpu = self.run_cli()
        self.record(rc)
        return wall, cpu, ref

    def record(self, rc):
        s = self.inputs
        problems = check.check_run(rc, self.out_dir, s.workload.formats, s.workload.draws,
                                   s.cells, not s.workload.synthetic, self.reference_json)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        elif self.reference_json is None:
            self.reference_json = (self.out_dir / "report.json").read_bytes()

    def warm_up_and_self_test(self):
        """First analysis: warms the process, sets the reference report.json,
        and proves the check rejects a wrong point estimate."""
        self.analyze()
        if self.reference_json is None:
            return
        bundle = json.loads(self.reference_json)
        bundle["measures"]["RCOR"]["point"] *= 1.001
        if not check.check_bundle(bundle, self.inputs.cells, not self.inputs.workload.synthetic):
            self.problems.append("self-test: the check accepted a wrong RCOR point estimate")

    def output_bytes(self) -> int:
        if not self.out_dir.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.out_dir.iterdir() if p.is_file())


def loop(seconds: float, step):
    """Call step() closed loop until starting another would pass the
    deadline; at least MIN_SAMPLES times. Returns step()'s results."""
    deadline = time.perf_counter() + seconds
    results, lengths = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        lengths.append(time.perf_counter() - t0)
        if len(results) >= MIN_SAMPLES and time.perf_counter() + statistics.median(lengths) > deadline:
            return results


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> float:
    """Fresh interpreter start until ``import epinteract`` returns. The child
    reads the same system-wide monotonic clock as this process."""
    code = ("import time, epinteract; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC), epinteract.__file__)")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    stamp, path = out.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"child imported epinteract from {path.strip()}, not {SRC}")
    return float(stamp) - t0


def peak_memory_mb(runner: Runner) -> float:
    """Peak RSS of one analysis above the RSS before it, in a fresh child
    that first runs a 2-draw analysis so lazy imports are already paid.
    A failed probe is a check failure and reads 0."""
    inputs = runner.inputs
    argv = inputs.argv(inputs.work / "mem")
    warm = inputs.argv(inputs.work / "mem-warm", draws=2)
    try:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--mem-probe",
                              json.dumps(argv), json.dumps(warm)],
                             env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=170).stdout
        result = json.loads(out.splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        runner.problems.append(f"memory probe failed: {exc}")
        return 0.0
    if result["rc"] != 0:
        runner.problems.append(f"memory probe analysis exited with {result['rc']}")
    return result["peak_bytes"] / 1e6


def mem_probe(argv_json: str, warm_json: str) -> int:
    import epinteract.cli as cli  # found through PYTHONPATH, see child_env

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(json.loads(warm_json))
        gc.collect()
        with open("/proc/self/statm") as fh:
            before = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        rc = cli.main(json.loads(argv_json))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(json.dumps({"rc": rc, "peak_bytes": peak - before}))
    return 0


def environment() -> dict:
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def reference_seconds() -> float:
    """Time of a fixed piece of the benchmark's own work, of the kinds an
    analysis does: interpreted Python, one small Philox generator per step,
    csv rows of float reprs, and numpy over a fresh 32 MB array.
    It is timed before each analysis and after the last one: the speed of a
    shared host drifts by tens of percent over minutes, and dividing by this
    time cancels much of that drift between runs."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(200_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    for i in range(2_500):
        np.random.Generator(np.random.Philox(key=0, counter=[0, 0, i, 0])).standard_normal(8)
    writer = csv.writer(io.StringIO(), lineterminator="\n")
    for i, v in enumerate(np.linspace(0.0, 1.0, 25_000)):
        writer.writerow(["RCOR", i, repr(float(v))])
    a = np.random.default_rng(0).random(4_000_000)
    (1.0 / (1.0 + np.exp(-a))).sum()
    return time.perf_counter() - t0


def timing_note(values) -> str:
    """Sample count, and the highest tail percentile with >= 10 samples beyond it."""
    n = len(values)
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return f"n={n}, p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return f"n={n}, no tail percentile (p90 needs n>=100)"


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values. On a shared host a few
    analyses are hit by long stalls, which the trimming drops; with the
    dozen samples of a run, the mean of the rest moves less from run to run
    than their median does."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def run_end_to_end(inputs: Inputs, seconds: float):
    setups = [setup_seconds() for _ in range(1 + SETUP_SAMPLES)][1:]
    runner = Runner(inputs)
    runner.warm_up_and_self_test()
    samples = loop(seconds, runner.analyze)
    walls, cpus, refs = zip(*samples)
    runner.clean()
    refs += (reference_seconds(),)
    # each analysis against the mean of the reference runs just before and
    # just after it, so drift over the analysis cancels as well
    around = [(before + after) / 2 for before, after in zip(refs, refs[1:])]
    wall = statistics.median(walls)
    note = (f"interquartile mean of per-analysis ratios to the reference kernel "
            f"around it (median {statistics.median(refs):.4g} s), n={len(walls)}")
    metrics = {
        "setup_s": (statistics.median(setups), f"median, n={len(setups)} fresh interpreters"),
        "wall_s": (wall, timing_note(walls)),
        "draws_per_s": (inputs.workload.draws / wall, f"{inputs.workload.draws} draws / wall_s"),
        "cpu_s": (statistics.median(cpus), timing_note(cpus)),
        "peak_mem_mb": (peak_memory_mb(runner), "n=1 untimed fresh-child analysis"),
        "wall_vs_ref": (interquartile_mean(w / r for w, r in zip(walls, around)), note),
        "cpu_vs_ref": (interquartile_mean(c / r for c, r in zip(cpus, around)), note),
    }
    return runner, metrics


def run_traced(inputs: Inputs, seconds: float):
    runner = Runner(inputs)
    runner.warm_up_and_self_test()

    def traced():
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            runner.analyze()
        m = tracing.layer_metrics(tracer)
        m["cli.output_bytes"] = runner.output_bytes()
        return m

    pairs = 0

    def pair():
        # alternate which of the two goes first, so an order effect does not
        # land on trace.overhead_s
        nonlocal pairs
        pairs += 1
        if pairs % 2:
            untraced = runner.analyze()[0]
            return untraced, traced()
        m = traced()
        return runner.analyze()[0], m

    samples = loop(seconds, pair)
    peaks = []
    with tracing.heap_peak("epinteract.simci", "batch_measures", peaks):
        runner.analyze()
    traced_runs = [m for _, m in samples]
    worst = max(abs(m.pop("trace.self_sum_error_s")) for m in traced_runs)
    if worst > 1e-6:
        runner.problems.append(f"trace: layer self times miss cli.main.s by {worst:.3g} s")
    n = len(traced_runs)
    metrics = {name: (statistics.median(m[name] for m in traced_runs), f"median, n={n} traced")
               for name in traced_runs[0]}
    untraced_wall = statistics.median(u for u, _ in samples)
    metrics["trace.overhead_s"] = (metrics["cli.main.s"][0] - untraced_wall,
                                   f"traced minus untraced median wall, n={n} pairs")
    metrics["measures.batch_measures.peak_mb"] = (
        max(peaks, default=0) / 1e6, "tracemalloc, n=1 untimed pass")
    return runner, metrics


def main(argv=None) -> int:
    if argv is None and len(sys.argv) == 4 and sys.argv[1] == "--mem-probe":
        return mem_probe(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "epinteract" / "__init__.py").is_file():
        print(f"error: no epinteract sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import epinteract

    if not Path(epinteract.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported epinteract from {epinteract.__file__}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = Inputs(args.workload, args.seed, work)
        run = run_traced if args.trace else run_end_to_end
        runner, metrics = run(inputs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it
    units = PER_LAYER if args.trace else END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cli seed {inputs.cli_seed}  draws {inputs.workload.draws}  "
          f"format {inputs.workload.formats}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, unit in (units if args.trace else {**units, **RAW_TIMINGS}).items():
        value, note = metrics[name]
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_share':<36} {runner.failed / runner.attempted:>14.6g} {'ratio':<6} "
          f"{runner.failed}/{runner.attempted} analyses")
    if args.trace:
        self_times = {layer: metrics[f"{layer}.self_s"][0]
                      for layer in tracing.LAYERS if layer != "cli"}
        self_times["cli"] = metrics["cli.main.self_s"][0]
        ranked = sorted(self_times.items(), key=lambda item: -item[1])
        print("  self time by layer: " + ", ".join(f"{k} {v:.4g} s" for k, v in ranked))
    for problem in sorted(set(runner.problems)):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
