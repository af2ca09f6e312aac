"""End-to-end checks that run the command line in a fresh interpreter, as a
user does, and read back the files it wrote."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epinteract as ei

from conftest import FULL_MODEL, gen_wide_module

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# cli.main, then the process's own peak RSS in kB on the last line of stdout
PEAK_RSS_CODE = """\
import sys
from epinteract.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
sys.exit(rc)
"""


def run_fresh(*args):
    """python with `args` in a fresh interpreter that imports this
    epinteract; fails the test, showing stderr, on a nonzero exit."""
    src = str(Path(ei.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def run_fresh_cli(*argv):
    """python -m epinteract.cli in a fresh interpreter."""
    return run_fresh("-m", "epinteract.cli", *argv)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_with_warnings_as_errors(demo):
    run_fresh("-W", "error", str(demo))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_peak_memory_of_a_million_draws(tmp_path):
    # simulate streams the draws one CHUNK at a time and keeps only the
    # 5 x N measure values, so the process's own peak RSS stays under 150 MB
    # (about 86 MB; whole N x k matrices of normals and parameter draws took
    # it to about 245 MB)
    done = run_fresh("-c", PEAK_RSS_CODE, "--fixture", "nguyen2008", "--formula", FULL_MODEL,
                     "--draws", "1000000", "--seed", "1", "--format", "json",
                     "--out", str(tmp_path))
    hwm = int(done.stdout.splitlines()[-1])
    assert hwm <= 150 * 1024, f"peak RSS {hwm / 1024:.1f} MB exceeds 150 MB"


def test_wide_data_runs_write_the_same_report(tmp_path):
    # the benchmark's 4096-pattern table at seed 1: two seeded runs must both
    # succeed and write the same report.json
    gen_wide = gen_wide_module()
    gen_wide.write(1, tmp_path / "wide.csv")
    for run in ("a", "b"):
        run_fresh_cli("--input", str(tmp_path / "wide.csv"), "--formula", gen_wide.FORMULA,
                      "--draws", "200", "--seed", "1", "--format", "json",
                      "--out", str(tmp_path / run))
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


@pytest.mark.parametrize("n", [100_000, 100_003])
def test_draws_csv_spells_values_as_repr_and_histograms_count_them(tmp_path, n):
    # the benchmark's nguyen-export run, and 100 003 draws, whose indices
    # cross 10**5 and end in a short block of rows: orjson writes most values
    # of draws.csv, and only repr's own spelling survives repr(float(v)) == v;
    # each measure's draw indices must run 0..N-1. Every hist_<MID>.csv must
    # equal np.histogram of that measure's values, edges and counts
    run_fresh_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL, "--draws", str(n),
                  "--seed", "1", "--format", "csv", "--out", str(tmp_path))
    draws = {}
    with open(tmp_path / "draws.csv", encoding="utf-8") as fh:
        assert next(fh) == "measure_id,draw_index,value\n"
        for line in fh:
            mid, index, value = line.rstrip("\n").split(",")
            values = draws.setdefault(mid, [])
            assert int(index) == len(values), line
            assert repr(float(value)) == value, line
            values.append(float(value))
    assert sorted(draws) == ["DMRD", "RCOR", "RCRR", "RMOR", "RMRR"], list(draws)
    assert {len(v) for v in draws.values()} == {n}
    for mid, values in draws.items():
        with open(tmp_path / f"hist_{mid}.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        lo, hi = float(rows[0][0]), float(rows[-1][1])
        counts, edges = np.histogram(values, bins=len(rows), range=(lo, hi))
        assert [float(r[0]) for r in rows] == edges[:-1].tolist(), mid
        assert [float(r[1]) for r in rows] == edges[1:].tolist(), mid
        assert [int(r[2]) for r in rows] == counts.tolist(), mid
        assert counts.sum() == n and lo == min(values), mid
