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

from conftest import FULL_MODEL


def run_fresh_cli(*argv):
    """python -m epinteract.cli in a fresh interpreter; raises on a nonzero exit."""
    src = str(Path(ei.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "epinteract.cli", *argv], env=env,
                   capture_output=True, timeout=300, check=True)


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
