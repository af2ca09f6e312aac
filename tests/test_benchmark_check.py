"""The benchmark's own output check, perfbench/check.py, accepts the bundle
the command line writes for each benchmark workload, and still rejects one
with a wrong point estimate."""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from epinteract import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py as a module. Its BLAS-thread defaults and the names
    of its sibling modules (check, gen_wide, tracing) stay out of the
    session: environment, path and module table are restored on exit."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(BENCH), *sys.path]), \
            mock.patch.dict(sys.modules):
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look their module up there
    return module


@pytest.mark.parametrize("workload", ["nguyen-export", "wide-strata"])
def test_benchmark_check_accepts_the_bundle(bench_run, tmp_path, workload):
    inputs = bench_run.Inputs(workload, 1, tmp_path)
    out = tmp_path / "out"
    assert cli.main(inputs.argv(out)) == cli.EXIT_OK
    check, w = bench_run.check, inputs.workload
    published = not w.synthetic  # the fixture is also checked against the paper
    assert check.check_run(cli.EXIT_OK, out, w.formats, w.draws, inputs.cells,
                           published, None) == []
    bundle = json.loads((out / "report.json").read_bytes())
    bundle["measures"]["RCOR"]["point"] *= 1.001
    assert check.check_bundle(bundle, inputs.cells, published)
