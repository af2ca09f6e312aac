import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from epinteract import cli
from epinteract.data import CovariateDistribution, Dataset, covariate_distribution
from epinteract.measures import MEASURE_IDS
from epinteract.simci import (COVARIANCE_CHOICES, NotPositiveSemiDefiniteError,
                              SimulationConfig, simulate)

from conftest import (FULL_MEASURES, FULL_MODEL, REDUCED_MEASURES, REDUCED_MODEL,
                      SWEEP_TABLES, gen_wide_module, many_patterns)


def run_cli(*argv):
    return cli.main(list(argv))


def fresh_cli(*argv, flags=()):
    """cli.main in a fresh interpreter. Returns the exit code, the names of
    the scipy modules loaded when it returned, and stderr."""
    code = ("import json, sys\n"
            "from epinteract import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *flags, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    rc, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    return rc, scipy_modules, done.stderr


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("full")
    rc = run_cli(
        "--fixture", "nguyen2008",
        "--formula", FULL_MODEL,
        "--draws", "1000",
        "--seed", "1",
        "--out", str(out),
    )
    assert rc == 0
    return out


class TestRun:
    def test_outputs_exist(self, full_run):
        names = {p.name for p in full_run.iterdir()}
        expected = {
            "report.txt", "report.json", "coefficients.csv", "measures.csv",
            "draws.csv",
        } | {f"hist_{m}.csv" for m in ("RCOR", "RCRR", "RMOR", "RMRR", "DMRD")}
        assert expected <= names

    def test_no_staging_directory_left(self, full_run):
        assert all(p.is_file() for p in full_run.iterdir())
        assert len(list(full_run.iterdir())) == 10

    def test_point_estimates(self, full_run):
        bundle = json.loads((full_run / "report.json").read_text())
        for mid, expected in FULL_MEASURES.items():
            assert bundle["measures"][mid]["point"] == pytest.approx(expected, abs=0.02)

    def test_dcrd_row_equals_dmrd(self, full_run):
        bundle = json.loads((full_run / "report.json").read_text())
        assert bundle["measures"]["DCRD"]["point"] == \
            bundle["measures"]["DMRD"]["point"]
        assert "DMRD (=DCRD)" in (full_run / "report.txt").read_text()

    def test_reduced_model_points(self, tmp_path):
        rc = run_cli(
            "--fixture", "nguyen2008",
            "--formula", REDUCED_MODEL,
            "--draws", "500",
            "--seed", "1",
            "--out", str(tmp_path),
        )
        assert rc == 0
        bundle = json.loads((tmp_path / "report.json").read_text())
        for mid, expected in REDUCED_MEASURES.items():
            assert bundle["measures"][mid]["point"] == pytest.approx(expected, abs=0.02)

    def test_csv_input_round_trips_fixture(self, tmp_path, dataset):
        src = tmp_path / "data.csv"
        dataset.to_csv(src)
        out = tmp_path / "out"
        rc = run_cli(
            "--input", str(src),
            "--formula", FULL_MODEL,
            "--draws", "200",
            "--seed", "3",
            "--out", str(out),
        )
        assert rc == 0
        bundle = json.loads((out / "report.json").read_text())
        assert bundle["measures"]["RCOR"]["point"] == pytest.approx(8.85, abs=0.02)

    def test_many_covariate_patterns(self, tmp_path):
        # 1e5 weights of 1e-5, whose plain float sum misses 1 by 2e-12
        path = tmp_path / "many.csv"
        many_patterns().to_csv(path)
        rc = run_cli("--input", str(path), "--formula", "y ~ z1 + z2 + z1:z2 + x1 + x2",
                     "--draws", "2", "--format", "json", "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_OK

    def test_wide_run_builds_no_pattern_dict(self, tmp_path, monkeypatch):
        # the patterns go from the cells to the kernel as arrays: a run on the
        # benchmark's 4096-pattern table never builds the weights dict, nor
        # the patterns list, which is read from it
        gen_wide = gen_wide_module()
        path = tmp_path / "wide.csv"
        gen_wide.write(1, path)
        assert covariate_distribution(Dataset.from_csv(path)).weight_array.shape == (4096,)

        def refuse(self):
            raise AssertionError("the weights dict was built")

        monkeypatch.setattr(CovariateDistribution, "weights", property(refuse))
        rc = run_cli("--input", str(path), "--formula", gen_wide.FORMULA, "--draws", "20",
                     "--seed", "1", "--format", "json", "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_OK

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run_cli(
                "--fixture", "nguyen2008",
                "--formula", FULL_MODEL,
                "--draws", "400",
                "--seed", "11",
                "--out", str(out),
            )
            assert rc == 0
            outs.append(out)
        for fname in ("report.json", "measures.csv", "coefficients.csv",
                      "draws.csv", "hist_RCOR.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestErrorPaths:
    def test_malformed_csv_cites_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,z1,z2,successes,totals\n0,0,0,1,2\n0,1,x,1,2\n")
        rc = run_cli("--input", str(bad), "--formula", "y ~ z1", "--out", str(tmp_path))
        assert rc == cli.EXIT_INPUT
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = run_cli(
            "--input", str(tmp_path / "nope.csv"), "--formula", "y ~ z1",
            "--out", str(tmp_path),
        )
        assert rc == cli.EXIT_INPUT
        assert "input stage" in capsys.readouterr().err

    def test_bad_formula(self, tmp_path, capsys):
        rc = run_cli(
            "--fixture", "nguyen2008", "--formula", "y ~ bogus",
            "--out", str(tmp_path),
        )
        assert rc == cli.EXIT_INPUT
        assert "formula stage" in capsys.readouterr().err

    def test_rank_deficient_design(self, tmp_path, capsys):
        # z1:x1 duplicates z1 because x1 is constant 1 in this file
        bad = tmp_path / "collinear.csv"
        bad.write_text(
            "x1,z1,z2,successes,totals\n"
            "1,0,0,2,5\n1,0,1,3,5\n1,1,0,2,5\n1,1,1,4,5\n"
        )
        rc = run_cli(
            "--input", str(bad), "--formula", "y ~ z1 + x1", "--out", str(tmp_path)
        )
        assert rc == cli.EXIT_SINGULAR
        assert "fitting stage" in capsys.readouterr().err

    def test_separation_exit_code(self, tmp_path, capsys):
        sep = tmp_path / "sep.csv"
        sep.write_text(
            "x1,z1,z2,successes,totals\n"
            "0,0,0,0,5\n0,0,1,0,5\n0,1,0,5,5\n0,1,1,5,5\n"
        )
        rc = run_cli(
            "--input", str(sep), "--formula", "y ~ z1", "--out", str(tmp_path)
        )
        assert rc == cli.EXIT_NO_CONVERGE
        assert "converge" in capsys.readouterr().err

    def test_separated_fit_with_a_huge_inverse_warns_nothing(self, tmp_path):
        # the inverse information reaches 4.4e303 here, and phi times it
        # overflows: the exit-4 error must be the only line, even under -W error
        table = tmp_path / "separated.csv"
        table.write_text(
            "x1,x2,z1,z2,successes,totals\n"
            "0,0,0,0,1000000,1000000\n1,0,0,0,394897,1000000\n0,1,0,0,2,5\n"
            "1,1,0,0,1000000000,1000000000\n0,0,1,0,1000000,1000000\n"
            "1,0,1,0,1000000000,1000000000\n0,1,1,0,3,50\n0,1,0,1,1,1\n"
            "1,1,0,1,1,1\n1,0,1,1,1,1\n0,1,1,1,0,1\n1,1,1,1,0,5\n"
        )
        rc, _, err = fresh_cli("--input", str(table), "--formula", "y ~ z1 + z2 + z1:z2 + x1",
                               "--out", str(tmp_path / "out"), flags=("-W", "error"))
        assert rc == cli.EXIT_NO_CONVERGE
        assert err.startswith("error: fitting stage: did not converge")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("covariance", COVARIANCE_CHOICES)
    @pytest.mark.parametrize("label", ["A", "B", "D"])
    def test_ill_conditioned_table_gets_finite_nested_intervals(self, tmp_path, label,
                                                                 covariance):
        csv_bytes, formula = SWEEP_TABLES[label]
        table, out = tmp_path / "table.csv", tmp_path / "out"
        table.write_bytes(csv_bytes)
        rc, _, err = fresh_cli("--input", str(table), "--formula", formula,
                               "--covariance", covariance, "--format", "json",
                               "--out", str(out), flags=("-W", "error"))
        assert rc == cli.EXIT_OK
        assert all(line.startswith("warning: ") for line in err.splitlines())
        intervals = json.loads((out / "report.json").read_text())["measures"]
        for mid in MEASURE_IDS:
            (lo50, hi50), (lo95, hi95) = intervals[mid]["intervals"].values()
            assert all(map(math.isfinite, (lo50, hi50, lo95, hi95)))
            assert lo95 <= lo50 <= hi50 <= hi95

    @pytest.mark.parametrize("covariance", COVARIANCE_CHOICES)
    def test_numerically_singular_information_exits_3(self, tmp_path, covariance):
        csv_bytes, formula = SWEEP_TABLES["C"]
        table, out = tmp_path / "table.csv", tmp_path / "out"
        table.write_bytes(csv_bytes)
        rc, _, err = fresh_cli("--input", str(table), "--formula", formula,
                               "--covariance", covariance, "--out", str(out),
                               flags=("-W", "error"))
        assert rc == cli.EXIT_SINGULAR
        assert err == ("error: fitting stage: observed information is numerically singular: "
                       "column 3 is almost a combination of the columns before it\n")
        assert not out.exists()

    def test_bad_levels(self, tmp_path, capsys):
        rc = run_cli(
            "--fixture", "nguyen2008", "--formula", "y ~ z1",
            "--levels", "abc", "--out", str(tmp_path),
        )
        assert rc == cli.EXIT_INPUT

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "-1"),
            ("--seed", str(2**128)),
            ("--bins", "0"),
            ("--draws", "1"),
        ],
    )
    def test_bad_argument_rejected_before_any_output(self, tmp_path, capsys,
                                                     flag, value):
        out = tmp_path / "out"
        rc = run_cli(
            "--fixture", "nguyen2008", "--formula", FULL_MODEL,
            "--draws", "10", flag, value, "--out", str(out),
        )
        assert rc == cli.EXIT_INPUT
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_draws_are_a_simulation_stage_error(self, tmp_path, capsys):
        # 1e15 draws of 8 coefficients need 64 PB, more than a 128 TiB user
        # address space holds, so the request fails without allocating
        out = tmp_path / "out"
        rc = run_cli(
            "--fixture", "nguyen2008", "--formula", FULL_MODEL,
            "--draws", str(10**15), "--out", str(out),
        )
        assert rc == cli.EXIT_INPUT
        assert "error: simulation stage:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--bins", 10**19), ("--bins", 2**63 - 1), ("--bins", 2**62), ("--bins", 2**50),
        ("--draws", 10**19), ("--draws", 2**63 - 1), ("--draws", 2**50),
    ])
    def test_huge_count_is_a_one_line_error(self, tmp_path, capsys, flag, value):
        # each needs an array past numpy's index range or past a 128 TiB user
        # address space, so it fails without allocating
        out = tmp_path / "out"
        rc = run_cli(
            "--fixture", "nguyen2008", "--formula", FULL_MODEL,
            "--draws", "10", flag, str(value), "--out", str(out),
        )
        assert rc == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bins", [2**50, 2**59])
    def test_unallocatable_bins_refused_before_the_fit(self, tmp_path, capsys, monkeypatch,
                                                       bins):
        # inside numpy's index range, but its 8 PiB or more of edges cannot be
        # allocated: refused at argument checking, never after the simulation
        def refuse(*args, **kwargs):
            raise AssertionError("the model was fitted before --bins was checked")
        monkeypatch.setattr(cli, "fit", refuse)
        out = tmp_path / "out"
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                     "--bins", str(bins), "--out", str(out))
        assert rc == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: --bins {bins}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unindexable_draws_refused_before_the_fit(self, tmp_path, capsys, monkeypatch):
        # the (5, 2**62) draws lie past numpy's index range: refused with the
        # other arguments, never after the fit
        def refuse(*args, **kwargs):
            raise AssertionError("the model was fitted before --draws was checked")
        monkeypatch.setattr(cli, "fit", refuse)
        out = tmp_path / "out"
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                     "--draws", str(2**62), "--out", str(out))
        assert rc == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: simulation config: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("names, message", [
        ("x1,x1,x3", "covariate name 'x1' appears twice"),
        ("x1,z1,x3", "covariate name 'z1' is an exposure's name"),
    ])
    def test_covariate_names_must_pick_out_one_column(self, tmp_path, capsys, dataset,
                                                       names, message):
        # a repeated name, or an exposure's, used to fit another column than
        # the one it heads, without a word
        body = io.StringIO()
        dataset.to_csv(body)
        table = tmp_path / "renamed.csv"
        table.write_text(names + body.getvalue()[len("x1,x2,x3"):])
        out = tmp_path / "out"
        rc = run_cli("--input", str(table), "--formula", "y ~ z1 + z2 + z1:z2 + x1 + x3",
                     "--out", str(out))
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: input stage: {message}\n"
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path):
        rc = run_cli(
            "--fixture", "nguyen2008", "--formula", FULL_MODEL,
            "--draws", "10", "--seed", str(2**128 - 1), "--format", "json",
            "--out", str(tmp_path),
        )
        assert rc == cli.EXIT_OK


class TestOutputStage:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("data was loaded before the output check")
        monkeypatch.setattr(cli, "load_fixture", refuse)

    @pytest.mark.parametrize("sub", [None, "sub"])
    def test_out_under_a_file_rejected_before_work(self, tmp_path, capsys, no_work, sub):
        target = tmp_path / "file"
        target.write_text("keep me")
        out = target / sub if sub else target
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL, "--out", str(out))
        assert rc == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: output stage:") and "Traceback" not in err
        assert target.read_text() == "keep me"

    @pytest.mark.parametrize("formats", ["", ",", " , "])
    def test_empty_format_set_rejected(self, tmp_path, capsys, no_work, formats):
        out = tmp_path / "out"
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                     "--format", formats, "--out", str(out))
        assert rc == cli.EXIT_INPUT
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_write_failure_is_an_output_stage_error(self, tmp_path, capsys, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli, "export_draws_csv", full_disk)
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                     "--draws", "10", "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: output stage:" in err and "No space left" in err
        assert not (tmp_path / "out").exists()

        existing = _out_with_sentinel(tmp_path / "existing")
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                     "--draws", "10", "--out", str(existing))
        assert rc == cli.EXIT_INPUT
        assert _listing(existing) == {"sentinel.bin": SENTINEL}

    def test_crashing_writer_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise ValueError("Too many bins for data range")
        monkeypatch.setattr(cli, "histogram", crash)
        fresh = tmp_path / "new" / "nested"
        existing = _out_with_sentinel(tmp_path / "existing")
        for out in (fresh, existing):
            with pytest.raises(ValueError, match="Too many bins"):
                run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                        "--draws", "10", "--out", str(out))
        assert not (tmp_path / "new").exists()
        assert _listing(existing) == {"sentinel.bin": SENTINEL}
        assert capsys.readouterr().out == ""  # the table is printed only once written

    def test_out_of_memory_while_writing_is_an_output_stage_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")
        monkeypatch.setattr(cli, "histogram", no_memory)
        out = tmp_path / "out"
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                     "--draws", "10", "--format", "csv", "--out", str(out))
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: output stage: Unable to allocate 7.45 GiB for an array\n")
        assert not out.exists()

    def test_bundle_replaces_old_files_and_leaves_others(self, tmp_path):
        out = _out_with_sentinel(tmp_path / "out")
        (out / "report.json").write_text("stale")
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                     "--draws", "10", "--format", "json", "--out", str(out))
        assert rc == cli.EXIT_OK
        files = _listing(out)
        assert set(files) == {"sentinel.bin", "report.json"}
        assert files["sentinel.bin"] == SENTINEL
        assert json.loads(files["report.json"])["config"]["draws"] == 10


SENTINEL = bytes(range(256))


def _out_with_sentinel(out):
    out.mkdir()
    (out / "sentinel.bin").write_bytes(SENTINEL)
    return out


def _listing(out):
    """Every entry under out, files and directories, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
            for p in out.rglob("*")}


SATURATED = ("z1,z2,successes,totals\n"
             "0,0,1,100\n0,1,1,100\n1,0,1,100\n1,1,90,100\n")


# deviance 0.28 on 4 df under y ~ z1 + z2 + z1:z2: dispersion 0.069
UNDER_DISPERSED = ("x1,z1,z2,successes,totals\n"
                   "0,0,0,10,100\n1,0,0,11,100\n0,0,1,20,100\n1,0,1,22,100\n"
                   "0,1,0,30,100\n1,1,0,29,100\n0,1,1,50,100\n1,1,1,52,100\n")


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestDiagnostics:
    def test_saturated_table_writes_the_whole_bundle(self, tmp_path, capsys):
        src = tmp_path / "saturated.csv"
        src.write_text(SATURATED)
        out = tmp_path / "out"
        rc = run_cli("--input", str(src), "--formula", "y ~ z1 + z2 + z1:z2",
                     "--seed", "1", "--out", str(out))
        assert rc == cli.EXIT_OK
        assert set(_listing(out)) == {
            "report.txt", "report.json", "coefficients.csv", "measures.csv", "draws.csv",
        } | {f"hist_{m}.csv" for m in ("RCOR", "RCRR", "RMOR", "RMRR", "DMRD")}
        bundle = json.loads((out / "report.json").read_text(), parse_constant=_no_constant)
        assert bundle["fit"]["dispersion"] is None
        rcor = bundle["measures"]["RCOR"]
        assert rcor["point"] == pytest.approx(891.0)
        assert rcor["intervals"]["0.95"] == [rcor["point"], rcor["point"]]
        err = capsys.readouterr().err
        assert "warning: the robust covariance is all zeros" in err
        assert "clamped" not in err

    @pytest.mark.parametrize("source, covariance, warns", [
        ("under", "robust", True),
        ("fixture", "robust", False),  # dispersion 1.575
        ("under", "model", False),
    ])
    def test_under_dispersion_warns_for_robust_intervals(self, tmp_path, capsys,
                                                          source, covariance, warns):
        if source == "under":
            src = tmp_path / "under.csv"
            src.write_text(UNDER_DISPERSED)
            data = ["--input", str(src), "--formula", "y ~ z1 + z2 + z1:z2"]
        else:
            data = ["--fixture", "nguyen2008", "--formula", FULL_MODEL]
        out = tmp_path / "out"
        rc = run_cli(*data, "--covariance", covariance, "--seed", "1", "--format", "json",
                     "--out", str(out))
        assert rc == cli.EXIT_OK
        err = capsys.readouterr().err
        if warns:
            assert err == ("warning: the dispersion 0.0695 is below 1, so the robust "
                           "intervals are narrower than the model-based ones\n")
        else:
            assert err == ""
        phi = json.loads((out / "report.json").read_text())["fit"]["dispersion"]
        assert (phi < 1) == (source == "under")

    def test_clamped_draws_warn_without_changing_files(self, tmp_path, capsys, monkeypatch):
        real = cli.simulate
        outs, errs = [], []
        for n_clamped in (0, 3):
            monkeypatch.setattr(cli, "simulate", lambda *args, n=n_clamped:
                                dataclasses.replace(real(*args), n_clamped_draws=n))
            outs.append(tmp_path / str(n_clamped))
            rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                         "--draws", "50", "--seed", "2", "--out", str(outs[-1]))
            assert rc == cli.EXIT_OK
            errs.append(capsys.readouterr().err)
        assert errs[0] == ""
        assert errs[1].startswith("warning: 3 of 50 draws had a risk clamped")
        assert errs[1].count("\n") == 1
        quiet, loud = (_listing(out) for out in outs)
        assert set(quiet) == set(loud)
        for name in quiet:
            if name not in ("report.txt", "report.json"):
                assert quiet[name] == loud[name], name
        assert json.loads(loud["report.json"])["diagnostics"]["n_clamped_draws"] == 3


def test_well_posed_run_imports_no_scipy(tmp_path):
    rc, scipy_modules, _ = fresh_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                                     "--draws", "1000", "--seed", "1",
                                     "--out", str(tmp_path / "c10"))
    assert rc == cli.EXIT_OK
    assert scipy_modules == []
    # a rank-deficient design still gets its redundant column named, by the
    # pivoted QR that only then imports scipy.linalg
    bad = tmp_path / "collinear.csv"
    bad.write_text("x1,z1,z2,successes,totals\n1,0,0,2,5\n1,0,1,3,5\n1,1,0,2,5\n1,1,1,4,5\n")
    rc, scipy_modules, err = fresh_cli("--input", str(bad), "--formula", "y ~ z1 + x1",
                                       "--out", str(tmp_path / "bad"))
    assert rc == cli.EXIT_SINGULAR
    assert re.search(r"column \d+ is linearly dependent", err)
    assert "scipy.linalg" in scipy_modules


class TestSimulationStage:
    def test_unfactorizable_covariance_exits_4(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NotPositiveSemiDefiniteError("covariance is not positive semi-definite")
        monkeypatch.setattr(cli, "simulate", fail)
        out = tmp_path / "out"
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL,
                     "--draws", "10", "--out", str(out))
        assert rc == cli.EXIT_NO_CONVERGE
        captured = capsys.readouterr()
        assert captured.err == ("error: simulation stage: covariance is not "
                                "positive semi-definite\n")
        assert captured.out == ""
        assert not out.exists()

    def test_covariance_choices_are_the_library_choices(self):
        [action] = [a for a in cli.build_parser()._actions if a.dest == "covariance"]
        assert tuple(action.choices) == COVARIANCE_CHOICES

    def test_parser_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["--fixture", "nguyen2008", "--formula", "y ~ z1"])
        assert cli.simulation_config(args) == SimulationConfig()

    @pytest.mark.parametrize("options, config", [
        ((), SimulationConfig()),
        (("--draws", "10", "--seed", "3", "--levels", "0.9", "--covariance", "model"),
         SimulationConfig(n_draws=10, seed=3, levels=(0.9,), covariance_choice="model")),
    ])
    def test_report_config_is_the_config_used(self, tmp_path, options, config):
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL, *options,
                     "--format", "json", "--out", str(tmp_path))
        assert rc == cli.EXIT_OK
        bundle = json.loads((tmp_path / "report.json").read_text())
        assert bundle["config"] == {
            "formula": FULL_MODEL, "draws": config.n_draws, "seed": config.seed,
            "levels": list(config.levels), "covariance": config.covariance_choice}

    def test_model_covariance(self, tmp_path, fit_full):
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL, "--draws", "10",
                     "--covariance", "model", "--format", "json", "--out", str(tmp_path))
        assert rc == cli.EXIT_OK
        bundle = json.loads((tmp_path / "report.json").read_text())
        assert bundle["config"]["covariance"] == "model"
        assert bundle["covariance_model"] == fit_full.cov_model.tolist()


class TestEncoding:
    def test_byte_order_mark_and_crlf_give_the_same_bundle(self, tmp_path, capsys):
        fixture = resources.files("epinteract.fixtures").joinpath("nguyen2008.csv")
        plain = fixture.read_bytes()
        sources = {"plain": plain, "bom": b"\xef\xbb\xbf" + plain,
                   "bom_crlf": b"\xef\xbb\xbf" + plain.replace(b"\n", b"\r\n")}
        listings, stdouts = {}, {}
        for name, data in sources.items():
            (tmp_path / f"{name}.csv").write_bytes(data)
            rc = run_cli("--input", str(tmp_path / f"{name}.csv"), "--formula", FULL_MODEL,
                         "--draws", "50", "--seed", "1", "--out", str(tmp_path / name))
            assert rc == cli.EXIT_OK
            stdouts[name] = capsys.readouterr().out
            listings[name] = _listing(tmp_path / name)
        assert listings["plain"] and stdouts["plain"]
        for name in ("bom", "bom_crlf"):
            assert listings[name] == listings["plain"]
            assert stdouts[name] == stdouts["plain"]

    def test_undecodable_input_is_an_input_stage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x1,z1,z2,successes,totals\n\xff\xfe,0,0,1,2\n")
        rc = run_cli("--input", str(bad), "--formula", "y ~ z1",
                     "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: input stage: line 2: not UTF-8 text (invalid start byte)\n")


class TestLevelLabels:
    """One exact label per confidence level in report.json, measures.csv and
    report.txt."""

    def _bundle(self, tmp_path, levels):
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL, "--draws", "50",
                     "--seed", "1", "--levels", levels, "--out", str(tmp_path))
        assert rc == cli.EXIT_OK
        bundle = json.loads((tmp_path / "report.json").read_text())
        csv_head = (tmp_path / "measures.csv").read_text().splitlines()[0]
        table_head = next(line for line in (tmp_path / "report.txt").read_text().splitlines()
                          if line.startswith("Measure"))
        return bundle["measures"]["RCOR"]["intervals"], csv_head, table_head

    def test_default_labels_unchanged(self, tmp_path):
        intervals, csv_head, table_head = self._bundle(tmp_path, "0.50,0.95")
        assert list(intervals) == ["0.5", "0.95"]
        assert csv_head == "measure,estimate,lower_0.5,upper_0.5,lower_0.95,upper_0.95"
        assert table_head == ("Measure         Estimate   50% lower   50% upper"
                              "   95% lower   95% upper")

    def test_close_levels_keep_distinct_labels(self, tmp_path):
        intervals, csv_head, table_head = self._bundle(tmp_path, "0.95,0.9500001")
        assert list(intervals) == ["0.95", "0.9500001"]
        assert csv_head.endswith(",lower_0.95,upper_0.95,lower_0.9500001,upper_0.9500001")
        assert " 95% lower " in table_head and " 95.00001% lower " in table_head

    @pytest.mark.parametrize("level, percent", [("0.999999999", "99.9999999%"),
                                                ("0.975", "97.5%")])
    def test_labels_are_exact(self, tmp_path, level, percent):
        intervals, csv_head, table_head = self._bundle(tmp_path, level)
        assert list(intervals) == [level]
        assert csv_head.endswith(f",lower_{level},upper_{level}")
        assert table_head.endswith(f" {percent} lower {percent} upper")


class TestReportColumns:
    """Every report.txt value ends where its column's header ends, with at
    least one space before it."""

    @staticmethod
    def assert_aligned(report):
        lines = report.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("Measure"))
        header, rows = lines[i], lines[i + 1:i + 1 + len(MEASURE_IDS)]
        ends = [m.end() for m in re.finditer(r"Estimate|lower|upper", header)]
        for row in rows:
            assert [14 + m.end() for m in re.finditer(r"\S+", row[14:])] == ends, row
            assert row[:14].rstrip() in MEASURE_IDS + ("DMRD (=DCRD)",)

    def test_long_level_label(self, tmp_path):
        rc = run_cli("--fixture", "nguyen2008", "--formula", FULL_MODEL, "--draws", "50",
                     "--seed", "1", "--levels", "0.999999999", "--format", "table",
                     "--out", str(tmp_path))
        assert rc == cli.EXIT_OK
        self.assert_aligned((tmp_path / "report.txt").read_text())

    def test_wide_endpoint(self, fit_full, spec_full, dist):
        sim = simulate(fit_full, spec_full, dist, SimulationConfig(n_draws=10, seed=1))
        rcor = sim["RCOR"]
        wide = dataclasses.replace(rcor, endpoints={**rcor.endpoints,
                                                    0.95: (rcor.endpoints[0.95][0], 1e9)})
        sim = dataclasses.replace(sim, intervals={**sim.intervals, "RCOR": wide})
        report = cli._render_report(spec_full.term_labels, fit_full, sim, (0.5, 0.95))
        assert "1000000000.00" in report
        self.assert_aligned(report)
