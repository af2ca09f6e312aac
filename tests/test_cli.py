import dataclasses
import json

import pytest

from epinteract import cli

from conftest import FULL_MEASURES, FULL_MODEL, REDUCED_MEASURES, REDUCED_MODEL


def run_cli(*argv):
    return cli.main(list(argv))


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


def test_csv_to_fit_builds_no_records(tmp_path, monkeypatch, dataset):
    from epinteract.data import StratumRecord

    src = tmp_path / "data.csv"
    dataset.to_csv(src)
    built = []
    check = StratumRecord.__post_init__
    monkeypatch.setattr(StratumRecord, "__post_init__",
                        lambda self: built.append(self) or check(self))
    for source in (["--input", str(src)], ["--fixture", "nguyen2008"]):
        rc = run_cli(*source, "--formula", FULL_MODEL, "--draws", "10",
                     "--out", str(tmp_path / "out"))
        assert rc == cli.EXIT_OK
    assert built == []
    assert len(cli.load_fixture("nguyen2008").records) == 30  # still built on request
    assert len(built) == 30
