"""Command-line driver: exit codes, JSON shapes, config handling."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import painleve_ds
from painleve_ds import cli, flow, lax
from painleve_ds.cli import load_config, main
from painleve_ds.loop import LoopElement
from painleve_ds.reductions import REDUCTIONS


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


class TestHeisenberg:
    def test_known_partition_passes(self, capsys):
        assert main(["heisenberg", "--partition", "2,2,1", "--json"]) == 0
        doc = _json_out(capsys)
        assert doc["N"] == 4
        assert doc["s"] == [2, 0, 1, 1, 0]
        assert all(c["pass"] for c in doc["checks"])

    def test_text_mode_prints_the_type(self, capsys):
        assert main(["heisenberg", "--partition", "3,3"]) == 0
        out = capsys.readouterr().out
        assert "N = 3" in out
        assert "(1, 0, 1, 0, 1, 0)" in out

    def test_bad_partition_is_a_usage_error(self, capsys):
        assert main(["heisenberg", "--partition", "1,2"]) == 2
        assert capsys.readouterr().err


class TestVerifyLax:
    def test_small_run_passes(self, capsys):
        code = main([
            "verify-lax", "--partition", "3,1", "--samples", "4",
            "--seed", "9", "--json",
        ])
        assert code == 0
        doc = _json_out(capsys)
        assert doc["partition"] == [3, 1]
        assert doc["samples"] == 4
        assert doc["passed"] is True
        assert doc["failures"] == []

    def test_failing_samples_are_counted(self, capsys, monkeypatch):
        monkeypatch.setattr(
            lax, "zero_curvature_residual", lambda parts, *a, **k: LoopElement(3, {(0, 0, 1): 1})
        )
        assert main(["verify-lax", "--partition", "2,2", "--samples", "3"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "partition 2,2: 0/3 samples exact"
        assert [line.split(":")[0].strip() for line in out[1:]] == ["sample 0", "sample 1", "sample 2"]

    def test_unsupported_partition_rejected(self, capsys):
        assert main(["verify-lax", "--partition", "5,2"]) == 2
        assert capsys.readouterr().err

    def test_unsupported_partition_lists_the_supported_ones(self, capsys):
        assert main(["verify-lax", "--partition", "5,2"]) == 2
        err = capsys.readouterr().err
        assert "no Lax pair implemented" in err
        assert all(record.label in err for record in REDUCTIONS.values())


class TestWeyl:
    ARGS = [
        "weyl", "--word", "2", "--point", "3,0,5,7", "--t", "1",
        "--alphas", "0,0,1,0,0,0", "--eta", "2",
    ]

    def test_frozen_reflection_example(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        doc = _json_out(capsys)
        assert doc["image"]["point"] == ["3", "-1/2", "5", "7"]
        assert doc["image"]["alphas"] == ["0", "1", "-1", "1", "0", "0"]
        assert doc["image"]["eta"] == "3"
        assert doc["input"]["t"] == "1"
        assert doc["word"] == [2]

    def test_singular_word_exits_one(self, capsys):
        code = main([
            "weyl", "--word", "1", "--point", "3,0,5,7", "--t", "2",
            "--alphas", "1,1,1,1,1,1", "--eta", "2", "--json",
        ])
        assert code == 1
        doc = _json_out(capsys)
        assert "error" in doc
        assert "p1" in doc["error"]

    def test_missing_point_is_a_usage_error(self, capsys):
        assert main(["weyl", "--word", "2"]) == 2
        assert capsys.readouterr().err

    def test_bad_letter_is_a_usage_error(self, capsys):
        assert main(self.ARGS[:2] + ["--word", "7"] + self.ARGS[2:]) == 2
        assert capsys.readouterr().err


class TestWeylCheck:
    def test_small_sweep_passes(self, capsys):
        code = main([
            "weyl-check", "--samples", "2", "--bridge-samples", "1",
            "--seed", "3", "--json",
        ])
        assert code == 0
        doc = _json_out(capsys)
        assert doc["pass"] is True


class TestIntegrate:
    BASE = [
        "integrate", "--system", "p6", "--point", "0.4,0.3",
        "--kappas", "1/7,3/7,5/7,1", "--rhos", "3/5",
        "--t0", "2", "--t1", "3",
    ]

    def test_csv_on_stdout(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,q1,p1,w1"
        assert all(len(r.split(",")) == 4 for r in out[1:])

    def test_json_document(self, capsys):
        code = main(self.BASE + ["--json", "--sample-at", "2.0,2.5,3.0"])
        assert code == 0
        doc = _json_out(capsys)
        assert doc["metadata"]["system"] == "p6"
        assert doc["metadata"]["termination"] == "reached_end"
        assert doc["header"] == ["t", "q1", "p1", "w1"]
        assert len(doc["rows"]) == 3
        assert all(len(row) == 4 for row in doc["rows"])

    def test_residual_monitor_passes(self, capsys):
        code = main(self.BASE + ["--json", "--residual"])
        assert code == 0
        doc = _json_out(capsys)
        monitor = doc["metadata"]["residual"]
        assert monitor["pass"] is True
        assert monitor["max_residual"] <= 1e-6

    def test_output_files(self, tmp_path, capsys):
        target = tmp_path / "run.csv"
        assert main(self.BASE + ["--out", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "t,q1,p1,w1"
        sidecar = json.loads((tmp_path / "run.csv.json").read_text())
        assert sidecar["system"] == "p6"
        assert sidecar["termination"] == "reached_end"

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "run.csv"
        assert main(self.BASE + ["--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_sidecar_leaves_no_csv(self, tmp_path, capsys):
        target = tmp_path / "run.csv"
        (tmp_path / "run.csv.json").mkdir()
        assert main(self.BASE + ["--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: --out: ")
        assert not target.exists()

    def test_monitor_with_nothing_evaluated_fails(self, capsys):
        # the start is already singular, so no sample has a slope
        code = main([
            "integrate", "--system", "p6", "--point", "2e12,0.3",
            "--kappas", "1/7,3/7,5/7,1", "--rhos", "3/5",
            "--t0", "2", "--t1", "2.2", "--residual", "--json",
        ])
        assert code == 1
        meta = _json_out(capsys)["metadata"]
        assert meta["termination"] == flow.POLE_DETECTED
        assert meta["residual"]["samples"] == 0
        assert meta["residual"]["pass"] is False

    def test_interval_through_singularity_exits_one(self, capsys):
        code = main([
            "integrate", "--system", "p6", "--point", "0.4,0.3",
            "--kappas", "1/7,3/7,5/7,1", "--rhos", "3/5",
            "--t0", "-1", "--t1", "2", "--json",
        ])
        assert code == 1
        assert "error" in _json_out(capsys)

    def test_exhausted_step_budget_exits_one_with_the_flag(self, capsys, monkeypatch):
        # a run that needs more steps than its budget allows, as
        # --fixed-step 1e-6 on [2, 3] does against the default budget
        monkeypatch.setattr(flow, "integrate", functools.partial(flow.integrate, max_steps=3))
        code = main(self.BASE + ["--json", "--fixed-step", "1e-6"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["metadata"]["termination"] == flow.STEP_BUDGET
        assert flow.STEP_BUDGET in captured.err

    def test_movable_pole_exits_one_with_the_flag(self, capsys):
        code = main([
            "integrate", "--partition", "2,2", "--point", "0.5,3.0",
            "--kappas", "0,1/3,4/3,3", "--rhos", "5/2",
            "--t0", "2", "--t1", "3", "--json",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["metadata"]["termination"] == flow.POLE_DETECTED
        assert flow.POLE_DETECTED in captured.err

    def test_non_finite_time_exits_one(self, capsys):
        code = main(self.BASE[:-2] + ["--t1", "nan", "--json"])
        assert code == 1
        assert "not finite" in _json_out(capsys)["error"]

    def test_json_with_out_is_refused(self, tmp_path, capsys):
        target = tmp_path / "run.csv"
        assert main(self.BASE + ["--json", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert "--json" in captured.err and "--out" in captured.err
        assert captured.out == ""
        assert not target.exists() and not (tmp_path / "run.csv.json").exists()

    def test_json_from_the_config_with_out_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("json = true\n")
        target = tmp_path / "run.csv"
        assert main(self.BASE + ["--config", str(cfg), "--out", str(target)]) == 2
        assert "--json" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("route,named", [
        (["--kappas", "1/7,3/7,5/7,1", "--rhos", "3/5", "--alphas", "1,2"], ["--kappas/--rhos", "--alphas"]),
        (["--kappas", "1/7,3/7,5/7,1", "--rhos", "3/5", "--eta", "1/2"], ["--kappas/--rhos", "--eta"]),
        (["--alphas", "1,2,3,4,5", "--rhos", "3/5"], ["--rhos", "--alphas"]),
    ])
    def test_mixed_parameter_routes_are_refused(self, capsys, route, named):
        argv = ["integrate", "--system", "p6", "--point", "0.4,0.3", "--t0", "2", "--t1", "3"]
        assert main(argv + route) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in named)

    @pytest.mark.parametrize("tols,named", [
        (["--rel-tol", "0", "--abs-tol", "0"], "abs_tol"),
        (["--rel-tol", "-1"], "rel_tol"),
        (["--abs-tol", "inf"], "abs_tol"),
        (["--fixed-step", "nan"], "fixed_step = nan must be finite and nonzero"),
        (["--fixed-step", "0"], "fixed_step = 0.0 must be finite and nonzero"),
    ])
    def test_bad_tolerance_exits_one(self, capsys, tols, named):
        # main returns rather than raising, so no traceback reaches the user
        assert main(self.BASE + tols) == 1
        assert named in capsys.readouterr().err

    def test_eta_is_refused_without_an_extra_weight(self, tmp_path, capsys):
        argv = [
            "integrate", "--system", "p6", "--point", "0.4,0.3",
            "--alphas", "1/2,1/5,1/10,1/10,0", "--t0", "2", "--t1", "2.2", "--json",
        ]
        assert main(argv + ["--eta", "5"]) == 2
        assert "p6 system takes no --eta" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 5\n")
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "--eta" in capsys.readouterr().err
        assert main(argv) == 0

    def test_weights_for_coupled_sixth_need_eta(self, capsys):
        code = main([
            "integrate", "--system", "cp6", "--point", "0.4,0.3,0.7,-0.2",
            "--alphas", "1/6,1/6,1/6,1/6,1/6,1/6",
            "--t0", "2", "--t1", "3",
        ])
        assert code == 2
        assert "eta" in capsys.readouterr().err


class TestSampleCounts:
    @pytest.mark.parametrize("argv,flag", [
        (["verify-lax", "--partition", "3,3", "--samples", "-5"], "--samples"),
        (["weyl-check", "--samples", "-1"], "--samples"),
        (["weyl-check", "--bridge-samples", "0"], "--bridge-samples"),
        (["report", "--normalization-samples", "0"], "--normalization-samples"),
    ])
    def test_count_below_one_is_a_usage_error(self, capsys, argv, flag):
        assert main(argv) == 2
        assert f"{flag}: expected a positive integer" in capsys.readouterr().err

    def test_count_from_the_file_is_checked_too(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 0\n")
        assert main(["verify-lax", "--partition", "2,2", "--config", str(cfg)]) == 2
        assert "--samples: expected a positive integer" in capsys.readouterr().err

    def test_negative_seed_is_still_a_seed(self, capsys):
        assert main(["verify-lax", "--partition", "2,2", "--samples", "1", "--seed", "-3"]) == 0


class TestConfig:
    def test_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 3\nseed = 5\n")
        code = main([
            "verify-lax", "--partition", "2,2", "--config", str(cfg), "--json",
        ])
        assert code == 0
        assert _json_out(capsys)["samples"] == 3

    def test_flags_override_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 3\n")
        code = main([
            "verify-lax", "--partition", "2,2", "--config", str(cfg),
            "--samples", "2", "--json",
        ])
        assert code == 0
        assert _json_out(capsys)["samples"] == 2

    def test_comments_and_duplicates(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# suite size\nsamples = 3  # inline\nsamples = 2\n")
        code = main([
            "verify-lax", "--partition", "2,2", "--config", str(cfg), "--json",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "duplicate" in captured.err
        assert json.loads(captured.out)["samples"] == 2

    def test_malformed_line_names_its_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 3\nnot a pair\n")
        code = main([
            "verify-lax", "--partition", "2,2", "--config", str(cfg),
        ])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"samples = \xff\xfe\n")
        assert main(["verify-lax", "--partition", "2,2", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --config: ") and err.count("\n") == 1

    def test_loader_normalizes_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bridge-samples = 4\n")
        assert load_config(str(cfg)) == {"bridge_samples": "4"}

    def test_file_alone_supplies_a_required_option(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("partition = 2,2\nsamples = 2\n")
        assert main(["verify-lax", "--config", str(cfg), "--json"]) == 0
        assert _json_out(capsys)["partition"] == [2, 2]

    def test_file_value_is_parsed_like_its_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = abc\n")
        code = main(["verify-lax", "--partition", "2,2", "--config", str(cfg)])
        assert code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "no", "0"])
    def test_false_boolean_leaves_the_flag_off(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"json = {value}\n")
        code = main(["verify-lax", "--partition", "2,2", "--samples", "2", "--config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out.startswith("partition 2,2: 2/2 samples exact")
        cfg.write_text(f"residual = {value}\n")
        assert main(TestIntegrate.BASE + ["--json", "--config", str(cfg)]) == 0
        assert "residual" not in _json_out(capsys)["metadata"]

    def test_true_boolean_turns_the_flag_on(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("json = yes\n")
        code = main(["verify-lax", "--partition", "2,2", "--samples", "2", "--config", str(cfg)])
        assert code == 0
        assert _json_out(capsys)["samples"] == 2

    def test_boolean_must_read_as_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("json = maybe\n")
        code = main(["verify-lax", "--partition", "2,2", "--samples", "2", "--config", str(cfg)])
        assert code == 2
        assert "maybe" in capsys.readouterr().err

    # `bridge_samples` is a key of weyl-check and report, not of verify-lax
    @pytest.mark.parametrize("key", ["frobnicate", "bridge_samples"])
    def test_unknown_key_is_refused(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        code = main(["verify-lax", "--partition", "2,2", "--samples", "2", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(cfg) in err and key in err

    def test_partition_key_names_the_system(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("partition = 3,3\n")
        code = main([
            "integrate", "--config", str(cfg), "--point", "0.4,0.3,0.7,-0.2",
            "--kappas", "1/7,3/7,5/7,1,9/7,11/7", "--rhos", "3/5", "--t0", "2", "--t1", "2.1", "--json",
        ])
        assert code == 0
        assert _json_out(capsys)["metadata"]["system"] == "cp6"


class TestParsing:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["heisenberg", "--partition", "2,2", "--frob"]) == 2

    @pytest.mark.parametrize(
        "command", ["heisenberg", "verify-lax", "weyl", "weyl-check", "integrate", "report"]
    )
    def test_help_exits_zero(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert "default" in capsys.readouterr().out

    def test_report_always_writes_json(self, capsys):
        assert main(["report", "--json"]) == 2

    def test_closed_stdout_exits_one_without_a_traceback(self):
        src = str(Path(painleve_ds.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "painleve_ds", "verify-lax", "--partition", "2,2",
             "--samples", "2", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        # closed before the child has even imported the package
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in err


class TestReport:
    def test_small_report_is_deterministic(self, tmp_path, capsys):
        args = [
            "report", "--samples", "2", "--bridge-samples", "1",
            "--normalization-samples", "3", "--seed", "8",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["pass"] is True
        assert set(doc) >= {"heisenberg", "lax", "weyl", "normalization", "numerics"}

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # the path is checked before any suite runs
        for suite in ("_heisenberg_suite", "_lax_block", "_weyl_reports", "check_normalization", "_report_numerics"):
            monkeypatch.setattr(cli, suite, lambda *a, **k: pytest.fail("a suite ran"))
        assert main(["report", "--out", str(tmp_path / "missing" / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_out_check_changes_no_file(self, tmp_path, monkeypatch):
        # a run that stops after the check leaves an old report whole and
        # creates no new one
        monkeypatch.setattr(cli, "_heisenberg_suite", lambda *a: pytest.fail("stop"))
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text("previous report\n")
        for target in (old, new):
            with pytest.raises(pytest.fail.Exception):
                main(["report", "--out", str(target)])
        assert old.read_text() == "previous report\n"
        assert not new.exists()
