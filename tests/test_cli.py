"""Command-line driver: exit codes, JSON shapes, config handling."""

import functools
import json

import pytest

from painleve_ds import flow
from painleve_ds.cli import load_config, main


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

    def test_unsupported_partition_rejected(self, capsys):
        assert main(["verify-lax", "--partition", "5,2"]) == 2
        assert capsys.readouterr().err


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

    def test_weights_for_coupled_sixth_need_eta(self, capsys):
        code = main([
            "integrate", "--system", "cp6", "--point", "0.4,0.3,0.7,-0.2",
            "--alphas", "1/6,1/6,1/6,1/6,1/6,1/6",
            "--t0", "2", "--t1", "3",
        ])
        assert code == 2
        assert "eta" in capsys.readouterr().err


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

    def test_loader_normalizes_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bridge-samples = 4\n")
        assert load_config(str(cfg)) == {"bridge_samples": "4"}


class TestParsing:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["heisenberg", "--partition", "2,2", "--frob"]) == 2


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
