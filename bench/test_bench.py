"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q bench/test_bench.py

Checks the output contract against BENCHMARK.json, the coverage of the
traced run, the workload split the traces should show, and the
environment each result records.  Not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "0.1", "--scale", "0.02"]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = bench(workload, trace)
            assert done.returncode == 0, done.stderr
            last = json.loads(done.stdout.strip().splitlines()[-1])
            record = ROOT / ".bench_out" / f"result-{workload}-seed3-trace{trace}.json"
            out[workload, trace] = last, json.loads(record.read_text())
    return out


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(results, trace, key):
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    for workload in WORKLOADS:
        last, _ = results[workload, trace]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert {n: m["unit"] for n, m in last["metrics"].items()} == expected
        if trace == 0:
            assert all(m["value"] > 0 for m in last["metrics"].values()), workload


def test_suite_spans_cover_traced_wall(results):
    for workload in WORKLOADS:
        coverage = results[workload, 1][0]["metrics"]["trace.coverage"]["value"]
        assert 0.95 <= coverage <= 1.0, (workload, coverage)


def test_traces_confirm_the_workload_split(results):
    def layer(workload, name):
        return results[workload, 1][0]["metrics"][name]["value"]

    assert layer("float-flow", "scalars.ext_inverse.calls") == 0
    assert layer("lax-exact", "painleve.vector_field.float.calls") == 0
    assert layer("lax-exact", "scalars.ext_inverse.calls") > 0
    assert layer("float-flow", "flow.rhs_evals") > 0
    assert layer("weyl-exact", "painleve.hamiltonian.per_vector_field") == 4  # cp6: 2 pairs
    for workload in WORKLOADS:
        assert layer(workload, "painleve.hamiltonian.per_pair") == 2
        assert layer(workload, "trace.overhead") > 0
        assert results[workload, 1][1]["absent"] == []


def test_results_record_the_environment(results):
    for (workload, trace), (_, record) in results.items():
        env = record["environment"]
        assert "commit" in env and len(env["source_sha256"]) == 64
        assert env["python"] == "%d.%d.%d" % sys.version_info[:3]
        assert env["nproc"] >= 1
        assert len(env["loadavg_start"]) == 3 and len(env["loadavg_end"]) == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
