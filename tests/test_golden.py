"""Behaviour guard: a fixed-seed report never moves.

The heisenberg, lax, weyl and normalization blocks are exact rational
computations fully determined by the seed, so their serialized form is
pinned by its sha256.  The whole document of two fixed-seed reports is
pinned as well, numerics block included: its floats enter as their
repr, so that pin holds only while every float operation of the lane
runs in the same order.  A legitimate change of either output needs a
new hash and a line in CHANGES.md saying why.
"""

import hashlib
import json

import pytest

from painleve_ds.cli import main

EXACT_BLOCKS = ("heisenberg", "lax", "weyl", "normalization")
GOLDEN_SHA256 = "15a549245d2eab5633ee85dc4288a604c34600ec1b903502c0f4e853c9182f75"

# sha256 of the file ``report --out`` writes, which is also what it prints
REPORT_SHA256 = {
    ("--seed", "0"): "74dc65c4ccb18c38d98b8d745ec11ab9b1ca3849e0b9e6dc5af029baf4e3a5a2",
    ("--seed", "5", "--samples", "30"): "a4a827b3b23d0db2d52ed37e1c914c9de2a95c0336b85164b909da040dd0fa32",
}


def test_exact_report_blocks_are_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--samples", "10", "--seed", "123", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    exact = json.dumps({k: doc[k] for k in EXACT_BLOCKS}, sort_keys=True)
    assert hashlib.sha256(exact.encode()).hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("argv, digest", REPORT_SHA256.items(), ids=["seed0", "seed5-samples30"])
def test_whole_reports_are_pinned(argv, digest, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
