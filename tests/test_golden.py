"""Behaviour guard: the exact blocks of a fixed-seed report never move.

The heisenberg, lax, weyl and normalization blocks are exact rational
computations fully determined by the seed, so their serialized form is
pinned by its sha256.  The numerics block holds floats that may move in
the last digits under a harmless reordering of float operations, so it
stays out of the hash; its own bounds are gated in test_acceptance.
A legitimate change of the exact output needs a new hash and a line in
CHANGES.md saying why.
"""

import hashlib
import json

from painleve_ds.cli import main

EXACT_BLOCKS = ("heisenberg", "lax", "weyl", "normalization")
GOLDEN_SHA256 = "15a549245d2eab5633ee85dc4288a604c34600ec1b903502c0f4e853c9182f75"


def test_exact_report_blocks_are_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--samples", "10", "--seed", "123", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    exact = json.dumps({k: doc[k] for k in EXACT_BLOCKS}, sort_keys=True)
    assert hashlib.sha256(exact.encode()).hexdigest() == GOLDEN_SHA256
