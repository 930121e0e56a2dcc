"""The claim tables and the suites that run them.

Every exact claim of the report is one ``(name, draw, examine)`` entry of
a table: ``lax.ZERO_CURVATURE``, ``weyl.RELATIONS``, ``weyl.EQUIVARIANCE``,
``weyl.BRIDGES`` and ``painleve.WEIGHT_SUMS``.  These tests walk the
tables, pin the failure bodies of the first-witness suites, and check
that every int literal of the generated exact kernels is seen by the
zero-curvature claim.
"""

import functools
import hashlib
import inspect
import io
import json
import random
import tokenize
from fractions import Fraction as QQ

import pytest

from painleve_ds import lax, painleve, weyl
from painleve_ds.loop import LoopElement
from painleve_ds.painleve import SystemParameters
from painleve_ds.reductions import REDUCTIONS, reduction
from painleve_ds.sampling import check_claims
from painleve_ds.scalars import PoleError

# sha256 of the four suites' bodies at samples=3, seed=4 with one claim
# of each broken on purpose, as in test_weyl.TestWitnesses
FAILURE_SHA256 = "61b3eee86d1f6ad9377c95aa01dc07a94399f021028887779288682430b34d22"


def test_failure_bodies_are_pinned(monkeypatch):
    def moved_q1(word, pairs, params, t):
        (q1, p1), second = pairs
        return ((q1 + 1, p1), second), params

    original = painleve.reduction_parameters

    def doubled(parts, kappas, rhos):
        params = original(parts, kappas, rhos)
        return SystemParameters(tuple(2 * a for a in params.alpha), params.eta)

    monkeypatch.setattr(weyl, "apply_word", moved_q1)
    monkeypatch.setattr(weyl, "equivariance_residual", lambda *args: (QQ(1), QQ(0), QQ(0), QQ(0)))
    monkeypatch.setattr(
        weyl, "conjugation_residual", lambda *args, root: LoopElement(5, {(0, 0, 1): QQ(1)})
    )
    monkeypatch.setattr(painleve, "reduction_parameters", doubled)
    bodies = [
        check(samples=3, seed=4).to_json_dict()
        for check in (
            weyl.check_relations,
            weyl.check_equivariance,
            weyl.check_conjugation,
            painleve.check_normalization,
        )
    ]
    assert not any(body["pass"] for body in bodies)
    text = json.dumps(bodies, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FAILURE_SHA256


SUITES = [
    weyl.check_relations,
    weyl.check_equivariance,
    weyl.check_conjugation,
    painleve.check_normalization,
    functools.partial(lax.verify_partition, (2, 2)),
]


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("suite", SUITES)
def test_an_empty_suite_is_refused(suite, samples):
    with pytest.raises(ValueError, match=f"at least one sample, got {samples}"):
        suite(samples=samples)


def test_a_proved_claim_runs_once_without_a_point():
    seen = []

    def proved(point):
        seen.append(point)
        return {"why": "false"} if len(seen) == 2 else None

    claims = [("first", None, proved), ("second", None, proved)]
    report = check_claims("proved", claims, samples=5, seed=0)
    assert seen == [None, None]
    assert [c.to_json_dict() for c in report.checks] == [
        {"name": "first", "pass": True},
        {"name": "second", "pass": False, "witness": {"why": "false"}},
    ]


# -- the claim tables ----------------------------------------------------

TABLES = {
    "lax.ZERO_CURVATURE": tuple(lax.ZERO_CURVATURE.values()),
    "weyl.RELATIONS": weyl.RELATIONS,
    "weyl.EQUIVARIANCE": weyl.EQUIVARIANCE,
    "weyl.BRIDGES": weyl.BRIDGES,
    "painleve.WEIGHT_SUMS": painleve.WEIGHT_SUMS,
}
CLAIMS = [claim for table in TABLES.values() for claim in table]


def test_claim_names_are_unique_across_the_report():
    names = [name for name, _, _ in CLAIMS]
    assert len(set(names)) == len(names) == 5 + 21 + 6 + 6 + 10


def test_each_suite_reports_its_table_in_order():
    for check, table in [
        (weyl.check_relations, weyl.RELATIONS),
        (weyl.check_equivariance, weyl.EQUIVARIANCE),
        (weyl.check_conjugation, weyl.BRIDGES),
        (painleve.check_normalization, painleve.WEIGHT_SUMS),
    ]:
        assert [c.name for c in check(samples=1, seed=0).checks] == [name for name, _, _ in table]
    for parts, (name, _, _) in lax.ZERO_CURVATURE.items():
        assert lax.verify_partition(parts, samples=1).label == name


@pytest.mark.parametrize("claim", CLAIMS, ids=[name for name, _, _ in CLAIMS])
def test_each_claim_holds_at_its_first_point(claim):
    _, draw, examine = claim
    assert examine(None if draw is None else draw(random.Random(0))) is None


# -- a mutation gate for the generated exact kernels ---------------------

MUTATION_POINTS = 4


def _mutants(kernel):
    """(where, mutant): the kernel recompiled once per int literal of its
    source, that literal raised by 1."""
    lines = inspect.getsource(kernel).splitlines(keepends=True)
    for token in tokenize.generate_tokens(io.StringIO("".join(lines)).readline):
        if token.type != tokenize.NUMBER or not token.string.isdigit():
            continue
        (row, start), (_, end) = token.start, token.end
        line, raised = lines[row - 1], int(token.string) + 1
        mutated = [*lines[: row - 1], f"{line[:start]}{raised}{line[end:]}", *lines[row:]]
        namespace = {}
        exec(compile("".join(mutated), f"<mutant of {kernel.__name__}>", "exec"), namespace)
        yield f"line {row}, column {start}: {token.string} -> {raised}", namespace[kernel.__name__]


def _caught(parts):
    """Whether the zero-curvature claim fails within a few points: by a
    witness, by a pole, or, for a weight index moved past the last weight,
    by the IndexError the suite raises."""
    _, draw, examine = lax.ZERO_CURVATURE[parts]
    rng = random.Random(0)
    try:
        return any(examine(draw(rng)) is not None for _ in range(MUTATION_POINTS))
    except (PoleError, IndexError):
        return True


@pytest.mark.parametrize("parts", list(REDUCTIONS))
def test_every_literal_of_a_zero_curvature_kernel_is_load_bearing(monkeypatch, parts):
    record = reduction(parts)
    keys, kernel = lax._residual_kernel(parts, record.to_ds, record.matrices, record.tau)
    mutants = list(_mutants(kernel))
    survivors = []
    for where, mutant in mutants:
        monkeypatch.setattr(lax, "_residual_kernel", lambda *key, mutant=mutant: (keys, mutant))
        if not _caught(parts):
            survivors.append(where)
    assert mutants and survivors == []
    monkeypatch.undo()
    assert not _caught(parts)


@pytest.mark.parametrize("system", ["p6", "a4", "a5", "cp6"])
def test_every_literal_of_a_vector_field_kernel_is_load_bearing(monkeypatch, system):
    records = [r for r in REDUCTIONS.values() if r.system == system]
    field, rhs = painleve._traced_system(system, records[0].pair_count, records[0].weight_count)
    mutants = list(_mutants(field))
    survivors = []
    for where, mutant in mutants:
        monkeypatch.setattr(painleve, "_traced_system", lambda *key, mutant=mutant: (mutant, rhs))
        if not any(_caught(r.parts) for r in records):
            survivors.append(where)
    assert mutants and survivors == []
