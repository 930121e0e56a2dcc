"""The claim tables and the suites that run them.

Every exact claim of the report is one ``(name, draw, examine)`` entry of
a table: ``lax.ZERO_CURVATURE``, ``weyl.RELATIONS``, ``weyl.EQUIVARIANCE``,
``weyl.BRIDGES`` and ``painleve.WEIGHT_SUMS``.  These tests walk the
tables, pin the failure bodies of the first-witness suites, and check
that every int literal of the generated exact kernels is seen by the
claim that runs it: zero curvature, the Weyl relations, flow
equivariance, the gauge bridges or the weight sum.
"""

import functools
import hashlib
import inspect
import io
import json
import random
import tokenize
from fractions import Fraction as QQ
from itertools import chain

import pytest

from painleve_ds import lax, painleve, weyl
from painleve_ds.loop import LoopElement
from painleve_ds.painleve import SystemParameters
from painleve_ds.reductions import REDUCTIONS, reduction
from painleve_ds.sampling import check_claims, first_witness, random_rational
from painleve_ds.scalars import (
    Extension, ExtScalar, Gradient, GradingError, PoleError, is_zero_scalar, tangent_of, value_of,
)

# sha256 of the four suites' bodies at samples=3, seed=4 with one claim
# of each broken on purpose, as in test_weyl.TestWitnesses
FAILURE_SHA256 = "61b3eee86d1f6ad9377c95aa01dc07a94399f021028887779288682430b34d22"


def test_failure_bodies_are_pinned(monkeypatch, fresh_claim_kernels):
    def moved_q1(word, start, t):  # the point, q1 + 1 in place of q1
        (n, d), *rest = start
        return [(n + d, d), *rest]

    original = painleve.reduction_parameters

    def doubled(parts, kappas, rhos):
        params = original(parts, kappas, rhos)
        return SystemParameters(tuple(2 * a for a in params.alpha), params.eta)

    monkeypatch.setattr(weyl, "_unreduced_word", moved_q1)
    monkeypatch.setattr(weyl, "_unreduced_residual", lambda *args: (QQ(1), QQ(0), QQ(0), QQ(0)))
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


# sha256 of the five zero-curvature bodies at samples=3, seed=4 with 1/3
# added to the flow's first gauge log-rate, so every sample fails
ZERO_CURVATURE_FAILURE_SHA256 = "e89391cb8f41dd8d3090a68ed85f799d5165760cae0505b2749bbff2b187c948"


def test_zero_curvature_failure_bodies_are_pinned(monkeypatch):
    original = lax.flow_slope

    def shifted(parts, t, y, params):
        slope = list(original(parts, t, y, params))
        slope[2 * reduction(parts).pair_count] += QQ(1, 3)
        return slope

    monkeypatch.setattr(lax, "flow_slope", shifted)
    bodies = [lax.verify_partition(parts, samples=3, seed=4).to_json_dict() for parts in REDUCTIONS]
    assert sum(len(body["failures"]) for body in bodies) == 15
    text = json.dumps(bodies, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ZERO_CURVATURE_FAILURE_SHA256


# sha256 of the five zero-curvature bodies at samples=3, seed=4 with 1
# added to each record's first constraint, so every sample fails there
CONSTRAINT_FAILURE_SHA256 = "be4905f5963115f4f5e6c605dd193c01082b331d0ba1a3a5ebc15c81f79e8907"


def test_constraint_failure_bodies_are_pinned(monkeypatch, fresh_kernels):
    def moved(honest):
        def constraints(self, state):
            out = honest(self, state)
            first = next(iter(out))
            return {**out, first: out[first] + 1}
        return constraints

    for record in REDUCTIONS.values():
        monkeypatch.setattr(type(record), "constraints", moved(type(record).constraints))
    bodies = [lax.verify_partition(parts, samples=3, seed=4).to_json_dict() for parts in REDUCTIONS]
    failures = [failure for body in bodies for failure in body["failures"]]
    assert len(failures) == 15 and all(failure["entry"][0] == "constraint" for failure in failures)
    text = json.dumps(bodies, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRAINT_FAILURE_SHA256


# sha256 of the six conjugation bodies at samples=3, seed=4, the i-th with
# phi_i doubled, so the real bridge runs on its failure path and its pole
# redraws: each body fails at r_i alone
BRIDGE_FAILURE_SHA256 = "0b5ff773218d29f7deb0810555dae9cc440ee7bff430facb23b743d9c2f4e732"


def test_bridge_failure_bodies_are_pinned(monkeypatch):
    honest = weyl.gauge_function
    bodies = []
    for i in weyl.GENERATORS:
        monkeypatch.setattr(
            weyl, "gauge_function", lambda index, *args, i=i: (1 + (index == i)) * honest(index, *args)
        )
        bodies.append(weyl.check_conjugation(samples=3, seed=4).to_json_dict())
    failing = [[check["name"] for check in body["checks"] if not check["pass"]] for body in bodies]
    assert failing == [[f"conjugation bridge of r{i}"] for i in weyl.GENERATORS]
    text = json.dumps(bodies, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BRIDGE_FAILURE_SHA256


# sha256 of the six relation bodies at samples=3, seed=4, the i-th with r_i
# giving its right neighbour 2 alpha_i, so the real words run on their
# failure path: each body fails at braid(i, i+1) alone
RELATION_FAILURE_SHA256 = "a6618c091b06871d42514a242567d92b9a41465372c53f1486eb23f048efb460"


def test_relation_failure_bodies_are_pinned(monkeypatch, fresh_claim_kernels):
    honest = weyl._shifted_weights

    def skewed(alpha, index, i):
        out = list(honest(alpha, index))
        if index == i:
            out[(index + 1) % 6] += alpha[index]
        return tuple(out)

    bodies = []
    for i in weyl.GENERATORS:
        monkeypatch.setattr(weyl, "_shifted_weights", functools.partial(skewed, i=i))
        bodies.append(weyl.check_relations(samples=3, seed=4).to_json_dict())
    failing = [[check["name"] for check in body["checks"] if not check["pass"]] for body in bodies]
    assert failing == [[f"braid({i},{(i + 1) % 6})"] for i in weyl.GENERATORS]
    text = json.dumps(bodies, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RELATION_FAILURE_SHA256


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


# -- the two emissions of each exact kernel -----------------------------

AGREEMENT_POINTS = 12
# the claim draws a rational root for these, and runs their integer-pair text
INTEGER_PARTITIONS = [(3, 3), (2, 2, 1), (2, 2), (4, 1)]
# (3,1)'s root is r = sqrt 6 at every point: its claim runs the text graded
# by the parity of r, as a public call does for these three at a surd t
SURD_PARTITIONS = [(2, 2, 1), (2, 2), (4, 1)]
ODD = ("u", "du")
SYSTEMS = ["p6", "a4", "a5", "cp6"]


def _kernels(parts):
    return lax._residual_kernel(parts)


def _claimed(parts):
    """The exact text the zero-curvature claim runs, called as the generic
    kernel is: for (3,1), the graded text, on the root and rate's r-coefficients."""
    _, _, _, exact = _kernels(parts)
    if parts in INTEGER_PARTITIONS:
        return exact()
    return _as_generic(exact(*ODD))


def _as_generic(graded):
    def call(y, dy, t, u, du, k, r):
        return graded(y, dy, t, u.c, du.c, k, r, u.ext)
    return call


def _system_records(system):
    return [r for r in REDUCTIONS.values() if r.system == system]


def _outcome(kernel, args):
    """The outputs and their repr, or what was raised: "pole" for the
    PoleError of a zero divisor, or else the error's name: an IndexError,
    or the GradingError of a sum of mixed parity over ExtScalar."""
    try:
        values = kernel(*args)
    except PoleError:
        return "pole"
    except (IndexError, GradingError) as exc:
        return type(exc).__name__
    return values, repr(values)


@functools.cache
def _residual_points(parts, surd=False):
    """Seeded arguments of a zero-curvature kernel: the claim's points with
    their flow rates, every second one with its pair rates moved by 1 so
    the residual is nonzero, and every third one with a zero gauge.  With
    surd, t is doubled and the root adjoined there: the base, t or -2t, is
    then twice a square, so the root is a surd."""
    record = reduction(parts)
    _, draw, _ = lax.ZERO_CURVATURE[parts]
    rng = random.Random(7)
    points = []
    for index in range(AGREEMENT_POINTS):
        point = draw(rng)
        pairs, t, gauges = point["pairs"], point["t"], point["gauges"]
        if surd:
            t = 2 * t
            point["root"] = lax.time_root(parts, t).value
        params = painleve.reduction_parameters(parts, point["kappas"], point["rhos"])
        rates = painleve.vector_field(record.system, pairs, t, params)
        dlogs = painleve.gauge_log_derivatives(parts, pairs, t, params)
        gauge_rates = {name: g * dlogs[name] for name, g in gauges.items()}
        if index % 2:
            rates = tuple((dq + 1, dp) for dq, dp in rates)
        if index % 3 == 2:
            gauges = {name: QQ(0) for name in gauges}
        root, rate = lax._root_and_rate(record, t, point["root"])
        y = [*chain(*pairs), *(gauges[name] for name in record.gauge_names)]
        dy = [*chain(*rates), *(gauge_rates[name] for name in record.gauge_names)]
        points.append((y, dy, t, root, rate, point["kappas"], point["rhos"]))
    return points


@functools.cache
def _flow_points(parts):
    """Seeded arguments of a partition's flow, every third one at t = 0 or 1."""
    record = reduction(parts)
    rng = random.Random(11)
    draw = lambda: QQ(rng.randint(-20, 20), rng.randint(1, 10))
    points = []
    for index in range(AGREEMENT_POINTS):
        y = tuple(draw() for _ in range(2 * record.pair_count + len(record.gauge_names)))
        t = QQ(index % 2) if index % 3 == 2 else draw()
        alpha = tuple(draw() for _ in range(record.weight_count))
        points.append((t, y, alpha, None if record.eta is None else draw()))
    return points


def _agrees(kernel, exact, points):
    return all(_outcome(kernel, args) == _outcome(exact, args) for args in points)


def _assert_agree(kernel, exact, points):
    outcomes = [_outcome(kernel, args) for args in points]
    assert [_outcome(exact, args) for args in points] == outcomes
    assert outcomes[2::3] == ["pole"] * (AGREEMENT_POINTS // 3)
    assert not any(all(map(is_zero_scalar, values)) for values, _ in outcomes[1::6])
    assert all(all(map(is_zero_scalar, values)) for values, _ in outcomes[::6])


@pytest.mark.parametrize("parts", [*INTEGER_PARTITIONS, (3, 1)])
def test_both_emissions_of_a_zero_curvature_kernel_agree(parts):
    _, _, kernel, exact = _kernels(parts)
    _assert_agree(kernel, _claimed(parts), _residual_points(parts))
    if parts in SURD_PARTITIONS:
        _assert_agree(kernel, _as_generic(exact(*ODD)), _residual_points(parts, surd=True))


@pytest.mark.parametrize("system", SYSTEMS)
def test_both_emissions_of_a_vector_field_agree(system):
    # the field of a system is the pair part of each of its partitions' flows
    for record in _system_records(system):
        kernel, exact = painleve._flow(record.parts)
        points = _flow_points(record.parts)
        outcomes = [_outcome(kernel, args) for args in points]
        assert [_outcome(_on_values(exact()), args) for args in points] == outcomes
        # a4 divides by nothing, a5 by t, and p6 and cp6 by t(t - 1)
        poles = {"a4": (), "a5": (0,), "p6": (0, 1), "cp6": (0, 1)}[system]
        raised = [i for i, outcome in enumerate(outcomes) if outcome == "pole"]
        assert raised == [i for i, (t, _, _, _) in enumerate(points) if t in poles]
        assert raised or not poles


def _constants(record, rng):
    """A record's constants, about 30% of them ints."""
    draw = lambda: rng.randint(-20, 20) if rng.random() < 0.3 else QQ(rng.randint(-20, 20), rng.randint(1, 10))
    return tuple(draw() for _ in range(record.kappa_count)), tuple(draw() for _ in range(record.rho_count))


@pytest.mark.parametrize("parts", list(REDUCTIONS))
def test_a_common_denominator_weight_form_equals_the_fraction_sum(parts):
    # reduction_parameters takes rational constants through integer rows;
    # each weight must equal its form's generic loop and the plain Fraction
    # sum, at drawn constants, about 30% ints, at all-int and at zero ones
    record = reduction(parts)
    forms = (*record.alpha, *(() if record.eta is None else (record.eta,)))
    rng = random.Random(13)
    points = [_constants(record, rng) for _ in range(200)]
    points += [tuple(tuple(rng.randint(-20, 20) for _ in c) for c in point) for point in points[:20]]
    points.append(((0,) * record.kappa_count, (0,) * record.rho_count))
    for kappas, rhos in points:
        params = painleve.reduction_parameters(parts, kappas, rhos)
        got = [*params.alpha, *(() if params.eta is None else (params.eta,))]
        loop = [form(kappas, rhos) for form in forms]
        want = [
            form.const + sum(c * k for c, k in zip(form.kappa, kappas)) + sum(c * r for c, r in zip(form.rho, rhos))
            for form in forms
        ]
        assert (got, repr(got)) == (loop, repr(loop)) == (want, repr(want))


# -- a mutation gate for the generated exact kernels ---------------------
#
# The zero-curvature claim runs the integer-pair kernels, (3,1)'s graded by
# the parity of its root, so each of their mutants must fail it.  Each
# mutant of a generic kernel, which the claim no longer runs, must fail the
# agreement test above instead.  The base of the graded text is a runtime
# argument, out of a mutant's reach: a control runs it with another base.

MUTATION_POINTS = 4


def _mutants(kernel):
    """(where, mutant): the kernel recompiled once per int literal of its
    source, that literal raised by 1, its zero divisors named as the kernel's."""
    lines = inspect.getsource(kernel).splitlines(keepends=True)
    for token in tokenize.generate_tokens(io.StringIO("".join(lines)).readline):
        if token.type != tokenize.NUMBER or not token.string.isdigit():
            continue
        (row, start), (_, end) = token.start, token.end
        line, raised = lines[row - 1], int(token.string) + 1
        mutated = [*lines[: row - 1], f"{line[:start]}{raised}{line[end:]}", *lines[row:]]
        namespace = {"Fraction": QQ, "ExtScalar": ExtScalar, "is_zero_scalar": is_zero_scalar, "value_of": value_of,
                     "PoleError": PoleError, "_pole": kernel.__globals__["_pole"]}
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
    # the constraint literals too: the claim reads the constraint outputs
    names, keys, kernel, exact = _kernels(parts)
    mutants = list(_mutants(exact() if parts in INTEGER_PARTITIONS else exact(*ODD)))
    survivors = []
    for where, mutant in mutants:
        patched = (names, keys, kernel, lambda *odd, mutant=mutant: mutant)
        monkeypatch.setattr(lax, "_residual_kernel", lambda *key, patched=patched: patched)
        if not _caught(parts):
            survivors.append(where)
    assert mutants and survivors == []
    monkeypatch.undo()
    assert not _caught(parts)


@pytest.mark.parametrize("parts", [*INTEGER_PARTITIONS, (3, 1)])
def test_every_literal_of_a_generic_zero_curvature_kernel_is_load_bearing(parts):
    _, _, kernel, _ = _kernels(parts)
    mutants = list(_mutants(kernel))
    survivors = [where for where, mutant in mutants if _agrees(mutant, _claimed(parts), _residual_points(parts))]
    assert mutants and survivors == []


def test_the_graded_kernel_needs_r_squared_six(monkeypatch):
    # r * r = 6 enters only through the base the kernel is given: with base 4
    # in its place, the (3,1) claim fails at every point
    names, keys, kernel, exact = _kernels((3, 1))
    graded, four = exact(*ODD), Extension("r", 4)
    on_four = lambda *args: graded(*args[:-1], four)
    monkeypatch.setattr(lax, "_residual_kernel", lambda *key: (names, keys, kernel, lambda *odd: on_four))
    _, draw, examine = lax.ZERO_CURVATURE[(3, 1)]
    rng = random.Random(0)
    assert all(examine(draw(rng)) is not None for _ in range(20))


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_literal_of_a_vector_field_kernel_is_load_bearing(monkeypatch, system):
    # over each of the system's partitions' whole flow, gauge log-rates too:
    # the partition's own zero-curvature claim must catch every mutant
    for record in _system_records(system):
        kernel, exact = painleve._flow(record.parts)
        mutants = list(_mutants(exact()))
        survivors = []
        for where, mutant in mutants:
            patched = (kernel, lambda mutant=mutant: mutant)
            monkeypatch.setattr(painleve, "_flow", lambda parts, patched=patched: patched)
            if not _caught(record.parts):
                survivors.append(where)
        assert mutants and survivors == [], record.label
        monkeypatch.undo()
        assert not _caught(record.parts)


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_literal_of_a_generic_vector_field_kernel_is_load_bearing(system):
    for record in _system_records(system):
        kernel, exact = painleve._flow(record.parts)
        mutants = list(_mutants(kernel))
        survivors = [where for where, mutant in mutants
                     if _agrees(mutant, _on_values(exact()), _flow_points(record.parts))]
        assert mutants and survivors == [], record.label


# -- the reflection and weight-sum kernels -------------------------------
#
# Each is checked against the formulas it is traced from, and each mutant
# of a text a claim runs over integer pairs must fail that claim: the
# relations for a reflection's text, flow equivariance for its text with
# tangents.  The generic texts of both, which float calls run, are gated
# as the generic flow texts are: each mutant must disagree with the
# integer text.


def _on_pole(index, point, k):
    """The Weyl point moved onto a pole of r_index; r3 alternates its two."""
    ((q1, p1), (q2, p2)), params, t = point
    if index == 0:
        q2 = q1
    elif index == 1:
        p1 = QQ(0)
    elif index == 2:
        t = q1
    elif index == 3:
        action = q1 * p1 + q2 * p2
        eta = params.alpha[3] - action if k % 2 else -action
        params = SystemParameters(params.alpha, eta)
    elif index == 4:
        q2 = QQ(1)
    else:
        p2 = QQ(0)
    return ((q1, p1), (q2, p2)), params, t


def _reflection_points(index):
    """Seeded Weyl points, every third one on a pole of r_index."""
    rng = random.Random(17)
    points = [weyl.sample_weyl_point(rng) for _ in range(AGREEMENT_POINTS)]
    return [_on_pole(index, point, k) if k % 3 == 2 else point for k, point in enumerate(points)]


def _reflection_outcome(reflect):
    """The image (pairs, weights, eta), each coordinate as its value and
    partial, and its repr, or the PoleError's message."""
    try:
        pairs, weights, eta = reflect()
    except PoleError as exc:
        return str(exc)
    values = tuple(tuple((value_of(x), tangent_of(x)) for x in pair) for pair in pairs), tuple(weights), eta
    return values, repr(values)


def _checked(denominator, description):
    """A require that refuses a zero denominator by value, as each text does."""
    if is_zero_scalar(value_of(denominator)):
        raise PoleError(f"reflection pole: {description} = 0")
    return denominator


def _assert_reflection_agrees(monkeypatch, index, lane):
    def kernel(pairs, params, t):
        image, moved = weyl.apply_generator(index, pairs, params, t)
        return image, moved.alpha, moved.eta

    def formulas(pairs, params, t):
        if is_zero_scalar(params.alpha[index]):  # r_index is the identity
            return pairs, params.alpha, params.eta
        return weyl._reflection(index, pairs, params.alpha, params.eta, t, _checked)

    points = _reflection_points(index)
    if lane != "rational":
        points = [_in_lane(point, lane) for point in points]
    want = [_reflection_outcome(lambda: formulas(*point)) for point in points]
    weyl._reflection_kernel(index, False)
    # a call runs the integer text on rationals and the generic text otherwise
    monkeypatch.setattr(weyl, "_reflection", None)
    assert [_reflection_outcome(lambda: kernel(*point)) for point in points] == want
    poles = [k for k, outcome in enumerate(want) if isinstance(outcome, str)]
    if lane != "float":  # a float image of a pole need not be one
        assert poles == list(range(2, AGREEMENT_POINTS, 3))
        assert {want[k] for k in poles} == POLE_MESSAGES[index]


@pytest.mark.parametrize("index", weyl.GENERATORS)
def test_a_reflection_kernel_agrees_with_its_generic_text(monkeypatch, index):
    # the integer text, against the formulas both texts are traced from
    _assert_reflection_agrees(monkeypatch, index, "rational")


@pytest.mark.parametrize("lane", ["float", "gradient"])
@pytest.mark.parametrize("index", weyl.GENERATORS)
def test_a_generic_reflection_text_agrees_with_the_formulas(monkeypatch, index, lane):
    _assert_reflection_agrees(monkeypatch, index, lane)


# what each generator's PoleError says at its poles; r3 has two denominators
POLE_MESSAGES = {
    0: {"reflection pole: q1 - q2 = 0"},
    1: {"reflection pole: p1 = 0"},
    2: {"reflection pole: q1 - t = 0"},
    3: {"reflection pole: q1*p1 + q2*p2 + eta = 0", "reflection pole: q1*p1 + q2*p2 - alpha3 + eta = 0"},
    4: {"reflection pole: q2 - 1 = 0"},
    5: {"reflection pole: p2 = 0"},
}

# a unit-sum Weyl point of dyadic rationals, no weight zero: every pole
# _on_pole puts it on is exactly zero in float arithmetic too
DYADIC_POINT = (
    ((QQ(1, 2), QQ(3, 2)), (QQ(2), QQ(-1, 4))),
    SystemParameters((QQ(1, 4), QQ(1, 2), QQ(1, 8), QQ(3, 4), QQ(-1, 2), QQ(-1, 8)), QQ(3, 8)),
    QQ(3),
)


def _in_lane(point, lane):
    """The point as floats, or as one-direction Gradients over its rationals
    with plain weights, as the equivariance check passes them."""
    pairs, params, t = point
    if lane == "float":
        params = SystemParameters(tuple(map(float, params.alpha)), float(params.eta))
        return tuple(tuple(map(float, pair)) for pair in pairs), params, float(t)
    lift = lambda x: Gradient(x, QQ(1))
    return tuple(tuple(map(lift, pair)) for pair in pairs), params, lift(t)


@pytest.mark.parametrize("lane", ["float", "gradient"])
@pytest.mark.parametrize("index", weyl.GENERATORS)
def test_a_non_rational_reflection_names_its_pole(index, lane):
    messages = set()
    for k in (0, 1):  # r3 alternates its two denominators
        with pytest.raises(PoleError) as caught:
            weyl.apply_generator(index, *_in_lane(_on_pole(index, DYADIC_POINT, k), lane))
        messages.add(str(caught.value))
    assert messages == POLE_MESSAGES[index]


def test_the_exact_suites_run_only_traced_code(monkeypatch):
    # once every kernel is traced, no exact suite and no non-rational
    # reflection runs the reflection formulas or a record's to_ds,
    # constraints or matrices, and no exact suite does Gradient arithmetic
    for parts in REDUCTIONS:
        assert lax.verify_partition(parts, samples=1).passed
    assert weyl.check_relations(samples=1).passed and weyl.check_equivariance(samples=1).passed
    assert weyl.check_conjugation(samples=1).passed

    def refuse(*args):
        raise AssertionError("a hand-written formula ran")

    monkeypatch.setattr(weyl, "_reflection", refuse)
    for record in REDUCTIONS.values():
        monkeypatch.setattr(type(record), "to_ds", refuse)
        monkeypatch.setattr(type(record), "constraints", refuse)
        monkeypatch.setattr(type(record), "matrices", refuse)
    for parts in REDUCTIONS:
        assert lax.verify_partition(parts, samples=5).passed
    assert weyl.check_relations(samples=5).passed
    assert weyl.check_equivariance(samples=5).passed
    assert weyl.check_conjugation(samples=5).passed
    for index in weyl.GENERATORS:
        for lane in ("float", "gradient"):
            weyl.apply_generator(index, *_in_lane(DYADIC_POINT, lane))
            with pytest.raises(PoleError, match="reflection pole"):
                weyl.apply_generator(index, *_in_lane(_on_pole(index, DYADIC_POINT, 0), lane))
    # nor a reflection's or a flow's integer text in the Fraction form: each is the pair form, and builds none
    def no_fraction(*args):
        raise AssertionError("a pair text built a Fraction")

    texts = [weyl._reflection_kernel(index, dual)[1]() for index in weyl.GENERATORS for dual in (False, True)]
    for text in texts + [painleve._flow(parts)[1]() for parts in REDUCTIONS]:
        monkeypatch.setitem(text.__globals__, "Fraction", no_fraction)
    for parts in REDUCTIONS:
        assert lax.verify_partition(parts, samples=5).passed
    assert weyl.check_relations(samples=5).passed
    assert weyl.check_equivariance(samples=5).passed
    assert weyl.check_conjugation(samples=5).passed
    # nor any dual number: equivariance reads each reflection's tangent from its text
    def no_gradient(*args):
        raise AssertionError("Gradient arithmetic ran")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Gradient, name, no_gradient)
    for parts in REDUCTIONS:
        assert lax.verify_partition(parts, samples=5).passed
    assert weyl.check_relations(samples=5).passed
    assert weyl.check_equivariance(samples=5).passed
    assert weyl.check_conjugation(samples=5).passed


def test_the_relations_trace_no_tangent_text(monkeypatch):
    # from cold caches the relations trace each generator's value text and
    # build no dual leaf, so they never pay for the equivariance claim's texts
    def refuse(*args):
        raise AssertionError("a tangent text was traced")

    weyl._reflection_kernel.cache_clear()
    monkeypatch.setattr(weyl, "Gradient", refuse)
    assert weyl.check_relations(samples=5).passed
    assert weyl._reflection_kernel.cache_info().currsize == len(weyl.GENERATORS)


def test_the_weyl_suites_trace_two_texts_per_reflection():
    # one cache key per text: every caller names dual, so no text is traced twice
    weyl._reflection_kernel.cache_clear()
    assert weyl.check_relations(samples=2).passed
    assert weyl.check_equivariance(samples=2).passed
    assert weyl.check_conjugation(samples=2).passed
    assert weyl._reflection_kernel.cache_info().currsize == 2 * len(weyl.GENERATORS)


def _marked_fraction_sum(record, parameter_map, kappas, rhos):
    params = parameter_map(record.parts, kappas, rhos)
    return sum(m * a for m, a in zip(record.marks, params.alpha))


@pytest.mark.parametrize("skewed", [False, True], ids=["honest", "skewed"])
@pytest.mark.parametrize("parts", list(REDUCTIONS))
def test_a_weight_sum_kernel_equals_the_fraction_sum(monkeypatch, fresh_claim_kernels, parts, skewed):
    # skewed, weight i is taken i + 2 times, so the sum moves with the constants
    record, original = reduction(parts), painleve.reduction_parameters

    def parameter_map(parts, kappas, rhos):
        params = original(parts, kappas, rhos)
        return SystemParameters(tuple((i + 2) * a for i, a in enumerate(params.alpha)), params.eta)

    if skewed:
        monkeypatch.setattr(painleve, "reduction_parameters", parameter_map)
    total, rng = painleve._weight_sum_kernel(parts), random.Random(19)
    sums = set()
    for _ in range(200):
        kappas, rhos = _constants(record, rng)
        want = _marked_fraction_sum(record, parameter_map if skewed else original, kappas, rhos)
        got = total(kappas, rhos)
        assert (got, repr(got)) == (want, repr(want))
        sums.add(got)
    assert (len(sums) > 100) if skewed else (sums == {1})


def _table_fails(table):
    """Whether some claim of the table fails within MUTATION_POINTS points,
    or its suite gives up on RETRY_CAP poles in a row."""
    try:
        return not check_claims("mutant", table, MUTATION_POINTS, 0).passed
    except RuntimeError:
        return True


def _assert_reflection_literals_load_bearing(monkeypatch, index, dual, table):
    """Each mutant of r_index's integer text, with tangents when dual, in
    place of that text, must fail the table."""
    honest = weyl._reflection_kernel
    generic, exact = honest(index, dual)
    mutants = list(_mutants(exact()))
    survivors = []
    for where, mutant in mutants:
        def patched(i, tangents, mutant=mutant):
            if (i, tangents) == (index, dual):
                return generic, lambda: mutant
            return honest(i, tangents)

        monkeypatch.setattr(weyl, "_reflection_kernel", patched)
        if not _table_fails(table):
            survivors.append(where)
    assert mutants and survivors == []
    monkeypatch.undo()
    assert not _table_fails(table)


@pytest.mark.parametrize("index", weyl.GENERATORS)
def test_every_literal_of_a_reflection_kernel_is_load_bearing(monkeypatch, index):
    _assert_reflection_literals_load_bearing(monkeypatch, index, False, weyl.RELATIONS)


def _text_outcome(reflect, point, *rates):
    """A reflection text's image and its repr at a Weyl point, given the
    rates when it is a text with tangents, else the point's leaves flat,
    or the message of the PoleError that names the denominator it refuses."""
    pairs, params, t = point
    try:
        if rates:
            image = reflect(pairs, *rates, params.alpha, params.eta, t)
        else:
            image = reflect(*chain(*pairs), *params.alpha, params.eta, t)
    except PoleError as exc:
        return str(exc)
    return image, repr(image)


def _split(x):
    """A rational as its (n, d) pair, and a tuple or list of them as a list of pairs; None stays."""
    if x is None:
        return None
    return x.as_integer_ratio() if isinstance(x, (int, QQ)) else [_split(v) for v in x]


def _on_values(pair_text):
    """A pair text, a flow's or a reflection's, run on values: each rational
    argument in as its (n, d) pair, nested ones too, each output out as one Fraction."""
    return lambda *args: tuple(QQ(*out) for out in pair_text(*map(_split, args)))


@pytest.mark.parametrize("index", weyl.GENERATORS)
def test_every_literal_of_a_generic_reflection_kernel_is_load_bearing(index):
    generic, exact = weyl._reflection_kernel(index, False)
    points = _reflection_points(index)
    outcomes = lambda reflect: [_text_outcome(reflect, point) for point in points]
    want = outcomes(_on_values(exact()))
    assert outcomes(generic()) == want
    mutants = list(_mutants(generic()))
    survivors = [where for where, mutant in mutants if outcomes(mutant) == want]
    assert mutants and survivors == []


@pytest.mark.parametrize("index", weyl.GENERATORS)
def test_every_literal_of_a_tangent_text_is_load_bearing(monkeypatch, index):
    # the equivariance claim runs the integer text with tangents at every drawn point
    _assert_reflection_literals_load_bearing(monkeypatch, index, True, weyl.EQUIVARIANCE)


@pytest.mark.parametrize("index", weyl.GENERATORS)
def test_every_literal_of_a_generic_tangent_text_is_load_bearing(index):
    # a float call runs it: each mutant must disagree with the integer text
    generic, exact = weyl._reflection_kernel(index, True)
    rng = random.Random(29)
    points = [(point, (*(random_rational(rng) for _ in range(4)), 0)) for point in _reflection_points(index)]
    outcomes = lambda reflect: [_text_outcome(reflect, point, rates) for point, rates in points]
    want = outcomes(_on_values(exact()))
    assert outcomes(generic()) == want
    mutants = list(_mutants(generic()))
    survivors = [where for where, mutant in mutants if outcomes(mutant) == want]
    assert mutants and survivors == []


# -- the (3,3) M kernel of the gauge bridges ------------------------------


@functools.cache
def _bridge_points(lane):
    """Seeded bridge points, every third one with p1 = 0, so that an entry
    of M vanishes; in the float lane every coordinate is a float."""
    rng = random.Random(23)
    points = []
    for k in range(AGREEMENT_POINTS):
        (pairs, t, u, w3, kappas, rhos) = weyl._draw_bridge(rng)
        if k % 3 == 2:
            pairs = ((pairs[0][0], QQ(0)), pairs[1])
        if lane == "float":
            floats = lambda xs: tuple(map(float, xs))
            pairs, (t, u, w3), kappas, rhos = tuple(map(floats, pairs)), floats((t, u, w3)), floats(kappas), floats(rhos)
        points.append((pairs, t, u, w3, kappas, rhos))
    return points


def _m_from(text, point):
    keys, _, _ = weyl._m_kernel()
    *entries, c_k = text(*point)
    return LoopElement(5, dict(zip(keys, entries)), c_k)


def _m_by_hand(point):
    pairs, t, u, w3, kappas, rhos = point
    state = lax.canonical_to_ds(weyl.CP6.parts, pairs, t, {"w3": w3}, kappas, rhos, root=u)
    return lax.lax_matrices(state)[0]


@pytest.mark.parametrize("lane", ["rational", "float"])
def test_both_texts_of_the_bridge_m_kernel_equal_the_assembly(lane):
    _, generic, exact = weyl._m_kernel()
    texts = [generic(), exact()] if lane == "rational" else [generic()]
    for point in _bridge_points(lane):
        want = _m_by_hand(point)
        assert len(want.entries) in (17, 18)
        for text in texts:
            got = _m_from(text, point)
            if lane == "rational":
                assert (got.entries, got.c_k) == (want.entries, want.c_k)
            else:
                assert set(got.entries) == set(want.entries) and got.c_k == want.c_k
                for key, value in want.entries.items():
                    assert got.entries[key] == pytest.approx(value, rel=1e-14, abs=1e-14)


def test_every_literal_of_the_bridge_m_kernel_is_load_bearing(monkeypatch):
    # the bridges run the integer text at every drawn point, for M and M'
    keys, generic, exact = weyl._m_kernel()
    mutants = list(_mutants(exact()))
    survivors = []
    for where, mutant in mutants:
        monkeypatch.setattr(weyl, "_m_kernel", lambda mutant=mutant: (keys, generic, lambda: mutant))
        if not _table_fails(weyl.BRIDGES):
            survivors.append(where)
    assert len(mutants) == 7 and survivors == []
    monkeypatch.undo()
    assert not _table_fails(weyl.BRIDGES)


def test_every_literal_of_the_generic_bridge_m_kernel_is_load_bearing():
    _, generic, exact = weyl._m_kernel()
    points = _bridge_points("rational")
    outcomes = lambda text: [_outcome(text, point) for point in points]
    want = outcomes(exact())
    mutants = list(_mutants(generic()))
    survivors = [where for where, mutant in mutants if outcomes(mutant) == want]
    assert mutants and survivors == []


@pytest.mark.parametrize("parts", list(REDUCTIONS))
def test_every_literal_of_a_weight_sum_kernel_is_load_bearing(monkeypatch, parts):
    record, honest = reduction(parts), painleve._weight_sum_kernel
    (_, draw, examine), = [c for c in painleve.WEIGHT_SUMS if c[0] == f"({record.label}) sampled weight sum"]
    caught = lambda: first_witness(random.Random(0), MUTATION_POINTS, draw, examine, "mutant") is not None
    mutants = list(_mutants(honest(parts)))
    survivors = []
    for where, mutant in mutants:
        monkeypatch.setattr(painleve, "_weight_sum_kernel", lambda p, mutant=mutant: mutant if p == parts else honest(p))
        if not caught():
            survivors.append(where)
    assert mutants and survivors == []
    monkeypatch.undo()
    assert not caught()
