"""Birational reflections of the coupled sixth system and their algebra."""

import hashlib
import random
import re
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_ds import lax, painleve, weyl
from painleve_ds.loop import LoopElement
from painleve_ds.painleve import SystemParameters
from painleve_ds.reductions import REDUCTIONS, reduction
from painleve_ds.sampling import DENOMINATOR_RANGE, NUMERATOR_RANGE, RETRY_CAP
from painleve_ds.scalars import Gradient, PoleError, is_zero_scalar
from painleve_ds.weyl import (
    GENERATORS,
    NON_ADJACENT,
    apply_generator,
    apply_word,
    check_conjugation,
    check_equivariance,
    check_relations,
    equivariance_residual,
    relation_words,
    sample_weyl_point,
)


def _point(seed=0):
    return sample_weyl_point(random.Random(seed))


class TestSingleReflections:
    def test_frozen_substitution_example(self):
        # q1 = 3, t = 1, alpha2 = 1, p1 = 0: the moved momentum becomes
        # -1/2 and both cycle neighbours of slot 2 absorb the weight
        pairs = ((QQ(3), QQ(0)), (QQ(5), QQ(7)))
        params = SystemParameters(
            alpha=(QQ(0), QQ(0), QQ(1), QQ(0), QQ(0), QQ(0)), eta=QQ(2)
        )
        out, moved = apply_generator(2, pairs, params, QQ(1))
        assert out[0] == (QQ(3), QQ(-1, 2))
        assert out[1] == (QQ(5), QQ(7))
        assert moved.alpha == (QQ(0), QQ(1), QQ(-1), QQ(1), QQ(0), QQ(0))
        assert moved.eta == QQ(3)

    @pytest.mark.parametrize("index", GENERATORS)
    def test_zero_weight_is_identity(self, index):
        pairs, params, t = _point(seed=40 + index)
        alpha = tuple(
            QQ(0) if k == index else a for k, a in enumerate(params.alpha)
        )
        frozen = SystemParameters(alpha=alpha, eta=params.eta)
        out, moved = apply_generator(index, pairs, frozen, t)
        assert out == pairs
        assert moved is frozen

    @pytest.mark.parametrize("index", GENERATORS)
    def test_involution(self, index):
        pairs, params, t = _point(seed=index)
        once, p_once = apply_generator(index, pairs, params, t)
        twice, p_twice = apply_generator(index, once, p_once, t)
        assert twice == pairs
        assert p_twice.alpha == params.alpha
        assert p_twice.eta == params.eta

    @pytest.mark.parametrize("index", GENERATORS)
    def test_weight_sum_and_eta_shift(self, index):
        pairs, params, t = _point(seed=7 + index)
        _, moved = apply_generator(index, pairs, params, t)
        assert sum(moved.alpha) == sum(params.alpha)
        sign = 1 if index % 2 == 0 else -1
        assert moved.eta - params.eta == sign * params.alpha[index]

    def test_scaling_reflection_preserves_the_action(self):
        # the index-3 reflection rescales each pair reciprocally, so
        # q1 p1 + q2 p2 is untouched
        pairs, params, t = _point(seed=3)
        (q1, p1), (q2, p2) = pairs
        action = q1 * p1 + q2 * p2
        out, _ = apply_generator(3, pairs, params, t)
        (r1, s1), (r2, s2) = out
        assert r1 * s1 + r2 * s2 == action

    def test_pole_names_denominator(self):
        pairs, params, t = _point(seed=9)
        broken = ((pairs[0][0], QQ(0)), pairs[1])
        with pytest.raises(PoleError, match="p1"):
            apply_generator(1, broken, params, t)

    @pytest.mark.parametrize("t", ["drawn", "zero"])
    @pytest.mark.parametrize("index", [-1, 6, 9])
    @pytest.mark.parametrize(
        "apply",
        [
            apply_generator,
            lambda i, pairs, params, t: apply_word((0, i), pairs, params, t),
            equivariance_residual,
            lambda i, pairs, params, t: weyl.conjugation_residual(i, pairs, t, QQ(2), (QQ(1, 3),) * 6, (QQ(1),)),
        ],
        ids=["apply_generator", "apply_word", "equivariance_residual", "conjugation_residual"],
    )
    def test_out_of_range_index(self, apply, index, t):
        # the index is checked first: at t = 0 no flow or time root is reached
        pairs, params, drawn = _point(seed=1)
        with pytest.raises(ValueError, match=rf"^generator index out of range: {index}$"):
            apply(index, pairs, params, drawn if t == "drawn" else QQ(0))

    @pytest.mark.parametrize("gain", ["drawn", "zero"])
    @pytest.mark.parametrize(
        "unfit,refusal",
        [
            (lambda pairs, alpha, eta: (pairs, SystemParameters((*alpha, QQ(1, 2)), eta)), "6 weights and eta"),
            (lambda pairs, alpha, eta: (pairs, SystemParameters(alpha[:5], eta)), "6 weights and eta"),
            (lambda pairs, alpha, eta: (pairs, SystemParameters(alpha, None)), "6 weights and eta"),
            (lambda pairs, alpha, eta: ((*pairs, (QQ(1), QQ(2))), SystemParameters(alpha, eta)), r"2 pair\(s\), got 3"),
            (lambda pairs, alpha, eta: (pairs[:1], SystemParameters(alpha, eta)), r"2 pair\(s\), got 1"),
        ],
        ids=["seven weights", "five weights", "no eta", "three pairs", "one pair"],
    )
    @pytest.mark.parametrize("index", GENERATORS)
    def test_weights_that_do_not_fit_are_refused(self, index, unfit, refusal, gain):
        # before the zero-gain shortcut, so a zero weight is no way round; a
        # third pair is not dropped, and one pair is no IndexError
        pairs, params, t = _point(seed=60 + index)
        alpha = tuple(QQ(0) if gain == "zero" and k == index else a for k, a in enumerate(params.alpha))
        bad_pairs, bad = unfit(pairs, alpha, params.eta)
        for apply in (apply_generator, lambda i, *args: apply_word((i,), *args), equivariance_residual):
            with pytest.raises(ValueError, match=rf"^the cp6 system takes {refusal}$"):
                apply(index, bad_pairs, bad, t)


class TestWords:
    def test_word_involution(self):
        pairs, params, t = _point(seed=12)
        out, moved = apply_word((4, 4), pairs, params, t)
        assert out == pairs
        assert moved.alpha == params.alpha

    def test_singular_word_reports_prefix(self):
        pairs, params, t = _point(seed=13)
        broken = ((pairs[0][0], QQ(0)), pairs[1])
        with pytest.raises(PoleError, match=r"prefix \(1\)"):
            apply_word((1, 2), broken, params, t)

    def test_relation_word_census(self):
        words = relation_words()
        assert len(words) == 6 + 6 + len(NON_ADJACENT)
        assert len(NON_ADJACENT) == 9

    def test_relations_check_passes(self):
        assert check_relations(samples=10, seed=5).passed

    def test_the_examination_agrees_with_apply_word(self):
        # every relation word at RELATION_POINTS mixed points: the unreduced
        # examination passes exactly where apply_word's image is the point,
        # and raises apply_word's PoleError exactly where apply_word does
        later = 0
        for k, (_, word) in enumerate(relation_words()):
            for point in _mixed_points(word, 3400 + k, RELATION_POINTS):
                outcome = _examined(word, point)
                assert outcome == _by_apply_word(word, point)
                later += str(outcome).startswith("word singular after prefix (") and "," in str(outcome)[:30]
        assert later > 100

    @pytest.mark.parametrize("skewed", GENERATORS)
    def test_a_failing_examination_witnesses_apply_word_s_image(self, fresh_claim_kernels, monkeypatch, skewed):
        # r_skewed gives its right neighbour 2 alpha: the braids it begins fail,
        # and each witness holds the image apply_word gives, reduced alike
        honest = weyl._shifted_weights

        def shifted(alpha, index):
            out = list(honest(alpha, index))
            if index == skewed:
                out[(index + 1) % 6] += alpha[index]
            return tuple(out)

        monkeypatch.setattr(weyl, "_shifted_weights", shifted)
        failed = 0
        for k, (_, word) in enumerate(relation_words()):
            if skewed in word:
                for point in _mixed_points(word, 3500 + k, 40):
                    outcome = _examined(word, point)
                    assert outcome == _by_apply_word(word, point)
                    failed += isinstance(outcome, tuple)
        assert failed > 20

    def test_a_long_word_is_reduced_after_every_letter(self, monkeypatch):
        # (2,3) six times over is the identity; each letter's text sees
        # integers under 4,096 bits, where the unreduced fold passes 600,000
        widths = []
        honest = weyl._reflection_kernel

        def watched(index, dual):
            generic, exact = honest(index, dual)

            def text(*leaves):
                out = exact()(*leaves)
                widths.append(max(max(abs(n).bit_length(), d.bit_length()) for n, d in (*leaves, *out)))
                return out
            return generic, lambda: text

        monkeypatch.setattr(weyl, "_reflection_kernel", watched)
        word, (pairs, params, t) = (2, 3) * 6, _point(seed=0)
        assert apply_word(word, pairs, params, t) == (pairs, params)
        assert len(widths) == len(word) and max(widths) < 4096
        widths.clear()
        start = [(x.numerator, x.denominator) for x in (*pairs[0], *pairs[1], *params.alpha, params.eta)]
        weyl._unreduced_word(word, start, (t.numerator, t.denominator))
        assert max(widths) > 600_000

    def test_word_images_and_pole_messages_are_pinned(self):
        # every relation word and 30 seeded words at WORD_POINTS points each,
        # as rationals and as floats: the image's repr, or the PoleError's message
        outcomes = _word_outcomes()
        text = repr(sorted(outcomes.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == WORD_SHA256
        # a later letter's pole is among them, at a rational point
        later = re.compile(r"^word singular after prefix \(\d(,\d)+\): reflection pole")
        assert any(later.match(o) for (_, _, lane), row in outcomes.items() if lane == "rational" for o in row)


WORD_POINTS = 20
RELATION_POINTS = 200

# sha256 of _word_outcomes(), sorted, as text
WORD_SHA256 = "2c0000c7a5d81db766b6fc5222bd475972eec47755aea274695c18d64cb87900"


def _seeded_words():
    """The relation words, then 30 seeded words of 1 to 8 letters."""
    rng = random.Random(3200)
    drawn = [tuple(rng.choice(GENERATORS) for _ in range(rng.randint(1, 8))) for _ in range(30)]
    return [word for _, word in relation_words()] + drawn


def _moved_onto(word, cut, point, move):
    """The point whose image under word[:cut] is that image moved by move,
    or None where the way there or back meets a pole."""
    prefix = word[:cut]
    try:
        pairs, params = apply_word(prefix, *point)
        moved = move(pairs, params, point[2])
        return (*apply_word(prefix[::-1], *moved[:2], point[2]), point[2])
    except PoleError:
        return None


def _zero_gain(index):
    """A move that zeroes alpha_index and hands its value to the opposite
    weight, so the weights still sum to one."""
    def move(pairs, params, t):
        alpha = list(params.alpha)
        alpha[(index + 3) % 6] += alpha[index]
        alpha[index] = QQ(0)
        return pairs, SystemParameters(tuple(alpha), params.eta), t
    return move


def _word_points(word, seed):
    """WORD_POINTS seeded Weyl points for the word: every second one drawn
    plain; the rest moved so that a later letter (the first, for a word of
    one letter) meets its pole, or finds its gain zero."""
    rng, points = random.Random(seed), []
    while len(points) < WORD_POINTS:
        point = sample_weyl_point(rng)
        if len(points) % 2 == 0:
            points.append(point)
            continue
        cut = rng.randrange(1, len(word)) if len(word) > 1 else 0
        index = word[cut]
        if len(points) % 4 == 1:
            k = rng.randrange(2)
            move = lambda pairs, params, t: _on_reflection_pole(index, (pairs, params, t), k)
        else:
            move = _zero_gain(index)
        moved = _moved_onto(word, cut, point, move)
        if moved is not None:
            points.append(moved)
    return points


def _mixed_points(word, seed, count):
    """count seeded Weyl points for the word: a third as drawn, a third
    moved so that a letter meets its pole, a third so that a letter finds
    its gain zero, or as drawn where the move's way there or back meets a pole."""
    rng, points = random.Random(seed), []
    for k in range(count):
        point, cut, side = sample_weyl_point(rng), rng.randrange(len(word)), rng.randrange(2)
        index = word[cut]
        on_pole = lambda pairs, params, t: _on_reflection_pole(index, (pairs, params, t), side)
        move = (None, on_pole, _zero_gain(index))[k % 3]
        points.append(move and _moved_onto(word, cut, point, move) or point)
    return points


def _examined(word, point):
    """The relation examination's witness as its repr and its image, or
    its PoleError's message."""
    try:
        witness = weyl._examine_relation(word, point)
    except PoleError as exc:
        return str(exc)
    return witness and (repr(witness), witness["image_pairs"])


def _by_apply_word(word, point):
    """What the examination must give, from apply_word's image."""
    try:
        image = apply_word(word, *point)
    except PoleError as exc:
        return str(exc)
    witness = None if image == point[:2] else weyl._witness(point, image_pairs=image[0])
    return witness and (repr(witness), witness["image_pairs"])


def _word_outcomes():
    """{(k, word, lane): outcomes}: apply_word's repr, or its PoleError's
    message, at _word_points(word), as rationals and as floats, for the
    k-th of _seeded_words()."""
    outcomes = {}
    for k, word in enumerate(_seeded_words()):
        points = _word_points(word, 3300 + k)
        for lane, form in (("rational", lambda point: point), ("float", _as_floats)):
            row = []
            for point in map(form, points):
                try:
                    row.append(repr(apply_word(word, *point)))
                except PoleError as exc:
                    row.append(str(exc))
            outcomes[k, word, lane] = row
    return outcomes


class TestEquivariance:
    @pytest.mark.parametrize("index", GENERATORS)
    def test_residual_vanishes_on_the_unit_weight_locus(self, index):
        pairs, params, t = _point(seed=50 + index)
        residual = equivariance_residual(index, pairs, params, t)
        assert all(is_zero_scalar(r) for r in residual)

    def test_residual_nonzero_off_the_locus(self):
        # the reflections commute with the flow only where the weights
        # sum to one; shifting one weight must break the intertwining
        pairs, params, t = _point(seed=77)
        skew = SystemParameters(
            alpha=(params.alpha[0] + 1,) + params.alpha[1:], eta=params.eta
        )
        residual = equivariance_residual(2, pairs, skew, t)
        assert any(not is_zero_scalar(r) for r in residual)

    def test_equivariance_check_passes(self):
        assert check_equivariance(samples=5, seed=2).passed

    def test_residuals_and_pole_messages_are_pinned(self):
        # every generator at seeded points and on its poles, as rationals and
        # as floats: each residual's repr, or the PoleError's message
        outcomes = _equivariance_outcomes()
        text = repr(sorted(outcomes.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == EQUIVARIANCE_SHA256
        for (index, lane), row in outcomes.items():
            on_pole = {o for o in row[EQUIVARIANCE_POINTS:] if not o.startswith("(")}
            assert on_pole == EQUIVARIANCE_POLE_MESSAGES[index], (index, lane)

    @pytest.mark.parametrize("index", GENERATORS)
    def test_the_examination_agrees_with_equivariance_residual(self, index):
        # at EXAMINATION_POINTS mixed points the examination passes, gives
        # the witness or raises the PoleError that equivariance_residual does
        kinds = []
        for point in _equivariance_points(index, 3600 + index, EXAMINATION_POINTS):
            outcome = _examined_equivariance(index, point)
            assert outcome == _by_equivariance_residual(index, point)
            kinds.append(outcome if isinstance(outcome, str) else type(outcome).__name__)
        assert {"NoneType", "tuple", "division by zero in the flow of 3,3"} <= set(kinds)
        assert EQUIVARIANCE_POLE_MESSAGES[index] <= set(kinds)


EQUIVARIANCE_POINTS = 20
EXAMINATION_POINTS = 200


def _equivariance_points(index, seed, count):
    """count seeded Weyl points for r_index, six kinds in turn: as drawn;
    on a reflection guard, r3's two in turn; with a zero gain; on a guard
    with a zero gain; off the unit-sum locus; at t = 0 or 1, the zeros of
    the (3,3) flow's one divisor t(t - 1), which no reflection moves, so
    the flow has them at the point and at its image."""
    rng, points = random.Random(seed), []
    for k in range(count):
        pairs, params, t = point = sample_weyl_point(rng)
        kind, turn = k % 6, k // 6
        if kind in (1, 3):
            point = _on_reflection_pole(index, point, turn)
        if kind in (2, 3) or kind == 5 and turn % 4 > 1:
            point = _zero_gain(index)(*point)
        if kind == 4:
            alpha = list(params.alpha)
            alpha[(index + 3) % 6] += 1
            point = pairs, SystemParameters(tuple(alpha), params.eta), t
        if kind == 5:
            point = (*point[:2], QQ(turn % 2))
        points.append(point)
    return points


def _examined_equivariance(index, point):
    """The equivariance examination's witness as its repr and its residual,
    or its PoleError's message."""
    try:
        witness = weyl._examine_equivariance(index, point)
    except PoleError as exc:
        return str(exc)
    return witness and (repr(witness), witness["residual"])


def _by_equivariance_residual(index, point):
    """What the examination must give, from equivariance_residual."""
    try:
        residual = equivariance_residual(index, *point)
    except PoleError as exc:
        return str(exc)
    witness = None if all(map(is_zero_scalar, residual)) else weyl._witness(point, residual=residual)
    return witness and (repr(witness), witness["residual"])

# sha256 of _equivariance_outcomes(), sorted, as text
EQUIVARIANCE_SHA256 = "3bb63eaf07738028f6bf96308aa2fd6d3b2e0262249b9f568fe1e0a1c44824f5"

# the messages among the outcomes on each generator's poles, in both lanes;
# r3 names each of its two denominators.  The rest of those outcomes are
# residuals: at a zero gain, and where a float point misses r3's pole by rounding
EQUIVARIANCE_POLE_MESSAGES = {
    0: {"reflection pole: q1 - q2 = 0"},
    1: {"reflection pole: p1 = 0"},
    2: {"reflection pole: q1 - t = 0"},
    3: {"reflection pole: q1*p1 + q2*p2 + eta = 0", "reflection pole: q1*p1 + q2*p2 - alpha3 + eta = 0"},
    4: {"reflection pole: q2 - 1 = 0"},
    5: {"reflection pole: p2 = 0"},
}


def _on_reflection_pole(index, point, k):
    """The Weyl point moved onto r_index's denominator, r3's second at odd k."""
    ((q1, p1), (q2, p2)), params, t = point
    if index == 3:
        action = q1 * p1 + q2 * p2
        params = SystemParameters(params.alpha, params.alpha[3] - action if k % 2 else -action)
    moved = {0: ((q1, p1), (q1, p2)), 1: ((q1, QQ(0)), (q2, p2)), 2: ((t, p1), (q2, p2)),
             3: ((q1, p1), (q2, p2)), 4: ((q1, p1), (QQ(1), p2)), 5: ((q1, p1), (q2, QQ(0)))}
    return moved[index], params, t


def _as_floats(point):
    pairs, params, t = point
    floats = lambda xs: tuple(map(float, xs))
    return tuple(map(floats, pairs)), SystemParameters(floats(params.alpha), float(params.eta)), float(t)


def _equivariance_outcomes():
    """{(index, lane): outcomes}: equivariance_residual's repr, or its
    PoleError's message, at EQUIVARIANCE_POINTS seeded Weyl points, then at
    six of them moved onto r_index's poles."""
    outcomes = {}
    for index in GENERATORS:
        rng = random.Random(3100 + index)
        points = [sample_weyl_point(rng) for _ in range(EQUIVARIANCE_POINTS)]
        points += [_on_reflection_pole(index, point, k) for k, point in enumerate(points[:6])]
        for lane, form in (("rational", lambda point: point), ("float", _as_floats)):
            row = []
            for point in map(form, points):
                try:
                    row.append(repr(equivariance_residual(index, *point)))
                except PoleError as exc:
                    row.append(str(exc))
            outcomes[index, lane] = row
    return outcomes


class TestGaugeBridge:
    def test_conjugation_check_passes(self):
        assert check_conjugation(samples=2, seed=11).passed

    @pytest.mark.parametrize("factor", [2, -1])
    @pytest.mark.parametrize("broken", GENERATORS)
    def test_a_broken_bridge_fails_at_its_first_point(self, monkeypatch, broken, factor):
        # negative control: with u drawn and t = u**-3, scaling one gauge
        # coefficient breaks that bridge alone, at its first point; r3's
        # image of w3 follows phi_3, and still the bridge fails
        honest = weyl.gauge_function

        def scaled(index, *args):
            value = honest(index, *args)
            return factor * value if index == broken else value

        monkeypatch.setattr(weyl, "gauge_function", scaled)
        report = check_conjugation(samples=3, seed=0)
        assert [claim.name for claim in report.checks] == [f"conjugation bridge of r{i}" for i in GENERATORS]
        for i, claim in enumerate(report.checks):
            assert claim.passed == (i != broken)
        assert report.checks[broken].witness["sample_index"] == 0


def _bridge_point():
    """A drawn bridge point: (pairs, t, u, w3, kappas, rhos)."""
    return weyl._draw_bridge(random.Random(3))


def _on_gauge_pole(index, pairs, t, kappas, rhos):
    """(pairs, rhos) moved so that phi_index vanishes: phi_i vanishes where
    r_i's denominator does, phi_3 where q1 p1 + q2 p2 + eta does."""
    (q1, p1), (q2, p2) = pairs
    k = kappas
    if index == 3:
        return pairs, (-(q1 * p1 + q2 * p2) - (k[0] - k[1] + k[2] - k[3] + k[4] - k[5]) / 3,)
    moved = {0: ((q1, p1), (q1, p2)), 1: ((q1, QQ(0)), (q2, p2)), 2: ((t, p1), (q2, p2)),
             4: ((q1, p1), (QQ(1), p2)), 5: ((q1, p1), (q2, QQ(0)))}
    return moved[index], rhos


def _without_gain(index, kappas):
    """kappas with k_index moved so that alpha_index = 0."""
    k, c = list(kappas), QQ(1, 3) if index % 2 == 0 else 0
    k[index] = (k[index - 1] + k[(index + 1) % 6] + 3 * c) / 2
    return tuple(k)


class TestBridgePoles:
    """What ``conjugation_residual`` raises, word for word, and where it passes."""

    @pytest.mark.parametrize("index", GENERATORS)
    def test_a_zero_gauge_function_is_named(self, index):
        pairs, t, u, w3, kappas, rhos = _bridge_point()
        pairs, rhos = _on_gauge_pole(index, pairs, t, kappas, rhos)
        with pytest.raises(PoleError, match=rf"^gauge function phi_{index} = 0$"):
            weyl.conjugation_residual(index, pairs, t, w3, kappas, rhos, root=u)

    @pytest.mark.parametrize("index", GENERATORS)
    def test_a_zero_gauge_variable_and_t_one_are_named(self, index):
        pairs, t, u, _, kappas, rhos = _bridge_point()
        with pytest.raises(PoleError, match=r"^gauge variable w3 = 0$"):
            weyl.conjugation_residual(index, pairs, t, QQ(0), kappas, rhos, root=u)
        with pytest.raises(PoleError, match=r"^3,3 coordinate map excludes t = 1$"):
            weyl.conjugation_residual(index, pairs, QQ(1), QQ(2), kappas, rhos, root=QQ(1))

    def test_r3_moving_w3_to_zero_is_its_reflection_pole(self):
        # w3 - alpha3/phi_3 = w3 (q1 p1 + q2 p2 - alpha3 + eta) / (q1 p1 + q2 p2 + eta),
        # so the reflected gauge vanishes exactly where r3's second denominator does
        pairs, t, u, w3, kappas, rhos = _bridge_point()
        alpha3 = weyl.reduction_parameters(weyl.CP6.parts, kappas, rhos).alpha[3]
        _, (rho,) = _on_gauge_pole(3, pairs, t, kappas, rhos)
        rhos = (rho + alpha3,)
        state = weyl.canonical_to_ds(weyl.CP6.parts, pairs, t, {"w3": w3}, kappas, rhos, root=u)
        assert w3 - alpha3 / weyl.gauge_function(3, weyl.lax_matrices(state)[0]) == 0
        with pytest.raises(PoleError, match=r"^reflection pole: q1\*p1 \+ q2\*p2 - alpha3 \+ eta = 0$"):
            weyl.conjugation_residual(3, pairs, t, w3, kappas, rhos, root=u)
        for index in (0, 1, 2, 4, 5):
            assert weyl.conjugation_residual(index, pairs, t, w3, kappas, rhos, root=u).is_zero()

    @pytest.mark.parametrize("index", GENERATORS)
    def test_a_zero_gain_skips_the_reflection(self, index):
        # r_i's own denominators vanish only with phi_i, which is refused
        # first; at a zero gain, the opposite generator's pole passes
        pairs, t, u, w3, kappas, rhos = _bridge_point()
        kappas = _without_gain(index, kappas)
        assert weyl.reduction_parameters(weyl.CP6.parts, kappas, rhos).alpha[index] == 0
        own = _on_gauge_pole(index, pairs, t, kappas, rhos)
        with pytest.raises(PoleError, match=rf"^gauge function phi_{index} = 0$"):
            weyl.conjugation_residual(index, own[0], t, w3, kappas, own[1], root=u)
        opposite = _on_gauge_pole((index + 3) % 6, pairs, t, kappas, rhos)
        assert weyl.conjugation_residual(index, opposite[0], t, w3, kappas, opposite[1], root=u).is_zero()

    def test_a_float_residual_is_pinned(self):
        # M reads the root and r2 reads t, so at a root that does not fit t,
        # r2's bridge is off by the pinned entries; at the drawn root it vanishes
        pairs, t, u, w3, kappas, rhos = _bridge_point()
        floats = lambda xs: tuple(map(float, xs))
        pairs, kappas, rhos = tuple(map(floats, pairs)), floats(kappas), floats(rhos)
        t, u, w3 = floats((t, u, w3))
        for index in GENERATORS:
            residual = weyl.conjugation_residual(index, pairs, t, w3, kappas, rhos, root=u)
            assert max(map(abs, (*residual.entries.values(), residual.c_k))) < 1e-12
        residual = weyl.conjugation_residual(2, pairs, t, w3, kappas, rhos, root=1.5)
        want = {(0, 0, 1): 1.1479758828596036, (0, 2, 3): 1.2914728682170535}
        for key in {*residual.entries, *want}:
            assert residual.entry(*key) == pytest.approx(want.get(key, 0.0), rel=1e-12, abs=1e-12)
        assert residual.c_k == pytest.approx(0.0, abs=1e-12)


class TestBoundedRetries:
    @pytest.mark.parametrize(
        "target,check",
        [
            ("_unreduced_word", check_relations),
            ("_unreduced_residual", check_equivariance),
            ("conjugation_residual", check_conjugation),
        ],
    )
    def test_a_residual_that_always_raises_fails_loudly(self, monkeypatch, target, check):
        # the message names the first claim as the report does
        first_claim = re.escape(check(samples=1, seed=0).checks[0].name)

        def always_singular(*args, **kwargs):
            raise PoleError("forced pole")

        monkeypatch.setattr(weyl, target, always_singular)
        with pytest.raises(RuntimeError, match=f"^no admissible point for {first_claim} in 1000 draws$"):
            check(samples=1, seed=0)


class TestWitnesses:
    """A claim broken on purpose fails at its first point, with the report's witness keys."""

    def _moved_q1(word, start, t):  # the point, q1 + 1 in place of q1
        (n, d), *rest = start
        return [(n + d, d), *rest]

    @pytest.mark.parametrize(
        "target,broken,check,keys",
        [
            ("_unreduced_word", _moved_q1, check_relations,
             {"sample_index", "point", "alpha", "eta", "image_pairs"}),
            ("_unreduced_residual", lambda *args: (QQ(1), QQ(0), QQ(0), QQ(0)),
             check_equivariance, {"sample_index", "point", "alpha", "eta", "residual"}),
            ("conjugation_residual", lambda *args, root: LoopElement(5, {(0, 0, 1): QQ(1)}),
             check_conjugation, {"sample_index", "point", "kappas", "rhos"}),
        ],
    )
    def test_a_broken_claim_fails_at_its_first_point(self, monkeypatch, target, broken, check, keys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return broken(*args, **kwargs)

        monkeypatch.setattr(weyl, target, counted)
        report = check(samples=3, seed=0)
        assert not report.passed
        assert len(calls) == len(report.checks)
        point_keys = {"pairs", "t", "w3"} if check is check_conjugation else {"pairs", "t"}
        for claim in report.checks:
            assert not claim.passed
            assert set(claim.witness) == keys
            assert claim.witness["sample_index"] == 0
            assert set(claim.witness["point"]) == point_keys
            assert set(claim.to_json_dict()["witness"]) == keys


class ScriptedRandom(random.Random):
    """Draws the given fractions in order: each is the table cell its
    numerator and denominator name, read as two bit draws."""

    def __init__(self, values):
        super().__init__(0)
        self.bits = [
            bits for value in values
            for bits in (value.numerator - NUMERATOR_RANGE[0], value.denominator - DENOMINATOR_RANGE[0])
        ]

    def getrandbits(self, k):
        return self.bits.pop(0)


class TestSampler:
    def test_weights_sum_to_one(self):
        for seed in range(25):
            _, params, _ = _point(seed=seed)
            assert sum(params.alpha) == 1

    def test_denominators_clear_of_poles(self):
        for seed in range(25):
            pairs, params, t = _point(seed=seed)
            (q1, p1), (q2, p2) = pairs
            assert p1 != 0 and p2 != 0
            assert q1 != q2
            assert t not in (0, 1) and q1 != t
            assert q2 != 1
            action = q1 * p1 + q2 * p2
            assert action + params.eta != 0
            assert action + params.eta - params.alpha[3] != 0

    def test_deterministic_by_seed(self):
        assert _point(seed=4) == _point(seed=4)

    def test_each_excluded_value_is_drawn_again(self):
        # q2 meets q1 and 1, p1 and p2 meet 0, t meets 0, 1 and q1; then
        # q1 p1 + q2 p2 = 2/3 and alpha3 = 1/3, so eta meets -2/3 and -1/3
        tail = (QQ(1, 5), QQ(0), QQ(1, 3), QQ(-1), QQ(2))
        rng = ScriptedRandom(
            [QQ(1, 2), QQ(1, 2), QQ(1), QQ(2), QQ(0), QQ(1, 3), QQ(0), QQ(1, 4)]
            + [QQ(0), QQ(1), QQ(1, 2), QQ(5), *tail, QQ(-2, 3), QQ(-1, 3), QQ(7)]
        )
        pairs, params, t = sample_weyl_point(rng)
        assert pairs == ((QQ(1, 2), QQ(1, 3)), (QQ(2), QQ(1, 4))) and t == 5
        assert params == SystemParameters(alpha=(QQ(-8, 15), *tail), eta=QQ(7))
        assert not rng.bits

    def test_colliding_q_values_fail_loudly(self, stuck_rng):
        # q1 = 2 and every later draw is 2, so q2 never clears q1: one draw
        # for q1, then RETRY_CAP for q2, each of two bit draws
        with pytest.raises(RuntimeError, match=f"^rejection sampling exceeded {RETRY_CAP} retries$"):
            sample_weyl_point(stuck_rng)
        assert stuck_rng.calls == 2 * (1 + RETRY_CAP)


words = st.lists(st.sampled_from(GENERATORS), min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(words, st.integers(0, 2**16))
def test_reversed_word_inverts(word, seed):
    pairs, params, t = sample_weyl_point(random.Random(seed))
    try:
        mid_pairs, mid_params = apply_word(word, pairs, params, t)
        back_pairs, back_params = apply_word(tuple(reversed(word)), mid_pairs, mid_params, t)
    except PoleError:
        return
    assert back_pairs == pairs
    assert back_params.alpha == params.alpha
    assert back_params.eta == params.eta


def _raised(call, *args, **kwargs):
    """The PoleError's message, or the outcome's repr where none is raised."""
    try:
        return repr(call(*args, **kwargs))
    except PoleError as exc:
        return str(exc)


def _root_at(parts, t):
    """time_root's value and rate at t."""
    root = lax.time_root(parts, t)
    return root.value, root.tangent


def _pole_outcomes():
    """[(entry point, input, outcome)]: each public call that reaches a
    kernel's named pole, exact and float, and the PoleError's message it
    gives: the flows at their fixed singular times, zero curvature at the
    zero divisors the pole contract uses, the roots at t = 0, and the
    reflections, words, equivariance and bridges at the points their own
    pins move onto a pole."""
    floats = lambda xs: tuple(map(float, xs))
    rows = []
    for system, times in (("p6", (0, 1)), ("cp6", (0, 1)), ("a5", (0,))):
        parts = reduction(system).parts
        point = lax.sample_point(parts, random.Random(2))
        params = painleve.reduction_parameters(parts, point["kappas"], point["rhos"])
        for t in times:
            for lane, pairs, at, weights in (
                ("exact", point["pairs"], QQ(t), params),
                ("float", tuple(map(floats, point["pairs"])), float(t),
                 SystemParameters(floats(params.alpha), None if params.eta is None else float(params.eta))),
            ):
                rows.append(("vector_field", f"{system} t={at!r}",
                             _raised(painleve.vector_field, system, pairs, at, weights)))
                rows.append(("gauge_log_derivatives", f"{parts} t={at!r}",
                             _raised(painleve.gauge_log_derivatives, parts, pairs, at, weights)))
    for parts, record in REDUCTIONS.items():
        point = lax.sample_point(parts, random.Random(2))
        root = Gradient(*lax._root_and_rate(record, point["t"], point.pop("root")))
        gauges = {**point["gauges"], record.gauge_names[0]: QQ(0)}
        rows.append(("zero_curvature_residual", f"{parts} zero gauge",
                     _raised(lax.zero_curvature_residual, parts, **{**point, "gauges": gauges}, root=root)))
        for t in (0, 0.0):
            rows.append(("time_root", f"{parts} t={t!r}", _raised(_root_at, parts, t)))
    for parts in ((2, 2), (2, 2, 1)):
        point = lax.sample_point(parts, random.Random(2))
        del point["root"]
        rows.append(("zero_curvature_residual", f"{parts} t=1",
                     _raised(lax.zero_curvature_residual, parts, **{**point, "t": QQ(1)})))
    # s = 1 makes the (2,2) B denominator vanish; the pair and log rates are held at zero
    record = reduction((2, 2))
    point = lax.sample_point(record.parts, random.Random(2))
    y = [*(x for pair in point["pairs"] for x in pair), *(point["gauges"][name] for name in record.gauge_names)]
    for lane, form, t in (("exact", lambda x: x, QQ(1)), ("float", float, 1.0)):
        root = lax.time_root(record.parts, t)
        rows.append(("_residual_values", f"(2, 2) t={t!r}", _raised(
            lax._residual_values, record, list(map(form, y)), [0] * len(y), t, root.value, root.tangent,
            tuple(map(form, point["kappas"])), tuple(map(form, point["rhos"])))))
    for index in GENERATORS:
        rng = random.Random(3100 + index)
        points = [sample_weyl_point(rng) for _ in range(6)]
        for k, point in enumerate(points):
            moved = _on_reflection_pole(index, point, k)
            for lane, form in (("rational", lambda p: p), ("float", _as_floats)):
                rows.append(("apply_generator", f"r{index} point {k} {lane}",
                             _raised(apply_generator, index, *form(moved))))
                rows.append(("equivariance_residual", f"r{index} point {k} {lane}",
                             _raised(equivariance_residual, index, *form(moved))))
    for k, (_, word) in enumerate(relation_words()):
        for j, point in enumerate(_word_points(word, 3300 + k)[1::2]):
            rows.append(("apply_word", f"{word} point {j}", _raised(apply_word, word, *point)))
            rows.append(("check_relations", f"{word} point {j}", _raised(weyl._examine_relation, word, point)))
    pairs, t, u, w3, kappas, rhos = _bridge_point()
    for index in GENERATORS:
        moved, moved_rhos = _on_gauge_pole(index, pairs, t, kappas, rhos)
        rows.append(("conjugation_residual", f"r{index} phi pole",
                     _raised(weyl.conjugation_residual, index, moved, t, w3, kappas, moved_rhos, root=u)))
        rows.append(("conjugation_residual", f"r{index} w3 = 0",
                     _raised(weyl.conjugation_residual, index, pairs, t, QQ(0), kappas, rhos, root=u)))
        rows.append(("conjugation_residual", f"r{index} t = 1",
                     _raised(weyl.conjugation_residual, index, pairs, QQ(1), QQ(2), kappas, rhos, root=QQ(1))))
    return rows


class TestNamedPoles:
    def test_every_kernel_message_a_public_call_reaches_is_pinned(self):
        rows = _pole_outcomes()
        text = repr(rows)
        assert hashlib.sha256(text.encode()).hexdigest() == POLE_SHA256
        messages = {outcome for _, _, outcome in rows}
        for label in ("2,2", "3,3", "4,1"):
            assert f"division by zero in the flow of {label}" in messages
        assert {"division by zero in the zero-curvature residual", "(3, 3) root needs a finite nonzero base at t = 0",
                "(3, 3) root needs a finite nonzero base at t = 0.0"} <= messages
        assert {message for message in messages if message.startswith("word singular after prefix (")}

    @pytest.mark.parametrize("index", GENERATORS)
    def test_a_reflection_text_names_each_guard(self, index):
        # each of r_index's four texts, called directly on its denominator,
        # raises the guard's PoleError, never a ZeroDivisionError
        messages = set()
        for k in (0, 1):
            pairs, params, t = _on_reflection_pole(index, _point(40 + index), k)
            alpha, eta = params.alpha, params.eta
            leaves, slope = (*pairs[0], *pairs[1], *alpha, eta, t), (QQ(1), QQ(2), QQ(3), QQ(4), 0)
            value, values = weyl._reflection_kernel(index, False)
            tangent, tangents = weyl._reflection_kernel(index, True)
            split = lambda xs: [x.as_integer_ratio() for x in xs]
            calls = [(value(), leaves), (values(), split(leaves)), (tangent(), (pairs, slope, alpha, eta, t)),
                     (tangents(), (list(map(split, pairs)), split(slope), split(alpha), *split((eta, t))))]
            for text, args in calls:
                with pytest.raises(PoleError, match="^reflection pole: ") as info:
                    text(*args)
                messages.add(str(info.value))
        assert len(messages) == (2 if index == 3 else 1)


# sha256 of repr(_pole_outcomes())
POLE_SHA256 = "08e564dbf460f0df014b8a9ec7acc17c0d858a60979181d40edd24daf9535f20"
