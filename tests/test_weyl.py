"""Birational reflections of the coupled sixth system and their algebra."""

import random
import re
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_ds import weyl
from painleve_ds.loop import LoopElement
from painleve_ds.painleve import SystemParameters
from painleve_ds.scalars import PoleError, is_zero_scalar
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

    def test_out_of_range_index(self):
        pairs, params, t = _point(seed=1)
        with pytest.raises(ValueError):
            apply_generator(6, pairs, params, t)

    @pytest.mark.parametrize("gain", ["drawn", "zero"])
    @pytest.mark.parametrize(
        "unfit",
        [
            lambda alpha, eta: SystemParameters((*alpha, QQ(1, 2)), eta),
            lambda alpha, eta: SystemParameters(alpha[:5], eta),
            lambda alpha, eta: SystemParameters(alpha, None),
        ],
        ids=["seven weights", "five weights", "no eta"],
    )
    @pytest.mark.parametrize("index", GENERATORS)
    def test_weights_that_do_not_fit_are_refused(self, index, unfit, gain):
        # before the zero-gain shortcut, so a zero weight is no way round
        pairs, params, t = _point(seed=60 + index)
        alpha = tuple(QQ(0) if gain == "zero" and k == index else a for k, a in enumerate(params.alpha))
        bad = unfit(alpha, params.eta)
        for apply in (apply_generator, lambda i, *args: apply_word((i,), *args)):
            with pytest.raises(ValueError, match=r"^the cp6 system takes 6 weights and eta$"):
                apply(index, pairs, bad, t)


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


class TestBoundedRetries:
    @pytest.mark.parametrize(
        "target,check",
        [
            ("apply_word", check_relations),
            ("equivariance_residual", check_equivariance),
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

    def _moved_q1(word, pairs, params, t):
        (q1, p1), second = pairs
        return ((q1 + 1, p1), second), params

    @pytest.mark.parametrize(
        "target,broken,check,keys",
        [
            ("apply_word", _moved_q1, check_relations,
             {"sample_index", "point", "alpha", "eta", "image_pairs"}),
            ("equivariance_residual", lambda *args: (QQ(1), QQ(0), QQ(0), QQ(0)),
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
