"""Rational point sampling used by the verification drivers."""

import random
from fractions import Fraction as QQ

import pytest

from painleve_ds.sampling import (
    DENOMINATOR_RANGE,
    NUMERATOR_RANGE,
    RETRY_CAP,
    first_witness,
    nonzero_rational,
    random_rational,
    rational_avoiding,
    rational_satisfying,
)
from painleve_ds.scalars import PoleError


class TestDraws:
    def test_values_stay_in_the_box(self):
        rng = random.Random(0)
        lo = QQ(NUMERATOR_RANGE[0], DENOMINATOR_RANGE[0])
        hi = QQ(NUMERATOR_RANGE[1], DENOMINATOR_RANGE[0])
        for _ in range(500):
            value = random_rational(rng)
            assert lo <= value <= hi
            assert value.denominator <= DENOMINATOR_RANGE[1]

    def test_deterministic_by_seed(self):
        a = [random_rational(random.Random(42)) for _ in range(10)]
        b = [random_rational(random.Random(42)) for _ in range(10)]
        assert a == b

    def test_nonzero_never_zero(self):
        rng = random.Random(1)
        assert all(nonzero_rational(rng) != 0 for _ in range(300))

    def test_avoiding_respects_exclusions(self):
        rng = random.Random(2)
        banned = (0, 1, QQ(1, 2))
        for _ in range(300):
            assert rational_avoiding(rng, banned) not in banned

    def test_unsatisfiable_predicate_fails_loudly(self):
        rng = random.Random(3)
        with pytest.raises(RuntimeError, match=str(RETRY_CAP)):
            rational_satisfying(rng, lambda value: False)


class TestFirstWitness:
    def test_none_when_every_point_passes(self):
        drawn = []
        result = first_witness(random.Random(4), 5, random_rational, drawn.append, "a claim")
        assert result is None
        rng = random.Random(4)
        assert drawn == [random_rational(rng) for _ in range(5)]

    def test_first_failure_stops_the_suite(self):
        seen = []

        def examine(point):
            seen.append(point)
            return {"value": point} if len(seen) == 3 else None

        result = first_witness(random.Random(5), 10, random_rational, examine, "a claim")
        assert result == {"sample_index": 2, "value": seen[-1]}
        assert len(seen) == 3

    def test_a_pole_is_drawn_again_and_not_counted(self):
        seen = []

        def examine(point):
            seen.append(point)
            if len(seen) % 2:
                raise PoleError("every other point")
            return {"value": point} if len(seen) == 6 else None

        result = first_witness(random.Random(6), 10, random_rational, examine, "a claim")
        assert result == {"sample_index": 2, "value": seen[-1]}

    def test_poles_in_a_row_fail_loudly(self):
        def examine(point):
            raise PoleError("always")

        with pytest.raises(RuntimeError, match=f"no admissible point for a claim in {RETRY_CAP} draws"):
            first_witness(random.Random(7), 1, random_rational, examine, "a claim")
