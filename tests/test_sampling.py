"""Rational point sampling used by the verification drivers."""

import hashlib
import random
from fractions import Fraction as QQ
from functools import partial

import pytest

from painleve_ds import weyl
from painleve_ds.lax import sample_point
from painleve_ds.reductions import REDUCTIONS
from painleve_ds.sampling import (
    DENOMINATOR_RANGE,
    NUMERATOR_RANGE,
    RETRY_CAP,
    draw_constants,
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

    def test_a_stuck_generator_draws_two(self, stuck_rng):
        assert [random_rational(stuck_rng) for _ in range(3)] == [2, 2, 2]
        assert stuck_rng.calls == 6

    def test_draws_consume_the_stream_of_two_randint_calls(self):
        # the golden report hashes depend on this stream: CPython promises
        # only random()'s stream across versions, not randint's
        drawn, reference = random.Random(12), random.Random(12)
        for index in range(200_000):
            expected = QQ(reference.randint(*NUMERATOR_RANGE), reference.randint(*DENOMINATOR_RANGE))
            if random_rational(drawn) != expected:
                pytest.fail(f"draw {index} left the randint stream")
        assert drawn.getstate() == reference.getstate()


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


def _draw_digest() -> str:
    """sha256 over the reprs of 1,000 seeded draws of each sampler: the Weyl
    point, the bridge point, each partition's zero-curvature point and each
    record's integration constants, each sampler on its own seeded stream."""
    samplers = [("weyl", weyl.sample_weyl_point), ("bridge", weyl._draw_bridge)]
    samplers += [(f"lax {parts}", partial(sample_point, parts)) for parts in REDUCTIONS]
    samplers += [(f"constants {parts}", partial(draw_constants, record)) for parts, record in REDUCTIONS.items()]
    digest = hashlib.sha256()
    for seed, (name, draw) in enumerate(samplers):
        rng = random.Random(seed)
        digest.update(name.encode())
        for _ in range(1000):
            digest.update(repr(draw(rng)).encode())
    return digest.hexdigest()


# recorded when every draw was Fraction(randint(-20, 20), randint(1, 10))
DRAW_SHA256 = "cd948c09f276aff8973524e3b8399c9a021246a85d6207f2e44b91afeca0233b"


def test_seeded_draws_are_pinned():
    assert _draw_digest() == DRAW_SHA256
