"""Random rational points for the exact verification drivers.

Every randomized identity check draws coordinates as exact fractions with
numerators in [-20, 20] and denominators in [1, 10].  Singular loci are
avoided by rejection with a hard retry cap, so an unsatisfiable predicate
fails loudly instead of spinning.  ``first_witness`` applies the same cap
to whole sample points whose evaluation hits a pole.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .scalars import PoleError

NUMERATOR_RANGE = (-20, 20)
DENOMINATOR_RANGE = (1, 10)
RETRY_CAP = 1000


def random_rational(rng: random.Random) -> Fraction:
    """One draw; dense around small fractions, which is what the checks want."""
    return Fraction(
        rng.randint(*NUMERATOR_RANGE), rng.randint(*DENOMINATOR_RANGE)
    )


def rational_satisfying(rng: random.Random, admissible: Callable[[Fraction], bool]) -> Fraction:
    for _ in range(RETRY_CAP):
        value = random_rational(rng)
        if admissible(value):
            return value
    raise RuntimeError("rejection sampling exceeded %d retries" % RETRY_CAP)


def nonzero_rational(rng: random.Random) -> Fraction:
    return rational_satisfying(rng, lambda value: value != 0)


def rational_avoiding(rng: random.Random, excluded) -> Fraction:
    banned = {Fraction(value) for value in excluded}
    return rational_satisfying(rng, lambda value: value not in banned)


def first_witness(rng: random.Random, samples: int, draw, examine, what: str):
    """The first of ``samples`` drawn points whose ``examine`` returns a witness.

    ``draw(rng)`` makes a point and ``examine(point)`` returns None when the
    claim holds there, or a witness dict when it fails.  A point where
    ``examine`` raises PoleError is drawn again; RETRY_CAP poles in a row
    fail loudly.  Returns ``{"sample_index": i, **witness}``, or None when
    every point passes.
    """
    for index in range(samples):
        for _ in range(RETRY_CAP):
            point = draw(rng)
            try:
                witness = examine(point)
            except PoleError:
                continue
            break
        else:
            raise RuntimeError(f"no admissible point for {what} in {RETRY_CAP} draws")
        if witness is not None:
            return {"sample_index": index, **witness}
    return None
