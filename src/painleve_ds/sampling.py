"""Random rational points for the exact verification drivers.

Every randomized identity check draws coordinates as exact fractions with
numerators in [-20, 20] and denominators in [1, 10], read from one table
of the 41 x 10 fractions, built once, with the bits that the seeded stream
of ``Fraction(randint(-20, 20), randint(1, 10))`` consumes.  Each entry is
also kept as its numerator over SCALE, the lcm of the denominators, so a
caller can test draws in integers.  Singular loci are avoided by rejection
with a hard retry cap, so an unsatisfiable predicate fails loudly instead
of spinning.  ``first_witness`` applies the same cap to whole sample points
whose evaluation hits a pole, and ``check_claims`` runs a table of claims
through it as one seeded suite.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from .reporting import CheckReport
from .scalars import PoleError

NUMERATOR_RANGE = (-20, 20)
DENOMINATOR_RANGE = (1, 10)
RETRY_CAP = 1000
_EXCEEDED = "rejection sampling exceeded %d retries" % RETRY_CAP

_NUMERATORS = range(NUMERATOR_RANGE[0], NUMERATOR_RANGE[1] + 1)
_DENOMINATORS = range(DENOMINATOR_RANGE[0], DENOMINATOR_RANGE[1] + 1)
SCALE = math.lcm(*_DENOMINATORS)
_TABLE = tuple(tuple(Fraction(n, d) for d in _DENOMINATORS) for n in _NUMERATORS)
_SCALED = tuple(tuple(n * (SCALE // d) for d in _DENOMINATORS) for n in _NUMERATORS)
_ROWS, _COLUMNS = len(_NUMERATORS), len(_DENOMINATORS)
_ROW_BITS, _COLUMN_BITS = _ROWS.bit_length(), _COLUMNS.bit_length()


def _cell(rng: random.Random) -> tuple:
    """A table cell, read as ``randint`` reads the numerator, then the denominator:
    CPython's ``_randbelow(n)`` redraws ``getrandbits(n.bit_length())`` until below n."""
    getrandbits = rng.getrandbits
    row = getrandbits(_ROW_BITS)
    while row >= _ROWS:
        row = getrandbits(_ROW_BITS)
    column = getrandbits(_COLUMN_BITS)
    while column >= _COLUMNS:
        column = getrandbits(_COLUMN_BITS)
    return row, column


def random_rational(rng: random.Random) -> Fraction:
    """One draw from the table; dense around small fractions, which is what the checks want."""
    row, column = _cell(rng)
    return _TABLE[row][column]


def scaled_rational(rng: random.Random, excluded=(), weight: int = 1) -> tuple:
    """A draw ``(k / SCALE, k)``, redrawn while ``k * weight`` is in ``excluded``, at most RETRY_CAP times."""
    for _ in range(RETRY_CAP):
        row, column = _cell(rng)
        scaled = _SCALED[row][column]
        if scaled * weight not in excluded:
            return _TABLE[row][column], scaled
    raise RuntimeError(_EXCEEDED)


def rational_satisfying(rng: random.Random, admissible: Callable[[Fraction], bool]) -> Fraction:
    for _ in range(RETRY_CAP):
        value = random_rational(rng)
        if admissible(value):
            return value
    raise RuntimeError(_EXCEEDED)


def draw_constants(record, rng: random.Random) -> tuple:
    """A reduction record's integration constants: (kappas, rhos), kappas drawn first."""
    kappas = tuple(random_rational(rng) for _ in range(record.kappa_count))
    return kappas, tuple(random_rational(rng) for _ in range(record.rho_count))


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


def check_claims(label: str, claims, samples: int, seed: int) -> CheckReport:
    """Each ``(name, draw, examine)`` claim in order on one seeded RNG; a claim
    whose draw is None is proved, not sampled, and ``examine(None)`` runs once."""
    if samples < 1:
        raise ValueError(f"a suite needs at least one sample, got {samples}")
    rng, report = random.Random(seed), CheckReport(label)
    for name, draw, examine in claims:
        witness = examine(None) if draw is None else first_witness(rng, samples, draw, examine, name)
        report.add(name, witness is None, witness)
    return report
