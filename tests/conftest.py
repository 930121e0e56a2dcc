"""Shared test configuration.

Hypothesis runs derandomized and without its example database, so every
run of the suite draws the same examples.
"""

import functools
import random

import pytest
from hypothesis import settings

from painleve_ds import painleve, weyl
from painleve_ds.sampling import RETRY_CAP

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def fresh_claim_kernels(monkeypatch):
    """The reflection and weight-sum kernels are traced on first use and
    cached.  Here a reflection kernel is cached per version of
    ``weyl._shifted_weights``, so each replacement of it is traced afresh,
    and the weight-sum cache starts and ends empty, so a replaced
    ``painleve.reduction_parameters`` is traced and leaves no kernel behind."""
    uncached = weyl._reflection_kernel.__wrapped__
    trace = functools.cache(lambda index, shifted: uncached(index))
    monkeypatch.setattr(weyl, "_reflection_kernel", lambda index: trace(index, weyl._shifted_weights))
    painleve._weight_sum_kernel.cache_clear()
    yield
    painleve._weight_sum_kernel.cache_clear()


class StuckRandom(random.Random):
    """Every draw is the rational 2: its numerator's 6 bits always read 22
    (-20 + 22) and its denominator's 4 bits always read 0 (1 + 0)."""

    def __init__(self):
        super().__init__(0)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > 10 * RETRY_CAP:
            raise AssertionError("the draw kept going past the retry cap")
        return {6: 22, 4: 0}[k]


@pytest.fixture
def stuck_rng():
    """A generator on which every draw is 2, so any exclusion of 2 never clears."""
    return StuckRandom()
