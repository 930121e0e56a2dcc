"""Shared test configuration.

Hypothesis runs derandomized and without its example database, so every
run of the suite draws the same examples.
"""

import functools

import pytest
from hypothesis import settings

from painleve_ds import painleve, weyl

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
