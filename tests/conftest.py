"""Shared test configuration.

Hypothesis runs derandomized and without its example database, so every
run of the suite draws the same examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
