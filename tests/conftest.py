"""Shared test settings.

Hypothesis runs derandomized (the same examples on every run) and without
deadlines, so that the suite is reproducible and timing-independent.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
