"""Hypothesis settings for the whole test run.

Every run draws the same examples (derandomized, seeded from each test's
own definition), so a tier-1 failure reproduces exactly; no per-example
deadline, because timings on a shared host vary.  Tests keep their own
max_examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
