"""Hypothesis profiles.  A plain run loads `derandomized`: each property
test draws the same examples on every run (seeded from the test itself,
with no example database).  HYPOTHESIS_PROFILE=random draws fresh
examples instead, to explore.  A test's own @settings still sets its
example count and deadline."""

import os

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))
