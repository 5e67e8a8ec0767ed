"""One hypothesis profile for the suite: every property test draws the same
examples on each run, and no example database is written."""

from hypothesis import settings

settings.register_profile("xishift", derandomize=True, database=None)
settings.load_profile("xishift")
