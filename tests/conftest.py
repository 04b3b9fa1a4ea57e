"""Every hypothesis test draws the same examples on every run and writes no
example database into the checkout; each test's own @settings still sets
its example count."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
