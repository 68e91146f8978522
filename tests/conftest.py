"""Suite-wide hypothesis settings: examples are derived from each test
rather than drawn at random, so property tests give the same cases on every
run, and no per-example deadline applies, so a slow or shared host cannot
fail a test on timing alone."""
from hypothesis import settings

settings.register_profile("ctclab", derandomize=True, deadline=None)
settings.load_profile("ctclab")
