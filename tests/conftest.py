"""Test settings shared by every test module.

Hypothesis runs under one profile with ``derandomize=True``: each test draws
the same examples on every run (seeded from the test itself), so the suite's
outcome and wall time repeat from run to run.  Every other setting keeps its
default or the value a test's own ``@settings`` gives it.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
