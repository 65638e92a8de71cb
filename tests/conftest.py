"""Test settings shared by every test module.

Hypothesis runs under one profile with ``derandomize=True`` and
``database=None``: each test draws from a seed taken from the test itself,
and no example saved by an earlier run is replayed first.  The draws are
still not fixed by the test alone: hypothesis mixes the literal constants of
every loaded local module into its draws, so they change with the set of
test modules loaded (one test run alone against the whole suite) and with
the source text of those modules.  Every other setting keeps its default or
the value a test's own ``@settings`` gives it.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
