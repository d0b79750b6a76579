"""Hypothesis profiles for the suite.

``tier1``, loaded by default, derandomizes every property test, so each run
of the suite draws the same examples and a rare counterexample cannot first
fail some unrelated change. ``explore`` draws new examples on every run; CI
runs the property tests under it in a job that does not gate, selecting them
by the marker Hypothesis's pytest plugin gives every ``@given`` test:

    python -m pytest -q -m hypothesis --hypothesis-profile=explore
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
