"""Shared test settings.

Property tests run under a fixed Hypothesis profile: derandomized, so the
suite draws the same examples on every run, with no per-example deadline,
because wall time on a shared machine varies too much to bound one example,
and with a bounded example count that keeps the suite quick.
"""

from hypothesis import settings

settings.register_profile("switchsde", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("switchsde")
