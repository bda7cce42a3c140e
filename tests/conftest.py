"""Hypothesis settings for the tier-1 suite.

The ``tier1`` profile changes no test's deadline or example count.  It
prints the reproduction blob of every failing example, so that a failure
seen once, in CI or a local run, can be replayed with ``@reproduce_failure``.
"""

from hypothesis import settings

settings.register_profile("tier1", print_blob=True)
settings.load_profile("tier1")
