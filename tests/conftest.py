"""Shared test configuration.

Registers the hypothesis ``fuzz`` profile: many more examples and no
per-example deadline, for the long property runs in CI
(``pytest --hypothesis-profile fuzz tests/test_trace_io_fuzz.py ...``).
Tier-1 runs keep hypothesis's default profile.
"""

from hypothesis import settings

settings.register_profile("fuzz", max_examples=20_000, deadline=None)
