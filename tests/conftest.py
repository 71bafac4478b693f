"""Test-session settings shared by every test module."""

from hypothesis import settings

# Derandomized: every run, local or CI, draws the same examples, so a
# property test can only fail the same way twice. No deadline: timings on a
# shared machine vary too much to gate on.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
