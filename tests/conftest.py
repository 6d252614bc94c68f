"""Shared test configuration: one derandomized hypothesis profile, so every
property test draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("polyaccess", derandomize=True, database=None, deadline=None)
settings.load_profile("polyaccess")
