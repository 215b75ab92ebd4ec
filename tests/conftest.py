"""Shared test settings.

Hypothesis runs derandomized and without an example database, so identical
trees draw identical examples and give identical results. The profile is
loaded here for every run of the suite; `--hypothesis-profile` still picks
another one explicitly.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
