"""Shared test settings.

Property tests draw their examples from a fixed seed and keep no example
database, so every run checks the same inputs; a failure found once is not
replayed from a saved database in later runs.  (Hypothesis still writes a
cache of source constants under ``.hypothesis/``, which git ignores.)
"""

from hypothesis import settings

settings.register_profile(
    "jetsums", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("jetsums")
