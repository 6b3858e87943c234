"""Test-suite settings shared by every module."""

from hypothesis import settings

# Every run draws the same examples (derandomize also turns off the example
# database), and no example fails for taking long on a loaded machine. Each
# test's own max_examples still applies.
settings.register_profile("cosimo", derandomize=True, deadline=None)
settings.load_profile("cosimo")
