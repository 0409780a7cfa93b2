"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, with a fixed example budget and no per-example
deadline, so the suite's time stays bounded and does not depend on load.
"""

from hypothesis import settings

settings.register_profile("cdrive", derandomize=True, max_examples=25, deadline=None)
settings.load_profile("cdrive")
