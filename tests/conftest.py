"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` derandomizes every
property test and prints the blob that replays a failing example, so a red
run in CI reproduces locally."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
