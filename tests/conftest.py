"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` derandomizes every property test: examples
come from a fixed seed, so a red CI run replays on any box, and a
failure prints the blob that reproduces it.  Deadlines are off there
because hosted runners are slower and noisier than a workstation.  Each
test's own ``max_examples`` is untouched.  Without the variable the
default profile applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
