"""The never-run gate's own checks (see ``tests/never_run.py``).

The gate runs in CI under a profiler; these tests keep its allow-list and
its matching honest in the ordinary suite.
"""

import json
import os
import subprocess
import sys

from tests import never_run

#: profiles one property read in a fresh interpreter, which may start its
#: own profiler even while the gate's plugin profiles this session
PROFILED_SNIPPET = """
import cProfile, json
from repro.core.scrub import ScrubReport
from tests import never_run
profile = cProfile.Profile()
profile.enable()
try:
    ScrubReport().clean
finally:
    profile.disable()
print(json.dumps(sorted(never_run.ran_in(profile))))
"""


def test_allow_list_entries_name_definitions_and_give_reasons():
    defined = {(d.path, d.qualname) for d in never_run.definitions()}
    allowed = never_run.read_allow_list()
    stale = sorted(f"{path}::{qualname}" for path, qualname in allowed
                   if (path, qualname) not in defined)
    assert not stale, "allow-list entries that name no definition:\n" + (
        "\n".join(stale))
    assert all(allowed.values()), "every allow-list entry needs a reason"


def test_definitions_see_methods_nested_functions_and_decorators():
    by_name = {d.qualname: d for d in never_run.definitions()
               if d.path == "src/repro/core/scrub.py"}
    assert "ScrubWorker.run_once" in by_name
    assert "ScrubWorker._page_read_job.node_scrub" in by_name
    clean = by_name["ScrubReport.clean"]
    assert len(clean.lines) == 2  # the def line, then @property's line
    assert clean.lines[1] == clean.lines[0] - 1


def test_a_profiled_call_marks_its_definition_run():
    """A property's code object starts at its decorator line; the gate
    must still match it to its ``def``."""
    path = os.pathsep.join([str(never_run.REPO / "src"), str(never_run.REPO),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", PROFILED_SNIPPET], cwd=never_run.REPO,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, check=True).stdout
    ran = {(where, line) for where, line in json.loads(out)}
    unrun = {d.qualname for d in never_run.never_run(ran)
             if d.path == "src/repro/core/scrub.py"}
    assert "ScrubReport.clean" not in unrun
    assert "ScrubReport.render" in unrun
    # Dunders are exempt even when nothing ran.
    assert not any(d.dunder for d in never_run.never_run(set()))
