"""The never-run gate: every function of ``src/repro`` runs in some suite.

Two halves share this module.

* A pytest plugin.  Load it with ``-p tests.never_run`` and name a
  record file::

      PYTHONPATH=src python -m pytest -p tests.never_run \\
          --ran-record=ran-tier1.json

  (Spell the option with ``=``: pytest picks its root directory from
  the path-like arguments before the plugin has registered the option.)

  The whole session runs under one stdlib :mod:`cProfile` profiler.  At
  the end the plugin writes the ``(path, first line)`` of every
  ``src/repro`` code object that ran.
* A checker.  ``python -m tests.never_run RECORD [RECORD ...]`` merges
  the records, lists every ``def`` in ``src/repro`` that none of them
  saw, and exits 1 when one is neither a dunder (exempt, as in
  ``tests/unit/test_no_dead_definitions.py``) nor on the allow-list
  :data:`ALLOW_LIST`, which gives each exception a reason.

A code object's ``co_firstlineno`` is its ``def`` line, or the first
decorator line when the function is decorated; a definition matches on
either.  Nested functions count as definitions of their own; lambdas do
not.

Use CPython 3.11: from 3.12 on, :mod:`cProfile` sits on
:mod:`sys.monitoring`, which refuses the second profiler that
``tests/unit/test_call_budget.py`` starts.  On 3.11 that second profiler
silently replaces this one, so the plugin re-enables its own before and
after every test.  Only the thread that starts the session is profiled.
"""

from __future__ import annotations

import ast
import cProfile
import json
import os
import sys
from pathlib import Path
from typing import Iterable, NamedTuple

REPO = Path(__file__).resolve().parents[1]
SRC = "src/repro/"
#: the checked-in exceptions: ``<path>::<qualified name>  <reason>``
ALLOW_LIST = REPO / "tests" / "never_run_allow.txt"


class Definition(NamedTuple):
    path: str  # relative to the repository root
    qualname: str  # dotted: ``Class.method``, ``outer.inner``
    lines: tuple[int, ...]  # the ``def`` line, then the first decorator's

    @property
    def dunder(self) -> bool:
        name = self.qualname.rsplit(".", 1)[-1]
        return name.startswith("__") and name.endswith("__")


def definitions() -> list[Definition]:
    """Every function definition under ``src/repro``, in file order."""
    found: list[Definition] = []

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                lines = (child.lineno,) + tuple(
                    d.lineno for d in child.decorator_list[:1])
                found.append(Definition(path, qualname, lines))
                walk(child, path, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for file in sorted((REPO / SRC).rglob("*.py")):
        path = file.relative_to(REPO).as_posix()
        walk(ast.parse(file.read_text()), path, "")
    return found


def read_allow_list() -> dict[tuple[str, str], str]:
    """``{(path, qualname): reason}`` from :data:`ALLOW_LIST`."""
    allowed: dict[tuple[str, str], str] = {}
    for line in ALLOW_LIST.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        target, __, reason = line.partition(" ")
        where, __, qualname = target.partition("::")
        allowed[(where, qualname)] = reason.strip()
    return allowed


def never_run(ran: Iterable[tuple[str, int]],
              allowed: Iterable[tuple[str, str]] = ()) -> list[Definition]:
    """The non-dunder definitions no ``(path, first line)`` in ``ran``
    matches, less the ``(path, qualname)`` pairs in ``allowed``."""
    ran = set(ran)
    allowed = set(allowed)
    return [d for d in definitions()
            if not d.dunder and (d.path, d.qualname) not in allowed
            and not any((d.path, line) in ran for line in d.lines)]


def ran_in(profile: cProfile.Profile) -> set[tuple[str, int]]:
    """The ``src/repro`` code objects a profiler saw run."""
    ran = set()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            continue  # a builtin
        path = os.path.relpath(os.path.realpath(code.co_filename), REPO)
        path = path.replace(os.sep, "/")
        if path.startswith(SRC):
            ran.add((path, code.co_firstlineno))
    return ran


# -- the pytest plugin ------------------------------------------------------

class Recorder:
    """One session's profiler and the record file it writes at the end."""

    def __init__(self, target: str | None) -> None:
        self.target = target
        self.profile = cProfile.Profile()
        self.profile.enable()

    def pytest_runtest_setup(self, item) -> None:
        self.profile.enable()

    def pytest_runtest_teardown(self, item) -> None:
        self.profile.enable()

    def pytest_sessionfinish(self, session) -> None:
        self.profile.disable()
        if self.target:
            Path(self.target).write_text(
                json.dumps(sorted(ran_in(self.profile))))


def pytest_addoption(parser) -> None:
    parser.addoption("--ran-record", metavar="PATH",
                     help="write the src/repro functions that ran to PATH "
                          "(JSON)")


def pytest_configure(config) -> None:
    config.pluginmanager.register(
        Recorder(config.getoption("--ran-record")), "never-run-recorder")


# -- the checker -----------------------------------------------------------

def main(records: list[str]) -> int:
    if not records:
        print("usage: python -m tests.never_run RECORD [RECORD ...]",
              file=sys.stderr)
        return 2
    ran: set[tuple[str, int]] = set()
    for record in records:
        ran.update((path, line) for path, line
                   in json.loads(Path(record).read_text()))
    unrun = never_run(ran, read_allow_list())
    for d in unrun:
        print(f"never ran: {d.path}:{d.lines[0]} {d.qualname}")
    print(f"{len(unrun)} function(s) of {SRC} never ran outside "
          f"{ALLOW_LIST.relative_to(REPO)}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
