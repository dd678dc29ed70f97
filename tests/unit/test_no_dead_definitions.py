"""Every ``def`` and ``class`` in ``src/repro`` has a caller outside the
tests.

A definition counts as called when some ``.py`` file of the repository
outside ``tests/`` names it anywhere outside the definition itself:
code, a docstring, a bench or an example.  A test is not a caller: a
definition that only tests reach is surface nothing uses.  Exporting is
not calling either: an ``__all__`` entry and a package ``__init__``'s
re-export import do not count.  The check is one identifier
:class:`~collections.Counter` over every tracked ``.py`` file outside
``tests/``, less those exports, so a name that only its own ``def`` line
and its exports spell out is dead.  Dunder methods are exempt: Python
calls them implicitly.

:data:`TEST_ONLY` names the few definitions that only tests call and
that stay anyway, each with its reason; an entry that gains a caller,
or names no definition, fails the check too.
"""

import ast
import re
import subprocess
from collections import Counter, defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_FHIR = ("backs the FHIR expectation that closes the paper's case "
         "study; tests/integration/test_fhir.py is its workload")
_ORACLE = "an oracle that tests compare answers against"

#: definitions only tests call, kept on purpose
TEST_ONLY = {
    "FhirGenerator": _FHIR,
    "bundle_id_of": _FHIR,
    "condition_codes_of": _FHIR,
    "medication_codes_of": _FHIR,
    "FunctionReferencer": "the paper's user-supplied referencer function",
    "FunctionInterpreter": "the paper's user-supplied interpreter function",
    "q5_revenue_by_nation": "Q5's aggregation: query semantics",
    "filter_range": "ChainQuery's range filter: query semantics",
    "row_set": _ORACLE,
    "sorted_rows": _ORACLE,
    "engine_totals": _ORACLE + " (gateway totals vs summed job metrics)",
    "page_of_slot": _ORACLE + " (the heap's page rule, slot by slot)",
}


def python_files() -> list[Path]:
    """Tracked ``.py`` files; every ``.py`` file outside hidden
    directories when the tree is not a git checkout."""
    try:
        listed = subprocess.run(["git", "ls-files", "*.py"], cwd=REPO,
                                capture_output=True, text=True, check=True)
        return [REPO / name for name in listed.stdout.split()]
    except (OSError, subprocess.CalledProcessError):
        return [path for path in REPO.rglob("*.py")
                if not any(part.startswith(".")
                           for part in path.relative_to(REPO).parts)]


def exports(path: Path, tree: ast.Module) -> Counter:
    """The names a file only exports: its ``__all__`` entries and, in a
    package ``__init__``, the names it imports to re-export."""
    exported = Counter()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported.update(elt.value for elt in ast.walk(node.value)
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str))
        elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
            for alias in node.names:
                exported[alias.name] += 1
                if alias.asname:
                    exported[alias.asname] += 1
    return exported


def uncalled_definitions() -> dict[str, list[str]]:
    """Each definition of ``src/repro`` that no ``.py`` file outside
    ``tests/`` names, with where it is defined."""
    tests = REPO / "tests"
    sources = {path: path.read_text() for path in python_files()
               if tests not in path.parents}
    trees = {path: ast.parse(text) for path, text in sources.items()}
    mentions = Counter()
    for path, text in sources.items():
        mentions.update(IDENTIFIER.findall(text))
        mentions.subtract(exports(path, trees[path]))
    definitions = defaultdict(list)
    src = REPO / "src" / "repro"
    for path, tree in trees.items():
        if src not in path.parents:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                definitions[node.name].append(
                    f"{path.relative_to(REPO)}:{node.lineno}")
    return {name: places for name, places in definitions.items()
            if mentions[name] <= len(places)}


def test_every_definition_in_src_is_named_elsewhere():
    dead = sorted(f"{where} {name}"
                  for name, places in uncalled_definitions().items()
                  if name not in TEST_ONLY for where in places)
    assert not dead, ("definitions only tests (or nothing) call:\n"
                      + "\n".join(dead))


def test_every_kept_test_only_definition_is_still_test_only():
    stale = sorted(set(TEST_ONLY) - set(uncalled_definitions()))
    assert not stale, ("TEST_ONLY entries that gained a caller or name "
                       "no definition: " + ", ".join(stale))
