"""Every ``def`` and ``class`` in ``src/repro`` has a caller.

A definition counts as called when some ``.py`` file of the repository
names it anywhere outside the definition itself: code, a docstring, a
test, a bench or an example.  Exporting is not calling: an ``__all__``
entry and a package ``__init__``'s re-export import do not count.  The
check is one identifier :class:`~collections.Counter` over every tracked
``.py`` file, less those exports, so a name that only its own ``def``
line and its exports spell out is dead.  Dunder methods are exempt:
Python calls them implicitly.
"""

import ast
import re
import subprocess
from collections import Counter, defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def test_every_definition_in_src_is_named_elsewhere():
    sources = {path: path.read_text() for path in python_files()}
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
    dead = sorted(f"{where} {name}"
                  for name, places in definitions.items()
                  if mentions[name] <= len(places) for where in places)
    assert not dead, "definitions no .py file names:\n" + "\n".join(dead)
