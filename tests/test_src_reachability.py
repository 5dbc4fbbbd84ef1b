"""Every definition in ``src/`` is reached from somewhere other than a test.

The check parses ``src/`` with :mod:`ast` and lists each module-level or
class-level ``def``/``class``.  A definition counts as used when its name
appears in any of:

- ``src/``, outside the definition's own body and outside the ``import``
  lines of a package ``__init__`` (a re-export is not a use);
- ``benchmarks/``, ``examples/``, ``perfbench/`` or ``.github/workflows/``;
- ``docs/`` or ``README.md``;
- the two test oracles, ``tests/eve_reference.py`` and
  ``tests/neat_reference.py``.

Docstrings never count.  String constants count outside ``src/`` only,
because ``perfbench/tracer.py`` names the functions it patches in strings.

The check matches names, not receivers: a dead ``Foo.merge`` passes as
long as any other ``merge`` is called.  It cannot see such a method; a
reviewer still has to.
"""

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PYTHON_USERS = ("benchmarks", "examples", "perfbench")
TEXT_USERS = ("docs", ".github/workflows", "README.md")
ORACLES = ("tests/eve_reference.py", "tests/neat_reference.py")

# Kept although only tests name them; each needs its reason.
ALLOWED = {
    "repro.envs.registry.unregister":
        "the inverse of register: tests that register a throwaway env "
        "must remove it again so the process-wide registry stays clean",
    "repro.hw.sram.GenomeBuffer.words_used":
        "the only way to observe how many words the buffer holds",
    "repro.hw.sram.GenomeBuffer.overflowing":
        "the only way to observe the capacity check without a write",
    "repro.hw.sram.GenomeBuffer.genome_length":
        "the only way to observe one stored genome's length in words",
    "repro.serve.client.ServeClient.metrics_text":
        "the client's view of GET /metrics, which the serve tests read",
    "repro.serve.http._JobApiHandler.do_GET":
        "http.server dispatches to it by name",
    "repro.serve.http._JobApiHandler.do_POST":
        "http.server dispatches to it by name",
    "repro.serve.http._JobApiHandler.log_message":
        "http.server calls it by name to log each request",
}

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _definitions(tree: ast.Module, module: str) -> Iterator[Tuple[str, str, int, int]]:
    """Yield ``(qualified name, name, first line, last line)``."""
    pending = [(node, module) for node in tree.body]
    while pending:
        node, owner = pending.pop()
        if not isinstance(node, DEFINITION):
            continue
        qualified = f"{owner}.{node.name}"
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        yield qualified, node.name, first, node.end_lineno
        if isinstance(node, ast.ClassDef):
            pending.extend((child, qualified) for child in node.body)


def _docstrings(tree: ast.Module) -> Set[int]:
    """The ids of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + DEFINITION) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _python_uses(tree: ast.Module, strings: bool,
                 reexports: bool) -> Iterator[Tuple[str, int]]:
    """Yield ``(identifier, line)`` for each name ``tree`` refers to."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if reexports:
                continue
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in docstrings):
            for word in IDENTIFIER.findall(node.value):
                yield word, node.lineno


def _text_files() -> Iterator[Path]:
    for entry in TEXT_USERS:
        path = ROOT / entry
        if path.is_file():
            yield path
        elif path.is_dir():
            yield from sorted(p for p in path.rglob("*") if p.is_file())


@functools.cache
def _scan():
    """Every ``src/`` definition, where ``src/`` names each identifier,
    and the identifiers the other places name."""
    defined = []
    src_uses: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qualified, name, first, last in _definitions(tree, _module_name(path)):
            defined.append((qualified, name, path, first, last))
        for word, line in _python_uses(tree, strings=False,
                                       reexports=path.name == "__init__.py"):
            src_uses[word].append((path, line))

    outside: Set[str] = set()
    python_files = [p for d in PYTHON_USERS for p in sorted((ROOT / d).rglob("*.py"))]
    python_files += [ROOT / p for p in ORACLES]
    for path in python_files:
        tree = ast.parse(path.read_text(), str(path))
        outside.update(word for word, _ in _python_uses(tree, strings=True,
                                                        reexports=False))
    for path in _text_files():
        outside.update(IDENTIFIER.findall(path.read_text(errors="replace")))
    return defined, src_uses, outside


def unreached(allowed=ALLOWED) -> Dict[str, str]:
    """``src/`` definitions nothing outside tests uses, with locations."""
    defined, src_uses, outside = _scan()
    missing = {}
    for qualified, name, path, first, last in defined:
        if name.startswith("__") and name.endswith("__"):
            continue  # the interpreter calls these
        if qualified in allowed or name in outside:
            continue
        if any(site != path or not first <= line <= last
               for site, line in src_uses.get(name, ())):
            continue
        missing[qualified] = f"{path.relative_to(ROOT)}:{first}"
    return missing


def test_every_src_definition_is_reached_outside_tests():
    missing = unreached()
    assert not missing, (
        "definitions in src/ that only tests (or nothing) use; delete them "
        "with their tests, or allowlist one with a reason:\n  "
        + "\n  ".join(f"{name} ({where})" for name, where in missing.items())
    )


def test_allowlist_holds_only_otherwise_unreached_definitions():
    assert sorted(set(ALLOWED) - set(unreached(allowed=()))) == []
