"""Two AST checks over ``src/``: no unused imports, and file writes only
in ``repro/obs/jsonl.py``.

* **Unused imports.**  Every module-level import (including those under
  a module-level ``if``, such as ``TYPE_CHECKING`` blocks) must bind a
  name the module uses: as a name anywhere in its code, inside a string
  annotation, or in ``__all__``.  Package ``__init__`` modules are
  skipped, because their imports are re-exports; ``from __future__``
  imports are skipped too.
* **One writer.**  Outside ``repro/obs/jsonl.py`` no code may create or
  truncate a file with content: no ``write_text``/``write_bytes``, no
  ``open()`` in a ``w``, ``a`` or ``x`` mode (builtin or ``Path.open``)
  and no ``os.open`` with ``O_CREAT``.  Write through
  :func:`repro.obs.jsonl.write_atomic`, ``write_json`` or
  ``append_jsonl`` instead.  Empty ``Path.touch`` flag files are not
  file writes under this rule.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from test_src_reachability import ROOT, SRC, _definitions, _module_name

WRITER = SRC / "repro" / "obs" / "jsonl.py"

# Writes allowed outside the one writer; each needs its reason.
ALLOWED_WRITES = {
    "repro.serve.jobs.JobStore._locked":
        "creates the empty lock file flock needs; it holds no content",
    "repro.runs.locking.ClaimFile._take":
        "publishes a claim by link(2), which fails if one exists; "
        "a rename cannot do that",
}

WRITE_METHODS = ("write_text", "write_bytes")


def _sources() -> Iterator[Tuple[Path, ast.Module]]:
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _module_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for each module-level import."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _string_annotation_names(tree: ast.Module) -> Iterator[str]:
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations += [a.annotation for a in every if a.annotation]
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal's value, not a type
                    continue
                yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _used_names(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_string_annotation_names(tree))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


def unused_imports() -> List[str]:
    found = []
    for path, tree in _sources():
        if path.name == "__init__.py":
            continue
        used = _used_names(tree)
        for name, line in _module_imports(tree):
            if name not in used:
                found.append(f"{path.relative_to(ROOT)}:{line} {name}")
    return sorted(found)


def _open_mode(call: ast.Call, position: int) -> Optional[str]:
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return getattr(keyword.value, "value", None)
    if len(call.args) > position:
        return getattr(call.args[position], "value", None)
    return "r"


def _is_write(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
        return True
    if isinstance(func, ast.Attribute) and func.attr == "open":
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return any(isinstance(node, ast.Attribute) and node.attr == "O_CREAT"
                       for node in ast.walk(call))
        mode = _open_mode(call, 0)  # Path.open(mode)
    elif isinstance(func, ast.Name) and func.id == "open":
        mode = _open_mode(call, 1)  # open(file, mode)
    else:
        return False
    # A mode the check cannot read is treated as a write.
    return not isinstance(mode, str) or any(flag in mode for flag in "wax")


def file_writes() -> Dict[str, str]:
    """Each place outside the one writer that writes a file, by the
    innermost def or class around it."""
    found = {}
    for path, tree in _sources():
        if path == WRITER:
            continue
        module = _module_name(path)
        scopes = [(first, last, name)
                  for name, _, first, last in _definitions(tree, module)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_write(node):
                around = [(first, name) for first, last, name in scopes
                          if first <= node.lineno <= last]
                owner = max(around)[1] if around else module
                found[owner] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return found


def test_src_imports_are_all_used():
    unused = unused_imports()
    assert not unused, (
        "imports in src/ the module never uses; delete them:\n  "
        + "\n  ".join(unused)
    )


def test_src_writes_files_only_through_repro_obs_jsonl():
    writes = {
        name: where for name, where in file_writes().items()
        if name not in ALLOWED_WRITES
    }
    assert not writes, (
        "file writes outside repro/obs/jsonl.py; use write_atomic, "
        "write_json or append_jsonl, or allowlist one with a reason:\n  "
        + "\n  ".join(f"{name} ({where})" for name, where in sorted(writes.items()))
    )


def test_write_allowlist_holds_only_live_writes():
    assert sorted(set(ALLOWED_WRITES) - set(file_writes())) == []
