"""The package surface: every public module-level function and class in
src/hdiv_geodecomp is read by the package itself, or is a library entry
point named below with its reason.  Code that only the tests read belongs
in the test helpers (conftest.py, polynomial_reference.py).  Every name
imported in src or tests is read where it is imported, and the README's
"Library use" example runs as printed."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hdiv_geodecomp"

# The public names nothing in src reads, each kept for callers outside it.
ENTRY_POINTS = {
    "assembly.flip_facet_orientation": "the conformity check's negative control (acceptance criterion 7)",
    "assembly.infsup_sweep": "inf-sup drift over refinement levels: README module table, acceptance criterion 8",
    "dofs.merge_face_dofs": "merged facet moments, an element entry point in README 'Library use'",
    "mesh.save_mesh": "writes a Mesh as JSON: README 'Builtin meshes', CI's refined 4-simplex step",
}


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _reads(module: str, tree: ast.Module, own: dict[str, ast.AST]):
    """(defining module, name) and the node of every read of a package
    name in one module: its own names, names imported from a sibling
    module, and attributes of an imported sibling module."""
    names = {name: (module, name) for name in own}
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            yield names[node.id], node
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            yield (modules[node.value.id], node.attr), node


def _unread_public_names() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    definitions = {module: _public_definitions(tree) for module, tree in trees.items()}
    read = set()
    for module, tree in trees.items():
        for (owner, name), node in _reads(module, tree, definitions[module]):
            defined = definitions.get(owner, {}).get(name)
            # A definition reading itself (recursion) does not count.
            if owner == module and defined is not None and defined.lineno <= node.lineno <= defined.end_lineno:
                continue
            read.add((owner, name))
    return {f"{module}.{name}" for module, defs in definitions.items() for name in defs if (module, name) not in read}


def test_every_public_name_is_read_in_src_or_is_an_entry_point():
    unread = _unread_public_names()
    assert not unread - set(ENTRY_POINTS), "only tests read these; move them to a test helper"
    assert not set(ENTRY_POINTS) - unread, "src reads these, or they are gone: drop them from ENTRY_POINTS"


def _unread_imports(path: Path) -> list[str]:
    """The names a module imports and never loads, skipping __future__
    imports and lines marked "# noqa: F401" (an import for its effect)."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            if local not in loaded:
                unread.append(f"{path.relative_to(TESTS.parent)}: {local}")
    return unread


def test_every_imported_name_is_read():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [name for path in paths for name in _unread_imports(path)] == []


def test_readme_library_use_block_runs_as_printed():
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, re.S)
    proc = subprocess.run(
        [sys.executable, "-c", block],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    dim, conformity, beta, merged = proc.stdout.split()
    assert (dim, conformity, merged) == ("72", "pass", "pass")
    assert float(beta) > 0
