"""Every public name of the package is read by code that is not a unit test.

A name counts as used when it is loaded (a name, an attribute or an import)
in a package module other than ``__init__.py``, a script, the benchmark, or
the release gate.  An export that only unit tests read is code the simulator
does not run.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

import evomerge

ROOT = Path(__file__).resolve().parent.parent


def _users() -> list[Path]:
    package = [p for p in sorted((ROOT / "src" / "evomerge").glob("*.py")) if p.name != "__init__.py"]
    return [
        *package,
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]


def _loaded_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_every_export_is_used_outside_unit_tests():
    exports = {name for name in evomerge.__all__ if not isinstance(getattr(evomerge, name), types.ModuleType)}
    used = set().union(*(_loaded_names(path) for path in _users()))
    assert sorted(exports - used) == []
