"""Every module-level import in the package and the scripts is used.

A name that a module imports and never reads is left over from code that
moved or went away.  The check is plain `ast`: a module-level import binds
a name, and some expression or annotation of the module must name it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "kwbias").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each binding a top-level import statement makes."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    """Every name an expression or annotation of the module mentions."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in read]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("from dataclasses import dataclass, field\nimport os.path\n\n@dataclass\nclass A:\n    x: int\n")
    bound = _imported(tree)
    assert bound == {"dataclass": 1, "field": 1, "os": 2}
    assert {name for name in bound if name not in _read(tree)} == {"field", "os"}
