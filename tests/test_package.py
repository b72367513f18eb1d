"""Package structure: every name one module takes from another is public."""

import ast
from pathlib import Path

import remotehom

MODULES = sorted(Path(remotehom.__file__).parent.glob("*.py"))


def private_relative_imports(path: Path) -> list[str]:
    """`module.name` for every `_`-prefixed name a relative import in `path` brings in."""
    return [f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_of_another():
    assert len(MODULES) > 1
    found = {p.name: names for p in MODULES if (names := private_relative_imports(p))}
    assert found == {}
