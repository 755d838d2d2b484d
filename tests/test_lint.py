"""Static checks on the package source, with the standard library's ast.

- No `assert` statements: `python -O` strips them, so internal checks
  raise named errors instead.
- No unused imports.
"""

import ast
from pathlib import Path

import pytest

import mvee

SOURCES = sorted(Path(mvee.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, f"{path.name}: assert on lines {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"
