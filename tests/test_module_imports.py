"""No module of the package reaches into another one's private names.

A name with a leading underscore is private to its module; a sibling that
imports it (``from .tensors import _weights``) couples the two through a
name neither module's public surface admits to. This parses every module
under ``src/blochbounds`` and fails on any such import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blochbounds"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").startswith("blochbounds")
        for alias in node.names:
            if sibling and alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_every_module_is_parsed():
    assert {p.stem for p in MODULES} >= {"bounds", "tensors", "linalg"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_from_a_sibling(path):
    assert list(_private_imports(path)) == []
