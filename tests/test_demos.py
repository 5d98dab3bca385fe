"""The demos take about a minute to run, so this only checks that every name
they take from the package still exists."""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def package_names(tree):
    """(module, name) for every `<alias>.name` on an alias of an imported
    tangentflats module and every `from tangentflats... import name`."""
    aliases, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "tangentflats":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "tangentflats":
            names += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            names.append((aliases[node.value.id], node.attr))
    return names


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(demo):
    names = package_names(ast.parse(demo.read_text()))
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
