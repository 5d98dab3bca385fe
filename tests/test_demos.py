"""Every name the demos take from the package still exists and every call
they make to a package function binds to its signature.  All seven demos
take about 6 s to run, so only demo 06, which calls the tangent-line
solvers on stacks of systems, also runs in full (about 1 s)."""
import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def package_imports(tree):
    """Aliases of imported tangentflats modules, and (module, name) for each
    name imported from one, keyed by its local name."""
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "tangentflats":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "tangentflats":
            for a in node.names:
                imported[a.asname or a.name] = (node.module, a.name)
    return aliases, imported


def package_names(tree):
    """(module, name) for every `<alias>.name` on an alias of an imported
    tangentflats module and every `from tangentflats... import name`."""
    aliases, imported = package_imports(tree)
    names = list(imported.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            names.append((aliases[node.value.id], node.attr))
    return names


def package_calls(tree):
    """(module, name, call) for every call of `<alias>.name(...)` or of a name
    imported from the package."""
    aliases, imported = package_imports(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in aliases:
            calls.append((aliases[func.value.id], func.attr, node))
        elif isinstance(func, ast.Name) and func.id in imported:
            calls.append((*imported[func.id], node))
    return calls


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(demo):
    names = package_names(ast.parse(demo.read_text()))
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind_to_the_package_signatures(demo):
    calls = package_calls(ast.parse(demo.read_text()))
    assert calls
    unbound = []
    for module, name, call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or \
                any(k.arg is None for k in call.keywords):
            continue                # the argument count is not known here
        signature = inspect.signature(getattr(importlib.import_module(module), name))
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {name}{signature}: {exc}")
    assert unbound == []


def test_tangent_line_demo_runs():
    # a scalar passed where a stack is expected binds to the signature, so
    # demo 06 runs in a subprocess, on the package under test
    demo = next(d for d in DEMOS if d.name.startswith("06_"))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(demo.parent.parent / "src")})
    assert done.returncode == 0, done.stderr
    assert "max over 25 draws:" in done.stdout
