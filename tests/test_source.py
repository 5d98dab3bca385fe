"""Guards on the package source itself."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tangentflats"


def unoptimized_einsums(source: str) -> list[int]:
    """Lines of einsum calls with three or more operands and no optimize=:
    numpy then loops over every index combination, which is many times
    slower than the same contraction as matmuls."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name == "einsum" and len(node.args) >= 4 and \
                not any(kw.arg == "optimize" for kw in node.keywords):
            lines.append(node.lineno)
    return lines


def test_guard_flags_only_unoptimized_multi_operand_einsums():
    assert unoptimized_einsums("np.einsum('ni,ij,nj->n', x, A, x)") == [1]
    assert unoptimized_einsums("einsum('i,i,i->', x, y, z)") == [1]
    assert unoptimized_einsums(
        "np.einsum('ni,ij,nj->n', x, A, x, optimize=True)") == []
    assert unoptimized_einsums("np.einsum('ni,ni->n', x, y)") == []


def test_no_unoptimized_multi_operand_einsum_in_the_package():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}" for path in paths
             for line in unoptimized_einsums(path.read_text())]
    assert not found, f"multi-operand einsum without optimize= at {found}"


def test_cli_imports_neither_scipy_nor_multiprocessing():
    # both took most of the CLI's start-up time; the pool is imported only
    # when a command runs with several workers
    code = ("import sys, tangentflats.cli; print(' '.join(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.split() == []


def test_cli_import_solves_no_start_system():
    # the cached start system is solved, and the sphere route's index tables
    # are built, on first use, never at import
    code = ("import tangentflats.cli; from tangentflats import tangency; print("
            "tangency._sphere_tables.cache_info().currsize, "
            "tangency._quadric_start.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.split() == ["0", "0"]


def scipy_imports(source: str) -> list[int]:
    """Lines of import statements anywhere in the source, at top level or
    inside a function, that import scipy or one of its submodules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_guard_flags_scipy_imports_at_any_depth():
    assert scipy_imports("import scipy") == [1]
    assert scipy_imports("def f():\n    from scipy.linalg import solve_triangular") == [2]
    assert scipy_imports("import numpy as np, scipy.special as sp") == [1]
    assert scipy_imports("from . import scipy_free\nimport numpy") == []


def test_no_module_in_the_package_imports_scipy():
    # scipy is a test dependency only: a lazy import inside a function would pass
    # the import-time check above and fail only where scipy is missing
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}" for path in paths
             for line in scipy_imports(path.read_text())]
    assert not found, f"scipy imported at {found}"


def test_every_function_the_benchmark_tracer_hooks_exists(monkeypatch):
    # perfbench/tracer.py wraps these names from outside; a deleted or renamed
    # one would leave its per-layer metrics silently at 0
    import importlib
    import importlib.util
    perfbench = SRC.parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))             # its `import stats`
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  perfbench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.FUNCTIONS
               if not hasattr(importlib.import_module(f"tangentflats.{module}"), attr)]
    missing += [f"{module}.{cls}.{attr}" for module, cls, attr, _ in tracer.METHODS
                if not hasattr(getattr(importlib.import_module(f"tangentflats.{module}"),
                                       cls, None), attr)]
    assert tracer.FUNCTIONS and tracer.METHODS
    assert not missing, f"hooked by perfbench/tracer.py but missing: {missing}"


def test_cli_refusals_and_reports_go_through_main():
    # every exception cli.py raises has an exit code in EXIT_CODES (argparse
    # turns its own type errors into exit 2 before main runs a command), and
    # only main emits a report, so one place decides how a command ends
    import builtins
    import functools
    from tangentflats import cli

    def resolve(name):
        head, *rest = name.split(".")
        return functools.reduce(getattr, rest, getattr(cli, head, None) or
                                getattr(builtins, head))

    tree = ast.parse((SRC / "cli.py").read_text())
    raised = {ast.unparse(node.exc.func) if isinstance(node.exc, ast.Call) else
              ast.unparse(node.exc) for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    unmapped = [name for name in sorted(raised - {"argparse.ArgumentTypeError"})
                if not issubclass(resolve(name), tuple(cli.EXIT_CODES))]
    assert raised and not unmapped, f"raised in cli.py but not in EXIT_CODES: {unmapped}"
    emitters = sorted({fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                       for node in ast.walk(fn) if isinstance(node, ast.Call)
                       and ast.unparse(node.func) == "emit"})
    assert emitters == ["main"], f"emit called from {emitters}"


def test_documented_exit_codes_are_the_ones_main_returns():
    # the module docstring lists each exit code; one with no producer in
    # EXIT_CODES, or one produced but not documented, fails here
    import re
    from tangentflats import cli
    listed = re.findall(r"\b(\d+) [a-z]", cli.__doc__.split("EXIT_CODES:")[1])
    assert {int(code) for code in listed} == {cli.EXIT_OK, *cli.EXIT_CODES.values()}, listed


def test_no_quadrature_or_check_takes_an_optional_none_argument():
    # every quadrature and check reads one SurfaceSample or IntrinsicProfile;
    # a None default would bring back a second path that samples again
    found = [f"{name}:{default.lineno}" for name in ("curvature.py", "intrinsic.py")
             for node in ast.walk(ast.parse((SRC / name).read_text()))
             if isinstance(node, ast.arguments)
             for default in node.defaults + node.kw_defaults
             if isinstance(default, ast.Constant) and default.value is None]
    assert not found, f"parameters defaulting to None at {found}"


def test_no_tangency_function_takes_a_bool_default():
    # the homotopy routes differ only in the start a solve is given; a bool
    # default would bring back a route flag, in the tracker or its callers
    found = [f"{name}:{default.lineno}" for name in ("tangency.py", "homotopy.py")
             for node in ast.walk(ast.parse((SRC / name).read_text()))
             if isinstance(node, ast.arguments)
             for default in node.defaults + node.kw_defaults
             if isinstance(default, ast.Constant) and isinstance(default.value, bool)]
    assert not found, f"parameters defaulting to a bool at {found}"


def imported_modules(name: str) -> set:
    """Last components of the modules a package file imports (`from . import
    x` counts as x)."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / name).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            imported |= {alias.name for alias in node.names} if not module else {module}
        elif isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[-1] for alias in node.names}
    return imported


def test_the_tracker_imports_nothing_of_the_lines_problem():
    # homotopy.py solves quadric systems of any shape; the tangency forms, the
    # bodies and the Schubert counts build on it, never the other way round
    lines_problem = {"tangency", "projective", "bodies", "schubert"}
    imported = imported_modules("homotopy.py")
    assert imported and not imported & lines_problem, imported & lines_problem


def test_the_delta_monte_carlo_imports_nothing_of_the_tracker():
    # schubert.py counts line transversals in closed form; the discard rule it
    # shares with tau lives in rng, so delta loads neither tracker module
    imported = imported_modules("schubert.py")
    assert imported and not imported & {"tangency", "homotopy"}, imported


def test_lost_paths_are_counted_never_raised():
    # every solve gives one SolutionSet per trial, whose `failed` counts its
    # lost paths; the tracker and the tangency solves raise only on bad input,
    # on too many discarded trials, and when the cached start is not regular
    allowed = {"ValueError", "BodyError", "DegenerateConfigurationError"}
    raised, other = [], []
    for name in ("homotopy.py", "tangency.py"):
        tree = ast.parse((SRC / name).read_text())
        built = {target.id: ast.unparse(node.value.func) for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                 for target in node.targets if isinstance(target, ast.Name)}
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Raise):
                    continue
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                kind = "re-raise" if exc is None else built.get(
                    ast.unparse(exc), ast.unparse(exc)).split(".")[-1]
                raised.append(kind)
                if kind not in allowed and (kind, getattr(top, "name", None)) != (
                        "RuntimeError", "_quadric_start"):
                    other.append(f"{name}:{node.lineno} raises {kind}")
    assert raised and not other, other
