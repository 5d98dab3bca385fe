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
    # the cached start systems are solved on first use, never at import
    code = ("import tangentflats.cli; from tangentflats import tangency; print("
            "tangency._sphere_start.cache_info().currsize, "
            "tangency._quadric_start.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.split() == ["0", "0"]


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


def test_lost_paths_are_raised_only_by_the_single_attempt_hook():
    # every solve gives one SolutionSet per trial, whose `failed` counts its
    # lost paths; only tangency._solve_once, one attempt for perfbench's
    # tracer, raises on it, and no caller tells results apart by their type
    built, tested = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls = [node for node in ast.walk(top) if isinstance(node, ast.Call)]
            built += [f"{path.stem}.{getattr(top, 'name', '<module>')}" for node in calls
                      if ast.unparse(node.func).split(".")[-1] == "PathFailureError"]
            tested += [f"{path.name}:{node.lineno}" for node in calls
                       if ast.unparse(node.func) == "isinstance" and len(node.args) == 2
                       and "PathFailureError" in ast.unparse(node.args[1])]
    assert built == ["tangency._solve_once"], built
    assert not tested, f"isinstance(..., PathFailureError) at {tested}"
