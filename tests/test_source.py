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
