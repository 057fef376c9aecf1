"""The library's rule for a broken identity, read off the source of
src/recurra: a function that checks an identity on its own result raises
BrokenIdentity, and verify's runner, _run_checks, is the one place that
catches it.  Only ntheory raises a plain ArithmeticError (a factoring
bound spent, a multiple that is no multiple of the order), which ends a
verify run instead of failing a check."""
import ast
from pathlib import Path

from conftest import SRC

MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(SRC, "recurra").glob("*.py"))}


def raised(tree):
    """The names of the exceptions that tree's raise statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_only_ntheory_raises_a_plain_arithmetic_error():
    assert "ArithmeticError" in raised(MODULES["ntheory"])
    assert [name for name, tree in MODULES.items()
            if name != "ntheory" and "ArithmeticError" in raised(tree)] == []


def test_verify_catches_a_broken_identity_in_its_runner_only():
    catching = []
    for function in ast.walk(MODULES["verify"]):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if (isinstance(node, ast.ExceptHandler) and node.type is not None
                        and {"ArithmeticError", "BrokenIdentity"} & {
                            name.id for name in ast.walk(node.type)
                            if isinstance(name, ast.Name)}):
                    catching.append(function.name)
    assert catching == ["_run_checks"]
