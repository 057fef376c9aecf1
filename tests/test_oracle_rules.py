"""The rules that keep the tests' references single and independent, read
off the source of tests/*.py: oracles.py imports nothing from recurra and
is the only module that defines a naive_* or poly_* function, no helper or
fixture is defined in two files, and no module imports a test module."""
import ast
from collections import defaultdict
from pathlib import Path

MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(__file__).parent.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_each_reference_helper_and_fixture_is_defined_once():
    assert "oracles.py" in MODULES and "conftest.py" in MODULES
    assert [name for name in imports(MODULES["oracles.py"])
            if name.split(".")[0] == "recurra"] == []
    assert [(file, node.name) for file, tree in MODULES.items() if file != "oracles.py"
            for node in ast.walk(tree)
            if isinstance(node, FUNCTIONS) and node.name.startswith(("naive_", "poly_"))] == []
    files = defaultdict(list)
    for file, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS) and not node.name.startswith("test_"):
                files[node.name].append(file)
    assert {name: where for name, where in files.items() if len(where) > 1} == {}
    assert [(file, name) for file, tree in MODULES.items()
            for name in imports(tree) if name.startswith("test_")] == []
