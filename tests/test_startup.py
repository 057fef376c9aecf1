"""Import cost per command: each CLI command loads only the recurra modules
it runs, and the package namespace resolves its public names on first use
with the same objects as their home modules."""
import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import recurra

from conftest import SRC

# The package's public names by home module.
EXPORTS = {
    "ringcore": ["BrokenIdentity", "Matrix", "ModulusMismatch", "NotInvertible", "Residue",
                 "ShapeMismatch", "multiplicative_order"],
    "recurrence": ["SequenceSpec", "addition_formula", "bordered_det", "companion",
                   "power_structure_check", "state_step_check", "term", "term_mod",
                   "term_negative", "window_det"],
    "pisano": ["DiagnosisResult", "PeriodResult", "diagonalizable_mod_p",
               "matrix_order", "prime_power_ladder", "state_period"],
    "cipher": ["Alphabet", "BadCoefficient", "BadShape", "CipherKey", "DegenerateExponent",
               "UnknownSymbol", "decrypt", "decrypt_text", "encrypt", "encrypt_text",
               "normalize_exponent"],
    "lnumbers": ["LSpec", "l_term", "m_value"],
    "quaternions": ["QuatAlgebra", "Quaternion", "l_quaternion"],
}
# __all__ holds the 40 names in sorted order
ALL = sorted(name for names in EXPORTS.values() for name in names)
LIBRARY = {"cipher", "lnumbers", "ntheory", "pisano", "quaternions", "recurrence", "ringcore",
           "verify"}

# Runs `recurra ARGS...` through runpy in this fresh interpreter, then writes
# every module it loaded, recurra's and the standard library's, and the keys
# of the kernels recurrence compiled, to OUT as JSON: python -c PROBE OUT ARGS...
PROBE = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["recurra", *sys.argv[2:]]
try:
    runpy.run_module("recurra.cli", run_name="__main__")
except SystemExit:
    pass
engine = sys.modules.get("recurra.recurrence")
with open(out, "w") as fh:
    json.dump({"modules": sorted(sys.modules),
               "kernels": sorted(engine._kernels) if engine else []}, fh)
"""


def probe(tmp_path, *argv, stdin: str = "") -> dict:
    out = tmp_path / "probe.json"
    subprocess.run([sys.executable, "-c", PROBE, str(out), *argv], cwd=tmp_path,
                   input=stdin.encode(), capture_output=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return json.loads(out.read_text())


def modules_after(tmp_path, *argv, stdin: str = "") -> set[str]:
    return set(probe(tmp_path, *argv, stdin=stdin)["modules"])


def loaded_by(tmp_path, *argv, stdin: str = "") -> set[str]:
    """The recurra submodules `recurra ARGS...` loads."""
    return {m[8:] for m in modules_after(tmp_path, *argv, stdin=stdin)
            if m.startswith("recurra.")}


# The number theory (ntheory: primality, factoring, orders) loads only where
# an order or a period is taken: these pins name it wherever it loads.
def test_cipher_commands_load_no_period_or_sequence_modules(tmp_path):
    (tmp_path / "key.txt").write_text("3 27 4 -5 2 2\n")
    cipher_only = {"cipher", "recurrence", "ringcore"}
    assert loaded_by(tmp_path, "encrypt", "--key", "key.txt", stdin="SUCCESS**") == cipher_only
    assert loaded_by(tmp_path, "decrypt", "--key", "key.txt", stdin="QDSNYCTVS") == cipher_only
    assert loaded_by(tmp_path, "validate-key", "--key", "key.txt") == cipher_only
    assert loaded_by(tmp_path, "validate-key", "--key", "key.txt",
                     "--normalize") == cipher_only | {"pisano", "ntheory"}


@pytest.mark.parametrize("argv, expected", [
    (("order", "2", "--mod", "27"), {"ringcore", "ntheory"}),
    (("seq", "1", "1", "--n", "10"), {"recurrence", "ringcore"}),
    (("seq", "1", "1", "--n", "10", "--mod", "7"), {"recurrence", "ringcore"}),
    (("pisano", "1", "1", "--mod", "10"), {"pisano", "ntheory", "recurrence", "ringcore"}),
    (("lnum", "2", "--n", "7"), {"lnumbers", "recurrence", "ringcore"}),
    (("quat", "3", "--n", "4"),
     {"quaternions", "lnumbers", "ntheory", "recurrence", "ringcore"}),
    (("verify", "--suite", "matrix"), LIBRARY),
    (("--help",), set()),
    (("lnum", "2", "--n", "7", "--mod", "5"), {"lnumbers", "recurrence", "ringcore"}),
])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, expected):
    assert loaded_by(tmp_path, *argv) == expected


# Standard-library modules that cost start-up time and that no command
# needs: dataclasses (with inspect behind it), fractions (with decimal),
# string, and the process-pool machinery (multiprocessing, pickle,
# concurrent.futures), which verify's forked workers do without.  Only
# verify, which checks rational identities, may load fractions, and
# decimal through it.
@pytest.mark.parametrize("argv, allowed", [
    (("order", "2", "--mod", "27"), set()),
    (("seq", "1", "1", "--n", "10"), set()),
    (("seq", "1", "1", "--n", "10", "--mod", "7"), set()),
    (("pisano", "1", "1", "--mod", "10"), set()),
    (("pisano", "1", "2", "--mod", "4", "--state"), set()),
    (("pisano", "4", "-5", "2", "--ladder", "3", "3"), set()),
    (("lnum", "2", "--n", "7"), set()),
    (("lnum", "2", "--n", "7", "--mod", "5"), set()),
    (("quat", "3", "--r", "2", "--n", "10"), set()),
    (("encrypt", "--key", "key.txt"), set()),
    (("decrypt", "--key", "key.txt", "--strip-pad"), set()),
    (("validate-key", "--key", "key.txt", "--normalize"), set()),
    (("verify", "--suite", "matrix"), {"fractions", "decimal"}),
    (("verify", "--suite", "all"), {"fractions", "decimal"}),
])
def test_no_command_loads_dataclasses_or_fractions(tmp_path, argv, allowed):
    (tmp_path / "key.txt").write_text("3 27 4 -5 2 2\n")
    loaded = modules_after(tmp_path, *argv, stdin="SUCCESS**")
    assert "recurra.ringcore" in loaded
    assert {"dataclasses", "inspect", "fractions", "decimal", "string", "multiprocessing",
            "pickle", "concurrent.futures"} & loaded == allowed


# The recurrence engine compiles its kernels on first use (see
# recurrence._kernel).  The prefix commands step a window and take no power,
# so they compile the one step kernel they run and no product kernel.
@pytest.mark.parametrize("argv, kernels", [
    (("seq", "1", "1", "--n", "10"), [["steps", 2, False]]),
    (("seq", "1", "1", "--n", "10", "--mod", "7"), [["steps", 2, True]]),
    (("seq", "1", "2", "3", "--n", "10", "--initial", "1", "1", "1"), [["steps", 3, False]]),
    (("lnum", "2", "--n", "7"), [["steps", 2, False]]),
    (("lnum", "2", "--n", "7", "--mod", "5"), [["steps", 2, True]]),
])
def test_prefix_commands_compile_no_product_kernel(tmp_path, argv, kernels):
    assert probe(tmp_path, *argv)["kernels"] == kernels


def test_compiling_kernels_loads_no_module():
    code = """
import sys
from recurra import recurrence
before = set(sys.modules)
for k in range(2, recurrence._KERNEL_K_MAX + 1):
    for modular in (False, True):
        recurrence._kernel("products", k, modular)
        recurrence._kernel("steps", k, modular)
print(len(recurrence._kernels), sorted(set(sys.modules) - before))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120, check=True)
    assert proc.stdout == f"{4 * (recurra.recurrence._KERNEL_K_MAX - 1)} []\n"


def test_importing_the_package_loads_no_submodule():
    code = "import recurra, sys; print(sorted(m for m in sys.modules if m.startswith('recurra')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120, check=True)
    assert proc.stdout == "['recurra']\n"


def test_namespace_names_are_their_home_module_objects():
    assert recurra.__all__ == ALL and len(ALL) == 40
    for module, names in EXPORTS.items():
        home = import_module(f"recurra.{module}")
        assert getattr(recurra, module) is home
        for name in names:
            assert getattr(recurra, name) is getattr(home, name), name
    assert recurra.__version__ == "0.1.0"


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from recurra import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ALL
    assert all(namespace[name] is getattr(recurra, name) for name in ALL)
    listed = dir(recurra)
    assert set(ALL) | set(EXPORTS) <= set(listed) and listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'recurra' has no attribute 'nope'"):
        recurra.nope
    assert not hasattr(recurra, "verify_all")
    with pytest.raises(ImportError):
        exec("from recurra import nope", {})
