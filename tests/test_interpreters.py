"""The README's CLI examples under each interpreter the package supports
(pyproject.toml requires Python >= 3.10): python3.10, python3.12 and
python3.13 from PATH, each skipped when it is missing or does not run."""
import json
import os
import shutil
import subprocess

import pytest

from conftest import SRC

QUAT_3_2_10 = ("0 0 1 3 1 2 unit\n1 1 3 1 6 2 unit\n2 3 1 6 1 2 unit\n3 1 6 1 0 2 unit\n"
               "4 6 1 0 1 2 unit\n5 1 0 1 3 2 unit\n6 0 1 3 1 2 unit\n7 1 3 1 6 2 unit\n"
               "8 3 1 6 1 2 unit\n9 1 6 1 0 2 unit\n10 6 1 0 1 2 unit\n")

# argv, stdin, stdout; key.txt holds the README key
EXAMPLES = [
    (["seq", "1", "1", "--n", "10"], "", "0 1 1 2 3 5 8 13 21 34 55\n"),
    (["seq", "4", "-5", "2", "--n", "8", "--mod", "9"], "", "0 0 1 4 2 8 3 3 4\n"),
    (["pisano", "1", "1", "1", "--mod", "2"], "", "4\n"),
    (["pisano", "1", "2", "--mod", "4", "--state"], "", "2 2\n"),
    (["pisano", "4", "-5", "2", "--ladder", "3", "3"], "", "6 18 54\n"),
    (["order", "2", "--mod", "27"], "", "18\n"),
    (["lnum", "2", "--n", "7"], "", "0 1 2 5 12 29 70 169\n"),
    (["quat", "3", "--r", "2", "--n", "10"], "", QUAT_3_2_10),
    (["encrypt", "--key", "key.txt"], "SUCCESS**", "QDSNYCTVS\n"),
    (["decrypt", "--key", "key.txt"], "QDSNYCTVS", "SUCCESS**\n"),
    (["decrypt", "--key", "key.txt", "--strip-pad"], "QDSNYCTVS", "SUCCESS\n"),
    (["validate-key", "--key", "key.txt", "--normalize"], "", "ok 3 27 4 -5 2 2\n"),
]

# Runs each [argv, stdin] of the JSON list in argv[1] through cli.main and
# prints the interpreter's version and each [exit code, stdout] as JSON.
DRIVER = """
import io, json, sys
from contextlib import redirect_stdout
from recurra.cli import main
results = []
for argv, stdin in json.loads(sys.argv[1]):
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps([list(sys.version_info[:2]), results]))
"""


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_readme_examples_under(version, tmp_path):
    exe = shutil.which(f"python{version}")
    if exe is None or subprocess.run([exe, "-c", ""], capture_output=True,
                                     timeout=60).returncode != 0:
        pytest.skip(f"python{version} is missing or does not run")
    (tmp_path / "key.txt").write_text("3 27 4 -5 2 2\n")
    cases = json.dumps([[argv, stdin] for argv, stdin, _ in EXAMPLES])
    proc = subprocess.run([exe, "-c", DRIVER, cases], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"))
    ran, results = json.loads(proc.stdout)
    assert ran == [int(part) for part in version.split(".")]
    assert results == [[0, stdout] for _, _, stdout in EXAMPLES]
