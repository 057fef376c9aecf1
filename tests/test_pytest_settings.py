"""The repo's pytest settings: every warning is an error, yet a failing
hypothesis test is reported as one failure and the run goes on."""
import subprocess
import sys
from pathlib import Path

from conftest import SRC

INI = Path(SRC).parent / "pyproject.toml"

PLANTED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import; as
    # an error inside pytest's report hook that warning ended the whole run
    # with INTERNALERROR (exit 3) before test_after ran
    (tmp_path / "test_planted.py").write_text(PLANTED, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "-rA", "test_planted.py"],
        cwd=tmp_path, capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "PASSED test_planted.py::test_after" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
