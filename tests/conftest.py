import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def no_worker_left_behind():
    """Every child a test starts, verify's forked workers among them, is
    reaped by the time the test ends."""
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def capped_cli():
    """run(*argv, cap_mb=...) runs `python -m recurra.cli *argv` in a child
    whose address space (RLIMIT_AS, set in the child before it starts
    Python) is capped at cap_mb megabytes, or at the hard limit if that is
    lower, and returns the CompletedProcess with text output."""
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_AS caps the address space on Linux only")
    import resource
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]

    def run(*argv, cap_mb: int, timeout: float = 120) -> subprocess.CompletedProcess:
        cap = cap_mb << 20 if hard == resource.RLIM_INFINITY else min(cap_mb << 20, hard)

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        return subprocess.run([sys.executable, "-m", "recurra.cli", *argv],
                              capture_output=True, text=True, timeout=timeout,
                              preexec_fn=limit, env=dict(os.environ, PYTHONPATH=SRC))

    return run
