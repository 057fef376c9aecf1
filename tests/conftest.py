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
    """run(*argv, cap_mb=..., cpu_s=None, stdin="") runs `python -m
    recurra.cli *argv` on stdin in a child whose address space (RLIMIT_AS)
    is capped at cap_mb megabytes and, when cpu_s is given, whose CPU time
    (RLIMIT_CPU) is capped at cpu_s seconds, each at the hard limit if that
    is lower.  Both are set in the child before it starts Python.  Returns
    the CompletedProcess with its output as text; the child's stdin and
    stdout are UTF-8.  A child past its CPU cap is killed by SIGXCPU, so
    its returncode is negative."""
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_AS caps the address space on Linux only")
    import resource

    def capped(kind, value):
        hard = resource.getrlimit(kind)[1]
        return value if hard == resource.RLIM_INFINITY else min(value, hard)

    def run(*argv, cap_mb: int, cpu_s: int | None = None, stdin: str = "",
            timeout: float = 120) -> subprocess.CompletedProcess:
        cap = capped(resource.RLIMIT_AS, cap_mb << 20)
        cpu = None if cpu_s is None else capped(resource.RLIMIT_CPU, cpu_s)

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            if cpu is not None:
                resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))

        return subprocess.run([sys.executable, "-m", "recurra.cli", *argv], input=stdin,
                              capture_output=True, encoding="utf-8", timeout=timeout,
                              preexec_fn=limit,
                              env=dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=SRC))

    return run
