"""Fixtures and helpers the test modules share, each defined once: the
path of the package's source, child processes under caps, the engine
checkers that compare an order or a window period with the oracle, the
oracle's census as a report, a seeded unit-spec draw, and verify's
planted matrix-power fault.  Test modules import the plain helpers from
here and never from each other."""
import os
import random
import subprocess
import sys
from math import gcd

import pytest

from recurra import ringcore, verify
from recurra.pisano import matrix_order, state_period
from recurra.quaternions import CensusRecord, CensusReport
from recurra.recurrence import SequenceSpec

from oracles import (exact_census, naive_is_matrix_order, naive_is_window_orbit,
                     naive_matrix_order, naive_state_period)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Orders and window orbits longer than this are checked by certificate
# instead of by walking.
WALK_CAP = 3000


def check_order(coeffs, m):
    """matrix_order of the spec coeffs mod m, asserted equal to a walk of
    D's powers or, past WALK_CAP, certified by the oracle; returned."""
    got = matrix_order(SequenceSpec(coeffs), m)
    try:
        assert got == naive_matrix_order(coeffs, m, cap=WALK_CAP), (coeffs, m)
    except RuntimeError:
        assert got > WALK_CAP and naive_is_matrix_order(coeffs, m, got), (coeffs, m)
    return got


def check_window_period(coeffs, m, initial=None):
    """state_period's (tail, period) for the spec coeffs from the window
    initial mod m, asserted equal to a walk of the windows or, past
    WALK_CAP windows, certified by the oracle; returned."""
    got = state_period(SequenceSpec(coeffs, initial), m).as_tuple()
    try:
        assert got == naive_state_period(coeffs, m, initial, cap=WALK_CAP), (
            coeffs, m, initial)
    except RuntimeError:
        assert sum(got) > WALK_CAP and naive_is_window_orbit(coeffs, m, *got, initial), (
            coeffs, m, initial)
    return got


def census_of(l, r, n_max):
    """The oracle's exact_census as the CensusReport invertibility_census returns."""
    return CensusReport(l, r, tuple(CensusRecord(*rec) for rec in exact_census(l, r, n_max)))


def random_unit_spec(rng, m, kmax=4, amax=4):
    """verify.random_spec(rng, kmax, amax), drawn again until gcd(a_k, m) = 1."""
    while True:
        spec = verify.random_spec(rng, kmax, amax)
        if gcd(spec.coeffs[-1], m) == 1:
            return spec


def suite_draws_after(name, seed):
    """rng.getrandbits(64) once verify's suite name has drawn all it draws
    at seed."""
    rng = random.Random(f"{seed}:{name}")
    for _ in verify.SUITES[name](rng):
        pass
    return rng.getrandbits(64)


@pytest.fixture
def wrong_pow(monkeypatch):
    """D^n with a wrong bottom-left entry whenever n = 3 mod 5."""
    real_pow = ringcore.Matrix.__pow__

    def wrong(self, n):
        out = real_pow(self, n)
        if n % 5 != 3:
            return out
        rows = [list(row) for row in out.entries]
        rows[-1][0] += 1
        return ringcore.Matrix(rows, out.modulus)

    monkeypatch.setattr(ringcore.Matrix, "__pow__", wrong)


@pytest.fixture(autouse=True)
def no_worker_left_behind():
    """Every child a test starts, verify's forked workers among them, is
    reaped by the time the test ends."""
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def capped_python():
    """run(*args, cap_mb=..., cpu_s=None, stdin="") runs `python *args` on
    stdin, with src on its path, in a child whose address space
    (RLIMIT_AS) is capped at cap_mb megabytes and, when cpu_s is given,
    whose CPU time (RLIMIT_CPU) is capped at cpu_s seconds, each at the
    hard limit if that is lower.  Both are set in the child before it
    starts Python.  Returns the CompletedProcess with its output as text;
    the child's stdin and stdout are UTF-8.  A child past its CPU cap is
    killed by SIGXCPU, so its returncode is negative."""
    if not sys.platform.startswith("linux"):
        pytest.skip("RLIMIT_AS caps the address space on Linux only")
    import resource

    def capped(kind, value):
        hard = resource.getrlimit(kind)[1]
        return value if hard == resource.RLIM_INFINITY else min(value, hard)

    def run(*args, cap_mb: int, cpu_s: int | None = None, stdin: str = "",
            timeout: float = 120) -> subprocess.CompletedProcess:
        cap = capped(resource.RLIMIT_AS, cap_mb << 20)
        cpu = None if cpu_s is None else capped(resource.RLIMIT_CPU, cpu_s)

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            if cpu is not None:
                resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))

        return subprocess.run([sys.executable, *args], input=stdin,
                              capture_output=True, encoding="utf-8", timeout=timeout,
                              preexec_fn=limit,
                              env=dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=SRC))

    return run


@pytest.fixture
def capped_cli(capped_python):
    """run(*argv, cap_mb=..., cpu_s=None, stdin="") runs `python -m
    recurra.cli *argv` as capped_python does."""
    return lambda *argv, **caps: capped_python("-m", "recurra.cli", *argv, **caps)
