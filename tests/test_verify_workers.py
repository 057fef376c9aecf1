"""verify's suites in forked workers against the same suites run in turn in
this process: the same stdout, the same errors and exit codes, and no
worker left unreaped.  The CPU count is set by patching the affinity call,
so both paths run on any machine that has fork."""
import os
import subprocess
import sys
import threading
import time

import pytest

from recurra import cli, verify
from recurra.cipher import BadShape

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def no_worker_left_behind():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def verify_both_ways(capsys, monkeypatch, forks, *argv):
    """(code, stdout, stderr) of `recurra verify ARGV` with workers on two
    CPUs, then in this process on one."""
    runs = []
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        before = len(forks)
        code = cli.main(["verify", *argv])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
        assert (len(forks) > before) == (cpus == 2)
    return runs


@pytest.mark.parametrize("seed", range(12))
def test_workers_print_what_the_in_process_run_prints(capsys, monkeypatch, forks, seed):
    workers, in_process = verify_both_ways(capsys, monkeypatch, forks,
                                           "--suite", "all", "--seed", str(seed))
    assert workers == in_process
    code, out, err = workers
    assert code == 0 and err == "" and out.endswith(" checks\n")
    lines = out.splitlines()
    assert len(set(lines)) == len(lines) == 40


def test_cli_subprocess_matches_the_in_process_run(capsys, monkeypatch):
    proc = subprocess.run([sys.executable, "-m", "recurra.cli", "verify", "--suite", "all",
                           "--seed", "0"], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    set_cpus(monkeypatch, 1)
    code = cli.main(["verify", "--suite", "all", "--seed", "0"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, capsys.readouterr().out, "")


# Output the parent buffered before forking is written once: the workers
# leave by os._exit and never flush their copy of it.
BUFFERED_THEN_VERIFY = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
print("printed before the workers")
from recurra import cli
sys.exit(cli.main(["verify", "--suite", "all", "--seed", "3"]))
"""


def test_output_buffered_before_the_fork_is_written_once(capsys, monkeypatch):
    proc = subprocess.run([sys.executable, "-c", BUFFERED_THEN_VERIFY], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    set_cpus(monkeypatch, 1)
    cli.main(["verify", "--suite", "all", "--seed", "3"])
    expected = "printed before the workers\n" + capsys.readouterr().out
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


@pytest.mark.parametrize("exc_type, code", [
    (ArithmeticError, 3), (ZeroDivisionError, 3), (ValueError, 2), (BadShape, 2),
])
def test_a_check_that_raises_gives_the_same_error_and_exit_code(
        capsys, monkeypatch, forks, exc_type, code):
    def raises(spec, n, k):
        raise exc_type("gap identity broke")

    monkeypatch.setattr("recurra.lnumbers.gap_identity_check", raises)
    workers, in_process = verify_both_ways(capsys, monkeypatch, forks, "--suite", "all")
    assert workers == in_process == (code, "", "error: gap identity broke\n")
    # rebuilt with the same type, not only the same exit code
    set_cpus(monkeypatch, 2)
    with pytest.raises(exc_type) as info:
        verify.run_suites(list(verify.SUITES), 0)
    assert type(info.value) is exc_type


def test_the_first_suite_in_order_that_raises_wins(capsys, monkeypatch, forks):
    # quat's worker raises first; matrix's, earlier in the order, later
    def matrix_raises(spec, m, n):
        time.sleep(0.3)
        raise ValueError("from the matrix suite")

    def quat_raises(l, n):
        raise ArithmeticError("from the quat suite")

    monkeypatch.setattr("recurra.recurrence.addition_formula", matrix_raises)
    monkeypatch.setattr("recurra.quaternions.l_quat_norm_check", quat_raises)
    workers, in_process = verify_both_ways(capsys, monkeypatch, forks, "--suite", "all")
    assert workers == in_process == (2, "", "error: from the matrix suite\n")


def test_a_spent_budget_cuts_the_run_after_the_first_suite(capsys, monkeypatch, forks):
    workers, in_process = verify_both_ways(capsys, monkeypatch, forks,
                                           "--suite", "all", "--budget", "0")
    assert workers == in_process == (1, "PASS matrix.residue_inverse\n"
                                        "FAIL matrix.budget budget of 0 ms exhausted\n"
                                        "FAILED 1/2 checks\n", "")


# A worker that ends mid-suite without reporting, in a fresh interpreter so
# that a hang is caught by the timeout.
WORKER_DIES = """
import os, signal, sys
os.sched_getaffinity = lambda pid: {0, 1}
from recurra import cli, lnumbers
lnumbers.gap_identity_check = lambda spec, n, k: %s
sys.exit(cli.main(["verify", "--suite", "all", "--seed", "0"]))
"""


@pytest.mark.parametrize("ending, how", [
    ("os._exit(7)", "exit code 7"),
    ("os.kill(os.getpid(), signal.SIGKILL)", "signal 9"),
])
def test_a_worker_that_dies_gives_a_one_line_error(ending, how):
    proc = subprocess.run([sys.executable, "-c", WORKER_DIES % ending], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: the worker for verify suite 'lnum' ended with {how} " \
                          "before reporting\n"


def test_workers_need_several_suites_several_cpus_and_no_other_thread(monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    verify.run_suites(["lnum"], 0)
    assert forks == []
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        verify.run_suites(["lnum", "quat"], 0)
        assert forks == []
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    verify.run_suites(["lnum", "quat"], 0)
    assert len(forks) == 2
    set_cpus(monkeypatch, 1)
    verify.run_suites(["lnum", "quat"], 0)
    assert len(forks) == 2


def test_one_worker_per_cpu_at_a_time(monkeypatch, forks):
    # five suites on two CPUs: a suite starts only when a worker has ended
    set_cpus(monkeypatch, 2)
    running, most = [0], [0]
    spy_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        pid = spy_fork()
        if pid:
            running[0] += 1
            most[0] = max(most[0], running[0])
        return pid

    def waitpid(pid, options):
        status = real_waitpid(pid, options)
        running[0] -= pid in forks
        return status

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    results = verify.run_suites(list(verify.SUITES), 5)
    assert len(results) == 39 and all(r.passed for r in results)
    assert (len(forks), most[0], running[0]) == (5, 2, 0)
