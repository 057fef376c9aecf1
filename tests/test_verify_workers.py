"""verify's one loop over the suites, with the first suite run in this
process and each later one in its own forked child, against the same
loop with every suite run in turn in this process: the same stdout, the
same errors and exit codes, and no child left unreaped (tests/conftest.py
checks that after every test).  The CPU count is set by patching the
affinity call, so both paths run on any machine that has fork."""
import os
import subprocess
import sys
import threading
import time

import pytest

from recurra import cli, verify
from recurra.cipher import BadShape

from conftest import SRC

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


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


def run_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=SRC))


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
    proc = run_python(BUFFERED_THEN_VERIFY)
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


@pytest.mark.parametrize("ending", ["raise", "death", "budget"])
def test_a_raise_a_death_or_a_spent_budget_kills_the_suites_still_running(
        monkeypatch, forks, ending):
    # pisano's child raises, dies or finds the deadline passed at its first
    # check while quat's sleeps for 30 s; the run ends once quat's is killed
    run_suite = verify._run_suite

    def sleepy(name, seed, deadline):
        if name == "quat":
            time.sleep(30)
        elif name == "pisano" and ending == "budget":
            deadline = 0
        return run_suite(name, seed, deadline)

    def raises(*args):
        raise ValueError("from the pisano suite")

    monkeypatch.setattr(verify, "_run_suite", sleepy)
    if ending == "raise":
        monkeypatch.setattr(verify, "random_unit_spec", raises)
    elif ending == "death":
        monkeypatch.setattr(verify, "random_unit_spec", lambda *args: os._exit(7))
    set_cpus(monkeypatch, 2)
    begun = time.monotonic()
    if ending == "raise":
        with pytest.raises(ValueError, match="from the pisano suite"):
            verify.run_suites(list(verify.SUITES), 0)
    elif ending == "death":
        with pytest.raises(RuntimeError, match="'pisano' ended with exit code 7"):
            verify.run_suites(list(verify.SUITES), 0)
    else:
        results = verify.run_suites(list(verify.SUITES), 0)
        assert [(r.suite, r.name) for r in results[-2:]] == [
            ("pisano", "state_divides_order"), ("pisano", "budget")]
        assert len(results) == 12
    assert time.monotonic() - begun < 10
    assert len(forks) == 4


def test_the_first_suite_runs_in_the_calling_process(monkeypatch, forks):
    # each suite records its name and pid as it starts; a child's record
    # stays in the child, so only the suites run here are seen
    ran_here = []
    run_suite = verify._run_suite

    def recording(name, seed, deadline):
        ran_here.append((name, os.getpid()))
        return run_suite(name, seed, deadline)

    monkeypatch.setattr(verify, "_run_suite", recording)
    set_cpus(monkeypatch, 2)
    assert len(verify.run_suites(list(verify.SUITES), 0)) == 39
    assert ran_here == [("matrix", os.getpid())] and len(forks) == 4


# Workers that end mid-suite without reporting, in a fresh interpreter so
# that a hang is caught by the timeout.
WORKER_DIES = """
import os, signal, sys
os.sched_getaffinity = lambda pid: {0, 1}
from recurra import cli, lnumbers, quaternions
%s
sys.exit(cli.main(["verify", "--suite", "all", "--seed", "0"]))
"""


@pytest.mark.parametrize("ending, how", [
    ("os._exit(7)", "exit code 7"),
    ("os.kill(os.getpid(), signal.SIGKILL)", "signal 9"),
    ("os._exit(0)", "exit code 0"),
])
def test_a_worker_that_dies_gives_a_one_line_error(ending, how):
    proc = run_python(WORKER_DIES % f"lnumbers.gap_identity_check = lambda spec, n, k: {ending}")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: the worker for verify suite 'lnum' ended with {how} " \
                          "before reporting\n"


def test_the_first_suite_in_order_that_dies_names_its_own_worker():
    # lnum's child exits 5 and quat's, later in the order, exits 6
    proc = run_python(WORKER_DIES % "lnumbers.gap_identity_check = lambda spec, n, k: os._exit(5)\n"
                                    "quaternions.l_quat_norm_check = lambda l, n: os._exit(6)")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the worker for verify suite 'lnum' ended with exit code 5 " \
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
    assert len(forks) == 1
    set_cpus(monkeypatch, 1)
    verify.run_suites(["lnum", "quat"], 0)
    assert len(forks) == 1


def test_one_child_per_suite_all_at_once(monkeypatch, forks):
    # five suites on two CPUs: a child for each suite after the first, all
    # running before any is reaped
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
    assert (len(forks), most[0], running[0]) == (4, 4, 0)


def test_a_failed_fork_leaves_no_worker_behind(monkeypatch, forks):
    # the first child (pisano's) is killed and reaped
    set_cpus(monkeypatch, 2)
    spy_fork = os.fork

    def fork():
        if forks:
            raise OSError("no second worker")
        return spy_fork()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="no second worker"):
        verify.run_suites(list(verify.SUITES), 0)
    assert len(forks) == 1


def test_workers_whose_pipes_have_high_fd_numbers(monkeypatch, forks):
    # select() takes no fd past 1023; the parent reads each report pipe
    # through its file object, which takes any fd number
    import resource
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("needs 1200 open files")
    set_cpus(monkeypatch, 2)
    held = []
    try:
        while not held or held[-1] < 1100:
            held.append(os.open(os.devnull, os.O_RDONLY))
        workers = verify.run_suites(["lnum", "quat"], 6)
    finally:
        for fd in held:
            os.close(fd)
    assert len(forks) == 1
    set_cpus(monkeypatch, 1)
    assert workers == verify.run_suites(["lnum", "quat"], 6)


def test_no_more_workers_than_suites(monkeypatch, forks):
    set_cpus(monkeypatch, 3)
    verify.run_suites(["lnum", "quat"], 0)
    assert len(forks) == 1


def test_a_repeated_suite_runs_again(monkeypatch, forks):
    names = ["lnum", "quat", "lnum"]
    set_cpus(monkeypatch, 2)
    workers = verify.run_suites(names, 4)
    assert len(forks) == 2
    set_cpus(monkeypatch, 1)
    assert workers == verify.run_suites(names, 4)
    assert len(forks) == 2 and len(workers) == 27


def test_more_suites_than_verify_has_run_in_this_process(monkeypatch, forks):
    # a call with more names than verify has suites forks no child; with
    # no budget each run is cut after matrix's first check
    set_cpus(monkeypatch, 2)
    workers = verify.run_suites(["matrix"] * 5, 0, budget_ms=0)
    assert len(forks) == 4
    assert verify.run_suites(["matrix"] * 6, 0, budget_ms=0) == workers
    assert len(forks) == 4 and len(workers) == 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_the_pool_closes_every_fd_it_opens(monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    before = sorted(os.listdir("/proc/self/fd"))
    verify.run_suites(list(verify.SUITES), 1)
    assert sorted(os.listdir("/proc/self/fd")) == before

    def raises(spec, n, k):
        raise ValueError("gap identity broke")

    monkeypatch.setattr("recurra.lnumbers.gap_identity_check", raises)
    with pytest.raises(ValueError, match="gap identity broke"):
        verify.run_suites(list(verify.SUITES), 1)
    assert sorted(os.listdir("/proc/self/fd")) == before
    monkeypatch.setattr("recurra.lnumbers.gap_identity_check", lambda spec, n, k: os._exit(7))
    with pytest.raises(RuntimeError, match="'lnum' ended with exit code 7"):
        verify.run_suites(list(verify.SUITES), 1)
    assert sorted(os.listdir("/proc/self/fd")) == before
    # the first suite, run here, spends the budget or raises while the
    # children still hold their pipes
    verify.run_suites(list(verify.SUITES), 1, budget_ms=0)
    assert sorted(os.listdir("/proc/self/fd")) == before

    def matrix_raises(*args):
        raise ValueError("from the matrix suite")

    monkeypatch.setattr(verify, "Residue", matrix_raises)
    with pytest.raises(ValueError, match="from the matrix suite"):
        verify.run_suites(list(verify.SUITES), 1)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 20
