"""Seeded randomized property suites behind `recurra verify`.

Each suite is a generator of named checks; a check runs its random cases
and reports the first counterexample it finds.  The time budget is tested
after every check, so a slow suite is stopped part-way.  Sub-seeds are
derived from (seed, suite name) so suites are independent of each other's
order.

That independence lets run_suites run several suites at once in a pool of
forked workers, one per CPU, when the process may use more than one CPU,
fork exists and no other thread is running; otherwise it runs them in
turn in this process.  The parent hands each worker one suite at a time,
in order, over the worker's own pipe, and the next when it reports.
Either way the results are the same: they are assembled in the requested
order against one absolute deadline that every worker tests after every
check, and cut after the first suite that spent it.  A worker's
exception is raised again in the parent with its type and message, and a
worker that dies without reporting raises RuntimeError.  Workers report
through a pipe with marshal, so no process-pool or pickle machinery is
loaded.
"""
from __future__ import annotations

import marshal
import os
import random
import select
import sys
import threading
import time
from collections.abc import Iterator
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from . import cipher, lnumbers, pisano, quaternions, recurrence
from .ringcore import Matrix, Residue, Value, mod_inverse, multiplicative_order, set_field
from .ntheory import carmichael
from .recurrence import SequenceSpec

DEFAULT_BUDGET_MS = 60_000


class CheckResult(Value):
    _fields = ("suite", "name", "passed", "detail")

    def __init__(self, suite: str, name: str, passed: bool, detail: str = ""):
        set_field(self, "suite", suite)
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "detail", detail)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        rest = f" {self.detail}" if self.detail else ""
        return f"{tag} {self.suite}.{self.name}{rest}"


def random_spec(rng: random.Random, kmax: int = 5, amax: int = 5) -> SequenceSpec:
    k = rng.randint(2, kmax)
    coeffs = [rng.randint(-amax, amax) for _ in range(k - 1)]
    coeffs.append(rng.choice([a for a in range(-amax, amax + 1) if a != 0]))
    return SequenceSpec(tuple(coeffs))


def random_unit_spec(rng: random.Random, m: int, kmax: int = 4,
                     amax: int = 4) -> SequenceSpec:
    """Random spec with gcd(a_k, m) = 1."""
    while True:
        spec = random_spec(rng, kmax, amax)
        if gcd(spec.coeffs[-1], m) == 1:
            return spec


def _suite_matrix(rng: random.Random) -> Iterator[tuple[str, bool, str]]:
    bad = ""
    for _ in range(200):
        m = rng.randint(2, 10_000)
        x = rng.randrange(m)
        if gcd(x, m) != 1:
            continue
        r = Residue(x, m)
        if (r * mod_inverse(r)).value != 1 % m:
            bad = f"x={x} m={m}"
            break
    yield ("residue_inverse", not bad, bad)

    bad = ""
    for _ in range(60):
        m = rng.randint(2, 10_000)
        x = rng.randrange(1, m)
        if gcd(x, m) != 1:
            continue
        if carmichael(m) % multiplicative_order(Residue(x, m)) != 0:
            bad = f"x={x} m={m}"
            break
    yield ("order_divides_carmichael", not bad, bad)

    bad = ""
    for _ in range(80):
        m = rng.choice([4, 9, 26, 27, 29, 49, 256])
        k = rng.randint(2, 4)
        a = Matrix([[rng.randrange(m) for _ in range(k)] for _ in range(k)], m)
        if gcd(a.det(), m) != 1:
            continue
        if a.inverse() @ a != Matrix.identity(k, m):
            bad = f"a={a!r}"
            break
    yield ("adjugate_inverse", not bad, bad)

    bad = ""
    for _ in range(200):
        p, q = rng.randint(-99, 99), rng.randint(1, 99)
        r, s = rng.randint(-99, 99), rng.randint(1, 99)
        if Fraction(p, q) + Fraction(r, s) - Fraction(r, s) != Fraction(p, q):
            bad = f"{p}/{q} {r}/{s}"
            break
    yield ("rational_exact", not bad, bad)

    bad = ""
    for _ in range(120):
        spec = random_spec(rng)
        n = rng.randint(1, 12)
        if not recurrence.power_structure_check(spec, n):
            bad = f"a={spec.coeffs} n={n}"
            break
    yield ("power_structure", not bad, bad)

    bad = ""
    for _ in range(120):
        spec = random_spec(rng)
        n, r = rng.randint(1, 20), rng.randint(0, 20)
        if not recurrence.state_step_check(spec, n, r):
            bad = f"a={spec.coeffs} n={n} r={r}"
            break
    yield ("state_steps", not bad, bad)

    bad = ""
    try:
        for _ in range(120):
            spec = random_spec(rng)
            recurrence.window_det(spec, rng.randint(0, 12))
    except ArithmeticError as exc:
        bad = str(exc)
    yield ("window_det", not bad, bad)

    bad = ""
    try:
        for _ in range(120):
            spec = random_spec(rng)
            recurrence.bordered_det(spec, rng.randint(1, 8))
    except ArithmeticError as exc:
        bad = str(exc)
    yield ("bordered_det", not bad, bad)

    bad = ""
    try:
        for _ in range(120):
            spec = random_spec(rng)
            recurrence.addition_formula(spec, rng.randint(0, 15), rng.randint(0, 15))
    except ArithmeticError as exc:
        bad = str(exc)
    yield ("addition_formula", not bad, bad)

    bad = ""
    for _ in range(80):
        spec = random_spec(rng)
        n = rng.randint(0, 10)
        d = recurrence.companion(spec)
        expected = ((-1) ** (spec.k + 1) * spec.coeffs[-1]) ** n
        if (d ** n).det() != expected:
            bad = f"a={spec.coeffs} n={n}"
            break
    yield ("power_det", not bad, bad)


def _suite_pisano(rng: random.Random) -> Iterator[tuple[str, bool, str]]:
    bad = ""
    equal = 0
    for _ in range(40):
        m = rng.randint(2, 50)
        spec = random_unit_spec(rng, m)
        order = pisano.matrix_order(spec, m)
        st = pisano.state_period(spec, m)
        equal += st.as_tuple() == (0, order)
        if st.tail != 0 or order % st.period != 0:
            bad = f"a={spec.coeffs} m={m} state={st.as_tuple()} order={order}"
            break
    yield ("state_divides_order", not bad,
           bad or f"state==order in {equal}/40 samples")

    bad = ""
    for _ in range(25):
        s1 = rng.randint(2, 12)
        s2 = s1 * rng.randint(1, 4)
        spec = random_unit_spec(rng, s2)
        if not pisano.divisor_monotone_check(spec, s1, s2):
            bad = f"a={spec.coeffs} s1={s1} s2={s2}"
            break
    yield ("divisor_monotone", not bad, bad)

    bad = ""
    for _ in range(20):
        while True:
            s1, s2 = rng.randint(2, 20), rng.randint(2, 20)
            if lcm(s1, s2) <= 50:
                break
        spec = random_unit_spec(rng, lcm(s1, s2))
        if not pisano.lcm_check(spec, s1, s2):
            bad = f"a={spec.coeffs} s1={s1} s2={s2}"
            break
    yield ("lcm_law", not bad, bad)

    bad = ""
    for _ in range(30):
        m = rng.randint(2, 50)
        spec = random_unit_spec(rng, m)
        if not pisano.order_divisibility_check(spec, m):
            bad = f"a={spec.coeffs} m={m}"
            break
    yield ("det_order_divides", not bad, bad)

    bad = ""
    try:
        for _ in range(20):
            p = rng.choice([3, 5, 7])
            spec = random_unit_spec(rng, p, kmax=4, amax=4)
            pisano.prime_power_ladder(spec, p, 3)
    except ArithmeticError as exc:
        bad = str(exc)
    yield ("prime_power_ladder", not bad, bad)

    bad = ""
    for _ in range(40):
        m = rng.randint(2, 20)
        spec = random_spec(rng, kmax=4, amax=4)
        st = pisano.state_period(spec, m)
        if st.tail + st.period > m ** spec.k:
            bad = f"a={spec.coeffs} m={m} visited={st.tail + st.period}"
            break
    yield ("pigeonhole_bound", not bad, bad)

    bad = ""
    for k in range(2, 9):
        coeffs = tuple(rng.choice([-3, -1, 1, 3, 5]) for _ in range(k))
        spec = SequenceSpec(coeffs)
        if not pisano.pi2_all_odd_check(spec):
            bad = f"a={coeffs}"
            break
    yield ("all_odd_mod2_period", not bad, bad)


def _suite_lnum(rng: random.Random) -> Iterator[tuple[str, bool, str]]:
    specs = [lnumbers.LSpec(l) for l in (1, 2, 3, 5, 7)]

    bad = ""
    for spec, n in product(specs, range(31)):
        if not lnumbers.square_sum_check(spec, n):
            bad = f"l={spec.l} n={n}"
            break
    yield ("square_sum", not bad, bad)

    bad = ""
    for spec, _ in product(specs, range(40)):
        m, n = rng.randint(1, 30), rng.randint(0, 30)
        if not lnumbers.index_addition_check(spec, m, n):
            bad = f"l={spec.l} m={m} n={n}"
            break
    yield ("index_addition", not bad, bad)

    bad = ""
    for spec, n, d in product(specs, range(1, 31), range(1, 31)):
        if n % d == 0 and not lnumbers.divisibility_check(spec, d, n):
            bad = f"l={spec.l} d={d} n={n}"
            break
    yield ("divisibility", not bad, bad)

    bad = ""
    for spec, k, n in product(specs, range(2, 6), range(0, 31, 3)):
        if not lnumbers.gap_identity_check(spec, n, k):
            bad = f"l={spec.l} n={n} k={k}"
            break
    yield ("gap_identity", not bad, bad)

    bad = ""
    for spec, k, n in product(specs, range(2, 5), range(0, 11)):
        if not lnumbers.triple_gap_check(spec, n, k):
            bad = f"l={spec.l} n={n} k={k}"
            break
    yield ("triple_gap", not bad, bad)

    bad = ""
    for spec, n in product(specs[1:], range(61)):
        expected = (lnumbers.ResidueClass.DIVISIBLE_BY_L if n % 2 == 0
                    else lnumbers.ResidueClass.ONE_MOD_L_SQUARED)
        if lnumbers.residue_class(spec, n) is not expected:
            bad = f"l={spec.l} n={n}"
            break
    yield ("residue_dichotomy", not bad, bad)

    bad = ""
    for spec in specs[1:]:
        if not lnumbers.ideal_check(spec, 6):
            bad = f"l={spec.l}"
            break
    yield ("even_index_gcd", not bad, bad)

    bad = ""
    for spec, n in product(specs[:4], range(41)):
        if not lnumbers.binet_check(spec, n):
            bad = f"l={spec.l} n={n}"
            break
    yield ("binet_float", not bad, bad)

    bad = ""
    for spec, k in product(specs[1:], range(2, 13)):
        if lnumbers.m_value(spec, k) % (spec.l ** 2) != 2:
            bad = f"l={spec.l} k={k}"
            break
    yield ("m_tower_mod_l2", not bad, bad)


def _random_quat(rng: random.Random, algebra: quaternions.QuatAlgebra):
    m = algebra.modulus
    return algebra.quat(*(rng.randrange(m) for _ in range(4)))


def _suite_quat(rng: random.Random) -> Iterator[tuple[str, bool, str]]:
    primes = [3, 5, 7, 11, 13, 31, 97]

    bad = ""
    for _ in range(60):
        p = rng.choice(primes)
        alg = quaternions.QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x, y, z = (_random_quat(rng, alg) for _ in range(3))
        if (x * y) * z != x * (y * z):
            bad = f"p={p} alpha={alg.alpha} beta={alg.beta}"
            break
    yield ("associativity", not bad, bad)

    bad = ""
    for _ in range(60):
        p = rng.choice(primes)
        alg = quaternions.QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x, y = _random_quat(rng, alg), _random_quat(rng, alg)
        if (x * y).norm() != x.norm() * y.norm() % p:
            bad = f"p={p} x={x.coeffs} y={y.coeffs}"
            break
    yield ("norm_multiplicative", not bad, bad)

    bad = ""
    for _ in range(60):
        p = rng.choice(primes)
        alg = quaternions.QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x = _random_quat(rng, alg)
        if gcd(x.norm(), p) != 1:
            continue
        if x * x.inverse() != alg.one():
            bad = f"p={p} x={x.coeffs}"
            break
    yield ("inverse_roundtrip", not bad, bad)

    bad = ""
    for _ in range(60):
        p = rng.choice(primes)
        alg = quaternions.QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x, y = _random_quat(rng, alg), _random_quat(rng, alg)
        if (x * y).conjugate() != y.conjugate() * x.conjugate():
            bad = f"p={p} x={x.coeffs} y={y.coeffs}"
            break
    yield ("conj_antiautomorphism", not bad, bad)

    bad = ""
    for l, n in product((1, 2, 3, 5), range(21)):
        if not quaternions.l_quat_norm_check(l, n):
            bad = f"l={l} n={n}"
            break
    yield ("lquat_norm_identity", not bad, bad)

    bad = ""
    for l, r in product((3, 5, 7), (1, 2, 3)):
        report = quaternions.invertibility_census(l, r, 30)
        if not (report.all_invertible and report.all_norms_two_mod_l2):
            bad = f"l={l} r={r}"
            break
    yield ("unit_census", not bad, bad)

    bad = ""
    for l, n in product((3, 5, 7), range(31)):
        if not quaternions.period_two_check(l, n):
            bad = f"l={l} n={n}"
            break
    yield ("period_two", not bad, bad)

    bad = ""
    for l, k, n in product((3, 5), (2, 3), range(11)):
        if not (quaternions.quat_gap_check(l, n, k, 2 ** k)
                and quaternions.quat_gap_check(l, n, k, 3 * 2 ** k)):
            bad = f"l={l} k={k} n={n}"
            break
    yield ("gap_congruences", not bad, bad)

    bad = ""
    for l, n in product((3, 5), (0, 1, 3, 7)):
        total = quaternions.quat_window_sum(l, n)
        if total.coeffs != (0, 0, 0, 0):
            bad = f"l={l} n={n} sum={total.coeffs}"
            break
    yield ("window_sum_zero", not bad, bad)


CIPHER_MODULI = (2, 26, 27, 29, 256)


def random_key(rng: random.Random, moduli=CIPHER_MODULI,
               kmax: int = 5, nmax: int = 50) -> cipher.CipherKey:
    n_mod = rng.choice(moduli)
    k = rng.randint(2, kmax)
    coeffs = [rng.randrange(n_mod) for _ in range(k - 1)]
    units = [a for a in range(1, n_mod) if gcd(a, n_mod) == 1]
    coeffs.append(rng.choice(units))
    return cipher.CipherKey(k, n_mod, tuple(coeffs), rng.randint(1, nmax))


def random_block(rng: random.Random, key: cipher.CipherKey,
                 max_cols: int = 6) -> Matrix:
    cols = rng.randint(1, max_cols)
    return Matrix([[rng.randrange(key.n_mod) for _ in range(cols)]
                   for _ in range(key.k)], key.n_mod)


def _suite_cipher(rng: random.Random) -> Iterator[tuple[str, bool, str]]:
    bad = ""
    for _ in range(80):
        key = random_key(rng)
        block = random_block(rng, key)
        encrypted = cipher.encrypt(key, block)
        if cipher.decrypt(key, encrypted) != block:
            bad = f"key={key.to_line()!r}"
            break
        if cipher.decrypt_via_period(key, encrypted) != block:
            bad = f"key={key.to_line()!r} (period route)"
            break
    yield ("round_trip", not bad, bad)

    bad = ""
    for _ in range(30):
        key = random_key(rng, nmax=20)
        block = random_block(rng, key)
        base = cipher.encrypt(key, block)
        # Any multiple of pi(N) must leave the ciphertext unchanged: the
        # group-exponent multiple and the literal order.
        periods = [pisano.matrix_order_multiple(key.k, key.n_mod),
                   pisano.matrix_order(key.spec(), key.n_mod)]
        for period in periods:
            for shift in (1, 2):
                shifted = cipher.CipherKey(key.k, key.n_mod, key.coeffs,
                                           key.exponent + shift * period)
                if cipher.encrypt(shifted, block) != base:
                    bad = f"key={key.to_line()!r} l={shift} T={period}"
                    break
            if bad:
                break
        if bad:
            break
    yield ("exponent_periodicity", not bad, bad)

    bad = ""
    for _ in range(30):
        key = random_key(rng)
        b1, b2 = random_block(rng, key), random_block(rng, key)
        joined = Matrix([r1 + r2 for r1, r2 in zip(b1.entries, b2.entries)],
                        key.n_mod)
        c1, c2 = cipher.encrypt(key, b1), cipher.encrypt(key, b2)
        expected = Matrix([r1 + r2 for r1, r2 in zip(c1.entries, c2.entries)],
                          key.n_mod)
        if cipher.encrypt(key, joined) != expected:
            bad = f"key={key.to_line()!r}"
            break
    yield ("columnwise_linear", not bad, bad)

    bad = ""
    for _ in range(40):
        key = random_key(rng)
        if gcd(key.matrix().det(), key.n_mod) != 1:
            bad = f"key={key.to_line()!r}"
            break
    yield ("power_det_unit", not bad, bad)


SUITES = {
    "matrix": _suite_matrix,
    "pisano": _suite_pisano,
    "lnum": _suite_lnum,
    "quat": _suite_quat,
    "cipher": _suite_cipher,
}


def _run_suite(name: str, seed: int,
               deadline: float) -> tuple[list[tuple[str, bool, str]], bool]:
    """One suite's (check, passed, detail) tuples, and whether the deadline
    passed; the clock is read after every check."""
    rng = random.Random(f"{seed}:{name}")
    checks = []
    for check_name, passed, detail in SUITES[name](rng):
        if not passed and detail:
            detail = f"seed={seed} counterexample: {detail}"
        checks.append((check_name, passed, detail))
        if time.monotonic() > deadline:
            return checks, True
    return checks, False


def _fork_worker(names: list[str], seed: int, deadline: float, cpu: int,
                 cpus: list[int]) -> tuple[int, object, object]:
    """Fork a worker, started on the given CPU of cpus; returns its pid, its
    order pipe opened for writing and its report pipe opened for reading.
    The worker reads suite indices from its order pipe, one byte each,
    until EOF, and for each sends one marshalled outcome: (True, checks,
    out_of_time), or (False, module, qualname, message) of what the suite
    raised.  It always leaves by os._exit, so nothing the parent had
    buffered is flushed twice.  A later worker holds copies of the
    parent's ends of the earlier workers' pipes, which only delays an
    earlier worker's EOF until the later one ends."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    order_read, order_write, report_read, report_write = fds
    if pid == 0:
        code = 1
        try:
            os.close(order_write)
            os.close(report_read)
            # A child starts on its parent's CPU, and on a 2-vCPU VM the
            # kernel was seen to leave every worker there for a whole run,
            # no faster than running the suites in turn.  Moving to the
            # CPU and then allowing all of them again places the worker
            # without pinning it.
            try:
                os.sched_setaffinity(0, {cpu})
                os.sched_setaffinity(0, cpus)
            except (AttributeError, OSError):  # no affinity call, or a stale CPU
                pass
            with open(report_write, "wb") as reports:
                while taken := os.read(order_read, 1):
                    try:
                        outcome = (True, *_run_suite(names[taken[0]], seed, deadline))
                    except Exception as exc:
                        cls = type(exc)
                        outcome = (False, cls.__module__, cls.__qualname__, str(exc))
                    marshal.dump(outcome, reports)
                    reports.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(order_read)
    os.close(report_write)
    return pid, open(order_write, "wb", buffering=0), open(report_read, "rb")


def _worker_error(module: str, qualname: str, message: str) -> Exception:
    """The exception a worker reported, rebuilt with its type and message."""
    cls = getattr(sys.modules.get(module), qualname, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except TypeError:               # a constructor that wants more
            pass
    return RuntimeError(f"{module}.{qualname} in a verify worker: {message}")


def _suites_in_workers(names: list[str], seed: int, deadline: float,
                       cpus: list[int]) -> list[tuple[list, bool]]:
    """Each suite's _run_suite outcome, in the order of names, up to the
    first suite that ran out of time, from one forked worker per CPU (and
    no more workers than suites).  The suites are handed out in order: one
    to each worker as it starts, and the next to each worker that reports,
    so the CPUs stay busy however the suites' costs differ.

    A suite's exception is raised here with the same type and message, and
    a suite whose worker ended before reporting it raises RuntimeError,
    once every suite before it has reported and none of them raised or ran
    out of time.  The workers' report pipes are read together, so a worker
    that dies mid-suite is seen at once.  Once a suite has raised, run out
    of time or lost its worker, no further suite is handed out: each
    worker's order pipe is closed when it reports, so that it ends.  Every
    worker is reaped and every pipe closed.
    """
    reported = {}   # suite index -> outcome, or the wait status of a worker that died running it
    workers = {}    # report fd -> [pid, order pipe, report pipe, index of the suite it runs]
    todo = iter(range(len(names)))  # emptied once a suite raises, runs out of time or is lost
    poller = select.poll()          # unlike select(), any fd number
    try:
        for cpu in cpus[:len(names)]:
            pid, orders, reports = _fork_worker(names, seed, deadline, cpu, cpus)
            workers[reports.fileno()] = [pid, orders, reports, None]
            poller.register(reports, select.POLLIN)
        free = list(workers.values())
        while workers:
            for worker in free:
                worker[3] = i = next(todo, None)
                if i is None:
                    worker[1].close()
                    continue
                try:
                    worker[1].write(bytes((i,)))
                except BrokenPipeError:         # the worker has ended: its EOF reports suite i
                    pass
            free = []
            for fd, _ in poller.poll():
                pid, orders, reports, i = worker = workers[fd]
                try:    # one report per order, so the buffer never holds the next
                    reported[i] = outcome = marshal.load(reports)
                except EOFError:                # the worker has ended
                    poller.unregister(fd)
                    del workers[fd]
                    orders.close()
                    reports.close()
                    status = os.waitpid(pid, 0)[1]
                    if i is not None:
                        reported[i], todo = status, iter(())
                    continue
                if not outcome[0] or outcome[2]:    # raised, or out of time
                    todo = iter(())
                free.append(worker)
    finally:            # close all before any wait: later workers hold copies of the pipes
        for _, orders, reports, _ in workers.values():
            orders.close()
            reports.close()
        for pid, *_ in workers.values():
            os.waitpid(pid, 0)
    outcomes = []
    for i, name in enumerate(names):
        if isinstance(reported[i], int):
            code = os.waitstatus_to_exitcode(reported[i])
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise RuntimeError(f"the worker for verify suite {name!r} ended with "
                               f"{how} before reporting")
        ok, *rest = reported[i]
        if not ok:
            raise _worker_error(*rest)
        outcomes.append(rest)
        if rest[1]:
            break
    return outcomes


def _worker_cpus(names: list[str]) -> list[int] | None:
    """The CPUs for one forked worker each, or None to run the suites in
    this process: workers pay off only with more than one suite and more
    than one CPU, take at most 256 suites (an index is one byte), and are
    safe only where fork and poll exist and no other thread runs (a forked
    child copies a lock another thread may hold)."""
    if not (1 < len(names) <= 256 and hasattr(os, "fork") and hasattr(select, "poll")
            and threading.active_count() == 1):
        return None
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        cpus = list(range(os.cpu_count() or 1))
    return cpus if len(cpus) > 1 else None


def run_suites(names: list[str], seed: int,
               budget_ms: int = DEFAULT_BUDGET_MS) -> list[CheckResult]:
    """The checks of the named suites, in order, cut after the first suite
    that spends the budget with one `budget` line.

    Where _worker_cpus allows, one forked worker per CPU is handed the
    suites in order, one at a time, against one absolute deadline; the
    results are the same as running them in turn in this process, which is
    what happens otherwise.
    """
    deadline = time.monotonic() + budget_ms / 1000.0
    cpus = _worker_cpus(names)
    if cpus:
        outcomes = _suites_in_workers(names, seed, deadline, cpus)
    else:
        outcomes = (_run_suite(name, seed, deadline) for name in names)
    results = []
    for name, (checks, out_of_time) in zip(names, outcomes):
        results += [CheckResult(name, *check) for check in checks]
        if out_of_time:
            results.append(CheckResult(name, "budget", False,
                                       f"budget of {budget_ms} ms exhausted"))
            break
    return results
