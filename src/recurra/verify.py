"""Seeded randomized property suites behind `recurra verify`.

A suite is a run of named checks that share one random.Random.  A check
is a generator function of that rng (lnum's also take the suite's LSpecs)
that draws its cases and yields each counterexample it finds as the
detail to report.  One runner, _run_checks, fails a check on its first
counterexample and never resumes it, so the check draws nothing more; a
check that yields nothing passes, with the note it returns, if any, as
its detail.  An exception a check raises ends the run, except that the
four identities that raise ArithmeticError when they break catch it and
yield its message.  The time budget is tested after every check, so a
slow suite is stopped part-way.  Sub-seeds are derived from (seed, suite
name) so suites are independent of each other's order.

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
from functools import partial
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


def random_unit_spec(rng: random.Random, m: int) -> SequenceSpec:
    """Random spec with k <= 4, |a_i| <= 4 and gcd(a_k, m) = 1."""
    while True:
        spec = random_spec(rng, 4, 4)
        if gcd(spec.coeffs[-1], m) == 1:
            return spec


def _residue_inverse(rng):
    for _ in range(200):
        m = rng.randint(2, 10_000)
        x = rng.randrange(m)
        if gcd(x, m) != 1:
            continue
        r = Residue(x, m)
        if (r * mod_inverse(r)).value != 1 % m:
            yield f"x={x} m={m}"


def _order_divides_carmichael(rng):
    for _ in range(60):
        m = rng.randint(2, 10_000)
        x = rng.randrange(1, m)
        if gcd(x, m) == 1 and carmichael(m) % multiplicative_order(Residue(x, m)) != 0:
            yield f"x={x} m={m}"


def _adjugate_inverse(rng):
    for _ in range(80):
        m = rng.choice([4, 9, 26, 27, 29, 49, 256])
        k = rng.randint(2, 4)
        a = Matrix([[rng.randrange(m) for _ in range(k)] for _ in range(k)], m)
        if gcd(a.det(), m) == 1 and a.inverse() @ a != Matrix.identity(k, m):
            yield f"a={a!r}"


def _rational_exact(rng):
    for _ in range(200):
        p, q = rng.randint(-99, 99), rng.randint(1, 99)
        r, s = rng.randint(-99, 99), rng.randint(1, 99)
        if Fraction(p, q) + Fraction(r, s) - Fraction(r, s) != Fraction(p, q):
            yield f"{p}/{q} {r}/{s}"


def _power_structure(rng):
    for _ in range(120):
        spec = random_spec(rng)
        n = rng.randint(1, 12)
        if not recurrence.power_structure_check(spec, n):
            yield f"a={spec.coeffs} n={n}"


def _state_steps(rng):
    for _ in range(120):
        spec = random_spec(rng)
        n, r = rng.randint(1, 20), rng.randint(0, 20)
        if not recurrence.state_step_check(spec, n, r):
            yield f"a={spec.coeffs} n={n} r={r}"


# The next three, and prime_power_ladder, test identities that raise
# ArithmeticError when they break.

def _window_det(rng):
    try:
        for _ in range(120):
            recurrence.window_det(random_spec(rng), rng.randint(0, 12))
    except ArithmeticError as exc:
        yield str(exc)


def _bordered_det(rng):
    try:
        for _ in range(120):
            recurrence.bordered_det(random_spec(rng), rng.randint(1, 8))
    except ArithmeticError as exc:
        yield str(exc)


def _addition_formula(rng):
    try:
        for _ in range(120):
            recurrence.addition_formula(random_spec(rng), rng.randint(0, 15), rng.randint(0, 15))
    except ArithmeticError as exc:
        yield str(exc)


def _power_det(rng):
    for _ in range(80):
        spec = random_spec(rng)
        n = rng.randint(0, 10)
        expected = ((-1) ** (spec.k + 1) * spec.coeffs[-1]) ** n
        if (recurrence.companion(spec) ** n).det() != expected:
            yield f"a={spec.coeffs} n={n}"


def _state_divides_order(rng):
    equal = 0
    for _ in range(40):
        m = rng.randint(2, 50)
        spec = random_unit_spec(rng, m)
        order = pisano.matrix_order(spec, m)
        st = pisano.state_period(spec, m)
        equal += st.as_tuple() == (0, order)
        if st.tail != 0 or order % st.period != 0:
            yield f"a={spec.coeffs} m={m} state={st.as_tuple()} order={order}"
    return f"state==order in {equal}/40 samples"


def _divisor_monotone(rng):
    for _ in range(25):
        s1 = rng.randint(2, 12)
        s2 = s1 * rng.randint(1, 4)
        spec = random_unit_spec(rng, s2)
        if not pisano.divisor_monotone_check(spec, s1, s2):
            yield f"a={spec.coeffs} s1={s1} s2={s2}"


def _lcm_law(rng):
    for _ in range(20):
        while True:
            s1, s2 = rng.randint(2, 20), rng.randint(2, 20)
            if lcm(s1, s2) <= 50:
                break
        spec = random_unit_spec(rng, lcm(s1, s2))
        if not pisano.lcm_check(spec, s1, s2):
            yield f"a={spec.coeffs} s1={s1} s2={s2}"


def _det_order_divides(rng):
    for _ in range(30):
        m = rng.randint(2, 50)
        spec = random_unit_spec(rng, m)
        if not pisano.order_divisibility_check(spec, m):
            yield f"a={spec.coeffs} m={m}"


def _prime_power_ladder(rng):
    try:
        for _ in range(20):
            p = rng.choice([3, 5, 7])
            pisano.prime_power_ladder(random_unit_spec(rng, p), p, 3)
    except ArithmeticError as exc:
        yield str(exc)


def _pigeonhole_bound(rng):
    for _ in range(40):
        m = rng.randint(2, 20)
        spec = random_spec(rng, 4, 4)
        st = pisano.state_period(spec, m)
        if st.tail + st.period > m ** spec.k:
            yield f"a={spec.coeffs} m={m} visited={st.tail + st.period}"


def _all_odd_mod2_period(rng):
    for k in range(2, 9):
        coeffs = tuple(rng.choice([-3, -1, 1, 3, 5]) for _ in range(k))
        if not pisano.pi2_all_odd_check(SequenceSpec(coeffs)):
            yield f"a={coeffs}"


# lnum's checks take the suite's LSpecs too, one per l: l = 1, 2, 3, 5, 7.

def _square_sum(rng, specs):
    for spec, n in product(specs, range(31)):
        if not lnumbers.square_sum_check(spec, n):
            yield f"l={spec.l} n={n}"


def _index_addition(rng, specs):
    for spec, _ in product(specs, range(40)):
        m, n = rng.randint(1, 30), rng.randint(0, 30)
        if not lnumbers.index_addition_check(spec, m, n):
            yield f"l={spec.l} m={m} n={n}"


def _divisibility(rng, specs):
    for spec, n, d in product(specs, range(1, 31), range(1, 31)):
        if n % d == 0 and not lnumbers.divisibility_check(spec, d, n):
            yield f"l={spec.l} d={d} n={n}"


def _gap_identity(rng, specs):
    for spec, k, n in product(specs, range(2, 6), range(0, 31, 3)):
        if not lnumbers.gap_identity_check(spec, n, k):
            yield f"l={spec.l} n={n} k={k}"


def _triple_gap(rng, specs):
    for spec, k, n in product(specs, range(2, 5), range(0, 11)):
        if not lnumbers.triple_gap_check(spec, n, k):
            yield f"l={spec.l} n={n} k={k}"


def _residue_dichotomy(rng, specs):
    for spec, n in product(specs[1:], range(61)):
        expected = (lnumbers.ResidueClass.DIVISIBLE_BY_L if n % 2 == 0
                    else lnumbers.ResidueClass.ONE_MOD_L_SQUARED)
        if lnumbers.residue_class(spec, n) is not expected:
            yield f"l={spec.l} n={n}"


def _even_index_gcd(rng, specs):
    for spec in specs[1:]:
        if not lnumbers.ideal_check(spec, 6):
            yield f"l={spec.l}"


def _binet_float(rng, specs):
    for spec, n in product(specs[:4], range(41)):
        if not lnumbers.binet_check(spec, n):
            yield f"l={spec.l} n={n}"


def _m_tower_mod_l2(rng, specs):
    for spec, k in product(specs[1:], range(2, 13)):
        if not quaternions.m_two_mod_l2_check(spec.l, k):
            yield f"l={spec.l} k={k}"


def _random_algebra(rng: random.Random) -> quaternions.QuatAlgebra:
    p = rng.choice([3, 5, 7, 11, 13, 31, 97])
    return quaternions.QuatAlgebra(rng.randrange(p), rng.randrange(p), p)


def _random_quat(rng: random.Random, algebra: quaternions.QuatAlgebra):
    m = algebra.modulus
    return algebra.quat(*(rng.randrange(m) for _ in range(4)))


def _associativity(rng):
    for _ in range(60):
        alg = _random_algebra(rng)
        x, y, z = (_random_quat(rng, alg) for _ in range(3))
        if (x * y) * z != x * (y * z):
            yield f"p={alg.modulus} alpha={alg.alpha} beta={alg.beta}"


def _norm_multiplicative(rng):
    for _ in range(60):
        alg = _random_algebra(rng)
        x, y = _random_quat(rng, alg), _random_quat(rng, alg)
        if (x * y).norm() != x.norm() * y.norm() % alg.modulus:
            yield f"p={alg.modulus} x={x.coeffs} y={y.coeffs}"


def _inverse_roundtrip(rng):
    for _ in range(60):
        alg = _random_algebra(rng)
        x = _random_quat(rng, alg)
        if gcd(x.norm(), alg.modulus) == 1 and x * x.inverse() != alg.one():
            yield f"p={alg.modulus} x={x.coeffs}"


def _conj_antiautomorphism(rng):
    for _ in range(60):
        alg = _random_algebra(rng)
        x, y = _random_quat(rng, alg), _random_quat(rng, alg)
        if (x * y).conjugate() != y.conjugate() * x.conjugate():
            yield f"p={alg.modulus} x={x.coeffs} y={y.coeffs}"


def _lquat_norm_identity(rng):
    for l, n in product((1, 2, 3, 5), range(21)):
        if not quaternions.l_quat_norm_check(l, n):
            yield f"l={l} n={n}"


def _unit_census(rng):
    for l, r in product((3, 5, 7), (1, 2, 3)):
        report = quaternions.invertibility_census(l, r, 30)
        if not (report.all_invertible and report.all_norms_two_mod_l2):
            yield f"l={l} r={r}"


def _period_two(rng):
    for l, n in product((3, 5, 7), range(31)):
        if not quaternions.period_two_check(l, n):
            yield f"l={l} n={n}"


def _gap_congruences(rng):
    for l, k, n in product((3, 5), (2, 3), range(11)):
        if not (quaternions.quat_gap_check(l, n, k, 2 ** k)
                and quaternions.quat_gap_check(l, n, k, 3 * 2 ** k)):
            yield f"l={l} k={k} n={n}"


def _window_sum_zero(rng):
    for l, n in product((3, 5), (0, 1, 3, 7)):
        total = quaternions.quat_window_sum(l, n)
        if total.coeffs != (0, 0, 0, 0):
            yield f"l={l} n={n} sum={total.coeffs}"


CIPHER_MODULI = (2, 26, 27, 29, 256)


def random_key(rng: random.Random, nmax: int = 50) -> cipher.CipherKey:
    """Random key with N in CIPHER_MODULI, k <= 5 and exponent <= nmax."""
    n_mod = rng.choice(CIPHER_MODULI)
    k = rng.randint(2, 5)
    coeffs = [rng.randrange(n_mod) for _ in range(k - 1)]
    units = [a for a in range(1, n_mod) if gcd(a, n_mod) == 1]
    coeffs.append(rng.choice(units))
    return cipher.CipherKey(k, n_mod, tuple(coeffs), rng.randint(1, nmax))


def random_block(rng: random.Random, key: cipher.CipherKey) -> Matrix:
    """Random k-row block of 1 to 6 columns."""
    cols = rng.randint(1, 6)
    return Matrix([[rng.randrange(key.n_mod) for _ in range(cols)]
                   for _ in range(key.k)], key.n_mod)


def _round_trip(rng):
    for _ in range(80):
        key = random_key(rng)
        block = random_block(rng, key)
        encrypted = cipher.encrypt(key, block)
        if cipher.decrypt(key, encrypted) != block:
            yield f"key={key.to_line()!r}"
        if cipher.decrypt_via_period(key, encrypted) != block:
            yield f"key={key.to_line()!r} (period route)"


def _exponent_periodicity(rng):
    for _ in range(30):
        key = random_key(rng, nmax=20)
        block = random_block(rng, key)
        base = cipher.encrypt(key, block)
        # Any multiple of pi(N) must leave the ciphertext unchanged: the
        # group-exponent multiple and the literal order.
        for period in (pisano.matrix_order_multiple(key.k, key.n_mod),
                       pisano.matrix_order(key.spec(), key.n_mod)):
            for shift in (1, 2):
                shifted = cipher.CipherKey(key.k, key.n_mod, key.coeffs,
                                           key.exponent + shift * period)
                if cipher.encrypt(shifted, block) != base:
                    yield f"key={key.to_line()!r} l={shift} T={period}"


def _columnwise_linear(rng):
    for _ in range(30):
        key = random_key(rng)
        b1, b2 = random_block(rng, key), random_block(rng, key)
        joined = Matrix([r1 + r2 for r1, r2 in zip(b1.entries, b2.entries)],
                        key.n_mod)
        c1, c2 = cipher.encrypt(key, b1), cipher.encrypt(key, b2)
        expected = Matrix([r1 + r2 for r1, r2 in zip(c1.entries, c2.entries)],
                          key.n_mod)
        if cipher.encrypt(key, joined) != expected:
            yield f"key={key.to_line()!r}"


def _power_det_unit(rng):
    for _ in range(40):
        key = random_key(rng)
        if gcd(key.matrix().det(), key.n_mod) != 1:
            yield f"key={key.to_line()!r}"


def _run_checks(checks, *args) -> Iterator[tuple[str, bool, str]]:
    """(check, passed, detail) for each check in turn, called with args:
    the check named c is the generator function _c, failed by the first
    counterexample it yields and never resumed, or passed with the note
    it returns."""
    for check in checks:
        found = check(*args)
        try:
            detail = next(found)
        except StopIteration as end:
            yield check.__name__[1:], True, end.value or ""
        else:
            yield check.__name__[1:], False, detail


SUITES = {
    "matrix": partial(_run_checks, (
        _residue_inverse, _order_divides_carmichael, _adjugate_inverse,
        _rational_exact, _power_structure, _state_steps, _window_det,
        _bordered_det, _addition_formula, _power_det)),
    "pisano": partial(_run_checks, (
        _state_divides_order, _divisor_monotone, _lcm_law, _det_order_divides,
        _prime_power_ladder, _pigeonhole_bound, _all_odd_mod2_period)),
    # one LSpec per l for the whole suite, so that each term is computed once a run
    "lnum": lambda rng: _run_checks((
        _square_sum, _index_addition, _divisibility, _gap_identity, _triple_gap,
        _residue_dichotomy, _even_index_gcd, _binet_float, _m_tower_mod_l2),
        rng, [lnumbers.LSpec(l) for l in (1, 2, 3, 5, 7)]),
    "quat": partial(_run_checks, (
        _associativity, _norm_multiplicative, _inverse_roundtrip,
        _conj_antiautomorphism, _lquat_norm_identity, _unit_census, _period_two,
        _gap_congruences, _window_sum_zero)),
    "cipher": partial(_run_checks, (
        _round_trip, _exponent_periodicity, _columnwise_linear, _power_det_unit)),
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


def _fork_worker(names: list[str], seed: int,
                 deadline: float) -> tuple[int, object, object]:
    """Fork a worker; returns its pid, its order pipe opened for writing
    and its report pipe opened for reading.
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
                       cpus: int) -> list[tuple[list, bool]]:
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
        for _ in range(min(cpus, len(names))):
            pid, orders, reports = _fork_worker(names, seed, deadline)
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


def _worker_cpus(names: list[str]) -> int:
    """The number of CPUs, one forked worker each, or 0 to run the suites
    in this process: workers pay off only with more than one suite and more
    than one CPU, take at most 256 suites (an index is one byte), and are
    safe only where fork and poll exist and no other thread runs (a forked
    child copies a lock another thread may hold)."""
    if not (1 < len(names) <= 256 and hasattr(os, "fork") and hasattr(select, "poll")
            and threading.active_count() == 1):
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus if cpus > 1 else 0


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
