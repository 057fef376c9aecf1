"""Seeded randomized property suites behind `recurra verify`.

Each suite is a list of named checks; a check runs its random cases and
reports the first counterexample it finds.  Sub-seeds are derived from
(seed, suite name) so suites are independent of each other's order.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from . import cipher, lnumbers, pisano, quaternions, recurrence
from .ringcore import Matrix, Residue, carmichael, mod_inverse, multiplicative_order
from .recurrence import SequenceSpec

DEFAULT_BUDGET_MS = 60_000


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""

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


def _suite_matrix(rng: random.Random) -> list[tuple[str, bool, str]]:
    checks = []

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
    checks.append(("residue_inverse", not bad, bad))

    bad = ""
    for _ in range(60):
        m = rng.randint(2, 10_000)
        x = rng.randrange(1, m)
        if gcd(x, m) != 1:
            continue
        if carmichael(m) % multiplicative_order(Residue(x, m)) != 0:
            bad = f"x={x} m={m}"
            break
    checks.append(("order_divides_carmichael", not bad, bad))

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
    checks.append(("adjugate_inverse", not bad, bad))

    bad = ""
    for _ in range(200):
        p, q = rng.randint(-99, 99), rng.randint(1, 99)
        r, s = rng.randint(-99, 99), rng.randint(1, 99)
        if Fraction(p, q) + Fraction(r, s) - Fraction(r, s) != Fraction(p, q):
            bad = f"{p}/{q} {r}/{s}"
            break
    checks.append(("rational_exact", not bad, bad))

    bad = ""
    for _ in range(120):
        spec = random_spec(rng)
        n = rng.randint(1, 12)
        if not recurrence.power_structure_check(spec, n):
            bad = f"a={spec.coeffs} n={n}"
            break
    checks.append(("power_structure", not bad, bad))

    bad = ""
    for _ in range(120):
        spec = random_spec(rng)
        n, r = rng.randint(1, 20), rng.randint(0, 20)
        if not recurrence.state_step_check(spec, n, r):
            bad = f"a={spec.coeffs} n={n} r={r}"
            break
    checks.append(("state_steps", not bad, bad))

    bad = ""
    try:
        for _ in range(120):
            spec = random_spec(rng)
            recurrence.window_det(spec, rng.randint(0, 12))
    except ArithmeticError as exc:
        bad = str(exc)
    checks.append(("window_det", not bad, bad))

    bad = ""
    try:
        for _ in range(120):
            spec = random_spec(rng)
            recurrence.bordered_det(spec, rng.randint(1, 8))
    except ArithmeticError as exc:
        bad = str(exc)
    checks.append(("bordered_det", not bad, bad))

    bad = ""
    try:
        for _ in range(120):
            spec = random_spec(rng)
            recurrence.addition_formula(spec, rng.randint(0, 15), rng.randint(0, 15))
    except ArithmeticError as exc:
        bad = str(exc)
    checks.append(("addition_formula", not bad, bad))

    bad = ""
    for _ in range(80):
        spec = random_spec(rng)
        n = rng.randint(0, 10)
        d = recurrence.companion(spec)
        expected = ((-1) ** (spec.k + 1) * spec.coeffs[-1]) ** n
        if (d ** n).det() != expected:
            bad = f"a={spec.coeffs} n={n}"
            break
    checks.append(("power_det", not bad, bad))

    return checks


def _suite_pisano(rng: random.Random) -> list[tuple[str, bool, str]]:
    checks = []

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
    checks.append(("state_divides_order", not bad,
                   bad or f"state==order in {equal}/40 samples"))

    bad = ""
    for _ in range(25):
        s1 = rng.randint(2, 12)
        s2 = s1 * rng.randint(1, 4)
        spec = random_unit_spec(rng, s2)
        if not pisano.divisor_monotone_check(spec, s1, s2):
            bad = f"a={spec.coeffs} s1={s1} s2={s2}"
            break
    checks.append(("divisor_monotone", not bad, bad))

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
    checks.append(("lcm_law", not bad, bad))

    bad = ""
    for _ in range(30):
        m = rng.randint(2, 50)
        spec = random_unit_spec(rng, m)
        if not pisano.order_divisibility_check(spec, m):
            bad = f"a={spec.coeffs} m={m}"
            break
    checks.append(("det_order_divides", not bad, bad))

    bad = ""
    try:
        for _ in range(20):
            p = rng.choice([3, 5, 7])
            spec = random_unit_spec(rng, p, kmax=4, amax=4)
            pisano.prime_power_ladder(spec, p, 3)
    except ArithmeticError as exc:
        bad = str(exc)
    checks.append(("prime_power_ladder", not bad, bad))

    bad = ""
    for _ in range(40):
        m = rng.randint(2, 20)
        spec = random_spec(rng, kmax=4, amax=4)
        st = pisano.state_period(spec, m)
        if st.tail + st.period > m ** spec.k + 1:
            bad = f"a={spec.coeffs} m={m} visited={st.tail + st.period}"
            break
    checks.append(("pigeonhole_bound", not bad, bad))

    bad = ""
    for k in range(2, 9):
        coeffs = tuple(rng.choice([-3, -1, 1, 3, 5]) for _ in range(k))
        spec = SequenceSpec(coeffs)
        if not pisano.pi2_all_odd_check(spec):
            bad = f"a={coeffs}"
            break
    checks.append(("all_odd_mod2_period", not bad, bad))

    return checks


def _suite_lnum(rng: random.Random) -> list[tuple[str, bool, str]]:
    checks = []
    specs = [lnumbers.LSpec(l) for l in (1, 2, 3, 5, 7)]

    bad = ""
    for spec, n in product(specs, range(31)):
        if not lnumbers.square_sum_check(spec, n):
            bad = f"l={spec.l} n={n}"
            break
    checks.append(("square_sum", not bad, bad))

    bad = ""
    for spec, _ in product(specs, range(40)):
        m, n = rng.randint(1, 30), rng.randint(0, 30)
        if not lnumbers.index_addition_check(spec, m, n):
            bad = f"l={spec.l} m={m} n={n}"
            break
    checks.append(("index_addition", not bad, bad))

    bad = ""
    for spec, n, d in product(specs, range(1, 31), range(1, 31)):
        if n % d == 0 and not lnumbers.divisibility_check(spec, d, n):
            bad = f"l={spec.l} d={d} n={n}"
            break
    checks.append(("divisibility", not bad, bad))

    bad = ""
    for spec, k, n in product(specs, range(2, 6), range(0, 31, 3)):
        if not lnumbers.gap_identity_check(spec, n, k):
            bad = f"l={spec.l} n={n} k={k}"
            break
    checks.append(("gap_identity", not bad, bad))

    bad = ""
    for spec, k, n in product(specs, range(2, 5), range(0, 11)):
        if not lnumbers.triple_gap_check(spec, n, k):
            bad = f"l={spec.l} n={n} k={k}"
            break
    checks.append(("triple_gap", not bad, bad))

    bad = ""
    for spec, n in product(specs[1:], range(61)):
        expected = (lnumbers.ResidueClass.DIVISIBLE_BY_L if n % 2 == 0
                    else lnumbers.ResidueClass.ONE_MOD_L_SQUARED)
        if lnumbers.residue_class(spec, n) is not expected:
            bad = f"l={spec.l} n={n}"
            break
    checks.append(("residue_dichotomy", not bad, bad))

    bad = ""
    for spec in specs[1:]:
        if not lnumbers.ideal_check(spec, 6):
            bad = f"l={spec.l}"
            break
    checks.append(("even_index_gcd", not bad, bad))

    bad = ""
    for spec, n in product(specs[:4], range(41)):
        if not lnumbers.binet_check(spec, n):
            bad = f"l={spec.l} n={n}"
            break
    checks.append(("binet_float", not bad, bad))

    bad = ""
    for spec, k in product(specs[1:], range(2, 13)):
        if lnumbers.m_value(spec, k) % (spec.l ** 2) != 2:
            bad = f"l={spec.l} k={k}"
            break
    checks.append(("m_tower_mod_l2", not bad, bad))

    return checks


def _random_quat(rng: random.Random, algebra: quaternions.QuatAlgebra):
    m = algebra.modulus
    return algebra.quat(*(rng.randrange(m) for _ in range(4)))


def _suite_quat(rng: random.Random) -> list[tuple[str, bool, str]]:
    checks = []
    primes = [3, 5, 7, 11, 13, 31, 97]

    bad = ""
    for _ in range(60):
        p = rng.choice(primes)
        alg = quaternions.QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x, y, z = (_random_quat(rng, alg) for _ in range(3))
        if (x * y) * z != x * (y * z):
            bad = f"p={p} alpha={alg.alpha} beta={alg.beta}"
            break
    checks.append(("associativity", not bad, bad))

    bad = ""
    for _ in range(60):
        p = rng.choice(primes)
        alg = quaternions.QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x, y = _random_quat(rng, alg), _random_quat(rng, alg)
        if (x * y).norm() != x.norm() * y.norm() % p:
            bad = f"p={p} x={x.coeffs} y={y.coeffs}"
            break
    checks.append(("norm_multiplicative", not bad, bad))

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
    checks.append(("inverse_roundtrip", not bad, bad))

    bad = ""
    for _ in range(60):
        p = rng.choice(primes)
        alg = quaternions.QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x, y = _random_quat(rng, alg), _random_quat(rng, alg)
        if (x * y).conjugate() != y.conjugate() * x.conjugate():
            bad = f"p={p} x={x.coeffs} y={y.coeffs}"
            break
    checks.append(("conj_antiautomorphism", not bad, bad))

    bad = ""
    for l, n in product((1, 2, 3, 5), range(21)):
        if not quaternions.l_quat_norm_check(l, n):
            bad = f"l={l} n={n}"
            break
    checks.append(("lquat_norm_identity", not bad, bad))

    bad = ""
    for l, r in product((3, 5, 7), (1, 2, 3)):
        report = quaternions.invertibility_census(l, r, 30)
        if not (report.all_invertible and report.all_norms_two_mod_l2):
            bad = f"l={l} r={r}"
            break
    checks.append(("unit_census", not bad, bad))

    bad = ""
    for l, n in product((3, 5, 7), range(31)):
        if not quaternions.period_two_check(l, n):
            bad = f"l={l} n={n}"
            break
    checks.append(("period_two", not bad, bad))

    bad = ""
    for l, k, n in product((3, 5), (2, 3), range(11)):
        if not (quaternions.quat_gap_check(l, n, k, 2 ** k)
                and quaternions.quat_gap_check(l, n, k, 3 * 2 ** k)):
            bad = f"l={l} k={k} n={n}"
            break
    checks.append(("gap_congruences", not bad, bad))

    bad = ""
    for l, n in product((3, 5), (0, 1, 3, 7)):
        total = quaternions.quat_window_sum(l, n)
        if total.coeffs != (0, 0, 0, 0):
            bad = f"l={l} n={n} sum={total.coeffs}"
            break
    checks.append(("window_sum_zero", not bad, bad))

    return checks


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


def _suite_cipher(rng: random.Random) -> list[tuple[str, bool, str]]:
    checks = []

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
    checks.append(("round_trip", not bad, bad))

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
    checks.append(("exponent_periodicity", not bad, bad))

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
    checks.append(("columnwise_linear", not bad, bad))

    bad = ""
    for _ in range(40):
        key = random_key(rng)
        if gcd(key.matrix().det(), key.n_mod) != 1:
            bad = f"key={key.to_line()!r}"
            break
    checks.append(("power_det_unit", not bad, bad))

    return checks


SUITES = {
    "matrix": _suite_matrix,
    "pisano": _suite_pisano,
    "lnum": _suite_lnum,
    "quat": _suite_quat,
    "cipher": _suite_cipher,
}


def run_suites(names: list[str], seed: int,
               budget_ms: int = DEFAULT_BUDGET_MS) -> list[CheckResult]:
    deadline = time.monotonic() + budget_ms / 1000.0
    results = []
    for name in names:
        rng = random.Random(f"{seed}:{name}")
        for check_name, passed, detail in SUITES[name](rng):
            if not passed and detail:
                detail = f"seed={seed} counterexample: {detail}"
            results.append(CheckResult(name, check_name, passed, detail))
        if time.monotonic() > deadline:
            results.append(CheckResult(name, "budget", False,
                                       f"budget of {budget_ms} ms exhausted"))
            break
    return results
