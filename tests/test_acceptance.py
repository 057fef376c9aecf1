"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to watch them stream)."""
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from recurra import cipher, cli, lnumbers, pisano, quaternions, recurrence
from recurra.cipher import Alphabet, CipherKey
from recurra.recurrence import SequenceSpec
from recurra.ringcore import Matrix

from oracles import (
    naive_lterms,
    naive_matmul,
    naive_matpow,
    naive_matrix_order,
    naive_state_period,
    table_quat_mul,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= budget_s
    print(f"ACCEPTANCE {number} {'PASS' if within else 'FAIL'} {description} "
          f"[{elapsed:.3f}s/{budget_s:g}s]")
    assert within, f"criterion {number} blew its {budget_s}s budget: {elapsed:.3f}s"


def random_spec(rng, kmax=5, amax=5):
    k = rng.randint(2, kmax)
    coeffs = [rng.randint(-amax, amax) for _ in range(k - 1)]
    coeffs.append(rng.choice([a for a in range(-amax, amax + 1) if a != 0]))
    return SequenceSpec(tuple(coeffs))


def test_criterion_1_worked_cipher_example():
    key = CipherKey(3, 2, (1, 1, 1), 3)
    alpha = Alphabet(("A", "B"), "B")
    # warm-up pass (also correctness)
    assert cipher.encrypt_text(key, alpha, "ABBAAB") == "BBAABB"

    with criterion(1, "key (3,2,1,1,1,3): ABBAAB -> BBAABB, back, and n=31 "
                      "normalization", 1.0):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            encrypted = cipher.encrypt_text(key, alpha, "ABBAAB")
            decrypted = cipher.decrypt_text(key, alpha, encrypted)
            best = min(best, time.perf_counter() - t0)
        assert encrypted == "BBAABB"
        assert decrypted == "ABBAAB"
        assert best < 0.001, f"round trip took {best * 1000:.3f} ms"

        key31 = CipherKey(3, 2, (1, 1, 1), 31)
        assert cipher.encrypt_text(key31, alpha, "ABBAAB") == "BBAABB"
        assert cipher.normalize_exponent(key31).exponent == 3  # 31 mod 4


def test_criterion_2_pisano_regressions():
    with criterion(2, "pinned periods: 4, 7, 6, 4 (+eigenvalues), 60", 1.0):
        assert pisano.matrix_order(SequenceSpec((1, 1, 1)), 2) == 4
        assert pisano.state_period(SequenceSpec((1, 0, 1)), 2).as_tuple() == (0, 7)
        assert pisano.matrix_order(SequenceSpec((4, -5, 2)), 3) == 6
        spec4 = SequenceSpec((6, -11, 6))
        assert pisano.matrix_order(spec4, 5) == 4
        diag = pisano.diagonalizable_mod_p(spec4, 5)
        assert diag.diagonalizable and diag.eigenvalues == (1, 2, 3)
        fib = SequenceSpec((1, 1))
        assert pisano.matrix_order(fib, 10) == 60
        assert naive_matrix_order((1, 1), 10) == 60
        assert naive_state_period((1, 1), 10) == (0, 60)


def test_criterion_3_recomputed_prime_power_ladder():
    # Periods at p^2 and p^3 recomputed by naive brute force (never taken
    # on faith) and pinned; the x1-or-xp ladder shape is checked on them.
    with criterion(3, "a=(4,-5,2): ladder [6, 18, 54], each rung x3", 5.0):
        spec = SequenceSpec((4, -5, 2))
        assert naive_matrix_order((4, -5, 2), 9) == 18
        assert naive_matrix_order((4, -5, 2), 27) == 54
        ladder = pisano.prime_power_ladder(spec, 3, 3)
        assert ladder == [6, 18, 54]
        grown = False
        for lo, hi in zip(ladder, ladder[1:]):
            assert hi in (lo, 3 * lo)
            if grown:
                assert hi == 3 * lo
            grown = grown or hi == 3 * lo
        # the state sequence agrees with the matrix orders here
        assert pisano.state_period(spec, 9).as_tuple() == (0, 18)
        assert pisano.state_period(spec, 27).as_tuple() == (0, 54)


def test_criterion_4_determinant_identities():
    rng = random.Random(2024)
    with criterion(4, "window/bordered determinant identities on 200 specs "
                      "+ Cassini to n=50", 10.0):
        for _ in range(200):
            spec = random_spec(rng)
            n = rng.randint(0, 12)
            assert recurrence.window_det(spec, n) == (
                (-1) ** (n * (spec.k + 1)) * spec.coeffs[-1] ** n)
            n = rng.randint(1, 8)
            value = recurrence.bordered_det(spec, n)
            expected = (Fraction(-1) ** (n * (spec.k + 1))
                        * Fraction(spec.coeffs[-1]) ** n
                        * recurrence.term_negative(spec, -n))
            assert expected.denominator == 1 and value == expected
        fib = SequenceSpec((1, 1))
        for n in range(51):
            assert recurrence.window_det(fib, n) == (-1) ** n


def test_criterion_5_power_structure_and_state_relations():
    rng = random.Random(2025)
    with criterion(5, "companion-power structure and window shifts on 200 "
                      "specs", 10.0):
        for _ in range(200):
            spec = random_spec(rng)
            assert recurrence.power_structure_check(spec, rng.randint(1, 12))
            assert recurrence.state_step_check(spec, rng.randint(1, 20),
                                               rng.randint(0, 20))


def _random_key(rng, nmax=50):
    n_mod = rng.choice((2, 26, 27, 29, 256))
    k = rng.randint(2, 5)
    coeffs = [rng.randrange(n_mod) for _ in range(k - 1)]
    coeffs.append(rng.choice([a for a in range(1, n_mod) if gcd(a, n_mod) == 1]))
    return CipherKey(k, n_mod, tuple(coeffs), rng.randint(1, nmax))


def test_criterion_6_cipher_round_trips():
    rng = random.Random(2026)
    with criterion(6, "500 key/message round trips + full-period exponent "
                      "shifts + pinned derived ciphertext", 30.0):
        literal = 0
        for _ in range(500):
            key = _random_key(rng)
            cols = rng.randint(1, 6)
            block = Matrix([[rng.randrange(key.n_mod) for _ in range(cols)]
                            for _ in range(key.k)], key.n_mod)
            encrypted = cipher.encrypt(key, block)
            assert cipher.decrypt(key, encrypted) == block

            # any integer multiple of pi(N) added to the exponent must leave
            # the ciphertext unchanged: the group-exponent multiple and the
            # literal order, on every key
            shifts = [pisano.matrix_order_multiple(key.k, key.n_mod)]
            literal += 1
            period = pisano.matrix_order(key.spec(), key.n_mod)
            shifts.extend([period, 2 * period])
            for shift in shifts:
                shifted = CipherKey(key.k, key.n_mod, key.coeffs,
                                    key.exponent + shift)
                assert cipher.encrypt(shifted, block) == encrypted
        assert literal >= 200, f"only {literal} literal-period keys drawn"

        # worked Z_27 example: ciphertext derived by naive multiplication,
        # never taken on faith
        d2 = naive_matpow((4, -5, 2), 2, 27)
        assert d2 == [[11, 9, 8], [4, 22, 2], [1, 0, 0]]
        v = [[18, 2, 18], [20, 4, 26], [2, 18, 26]]
        alpha = Alphabet.default()
        derived = "".join(alpha.symbol(x)
                          for col in zip(*naive_matmul(d2, v, 27)) for x in col)
        assert derived == "QDSNYCTVS"
        key27 = CipherKey(3, 27, (4, -5, 2), 2)
        assert cipher.encrypt_text(key27, alpha, "SUCCESS**") == derived
        assert cipher.decrypt_text(key27, alpha, derived) == "SUCCESS**"


def test_criterion_7_lnumber_identities():
    with criterion(7, "l-number identity family for l in {1,2,3,5,7}", 10.0):
        for l in (1, 2, 3, 5, 7):
            spec = lnumbers.LSpec(l)
            assert lnumbers.l_terms(spec, 31) == naive_lterms(l, 31)
            for n in range(31):
                assert lnumbers.square_sum_check(spec, n)
            for n in range(1, 31):
                for d in range(1, n + 1):
                    if n % d == 0:
                        assert lnumbers.divisibility_check(spec, d, n)
            for m in range(1, 31, 2):
                for n in range(0, 31, 3):
                    assert lnumbers.index_addition_check(spec, m, n)
            for k in range(2, 6):
                for n in range(0, 31, 2):
                    assert lnumbers.gap_identity_check(spec, n, k)
                    assert lnumbers.triple_gap_check(spec, n, k)
            if l >= 2:
                for n in range(31):
                    expected = (lnumbers.ResidueClass.DIVISIBLE_BY_L
                                if n % 2 == 0
                                else lnumbers.ResidueClass.ONE_MOD_L_SQUARED)
                    assert lnumbers.residue_class(spec, n) is expected
                assert lnumbers.ideal_check(spec, 6)
            for n in range(41):
                assert lnumbers.binet_check(spec, n, tol=1e-9)


def test_criterion_8_quaternion_suite():
    rng = random.Random(2028)
    with criterion(8, "quaternion algebra laws + sequence-quaternion "
                      "unit/congruence family", 30.0):
        primes = (3, 5, 7, 11, 13, 31, 97)
        for _ in range(150):
            p = rng.choice(primes)
            h = quaternions.QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
            x, y, z = (h.quat(*(rng.randrange(p) for _ in range(4)))
                       for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert (x * y).norm() == x.norm() * y.norm() % p
            assert (x * y).coeffs == table_quat_mul(x.coeffs, y.coeffs,
                                                    h.alpha, h.beta, p)
        for l in (1, 2, 3, 4, 5):
            for n in range(21):
                assert quaternions.l_quat_norm_check(l, n)
        for l in (3, 5, 7):
            for r in (1, 2, 3):
                report = quaternions.invertibility_census(l, r, 30)
                assert report.all_invertible
                assert report.all_norms_two_mod_l2
            for n in range(31):
                assert quaternions.period_two_check(l, n)
        for l in (3, 5):
            for k in (2, 3):
                for n in range(11):
                    assert quaternions.quat_gap_check(l, n, k, 2 ** k)
                    assert quaternions.quat_gap_check(l, n, k, 3 * 2 ** k)
            for n in range(11):
                assert quaternions.quat_window_sum(l, n).coeffs == (0, 0, 0, 0)


def test_criterion_9_full_verify_under_budget(capsys):
    with criterion(9, "recurra verify --suite all inside the default budget",
                   60.0):
        code = cli.main(["verify", "--suite", "all", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("ok ")
