import importlib
import random
from math import gcd, lcm

import pytest

from recurra import pisano
from recurra.ntheory import (_cyclotomic_factored, _cyclotomic_value, _exponent_factored,
                             factorize, unfactor)
from recurra.pisano import (
    diagonalizable_mod_p,
    divisor_monotone_check,
    lcm_check,
    matrix_order,
    matrix_order_multiple,
    order_divisibility_check,
    pi2_all_odd_check,
    prime_power_ladder,
    state_period,
)
from recurra.recurrence import SequenceSpec, companion
from recurra.ringcore import NotInvertible

from oracles import (companion_diagonalizable_mod_p, naive_matrix_order,
                     naive_state_period)

FIB = SequenceSpec((1, 1))
TRIB = SequenceSpec((1, 1, 1))
EX3 = SequenceSpec((4, -5, 2))
EX4 = SequenceSpec((6, -11, 6))


def random_unit_spec(rng, m, kmax=4, amax=4):
    while True:
        k = rng.randint(2, kmax)
        coeffs = [rng.randint(-amax, amax) for _ in range(k - 1)]
        coeffs.append(rng.choice([a for a in range(-amax, amax + 1) if a != 0]))
        if gcd(coeffs[-1], m) == 1:
            return SequenceSpec(tuple(coeffs))


def test_matrix_order_examples():
    assert matrix_order(TRIB, 2) == 4
    assert matrix_order(EX4, 5) == 4
    assert matrix_order(FIB, 10) == 60


def test_matrix_order_requires_unit_tail():
    with pytest.raises(NotInvertible):
        matrix_order(SequenceSpec((1, 2)), 4)


def test_matrix_order_against_oracle():
    rng = random.Random(61)
    for _ in range(25):
        m = rng.randint(2, 25)
        spec = random_unit_spec(rng, m, kmax=3)
        assert matrix_order(spec, m) == naive_matrix_order(spec.coeffs, m)


def test_state_period_examples():
    assert state_period(SequenceSpec((1, 0, 1)), 2).as_tuple() == (0, 7)
    assert state_period(EX3, 3).as_tuple() == (0, 6)
    assert state_period(SequenceSpec((1, 2)), 4).as_tuple() == (2, 2)
    # all coefficients vanish mod m: the orbit collapses onto the zero state
    assert state_period(SequenceSpec((6, 3)), 3).period == 1
    # d_n = p d_{n-k}: the last term nonzero mod p^r is d_{kr-1}, so the tail is T = k r
    for k, p, r in ((2, 2, 3), (3, 3, 4), (4, 5, 2), (5, 2, 60)):
        spec = SequenceSpec((0,) * (k - 1) + (p,))
        assert state_period(spec, p ** r).as_tuple() == (k * r, 1)
    # T = 2 > 0, yet the zero window is fixed from the start
    assert state_period(SequenceSpec((2, 2), (0, 0)), 4).as_tuple() == (0, 1)


def test_state_period_reads_the_shifted_terms_once(monkeypatch):
    calls = []
    real = pisano.terms_from
    monkeypatch.setattr(pisano, "terms_from", lambda *a: calls.append(a) or real(*a))
    assert state_period(SequenceSpec((1, 2)), 4).as_tuple() == (2, 2)
    assert len(calls) == 1                          # T = 4
    assert state_period(SequenceSpec((1, 1)), 10 ** 18).tail == 0
    assert len(calls) == 1                          # T = 0: no second read


def test_state_period_against_oracle():
    rng = random.Random(67)
    for _ in range(30):
        m = rng.randint(2, 12)
        k = rng.randint(2, 3)
        coeffs = [rng.randint(-4, 4) for _ in range(k - 1)]
        coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3, 4]))
        spec = SequenceSpec(tuple(coeffs))
        assert state_period(spec, m).as_tuple() == naive_state_period(coeffs, m)


def test_state_period_pigeonhole_instrumentation():
    rng = random.Random(71)
    for _ in range(40):
        m = rng.randint(2, 20)
        spec = random_unit_spec(rng, m, kmax=4)
        result = state_period(spec, m)
        assert result.tail + result.period <= m ** spec.k + 1


def test_state_period_divides_matrix_order():
    rng = random.Random(73)
    for _ in range(30):
        m = rng.randint(2, 30)
        spec = random_unit_spec(rng, m, kmax=3)
        order = matrix_order(spec, m)
        result = state_period(spec, m)
        assert result.tail == 0
        assert order % result.period == 0


def test_zero_tail_when_tail_coeff_is_unit():
    rng = random.Random(79)
    for _ in range(40):
        m = rng.randint(2, 30)
        spec = random_unit_spec(rng, m)
        assert state_period(spec, m).tail == 0


def test_order_divisibility_examples():
    assert order_divisibility_check(FIB, 10)
    assert order_divisibility_check(EX4, 5)
    rng = random.Random(83)
    for _ in range(25):
        m = rng.randint(2, 30)
        spec = random_unit_spec(rng, m, kmax=3)
        assert order_divisibility_check(spec, m)


def test_divisor_monotone():
    assert divisor_monotone_check(FIB, 2, 10)
    assert divisor_monotone_check(FIB, 10, 10)
    with pytest.raises(ValueError):
        divisor_monotone_check(FIB, 3, 10)
    rng = random.Random(89)
    for _ in range(25):
        s1 = rng.randint(2, 10)
        s2 = s1 * rng.randint(1, 4)
        spec = random_unit_spec(rng, s2, kmax=3)
        assert divisor_monotone_check(spec, s1, s2)


def test_lcm_law():
    assert matrix_order(FIB, 2) == 3
    assert matrix_order(FIB, 5) == 20
    assert lcm_check(FIB, 2, 5)  # pi(10) = 60 = lcm(3, 20)
    assert lcm_check(FIB, 6, 6)
    rng = random.Random(97)
    for _ in range(20):
        s1, s2 = rng.randint(2, 12), rng.randint(2, 12)
        spec = random_unit_spec(rng, lcm(s1, s2), kmax=3)
        assert lcm_check(spec, s1, s2)


def test_prime_power_ladder_examples():
    # recomputed values for the k=3 spec with a=(4,-5,2): independently
    # derived 18 and 54 at p^2 and p^3, each rung exactly x3
    assert prime_power_ladder(EX3, 3, 3) == [6, 18, 54]
    assert naive_matrix_order(EX3.coeffs, 9) == 18
    assert naive_matrix_order(EX3.coeffs, 27) == 54
    assert prime_power_ladder(FIB, 5, 2) == [20, 100]
    assert prime_power_ladder(FIB, 3, 1) == [matrix_order(FIB, 3)]


def test_prime_power_ladder_property():
    rng = random.Random(101)
    for _ in range(20):
        p = rng.choice([3, 5, 7])
        spec = random_unit_spec(rng, p, kmax=3, amax=3)
        ladder = prime_power_ladder(spec, p, 3)
        grown = False
        for lo, hi in zip(ladder, ladder[1:]):
            assert hi in (lo, p * lo)
            if grown:
                assert hi == p * lo
            grown = grown or hi == p * lo


def test_chi_is_factored_once_per_prime():
    # the factors of chi mod p depend on p and the coefficients alone: a
    # ladder over 3, ..., 3^5 factors once, the moduli 6, 10 and 30 of one
    # lcm law once per prime 2, 3, 5, and another initial window not again
    factored = pisano._factor_degrees
    factored.cache_clear()
    assert prime_power_ladder(EX3, 3, 5) == [6, 18, 54, 162, 486]
    assert factored.cache_info().misses == 1
    factored.cache_clear()
    assert lcm_check(TRIB, 6, 10)
    assert factored.cache_info().misses == 3
    state_period(SequenceSpec((1, 1, 1), (2, 0, 5)), 30)
    assert factored.cache_info().misses == 3


def test_every_cache_is_bounded():
    caches = {}
    for name in ("ringcore", "ntheory", "recurrence", "pisano", "cipher", "lnumbers",
                 "quaternions", "verify"):
        module = importlib.import_module(f"recurra.{name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                caches[f"{name}.{attr}"] = value.cache_info().maxsize
    assert {"pisano._factor_degrees", "ntheory._cyclotomic_factored"} <= set(caches)
    assert all(isinstance(size, int) and 0 < size <= 4096 for size in caches.values()), caches


def test_cached_exponent_pieces_match_a_fresh_factorization():
    for p in (2, 3, 5, 7, 29, 257):
        for d in range(1, 9):
            assert dict(_cyclotomic_factored(d, p)) == factorize(_cyclotomic_value(d, p))
    for k, m in ((2, 26), (5, 29), (3, 256), (5, 27)):
        fresh = _exponent_factored(factorize(m), k, lambda p: (range(1, k + 1), False))
        assert matrix_order_multiple(k, m) == matrix_order_multiple(k, m) == unfactor(fresh)


def test_matrix_order_multiple_rejects_an_invalid_modulus():
    for m in (1, 0, -4):
        with pytest.raises(ValueError, match="modulus must be an integer >= 2"):
            matrix_order_multiple(2, m)


def test_prime_power_ladder_guards():
    with pytest.raises(ValueError):
        prime_power_ladder(FIB, 4, 2)
    with pytest.raises(ValueError):
        prime_power_ladder(FIB, 2, 2)


def test_diagonalizable_examples():
    result = diagonalizable_mod_p(EX4, 5)
    assert result.diagonalizable
    assert result.eigenvalues == (1, 2, 3)
    assert (5 - 1) % matrix_order(EX4, 5) == 0

    result = diagonalizable_mod_p(FIB, 11)
    assert result.diagonalizable
    assert result.eigenvalues == (4, 8)
    assert matrix_order(FIB, 11) == 10

    # char poly (x-1)^2 (x-2) mod 3: a repeated root the minimal
    # polynomial keeps, so not diagonalizable
    result = diagonalizable_mod_p(EX3, 3)
    assert not result.diagonalizable
    assert result.eigenvalues is None


def test_diagonalizable_guards():
    # 10007 = 2 mod 5, so 5 is not a square and x^2 - x - 1 stays
    # irreducible: no eigenvalues in F_10007
    result = diagonalizable_mod_p(FIB, 10007)
    assert not result.diagonalizable and result.eigenvalues is None
    with pytest.raises(ValueError):
        diagonalizable_mod_p(FIB, 9)
    with pytest.raises(NotInvertible):
        diagonalizable_mod_p(SequenceSpec((1, 5)), 5)


def test_diagonalizable_implies_period_divides_p_minus_1():
    rng = random.Random(103)
    found = 0
    while found < 15:
        p = rng.choice([3, 5, 7, 11, 13])
        spec = random_unit_spec(rng, p, kmax=3, amax=4)
        result = diagonalizable_mod_p(spec, p)
        if not result.diagonalizable:
            continue
        found += 1
        assert len(result.eigenvalues) == spec.k
        assert (p - 1) % matrix_order(spec, p) == 0
        # eigenvalue product agrees with det D = (-1)^{k+1} a_k
        prod = 1
        for lam in result.eigenvalues:
            prod = prod * lam % p
        assert prod == companion(spec).reduce(p).det()


def test_diagonalizable_against_squarefree_splitting_oracle():
    # dual route: distinct-linear-factor test on the matrix vs
    # gcd(f, f') = 1 plus full root count on the polynomial
    rng = random.Random(211)
    agree_true = agree_false = 0
    for _ in range(120):
        p = rng.choice([3, 5, 7, 11, 13, 17])
        spec = random_unit_spec(rng, p, kmax=4, amax=5)
        got = diagonalizable_mod_p(spec, p).diagonalizable
        expected = companion_diagonalizable_mod_p(spec.coeffs, p)
        assert got == expected, f"a={spec.coeffs} p={p}"
        agree_true += got
        agree_false += not got
    assert agree_true and agree_false  # both branches exercised


def test_pi2_all_odd():
    assert matrix_order(TRIB, 2) == 4  # k + 1
    assert pi2_all_odd_check(TRIB)
    assert state_period(FIB, 2).as_tuple() == (0, 3)
    assert pi2_all_odd_check(SequenceSpec((1,) * 5))
    for k in range(2, 9):
        assert pi2_all_odd_check(SequenceSpec((1, -3, 5, 7, -1, 3, 9, 11)[:k]))
    with pytest.raises(ValueError):
        pi2_all_odd_check(SequenceSpec((2, 1)))


def test_matrix_order_multiple_is_exponent_multiple():
    rng = random.Random(107)
    for _ in range(25):
        m = rng.randint(2, 30)
        spec = random_unit_spec(rng, m, kmax=3)
        bound = matrix_order_multiple(spec.k, m)
        assert bound % matrix_order(spec, m) == 0
        d = companion(spec).reduce(m)
        assert d ** bound == d ** 0
