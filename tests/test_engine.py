"""The order engine against brute force: primality, factoring, Carmichael
lambda, unit orders, companion-matrix orders and window periods."""
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from recurra.pisano import matrix_order, state_period
from recurra.recurrence import SequenceSpec, companion, x_power
from recurra.ringcore import (_MR_BASES, _strong_lucas_probable_prime,
                              _strong_probable_prime, carmichael, factorize,
                              is_prime, multiplicative_order_int,
                              order_from_multiple)

from oracles import (carmichael_brute, naive_is_matrix_order,
                     naive_is_window_orbit, naive_matrix_order,
                     naive_mult_order, naive_state_period, trial_prime_factors)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
PRIME_POWERS = [4, 8, 16, 32, 9, 27, 25, 49]
COMPOSITES = [6, 10, 12, 18, 20, 24, 28, 30, 36, 40, 42, 45, 48, 50, 54, 56, 60]

# Longer orders than this are checked by certificate instead of by walking.
WALK_CAP = 3000

CARMICHAEL_NUMBERS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                      29341, 41041, 46657, 52633, 62745, 63973, 75361,
                      101101, 115921, 126217, 162401, 172081, 188461, 252601,
                      278545, 294409, 314821, 334153, 340561, 399001, 410041,
                      449065, 488881, 512461, 825265, 321197185, 5394826801,
                      232250619601, 9746347772161]
# The least strong pseudoprime to all of the first j prime bases, j = 1..13;
# the last one passes every Miller-Rabin base is_prime uses.
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 341550071728321,
                       3825123056546413051, 3825123056546413051,
                       3825123056546413051, 318665857834031151167461,
                       3317044064679887385961981]
# Odd composites that pass the strong Lucas test with Selfridge's parameters.
STRONG_LUCAS_PSEUDOPRIMES = {5459, 5777, 10877, 16109, 18971}
LARGE_PRIMES = [998244353, 10 ** 9 + 7, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1,
                2 ** 127 - 1, 2 ** 521 - 1]


def trial_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def unit_coeffs(rng, k, m):
    head = [rng.randint(-m, m) for _ in range(k - 1)]
    while True:
        a_k = rng.randint(-m, m)
        if a_k and gcd(a_k, m) == 1:
            return tuple(head + [a_k])


def check_matrix_order(coeffs, m):
    got = matrix_order(SequenceSpec(coeffs), m)
    try:
        expected = naive_matrix_order(coeffs, m, cap=WALK_CAP)
    except RuntimeError:
        assert got > WALK_CAP and naive_is_matrix_order(coeffs, m, got), (coeffs, m)
        return got
    assert got == expected, (coeffs, m)
    return got


def check_unit_state_period(coeffs, m, initial=None):
    got = state_period(SequenceSpec(coeffs, initial), m).as_tuple()
    try:
        expected = naive_state_period(coeffs, m, initial, cap=WALK_CAP)
    except RuntimeError:
        assert got[0] == 0 and got[1] > WALK_CAP, (coeffs, m, initial)
        assert naive_is_window_orbit(coeffs, m, *got, initial), (coeffs, m, initial)
        return
    assert got == expected, (coeffs, m, initial)


def test_is_prime_against_trial_division():
    assert [n for n in range(-5, 20000) if is_prime(n)] == [
        n for n in range(-5, 20000) if trial_is_prime(n)]


def test_is_prime_rejects_pseudoprimes():
    for n in CARMICHAEL_NUMBERS + STRONG_PSEUDOPRIMES:
        assert not is_prime(n), n
    # the Lucas half is what rejects this one
    assert all(_strong_probable_prime(STRONG_PSEUDOPRIMES[-1], a) for a in _MR_BASES)
    for p in LARGE_PRIMES:
        assert is_prime(p), p
    for p, q in [(2 ** 61 - 1, 2 ** 89 - 1), (10 ** 9 + 7, 10 ** 9 + 9)]:
        assert not is_prime(p * q)
        assert not is_prime(p * p)


def test_strong_lucas_test_against_known_pseudoprimes():
    for n in range(3, 20000, 2):
        if int(n ** 0.5) ** 2 == n:
            continue
        expected = trial_is_prime(n) or n in STRONG_LUCAS_PSEUDOPRIMES
        assert _strong_lucas_probable_prime(n) == expected, n


def test_factorize():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    cases = {
        2 ** 64 + 1: {274177: 1, 67280421310721: 1},
        2 ** 67 - 1: {193707721: 1, 761838257287: 1},
        1009 ** 2 * 1013: {1009: 2, 1013: 1},
        (10 ** 9 + 7) ** 2: {10 ** 9 + 7: 2},
        (2 ** 31 - 1) * (10 ** 9 + 9): {2 ** 31 - 1: 1, 10 ** 9 + 9: 1},
        3317044064679887385961981: {1287836182261: 1, 2575672364521: 1},
    }
    for n, expected in cases.items():
        assert factorize(n) == expected, n
    for n in CARMICHAEL_NUMBERS:
        f = factorize(n)
        assert len(f) >= 3 and set(f.values()) == {1}, n   # squarefree, 3+ primes
        assert prod(f) == n and all((n - 1) % (p - 1) == 0 for p in f)  # Korselt
    rng = random.Random(113)
    for _ in range(200):
        n = rng.randrange(1, 10 ** 12)
        f = factorize(n)
        assert prod(p ** e for p, e in f.items()) == n
        assert all(is_prime(p) for p in f) and list(f) == sorted(f)


def test_factorize_gives_up_at_its_step_bound(monkeypatch):
    # two ~20-digit primes: far past what rho reaches within its bound
    n = (2 ** 61 - 1) * (2 ** 64 - 59)
    with pytest.raises(ArithmeticError, match=f"cannot factor {n}: "):
        factorize(n)
    # rho splits this one after 65534 steps; the bound is exact and spans
    # every try of the rho constant
    n = (2 ** 31 - 1) * (10 ** 9 + 9)
    monkeypatch.setattr("recurra.ringcore._RHO_STEP_LIMIT", 1 << 16)
    assert factorize(n) == {2 ** 31 - 1: 1, 10 ** 9 + 9: 1}
    monkeypatch.setattr("recurra.ringcore._RHO_STEP_LIMIT", 1 << 15)
    with pytest.raises(ArithmeticError, match=f"cannot factor {n}: no factor found "
                                              f"in 32768 Pollard rho steps"):
        factorize(n)


def test_carmichael_against_brute_force():
    for m in range(2, 400):
        assert carmichael(m) == carmichael_brute(m), m
    assert carmichael(2 ** 20) == 2 ** 18
    assert carmichael(10 ** 9 + 7) == 10 ** 9 + 6


def test_multiplicative_order_against_walk():
    rng = random.Random(127)
    for m in PRIMES + PRIME_POWERS + COMPOSITES + [1024, 3 ** 7, 10007, 65536, 99991]:
        for _ in range(6):
            x = rng.randrange(1, m) if m > 2 else 1
            if gcd(x, m) == 1:
                assert multiplicative_order_int(x, m) == naive_mult_order(x, m), (x, m)
    assert multiplicative_order_int(3, 10 ** 9 + 7) == 500000003
    assert multiplicative_order_int(-1, 10 ** 9 + 7) == 2


def test_order_from_multiple_rejects_a_non_multiple():
    # 4 is not a multiple of ord_7(3) = 6
    with pytest.raises(ArithmeticError):
        order_from_multiple({2: 2}, 3, lambda y, e: pow(y, e, 7), lambda y: y == 1)


def test_x_power_is_the_matrix_power():
    rng = random.Random(131)
    for _ in range(40):
        k, m = rng.randint(2, 5), rng.randint(2, 60)
        spec = SequenceSpec(tuple(rng.randint(-9, 9) or 1 for _ in range(k)))
        n = rng.randint(0, 300)
        c = x_power(spec, n, m)
        d = companion(spec).reduce(m)
        combo = (d ** 0).scale(c[0])
        for i in range(1, k):
            combo = combo + (d ** i).scale(c[i])
        assert combo == d ** n, (spec, n, m)


def test_matrix_order_by_modulus_class():
    rng = random.Random(137)
    for moduli in (PRIMES, PRIME_POWERS, COMPOSITES):
        for m in moduli:
            for k in (2, 3, 4):
                check_matrix_order(unit_coeffs(rng, k, m), m)


def test_unit_state_period_default_and_random_windows():
    rng = random.Random(139)
    for moduli in (PRIMES, PRIME_POWERS, COMPOSITES):
        for m in moduli:
            k = rng.randint(2, 4)
            coeffs = unit_coeffs(rng, k, m)
            check_unit_state_period(coeffs, m)
            check_unit_state_period(coeffs, m, tuple(rng.randrange(m) for _ in range(k)))
    # the zero window is fixed; a window inside a smaller invariant
    # subspace has a shorter period than pi(m)
    assert state_period(SequenceSpec((1, 1), (0, 0)), 10).as_tuple() == (0, 1)
    assert state_period(SequenceSpec((1, 1), (2, 1)), 5).as_tuple() == (0, 4)


def test_unit_state_period_is_certified_at_larger_moduli():
    # one descent from the multiple of pi(m), checked against the oracle's
    # certificate where the periods are too long to walk
    rng = random.Random(151)
    for draw in range(600):
        k, m = rng.randint(2, 5), rng.randint(2, 400)
        coeffs = unit_coeffs(rng, k, m)
        initial = tuple(rng.randrange(m) for _ in range(k)) if draw % 2 else None
        got = state_period(SequenceSpec(coeffs, initial), m)
        assert got.tail == 0, (coeffs, m, initial)
        assert naive_is_window_orbit(coeffs, m, *got.as_tuple(), initial), (
            coeffs, m, initial)


def test_nonunit_state_period_against_oracle():
    rng = random.Random(149)
    checked = 0
    while checked < 120:
        m = rng.choice(PRIME_POWERS + COMPOSITES)
        k = rng.randint(2, 4)
        q = rng.choice([p for p in PRIMES if m % p == 0])
        head = [rng.randint(-m, m) for _ in range(k - 1)]
        coeffs = tuple(head + [q * rng.randint(1, m) * rng.choice((1, -1))])
        initial = None if checked % 2 else tuple(rng.randrange(m) for _ in range(k))
        try:
            expected = naive_state_period(coeffs, m, initial, cap=20000)
        except RuntimeError:
            continue
        assert state_period(SequenceSpec(coeffs, initial), m).as_tuple() == expected, (
            coeffs, m, initial)
        checked += 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_nonunit_state_period_property(data):
    k = data.draw(st.integers(2, 4), label="k")
    m = data.draw(st.integers(2, 60), label="m")
    head = data.draw(st.lists(st.integers(-60, 60), min_size=k - 1, max_size=k - 1))
    q = data.draw(st.sampled_from(trial_prime_factors(m)), label="q")
    a_k = q * data.draw(st.integers(-30, 30).filter(bool), label="a_k / q")
    coeffs = tuple(head + [a_k])
    initial = data.draw(st.tuples(*[st.integers(0, m - 1)] * k), label="initial")
    got = state_period(SequenceSpec(coeffs, initial), m).as_tuple()
    try:
        expected = naive_state_period(coeffs, m, initial, cap=20000)
    except RuntimeError:
        assert naive_is_window_orbit(coeffs, m, *got, initial), (coeffs, m, initial)
        return
    assert got == expected, (coeffs, m, initial)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_orders_property(data):
    k = data.draw(st.integers(2, 4), label="k")
    m = data.draw(st.integers(2, 60), label="m")
    head = data.draw(st.lists(st.integers(-60, 60), min_size=k - 1, max_size=k - 1))
    a_k = data.draw(st.integers(-60, 60).filter(lambda a: a and gcd(a, m) == 1))
    coeffs = tuple(head + [a_k])
    order = check_matrix_order(coeffs, m)
    initial = data.draw(st.none() | st.tuples(*[st.integers(0, m - 1)] * k))
    check_unit_state_period(coeffs, m, initial)
    period = state_period(SequenceSpec(coeffs, initial), m).period
    assert order % period == 0
    x = data.draw(st.integers(1, m).filter(lambda x: gcd(x, m) == 1))
    assert multiplicative_order_int(x, m) == naive_mult_order(x, m)
    assert carmichael(m) == carmichael_brute(m)
