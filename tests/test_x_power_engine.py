"""x^n mod chi as the engine behind periods, companion powers and
diagonalizability, each against brute force or a certificate: the order
multiple built from the degrees of chi's factors mod p, the product-tree
descent, D^n and D^-n read off x^n and x^-n, and the x^p = x test."""
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from recurra.cipher import CipherKey, decrypt, encrypt
from recurra.ntheory import (factorize, order_from_multiple, poly_divmod_mod_p,
                             poly_gcd_mod_p, poly_mod_p, unfactor)
from recurra.pisano import (_order_multiple_factored, char_poly, diagonalizable_mod_p,
                            matrix_order, matrix_order_multiple, state_period)
from recurra.recurrence import (SequenceSpec, _power_reduced, companion, companion_power,
                                x_inverse, x_power)
from recurra.ringcore import Matrix, NotInvertible

from oracles import (companion_diagonalizable_mod_p, naive_is_matrix_order,
                     naive_is_window_orbit, naive_matmul, naive_matpow_squaring,
                     naive_matrix_order, naive_state_period, poly_eval_mod, poly_gcd_mod,
                     trial_prime_factors)

WALK_CAP = 3000
P61 = 2 ** 61 - 1
# 2^61 - 2, factored by hand and checked below
P61_MINUS_1 = {2: 1, 3: 2, 5: 2, 7: 1, 11: 1, 13: 1, 31: 1, 41: 1, 61: 1, 151: 1,
               331: 1, 1321: 1}
SMALL_PRIMES = [p for p in range(3, 200) if all(p % q for q in range(2, p))]


def check_order(coeffs, m):
    got = matrix_order(SequenceSpec(coeffs), m)
    try:
        expected = naive_matrix_order(coeffs, m, cap=WALK_CAP)
    except RuntimeError:
        assert got > WALK_CAP and naive_is_matrix_order(coeffs, m, got), (coeffs, m)
        return got
    assert got == expected, (coeffs, m)
    return got


def check_window_period(coeffs, m, initial=None):
    got = state_period(SequenceSpec(coeffs, initial), m).as_tuple()
    try:
        expected = naive_state_period(coeffs, m, initial, cap=WALK_CAP)
    except RuntimeError:
        assert naive_is_window_orbit(coeffs, m, *got, initial), (coeffs, m, initial)
        return
    assert got == expected, (coeffs, m, initial)


def coeffs_of(chi):
    """a_1..a_k of the monic chi = [c_0, ..., c_{k-1}, 1]."""
    return tuple(-c for c in reversed(chi[:-1]))


def poly_mul(f, g, m=None):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out if m is None else [c % m for c in out]


def poly_add(f, g):
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]


def poly_power_mod_chi(coeffs, base, n, m=None):
    """base^n mod chi by n schoolbook products, each reduced by long
    division by the monic chi = x^k - a_1 x^{k-1} - ... - a_k."""
    k = len(coeffs)
    chi = [-a for a in reversed(coeffs)] + [1]
    out = [1]
    for _ in range(n):
        out = poly_mul(out, list(base), m)
        while len(out) > k:             # subtract lead * x^(deg - k) * chi
            lead = out.pop()
            for i in range(k):
                out[len(out) - k + i] -= lead * chi[i]
        if m is not None:
            out = [c % m for c in out]
    return tuple(out + [0] * (k - len(out)))


def identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def is_squarefree_mod_p(chi, p):
    derivative = [i * c % p for i, c in enumerate(chi)][1:]
    return any(derivative) and len(poly_gcd_mod(chi, derivative, p)) == 1


# -- the order multiple from factor degrees ------------------------------------

# chi = (x - 1)^2, (x - 1)^3, (x - 1)^4 and x^2 + 1 = (x + 1)^2 mod 2: the
# multiple needs its p-part, at p = 2, 3, 7 and their powers
NOT_SQUAREFREE = [((2, -1), 7), ((2, -1), 49), ((3, -3, 1), 2), ((3, -3, 1), 9),
                  ((3, -3, 1), 27), ((4, -6, 4, -1), 2), ((4, -6, 4, -1), 3),
                  ((4, -6, 4, -1), 8), ((4, -6, 4, -1), 81), ((0, -1), 2),
                  ((0, -1), 16)]


def test_orders_when_chi_mod_p_is_not_squarefree():
    assert [matrix_order(SequenceSpec(c), m) for c, m in NOT_SQUAREFREE[:7]] == [
        7, 49, 4, 9, 27, 4, 9]
    rng = random.Random(151)
    for coeffs, m in NOT_SQUAREFREE:
        p = min(trial_prime_factors(m))
        assert not is_squarefree_mod_p(char_poly(SequenceSpec(coeffs)), p)
        check_order(coeffs, m)
        check_window_period(coeffs, m)
        check_window_period(coeffs, m, tuple(rng.randrange(m) for _ in coeffs))


def test_orders_with_a_random_repeated_factor():
    # chi = g^2 h mod p with g(0) h(0) a unit, lifted to m = p^r by adding
    # random multiples of p to the coefficients
    rng = random.Random(157)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        m = p ** rng.randint(1, 3)
        g = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 1))] + [1]
        h = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 1))] + [1]
        chi = poly_mul(poly_mul(g, g), h, p)
        chi = [c + p * rng.randrange(m // p) for c in chi[:-1]] + [1]
        coeffs = coeffs_of(chi)
        assert not is_squarefree_mod_p(chi, p)
        check_order(coeffs, m)
        check_window_period(coeffs, m, tuple(rng.randrange(m) for _ in coeffs))


def test_orders_mod_powers_of_two_and_composites():
    rng = random.Random(163)
    for m in [2 ** r for r in range(1, 9)] + [6, 12, 30, 36, 60, 72, 100, 210, 360]:
        for k in (2, 3, 4):
            head = [rng.randint(-m, m) for _ in range(k - 1)]
            a_k = rng.choice([a for a in range(1, m) if gcd(a, m) == 1])
            check_order(tuple(head + [a_k]), m)
            check_window_period(tuple(head + [a_k]), m)


def test_multiple_sends_x_to_one_and_divides_the_gl_bound():
    rng = random.Random(167)
    for _ in range(150):
        m = rng.randint(2, 400)
        k = rng.randint(2, 6)
        head = [rng.randint(-20, 20) for _ in range(k - 1)]
        a_k = rng.choice([a for a in range(1, 2 * m) if gcd(a, m) == 1])
        spec = SequenceSpec(tuple(head + [a_k]))
        multiple = unfactor(_order_multiple_factored(spec, factorize(m)))
        assert x_power(spec, multiple, m) == (1,) + (0,) * (k - 1), (spec, m)
        assert matrix_order_multiple(k, m) % multiple == 0, (spec, m)


def test_split_chi_mod_a_61_bit_prime_by_certificate():
    # x^5 - x^4 - x^3 - x^2 - x - 1 splits as degrees 1 + 2 + 2 mod 2^61 - 1:
    # its order is p^2 - 1, whose primes are those of p - 1 and of p + 1 = 2^61
    assert unfactor(P61_MINUS_1) == P61 - 1
    coeffs = (1,) * 5
    order = matrix_order(SequenceSpec(coeffs), P61)
    assert order == P61 ** 2 - 1
    assert naive_matpow_squaring(coeffs, order, P61) == identity(5)
    for q in P61_MINUS_1:
        assert naive_matpow_squaring(coeffs, order // q, P61) != identity(5), q


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_orders_property(data):
    k = data.draw(st.integers(2, 5), label="k")
    m = data.draw(st.one_of(st.integers(2, 200), st.integers(1, 10).map(lambda r: 2 ** r),
                            st.tuples(st.sampled_from((3, 5, 7)), st.integers(1, 4)).map(
                                lambda pr: pr[0] ** pr[1])), label="m")
    head = data.draw(st.lists(st.integers(-30, 30), min_size=k - 1, max_size=k - 1))
    a_k = data.draw(st.integers(-30, 30).filter(lambda a: a and gcd(a, m) == 1))
    coeffs = tuple(head + [a_k])
    order = check_order(coeffs, m)
    initial = data.draw(st.none() | st.tuples(*[st.integers(0, m - 1)] * k))
    check_window_period(coeffs, m, initial)
    assert order % state_period(SequenceSpec(coeffs, initial), m).period == 0


def test_nonunit_window_orbits_at_large_moduli_by_certificate():
    # p | a_k: the windows settle within k * r steps of each p^r || m, then
    # cycle with a period the same multiple bounds; too long to walk here
    rng = random.Random(179)
    check_window_period((1, 2), 10 ** 18)
    for m in (10 ** 18, 2 ** 60, 3 ** 30, 6 ** 20):
        primes = trial_prime_factors(m)
        for k in (2, 3, 4):
            q = rng.choice(primes + [prod(primes)])
            head = [rng.randrange(-m + 1, m) for _ in range(k - 1)]
            coeffs = tuple(head + [q ** rng.randint(1, 3) * rng.randrange(1, m)])
            check_window_period(coeffs, m)
            check_window_period(coeffs, m, tuple(rng.randrange(m) for _ in range(k)))


# -- the product-tree descent ----------------------------------------------------

def test_product_tree_descent_against_certificates():
    rng = random.Random(173)
    p = 10 ** 9 + 7
    extra = {2: 3, 3: 2, 17: 1, 19: 2, 23: 1, 101: 1}     # M = (p - 1) * extra
    multiple = {2: 1 + 3, 3: 2, 17: 1, 19: 2, 23: 1, 101: 1, 500000003: 1}
    assert unfactor(multiple) == (p - 1) * unfactor(extra)
    for _ in range(40):
        x = rng.randrange(2, p)
        t = unfactor(order_from_multiple(multiple, x, lambda y, e: pow(y, e, p),
                                         lambda y: y == 1))
        assert pow(x, t, p) == 1 and (p - 1) % t == 0
        assert all(pow(x, t // q, p) != 1 for q in trial_prime_factors(t)), x
    # every unit mod m < 300 against a walk: a 6-prime multiple either
    # yields the order or is rejected
    multiple = {2: 9, 3: 5, 5: 3, 7: 3, 11: 2, 13: 2}
    for m in range(2, 300):
        power = lambda y, e: pow(y, e, m)  # noqa: E731
        for x in range(1, m):
            if gcd(x, m) != 1:
                continue
            walk = next(t for t in range(1, m + 1) if pow(x, t, m) == 1)
            if unfactor(multiple) % walk == 0:
                assert unfactor(order_from_multiple(multiple, x, power,
                                                    lambda y: y == 1)) == walk, (x, m)
            else:
                with pytest.raises(ArithmeticError):
                    order_from_multiple(multiple, x, power, lambda y: y == 1)


def test_product_tree_descent_rejects_non_multiples():
    # ord_31(3) = 30, so no multiple built from 2, 3 alone (or nothing) works
    power, is_one = (lambda y, e: pow(y, e, 31)), (lambda y: y == 1)
    for multiple in ({2: 5, 3: 4}, {3: 1}, {2: 1, 3: 1, 7: 1, 11: 1}, {}):
        with pytest.raises(ArithmeticError, match="is not a multiple of the order"):
            order_from_multiple(multiple, 3, power, is_one)
    assert order_from_multiple({}, 1, power, is_one) == {}
    assert order_from_multiple({2: 1, 3: 1, 5: 1, 7: 0}, 3, power, is_one) == {
        2: 1, 3: 1, 5: 1}


# -- polynomials over F_p --------------------------------------------------------

def test_polynomial_gcd_and_division_against_the_oracle():
    rng = random.Random(179)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 101, P61))
        f = poly_mod_p([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
        g = poly_mod_p([rng.randrange(p) for _ in range(rng.randint(1, 7))], p)
        if rng.random() < 0.3:           # give them a common factor
            common = [rng.randrange(p) for _ in range(2)] + [1]
            f, g = poly_mod_p(poly_mul(f or [1], common), p), poly_mod_p(
                poly_mul(g or [1], common), p)
        if not g:
            continue
        quot, rem = poly_divmod_mod_p(f, g, p)
        assert len(rem) < len(g) and rem == poly_mod_p(rem, p)
        assert poly_mod_p(poly_add(poly_mul(quot, g) if quot else [], rem), p) == f
        assert poly_gcd_mod_p(f, g, p) == poly_gcd_mod(f, g, p), (f, g, p)
    assert poly_gcd_mod_p([], [], 7) == []


# -- companion powers ------------------------------------------------------------

def test_x_power_reduces_its_base():
    fib = SequenceSpec((1, 1))
    assert x_power(fib, 1, 7, (9, -1)) == (2, 6)
    assert x_power(fib, 0, 7, (9, -1)) == (1, 0)
    for n in range(2, 6):
        assert x_power(fib, n, 7, (9, -1)) == x_power(fib, n, 7, (2, 6))
    assert x_power(fib, 1, None, (9, -1)) == (9, -1)
    with pytest.raises(ValueError, match=r"x_power\(\) is for n >= 0"):
        x_power(fib, -1, 7)
    assert companion_power(fib, 1, 7, (9, -1)) == companion_power(fib, 1, 7, (2, 6))
    for base in ((1, 2, 3), (5,), ()):
        for n in (0, 1, 5):
            for m in (None, 7):
                with pytest.raises(ValueError, match="base must have k = 2"):
                    x_power(fib, n, m, base)
                with pytest.raises(ValueError, match="base must have k = 2"):
                    companion_power(fib, n, m, base)


def test_powers_of_any_base_against_naive_powering():
    # pisano's descent and ladder power elements other than x through
    # _power_reduced, and x itself
    rng = random.Random(251)
    for _ in range(150):
        k = rng.randint(2, 8)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(k - 1)) + (rng.choice((-3, -1, 1, 2, 7)),)
        m = rng.choice((None, 2, 27, 256, 10 ** 9 + 7, 2 ** 64 + 13))
        base = rng.choice(((0, 1) + (0,) * (k - 2), (rng.randint(0, 5), 1) + (0,) * (k - 2),
                           tuple(rng.randint(-9, 9) for _ in range(k))))
        n = rng.choice((1, 2, 3, rng.randint(1, 40)))
        expected = poly_power_mod_chi(coeffs, base, n, m)
        assert x_power(SequenceSpec(coeffs), n, m, base) == expected, (coeffs, base, n, m)
        if m is not None:
            base, coeffs = tuple(c % m for c in base), tuple(a % m for a in coeffs)
        assert _power_reduced(base, n, coeffs, m) == expected, (coeffs, base, n, m)


def test_companion_power_against_naive_powers():
    rng = random.Random(181)
    for k in range(2, 9):
        for m in (None, 2, 27, 256, 2 ** 64 + 13):
            for _ in range(3):
                coeffs = tuple(rng.randint(-9, 9) for _ in range(k - 1)) + (
                    rng.choice((-5, -3, -1, 1, 3, 7)),)
                spec = SequenceSpec(coeffs)
                for n in (0, 1, k - 1, k, rng.randint(0, 40 if m is None else 10 ** 6)):
                    got = companion_power(spec, n, m)
                    expected = naive_matpow_squaring(coeffs, n, m)
                    assert got.modulus == m and got == Matrix(expected, m), (coeffs, n, m)
    # an explicit base: (x + 2)^n is (D + 2I)^n
    spec = SequenceSpec((1, 1, 1))
    d = companion(spec).reduce(1000)
    assert companion_power(spec, 13, 1000, (2, 1, 0)) == (d + Matrix.identity(3, 1000).scale(2)) ** 13


def test_inverse_companion_power_undoes_the_power():
    rng = random.Random(191)
    for _ in range(120):
        k = rng.randint(2, 8)
        m = rng.choice((2, 26, 27, 29, 256, 2 ** 64 + 13, 10 ** 9 + 7))
        head = [rng.randrange(m) for _ in range(k - 1)]
        a_k = rng.choice([a for a in range(1, min(m, 500)) if gcd(a, m) == 1])
        spec = SequenceSpec(tuple(head + [a_k]))
        n = rng.choice((1, 2, k, rng.randrange(1, 10 ** 30)))
        forward = companion_power(spec, n, m)
        backward = companion_power(spec, n, m, x_inverse(spec, m))
        assert backward @ forward == Matrix.identity(k, m), (spec, n, m)
        assert forward @ backward == Matrix.identity(k, m), (spec, n, m)
        if n < 50:          # the adjugate route, an independent D^-1
            assert backward == companion(spec).reduce(m).inverse() ** n
    with pytest.raises(NotInvertible):
        x_inverse(SequenceSpec((1, 4)), 26)


def naive_matpow_squaring_of(a, n, m):
    """a^n mod m for a Matrix a, by square-and-multiply over naive products."""
    out = [[int(i == j) for j in range(a.cols)] for i in range(a.rows)]
    base = [list(row) for row in a.entries]
    while n:
        if n & 1:
            out = naive_matmul(out, base, m)
        base = naive_matmul(base, base, m)
        n >>= 1
    return out


def test_decrypt_agrees_with_the_adjugate_route():
    rng = random.Random(193)
    for _ in range(60):
        n_mod = rng.choice((26, 27, 29, 256))
        k = rng.randint(2, 6)
        a_k = rng.choice([a for a in range(1, n_mod) if gcd(a, n_mod) == 1])
        key = CipherKey(k, n_mod, tuple(rng.randrange(n_mod) for _ in range(k - 1)) + (a_k,),
                        rng.randrange(1, 10 ** 20))
        block = Matrix([[rng.randrange(n_mod) for _ in range(5)] for _ in range(k)], n_mod)
        d_inv = companion(key.spec()).reduce(n_mod).inverse()
        expected = Matrix(naive_matmul(
            naive_matpow_squaring_of(d_inv, key.exponent, n_mod), block.entries, n_mod),
            n_mod)
        assert decrypt(key, block) == expected, key.to_line()
        assert decrypt(key, encrypt(key, block)) == block


# -- diagonalizability -----------------------------------------------------------

def check_diagonalization(coeffs, p):
    result = diagonalizable_mod_p(SequenceSpec(coeffs), p)
    assert result.diagonalizable == companion_diagonalizable_mod_p(coeffs, p), (coeffs, p)
    if result.diagonalizable:
        chi = char_poly(SequenceSpec(coeffs))
        lams = result.eigenvalues
        assert list(lams) == sorted(set(lams)) and len(lams) == len(coeffs)
        assert all(poly_eval_mod(chi, lam, p) == 0 for lam in lams)
    else:
        assert result.eigenvalues is None
    return result


def test_diagonalizable_against_the_oracle_below_200():
    rng = random.Random(197)
    split = 0
    for p in SMALL_PRIMES:
        for _ in range(4):
            k = rng.randint(2, 5)
            coeffs = tuple(rng.randint(-p, p) for _ in range(k - 1)) + (
                rng.choice([a for a in range(1, p)]),)
            check_diagonalization(coeffs, p)
        # distinct roots, so the split branch runs at every p with p >= k
        k = min(rng.randint(2, 5), p - 1)
        roots = rng.sample(range(1, p), k)
        chi = [1]
        for r in roots:
            chi = poly_mul(chi, [-r, 1], p)
        split += check_diagonalization(coeffs_of(chi), p).diagonalizable
    assert split == len(SMALL_PRIMES)


def test_diagonalizable_mod_a_61_bit_prime_by_certificate():
    rng = random.Random(199)
    for k in (2, 3, 4, 6):
        roots = [rng.randrange(1, P61) for _ in range(k)]
        chi = [1]
        for r in roots:
            chi = poly_mul(chi, [-r, 1], P61)
        coeffs = coeffs_of(chi)
        result = diagonalizable_mod_p(SequenceSpec(coeffs), P61)
        assert result.diagonalizable and result.eigenvalues == tuple(sorted(roots))
        # certificate: k distinct roots of chi, and pi divides p - 1
        assert all(poly_eval_mod(chi, lam, P61) == 0 for lam in result.eigenvalues)
        assert naive_matpow_squaring(coeffs, P61 - 1, P61) == identity(k)
    # 5 is a square mod 2^61 - 1 (p = 1 mod 5), so Fibonacci splits there
    result = diagonalizable_mod_p(SequenceSpec((1, 1)), P61)
    assert result.diagonalizable
    assert all((lam * lam - lam - 1) % P61 == 0 for lam in result.eigenvalues)
    assert naive_matpow_squaring((1, 1), P61 - 1, P61) == identity(2)
    # a repeated root, and an irreducible quadratic factor: not diagonalizable
    r, s = rng.randrange(1, P61), rng.randrange(1, P61)
    for chi in (poly_mul(poly_mul([-r, 1], [-r, 1]), [-s, 1], P61),
                poly_mul([-7 % P61, 0, 1], [-s, 1], P61)):      # x^2 - 7, 7 a non-square
        assert not diagonalizable_mod_p(SequenceSpec(coeffs_of(chi)), P61).diagonalizable
    assert pow(7, (P61 - 1) // 2, P61) == P61 - 1
