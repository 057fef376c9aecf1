import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from recurra.ntheory import is_prime
from recurra.ringcore import (
    Matrix,
    ModulusMismatch,
    NotInvertible,
    Residue,
    ShapeMismatch,
    check_modulus,
    multiplicative_order,
)

from oracles import carmichael_brute, naive_matmul, perm_det


def test_modulus_validation():
    assert check_modulus(2) == 2
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            check_modulus(bad)


def test_residue_canonical_range():
    assert Residue(-5, 9).value == 4
    assert Residue(14, 7).value == 0
    r = Residue(3, 5)
    assert (r + Residue(4, 5)).value == 2
    assert (r - Residue(4, 5)).value == 4
    assert (r * r).value == 4
    assert (-r).value == 2
    assert (r ** 3).value == 2
    assert (r ** -1).value == 2  # 3*2 = 6 = 1 mod 5


def test_residue_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        Residue(1, 5) + Residue(1, 7)


def test_mod_inverse_examples():
    assert Residue(1, 9) ** -1 == Residue(1, 9)
    assert Residue(2, 27) ** -1 == Residue(14, 27)
    with pytest.raises(NotInvertible):
        Residue(3, 9) ** -1


def test_mod_inverse_property():
    rng = random.Random(101)
    for _ in range(300):
        m = rng.randint(2, 5000)
        x = rng.randrange(m)
        if gcd(x, m) != 1:
            with pytest.raises(NotInvertible):
                Residue(x, m) ** -1
        else:
            assert (Residue(x, m) * Residue(x, m) ** -1).value == 1 % m


def test_multiplicative_order_examples():
    assert multiplicative_order(Residue(1, 7)) == 1
    assert multiplicative_order(Residue(2, 5)) == 4
    assert multiplicative_order(Residue(2, 27)) == 18
    with pytest.raises(NotInvertible):
        multiplicative_order(Residue(6, 9))


def test_order_divides_carmichael():
    # brute-force lambda(m) = lcm of all unit orders; 10^4 is the largest
    # modulus in the tested family
    rng = random.Random(7)
    moduli = [rng.randint(2, 300) for _ in range(25)] + [10000]
    for m in moduli:
        lam = carmichael_brute(m)
        for _ in range(8):
            x = rng.randrange(1, m)
            if gcd(x, m) != 1:
                continue
            order = multiplicative_order(Residue(x, m))
            assert lam % order == 0
            assert pow(x, order, m) == 1


def test_rational_is_exact_fraction():
    rng = random.Random(5)
    for _ in range(200):
        p, q = rng.randint(-999, 999), rng.randint(1, 999)
        r, s = rng.randint(-999, 999), rng.randint(1, 999)
        x, y = Fraction(p, q), Fraction(r, s)
        assert x + y - y == x
        assert x.denominator > 0
        assert gcd(abs(x.numerator), x.denominator) in (0, 1) or x.numerator == 0


def test_matrix_shapes_and_identity():
    a = Matrix([[1, 2], [3, 4]])
    ident = Matrix.identity(2)
    assert ident @ a == a
    assert a @ ident == a
    assert Matrix.identity(4).det() == 1
    with pytest.raises(ShapeMismatch):
        a @ Matrix([[1, 2, 3]])
    with pytest.raises(ModulusMismatch):
        a @ Matrix([[1, 2], [3, 4]], 5)
    wide = Matrix([[1, 2, 3], [4, 5, 6]])
    for rows, message in (([], "at least one row"), ([[1, 2], [3]], "ragged rows")):
        with pytest.raises(ShapeMismatch, match=message):
            Matrix(rows)
    with pytest.raises(ShapeMismatch, match="addition needs equal shapes"):
        a + wide
    with pytest.raises(ShapeMismatch, match="subtraction needs equal shapes"):
        a - wide
    with pytest.raises(ShapeMismatch, match="2x2 applied to 3-vector"):
        a.apply((1, 2, 3))
    for call, message in ((lambda: wide ** 2, "power needs"), (wide.det, "determinant needs"),
                          (wide.adjugate, "adjugate needs")):
        with pytest.raises(ShapeMismatch, match=message):
            call()


def test_companion_det_value():
    # k = 3 with trailing coefficient 2: det is (-1)^{k+1} a_k = 2
    d = Matrix([[4, -5, 2], [1, 0, 0], [0, 1, 0]])
    assert d.det() == 2


def test_det_against_permutation_oracle():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        assert Matrix(rows).det() == perm_det(rows)


def test_det_sparse_forces_pivot_swaps():
    rng = random.Random(12)
    for _ in range(80):
        k = rng.randint(2, 5)
        rows = [[rng.choice([0, 0, 0, 1, -1, rng.randint(-9, 9)])
                 for _ in range(k)] for _ in range(k)]
        assert Matrix(rows).det() == perm_det(rows)
    assert Matrix([[0, 1], [1, 0]]).det() == -1
    assert Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
    assert Matrix([[0, 2], [0, 3]]).det() == 0


def test_det_larger_sizes():
    rng = random.Random(14)
    for k in (6, 7):
        for _ in range(3):
            rows = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
            assert Matrix(rows).det() == perm_det(rows)
    # big-entry exactness: floats would lose these long before 10^40
    rows = [[rng.randint(-10**40, 10**40) for _ in range(3)] for _ in range(3)]
    assert Matrix(rows).det() == perm_det(rows)


def test_matmul_against_naive_oracle():
    rng = random.Random(13)
    for _ in range(40):
        n, mid, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(mid)] for _ in range(n)]
        b = [[rng.randint(-9, 9) for _ in range(p)] for _ in range(mid)]
        assert (Matrix(a) @ Matrix(b)).entries == tuple(
            tuple(row) for row in naive_matmul(a, b))
        m = rng.randint(2, 30)
        assert (Matrix(a, m) @ Matrix(b, m)).entries == tuple(
            tuple(row) for row in naive_matmul(a, b, m))


PRODUCT_MODULI = (2, 27, 29, 256, 257, 65537, 2 ** 32 + 15, 2 ** 64 + 13)


def check_product(a, b, m):
    """A @ B mod m against the naive triple loop, for rows a and b."""
    got = Matrix(a, m) @ Matrix(b, m)
    assert got.entries == tuple(tuple(row) for row in naive_matmul(a, b, m))
    assert got.modulus == m and (got.rows, got.cols) == (len(a), len(b[0]))


def test_modular_product_shapes_and_moduli():
    rng = random.Random(23)
    for m in PRODUCT_MODULI:
        for cols in (0, 1, 2, 7, 8, 1000):
            for _ in range(3):
                r, k = rng.randint(1, 8), rng.randint(1, 8)
                a = [[rng.randrange(m) for _ in range(k)] for _ in range(r)]
                a[rng.randrange(r)] = [0] * k       # an all-zero row
                b = [[rng.randrange(-m, 2 * m) for _ in range(cols)] for _ in range(k)]
                check_product(a, b, m)


def test_modular_product_at_the_slot_bound():
    # every entry m - 1, so each product entry is k * (m - 1)^2, the
    # largest sum there is to reduce
    for m in (2, 27, 59, 257, 15001, 65537, 2 ** 32 + 15, 2 ** 64 + 13):
        for k in (1, 19, 20):
            for cols in (1, 7, 8, 1000):
                check_product([[m - 1] * k] * 3, [[m - 1] * cols] * k, m)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_modular_product_property(data):
    m = data.draw(st.sampled_from(PRODUCT_MODULI) | st.integers(2, 2 ** 70), label="m")
    r = data.draw(st.integers(1, 6), label="r")
    k = data.draw(st.integers(1, 8), label="k")
    cols = data.draw(st.sampled_from((0, 1, 2, 7, 8, 40)), label="cols")
    entry = st.integers(0, m - 1) | st.sampled_from((0, m - 1))
    a = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    b = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                           min_size=k, max_size=k))
    check_product(a, b, m)


def test_product_is_an_ordinary_matrix():
    rng = random.Random(29)
    for m in (27, 2 ** 64 + 13):
        a = Matrix([[rng.randrange(m) for _ in range(3)] for _ in range(2)], m)
        b = Matrix([[rng.randrange(m) for _ in range(4)] for _ in range(3)], m)
        c = a @ b
        same = Matrix(naive_matmul(a.entries, b.entries, m), m)
        assert c == same and hash(c) == hash(same) and len({c, same}) == 1
        assert isinstance(c.entries, tuple) and all(isinstance(r, tuple) for r in c.entries)
        with pytest.raises(AttributeError):
            c.modulus = 5
        with pytest.raises(AttributeError):
            c.entries = ()
        assert c @ Matrix.identity(4, m) == c
    z = Matrix([[1, -2], [3, 4]]) @ Matrix([[5], [-6]])
    assert z == Matrix([[17], [-9]]) and z.modulus is None



def test_matrix_fields_can_be_neither_assigned_nor_deleted():
    a = Matrix([[1, 2, 3], [4, 5, 6]], 7)
    same = Matrix([[8, 2, 3], [4, 12, -1]], 7)
    key = (a == same, hash(a), repr(a))
    for name in ("rows", "cols", "entries", "modulus"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert (a.rows, a.cols, a.entries, a.modulus) == (2, 3, ((1, 2, 3), (4, 5, 6)), 7)
    assert key == (True, hash(same), "Matrix[Z_7](1 2 3; 4 5 6)")
    assert hash(a) == hash((a.entries, 7))
    assert a != Matrix(a.entries, 11) and a != Matrix(a.entries) and a != a.entries


def test_inverse_printed_pair_mod_27():
    a = Matrix([[2, 24, 2], [1, 22, 2], [1, 0, 0]], 27)
    b = Matrix([[0, 0, 1], [14, 13, 13], [8, 6, 5]], 27)
    assert a.inverse() == b
    assert a @ b == Matrix.identity(3, 27)
    assert b @ a == Matrix.identity(3, 27)
    # 1 x 1: the adjugate is (1), so the inverse is (det^-1)
    assert Matrix([[5]], 27).adjugate() == Matrix([[1]], 27)
    assert Matrix([[5]], 27).inverse() == Matrix([[11]], 27)


def test_inverse_identity_and_unit_det_property():
    assert Matrix.identity(3, 27).inverse() == Matrix.identity(3, 27)
    rng = random.Random(17)
    found = 0
    while found < 40:
        k = rng.randint(2, 4)
        m = rng.choice([4, 9, 26, 27, 29, 256])
        a = Matrix([[rng.randrange(m) for _ in range(k)] for _ in range(k)], m)
        if gcd(a.det(), m) != 1:
            continue
        found += 1
        inv = a.inverse()
        assert inv @ a == Matrix.identity(k, m)
        assert a @ inv == Matrix.identity(k, m)


def test_inverse_composite_modulus_nonunit_pivot():
    # invertible mod 27 even though the top-left entry is a zero divisor:
    # elimination would stall, the adjugate route must not
    a = Matrix([[3, 1], [1, 1]], 27)
    assert gcd(a.det(), 27) == 1
    assert a.inverse() @ a == Matrix.identity(2, 27)


def test_inverse_not_invertible():
    with pytest.raises(NotInvertible):
        Matrix([[3, 0], [0, 1]], 9).inverse()
    with pytest.raises(NotInvertible, match="only defined over Z_m"):
        Matrix([[1, 0], [0, 1]]).inverse()


def test_matrix_pow_matches_repeated_mul():
    rng = random.Random(19)
    for _ in range(20):
        k = rng.randint(2, 3)
        m = rng.randint(2, 50)
        a = Matrix([[rng.randrange(m) for _ in range(k)] for _ in range(k)], m)
        acc = Matrix.identity(k, m)
        for n in range(6):
            assert a ** n == acc
            acc = acc @ a


def test_zero_width_matrix():
    empty = Matrix([[], []], 5)
    assert empty.cols == 0
    assert (Matrix.identity(2, 5) @ empty).cols == 0


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 9973}
    for n in range(-2, 100):
        assert is_prime(n) == (n in primes or n in
                               {17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                                61, 67, 71, 73, 79, 83, 89})
    assert is_prime(9973)
    assert not is_prime(9975)
