import random
from fractions import Fraction
from itertools import product

import pytest

from recurra import recurrence
from recurra.recurrence import (
    SequenceSpec,
    addition_formula,
    bordered_det,
    bordered_matrix,
    companion,
    power_structure_check,
    state_step_check,
    term,
    term_mod,
    term_negative,
    terms,
    window_det,
    window_matrix,
)
from recurra.ringcore import Matrix
from recurra.verify import random_spec

from oracles import (naive_matpow, naive_term_negative, naive_terms, naive_terms_mod,
                     perm_det)

FIB = SequenceSpec((1, 1))
TRIB = SequenceSpec((1, 1, 1))
EX3 = SequenceSpec((4, -5, 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec((1,))
    with pytest.raises(ValueError):
        SequenceSpec((1, 0))
    with pytest.raises(ValueError):
        SequenceSpec((1, 1), (0,))
    assert SequenceSpec((1, 1, 1)).initial == (0, 0, 1)
    assert SequenceSpec((1, 2), (3, 4)).initial == (3, 4)
    assert not SequenceSpec((1, 2), (3, 4)).has_default_window


def test_term_examples():
    assert term(FIB, 10) == 55
    assert term(TRIB, 6) == 7
    assert term(EX3, 4) == 11


def test_term_against_oracle():
    rng = random.Random(23)
    for _ in range(40):
        spec = random_spec(rng)
        ref = naive_terms(spec.coeffs, 31)
        n = rng.randint(0, 30)
        assert term(spec, n) == ref[n]
        assert terms(spec, 31) == ref
    custom = SequenceSpec((2, -1), (5, 3))
    assert terms(custom, 5) == naive_terms((2, -1), 5, (5, 3))


def test_term_mod_examples():
    assert term_mod(EX3, 5, 3).value == 2
    for spec in (FIB, TRIB, EX3):
        for m in (2, 9, 27):
            assert term_mod(spec, spec.k - 1, m).value == 1 % m
    assert term_mod(SequenceSpec((6, -11, 6)), 4, 5).value == 0
    with pytest.raises(ValueError, match=r"term_mod\(\) is for n >= 0"):
        term_mod(FIB, -1, 7)


def test_term_mod_never_builds_big_ints():
    # d_5000 has thousands of digits; the reduced path must stay fast and agree
    spec = SequenceSpec((3, 1, 2))
    assert term_mod(spec, 5000, 97).value == naive_terms_mod((3, 1, 2), 5001, 97)[5000]


def test_term_mod_custom_window():
    spec = SequenceSpec((2, -1), (5, 3))
    assert [term_mod(spec, n, 7).value for n in range(6)] == \
        naive_terms_mod((2, -1), 6, 7, (5, 3))


def test_term_negative_examples():
    assert term_negative(FIB, -1) == 1
    assert term_negative(FIB, -2) == -1
    assert term_negative(SequenceSpec((1, 2)), -1) == Fraction(1, 2)
    with pytest.raises(ValueError, match=r"term_negative\(\) is for n < 0"):
        term_negative(FIB, 0)


def test_term_negative_extends_recurrence():
    rng = random.Random(29)
    for _ in range(30):
        spec = random_spec(rng, kmax=4, amax=4)
        k = spec.k
        a = spec.coeffs
        window = {n: term_negative(spec, n) for n in range(-8, 0)}
        window.update({n: Fraction(term(spec, n)) for n in range(0, k + 1)})
        for n in range(-8 + k, k + 1):
            assert window[n] == sum(Fraction(a[i - 1]) * window[n - i]
                                    for i in range(1, k + 1))


def test_term_negative_against_a_fraction_recursion_on_custom_windows():
    rng = random.Random(43)
    # 300 draws down to n = -25, then 10 down to -2000
    for far in [25] * 300 + [2000] * 10:
        spec = random_spec(rng)
        initial = tuple(rng.randint(-9, 9) for _ in range(spec.k))
        custom = SequenceSpec(spec.coeffs, initial)
        n = -rng.randint(1, far)
        for s, window in ((spec, None), (custom, initial)):
            got = term_negative(s, n)
            assert type(got) is Fraction
            assert got == naive_term_negative(s.coeffs, n, window), (s, n)


def test_a_far_backward_term_is_one_power_not_a_walk(capped_python):
    # d_{-n} = (-1)^(n+1) d_n for Fibonacci; a walk of 10^5 backward steps
    # over growing numbers takes over a second of CPU
    script = ("from recurra.recurrence import SequenceSpec, term, term_negative\n"
              "fib = SequenceSpec((1, 1))\n"
              "print(term_negative(fib, -10**5) == (-1) ** (10**5 + 1) * term(fib, 10**5))")
    proc = capped_python("-c", script, cap_mb=64, cpu_s=1)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_companion_layouts():
    assert companion(EX3) == Matrix([[4, -5, 2], [1, 0, 0], [0, 1, 0]])
    assert companion(TRIB) == Matrix([[1, 1, 1], [1, 0, 0], [0, 1, 0]])
    assert companion(FIB) == Matrix([[1, 1], [1, 0]])


def test_power_examples():
    assert companion(EX3) ** 0 == Matrix.identity(3)
    assert companion(TRIB).reduce(2) ** 3 == Matrix([[0, 1, 0], [0, 0, 1], [1, 1, 1]], 2)
    # squaring the k=3 matrix directly, reduced mod 27
    assert companion(EX3).reduce(27) ** 2 == Matrix(
        [[11, 9, 8], [4, 22, 2], [1, 0, 0]], 27)


def test_power_against_repeated_multiplication():
    rng = random.Random(31)
    for _ in range(25):
        spec = random_spec(rng, kmax=4, amax=3)
        n = rng.randint(0, 9)
        expected = naive_matpow(spec.coeffs, n)
        assert (companion(spec) ** n).entries == tuple(map(tuple, expected))
        m = rng.randint(2, 40)
        got = companion(spec).reduce(m) ** n
        assert got.entries == tuple(map(tuple, naive_matpow(spec.coeffs, n, m)))


def test_power_structure_examples():
    assert power_structure_check(FIB, 5)
    assert companion(FIB) ** 5 == Matrix([[8, 5], [5, 3]])
    for spec in (FIB, TRIB, EX3):
        assert power_structure_check(spec, 1)
    assert power_structure_check(EX3, 2)
    assert (companion(EX3) ** 2)[0, 0] == 11
    with pytest.raises(ValueError, match="need n >= 1"):
        power_structure_check(FIB, 0)


def test_power_structure_randomized():
    rng = random.Random(37)
    for _ in range(60):
        spec = random_spec(rng)
        assert power_structure_check(spec, rng.randint(1, 12))


def oracle_checks(monkeypatch, spec, n, d_n):
    """Run the two identity checks with D^n replaced by d_n (nested lists)
    and the forward terms by naive_terms."""
    monkeypatch.setattr(recurrence, "terms", lambda s, count: naive_terms(s.coeffs, count))
    monkeypatch.setattr(Matrix, "__pow__", lambda d, e: Matrix(d_n))
    return power_structure_check(spec, n), state_step_check(spec, n, n + 1)


def test_identity_checks_against_naive_matpow_below_k(monkeypatch):
    # n < k - 1 puts d_{n+1-k} at a negative index
    rng = random.Random(47)
    for _ in range(40):
        spec = random_spec(rng)
        n = rng.randint(1, spec.k)
        d_n = naive_matpow(spec.coeffs, n)
        assert oracle_checks(monkeypatch, spec, n, d_n) == (True, True), (spec, n)
        for r, j in product(range(spec.k), repeat=2):
            wrong = [row[:] for row in d_n]
            wrong[r][j] += rng.choice([-1, 1]) * rng.randint(1, 3)
            structure, steps = oracle_checks(monkeypatch, spec, n, wrong)
            assert not structure, (spec, n, r, j)
            if j == 0:                  # Y_0 = e_1 reads column 1 of D^n
                assert not steps, (spec, n, r, j)


def test_power_structure_rejects_custom_window():
    with pytest.raises(ValueError):
        power_structure_check(SequenceSpec((1, 1), (2, 1)), 3)


def test_state_step_examples():
    assert state_step_check(FIB, 1, 0)
    assert state_step_check(FIB, 7, 3)
    assert state_step_check(TRIB, 4, 2)
    for n, r in ((0, 0), (1, -1)):
        with pytest.raises(ValueError, match="need n >= 1 and r >= 0"):
            state_step_check(FIB, n, r)


def test_state_step_randomized():
    rng = random.Random(41)
    for _ in range(60):
        spec = random_spec(rng)
        assert state_step_check(spec, rng.randint(1, 20), rng.randint(0, 20))


def test_window_det_examples():
    # Cassini for Fibonacci
    for n in range(20):
        assert window_det(FIB, n) == (-1) ** n
    assert window_det(TRIB, 2) == 1
    for spec in (FIB, TRIB, EX3):
        assert window_det(spec, 0) == 1
    with pytest.raises(ValueError, match="need n >= 0"):
        window_det(FIB, -1)


def test_window_det_against_permutation_oracle():
    rng = random.Random(43)
    for _ in range(40):
        spec = random_spec(rng)
        n = rng.randint(0, 12)
        value = window_det(spec, n)
        assert value == (-1) ** (n * (spec.k + 1)) * spec.coeffs[-1] ** n
        assert value == perm_det([list(r) for r in window_matrix(spec, n).entries])


def test_bordered_det_examples():
    assert bordered_det(FIB, 1) == -1
    assert bordered_det(SequenceSpec((1, 2)), 2) == -1
    spec = SequenceSpec((2, 1, 1))
    assert bordered_det(spec, 1) == 1
    assert Fraction(bordered_det(spec, 1)) == (
        (-1) ** 4 * 1 * term_negative(spec, -1))
    with pytest.raises(ValueError, match="need n >= 1"):
        bordered_det(FIB, 0)


def test_bordered_det_randomized():
    rng = random.Random(47)
    for _ in range(40):
        spec = random_spec(rng)
        n = rng.randint(1, 8)
        value = bordered_det(spec, n)
        expected = (Fraction(-1) ** (n * (spec.k + 1))
                    * Fraction(spec.coeffs[-1]) ** n * term_negative(spec, -n))
        assert expected.denominator == 1
        assert value == expected
        assert value == perm_det([list(r) for r in bordered_matrix(spec, n).entries])


def test_addition_formula_examples():
    assert addition_formula(FIB, 3, 4) == 21 == term(FIB, 8)
    assert addition_formula(TRIB, 2, 2) == 7 == term(TRIB, 6)
    for n in range(6):
        assert addition_formula(EX3, 0, n) == term(EX3, n + 2)
    for m, n in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="need m, n >= 0"):
            addition_formula(FIB, m, n)


def test_addition_formula_randomized():
    rng = random.Random(53)
    for _ in range(60):
        spec = random_spec(rng)
        m, n = rng.randint(0, 15), rng.randint(0, 15)
        assert addition_formula(spec, m, n) == term(spec, m + n + spec.k - 1)


def test_power_det_identity():
    rng = random.Random(59)
    for _ in range(40):
        spec = random_spec(rng)
        n = rng.randint(0, 10)
        expected = ((-1) ** (spec.k + 1) * spec.coeffs[-1]) ** n
        assert (companion(spec) ** n).det() == expected
