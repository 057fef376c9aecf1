from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from recurra import lnumbers
from recurra.lnumbers import (
    LSpec,
    ResidueClass,
    binet_check,
    divisibility_check,
    gap_identity_check,
    ideal_check,
    index_addition_check,
    l_term,
    l_terms,
    m_value,
    residue_class,
    square_sum_check,
    triple_gap_check,
)
from recurra.recurrence import SequenceSpec, term, terms_mod

from oracles import naive_lterms

L_VALUES = (1, 2, 3, 5, 7)


def test_spec_guard():
    with pytest.raises(ValueError):
        LSpec(0)


def test_term_examples():
    assert l_term(LSpec(1), 10) == 55
    assert l_term(LSpec(2), 5) == 29
    for l in (2, 3, 4, 9):
        assert l_term(LSpec(l), 3) == l * l + 1
        assert l_term(LSpec(l), 4) == l * (l * l + 2)
        assert l_term(LSpec(l), 5) == l * l * (l * l + 3) + 1


def test_terms_against_oracle():
    for l in L_VALUES:
        assert l_terms(LSpec(l), 40) == naive_lterms(l, 40)
    assert l_terms(LSpec(3), 6) == [0, 1, 3, 10, 33, 109]


def test_binet():
    assert binet_check(LSpec(1), 1)
    assert binet_check(LSpec(2), 5)
    assert binet_check(LSpec(3), 20)
    for l in (1, 2, 3, 4, 5):
        for n in range(41):
            assert binet_check(LSpec(l), n)
    with pytest.raises(ValueError):
        binet_check(LSpec(1), 41)


def test_square_sum():
    assert square_sum_check(LSpec(3), 0)  # 0 + 1 = a_1
    spec = LSpec(2)
    assert l_term(spec, 2) ** 2 + l_term(spec, 3) ** 2 == 4 + 25 == l_term(spec, 5)
    assert square_sum_check(spec, 2)
    for l in L_VALUES:
        for n in range(31):
            assert square_sum_check(LSpec(l), n)


def test_divisibility():
    assert l_term(LSpec(1), 3) == 2 and l_term(LSpec(1), 12) == 144
    assert divisibility_check(LSpec(1), 3, 12)
    for l in L_VALUES:
        spec = LSpec(l)
        for n in range(1, 31):
            for d in range(1, n + 1):
                if n % d == 0:
                    assert divisibility_check(spec, d, n)
    with pytest.raises(ValueError):
        divisibility_check(LSpec(1), 5, 12)


def test_index_addition():
    for l in L_VALUES:
        spec = LSpec(l)
        assert index_addition_check(spec, 1, 7)
        for m in range(1, 31, 3):
            for n in range(0, 31, 4):
                assert index_addition_check(spec, m, n)
    for m, n in ((0, 3), (2, -1)):
        with pytest.raises(ValueError, match="need m >= 1 and n >= 0"):
            index_addition_check(LSpec(2), m, n)


def test_m_values():
    assert [m_value(LSpec(1), k) for k in (2, 3, 4)] == [3, 7, 47]
    assert m_value(LSpec(2), 2) == 6
    for l in (2, 3, 7):
        assert m_value(LSpec(l), 2) == l * l + 2
        for k in range(3, 10):
            prev = m_value(LSpec(l), k - 1)
            assert m_value(LSpec(l), k) == prev * prev - 2
    with pytest.raises(ValueError):
        m_value(LSpec(1), 1)


def test_gap_identity():
    # k = 2: a_n + a_{n+4} = (l^2+2) a_{n+2}
    a = l_terms(LSpec(2), 6)
    assert a[1] + a[5] == 1 + 29 == 6 * a[3]
    assert gap_identity_check(LSpec(2), 1, 2)
    # Fibonacci at k = 4: 1 + 1597 = 47 * 34
    f = l_terms(LSpec(1), 18)
    assert f[1] + f[17] == 1598 == 47 * f[9]
    assert gap_identity_check(LSpec(1), 1, 4)
    for l in L_VALUES:
        for k in range(2, 6):
            for n in range(0, 31, 2):
                assert gap_identity_check(LSpec(l), n, k)
    for check in (gap_identity_check, triple_gap_check):
        for n, k in ((0, 1), (-1, 2)):
            with pytest.raises(ValueError, match="need k >= 2 and n >= 0"):
                check(LSpec(2), n, k)


def test_triple_gap():
    f = l_terms(LSpec(1), 14)
    assert f[1] + f[13] == 234 == 3 * 6 * f[7]
    assert triple_gap_check(LSpec(1), 1, 2)
    for l in L_VALUES:
        for k in range(2, 5):
            for n in range(11):
                assert triple_gap_check(LSpec(l), n, k)


def test_residue_class_examples():
    assert l_term(LSpec(3), 4) == 33
    assert residue_class(LSpec(3), 4) is ResidueClass.DIVISIBLE_BY_L
    assert l_term(LSpec(3), 5) == 109 and 109 % 9 == 1
    assert residue_class(LSpec(3), 5) is ResidueClass.ONE_MOD_L_SQUARED
    assert residue_class(LSpec(3), 0) is ResidueClass.DIVISIBLE_BY_L
    with pytest.raises(ValueError):
        residue_class(LSpec(1), 3)
    with pytest.raises(ValueError, match="need n >= 0"):
        residue_class(LSpec(3), -1)


def test_residue_class_biconditional():
    # both directions: the classes are mutually exclusive, so parity
    # matching the class pins each congruence to exactly its parity
    for l in (2, 3, 5, 7):
        spec = LSpec(l)
        for n in range(61):
            expected = (ResidueClass.DIVISIBLE_BY_L if n % 2 == 0
                        else ResidueClass.ONE_MOD_L_SQUARED)
            assert residue_class(spec, n) is expected
            value = l_term(spec, n)
            assert (value % l == 0) == (n % 2 == 0)
            assert (value % (l * l) == 1) == (n % 2 == 1)


def test_ideal_check(monkeypatch):
    assert ideal_check(LSpec(3), 6)
    assert ideal_check(LSpec(2), 5)
    assert ideal_check(LSpec(5), 1)  # gcd(a_2) = a_2 = l
    a = l_terms(LSpec(3), 13)
    assert gcd(a[2], a[4], a[6], a[8], a[10], a[12]) == 3
    with pytest.raises(ValueError, match="needs l >= 2"):
        ideal_check(LSpec(1), 6)
    with pytest.raises(ValueError, match="need bound >= 1"):
        ideal_check(LSpec(3), 0)
    # the terms of l = 3 with a_2 = 3 changed to 10, which 3 does not divide
    wrong = naive_lterms(3, 5)
    wrong[2] = 10
    monkeypatch.setattr(lnumbers, "l_terms", lambda spec, count: wrong[:count])
    assert not ideal_check(LSpec(3), 2)


def test_even_index_multiples_closed_under_ring_ops():
    # integer combinations of even-index terms: differences and products
    # stay inside l*Z, and integer rescaling stays inside too
    import random
    rng = random.Random(211)
    for l in (2, 3, 5, 7):
        a = l_terms(LSpec(l), 25)
        for _ in range(40):
            alpha, beta = rng.randint(-9, 9), rng.randint(-9, 9)
            n, m = rng.randint(0, 12), rng.randint(0, 12)
            x, y = alpha * a[2 * n], beta * a[2 * m]
            assert (x - y) % l == 0
            assert (x * y) % l == 0
            assert (rng.randint(-9, 9) * x) % l == 0


def test_m_tower_two_mod_l_squared():
    for l in (2, 3, 5, 7, 10):
        for k in range(2, 13):
            assert m_value(LSpec(l), k) % (l * l) == 2


def test_pell_and_fibonacci_specials():
    assert l_terms(LSpec(2), 8) == [0, 1, 2, 5, 12, 29, 70, 169]
    assert l_terms(LSpec(1), 13) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]


def test_one_spec_serves_shorter_and_longer_prefixes():
    spec = LSpec(3)
    for count in (50, 10, 0, 1, 2, 80, 79, 81, 3):
        assert l_terms(spec, count) == naive_lterms(3, count), count
    for n in (0, 1, 40, 80, 81, 200):
        assert l_term(spec, n) == naive_lterms(3, n + 1)[n], n
    with pytest.raises(ValueError):
        l_terms(spec, -1)
    with pytest.raises(ValueError):
        l_term(spec, -1)
    # the prefix is no part of the value
    assert spec == LSpec(3) and hash(spec) == hash(LSpec(3))
    assert repr(spec) == "LSpec(l=3)"


def test_a_changed_prefix_list_does_not_reach_the_next_caller():
    spec = LSpec(2)
    first = l_terms(spec, 20)
    first[5] = -1
    first.append(7)
    first.clear()
    assert l_terms(spec, 20) == naive_lterms(2, 20)
    assert l_terms(spec, 30) == naive_lterms(2, 30)
    assert l_terms(spec, 20) is not l_terms(spec, 20)


def test_an_lspec_is_the_spec_l_1():
    for l in L_VALUES:
        spec = LSpec(l)
        assert isinstance(spec, SequenceSpec)
        assert (spec.coeffs, spec.initial) == ((l, 1), (0, 1))
        assert spec != SequenceSpec((l, 1)) and repr(spec) == f"LSpec(l={l})"
        assert term(spec, 60) == l_term(spec, 60) == naive_lterms(l, 61)[60]
        for m in (2, 7, 10 ** 9 + 7):
            assert terms_mod(spec, 50, m) == [x % m for x in l_terms(spec, 50)]


# Each identity check reads the terms it names through l_term: off the
# spec's prefix where that reaches, by term() past it.  The prefix is
# filled to a drawn length first, so the reads fall on both sides of its
# end, and no check grows it.
def _named_reads(l, fill, check, *args):
    spec = LSpec(l)
    l_terms(spec, fill)
    before = len(spec._prefix)
    result = check(spec, *args)
    assert len(spec._prefix) == before
    return result


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 130), st.integers(0, 60))
def test_square_sum_reads_named_terms(l, fill, n):
    a = naive_lterms(l, 2 * n + 2)
    assert _named_reads(l, fill, square_sum_check, n) is (
        a[n] ** 2 + a[n + 1] ** 2 == a[2 * n + 1]) is True


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 130), st.integers(1, 30), st.integers(1, 6))
def test_divisibility_reads_named_terms(l, fill, d, q):
    a = naive_lterms(l, d * q + 1)
    assert _named_reads(l, fill, divisibility_check, d, d * q) is (
        a[d * q] % a[d] == 0) is True


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 130), st.integers(1, 70), st.integers(0, 70))
def test_index_addition_reads_named_terms(l, fill, m, n):
    a = naive_lterms(l, m + n + 2)
    assert _named_reads(l, fill, index_addition_check, m, n) is (
        a[m + n] == a[m] * a[n + 1] + a[m - 1] * a[n]) is True


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 130), st.integers(0, 60), st.integers(2, 6))
def test_gap_identity_reads_named_terms(l, fill, n, k):
    gap = 2 ** k
    a = naive_lterms(l, n + gap + 1)
    assert _named_reads(l, fill, gap_identity_check, n, k) is (
        a[n] + a[n + gap] == m_value(LSpec(l), k) * a[n + gap // 2]) is True


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 130), st.integers(0, 60), st.integers(2, 5))
def test_triple_gap_reads_named_terms(l, fill, n, k):
    gap, mk = 3 * 2 ** k, m_value(LSpec(l), k)
    a = naive_lterms(l, n + gap + 1)
    assert _named_reads(l, fill, triple_gap_check, n, k) is (
        a[n] + a[n + gap] == mk * (mk * mk - 3) * a[n + gap // 2]) is True


def test_the_checks_at_far_indices_run_in_bounded_memory(capped_python):
    # a prefix to a_40001 of l = 3 holds about 200 MB; the checks read
    # three to five terms of at most 65546 * log2(3.31) bits each
    script = ("from recurra.lnumbers import *\n"
              "s = LSpec(3)\n"
              "print(index_addition_check(s, 20000, 20000), square_sum_check(s, 20000),\n"
              "      divisibility_check(s, 7, 42000), gap_identity_check(s, 10, 16),\n"
              "      triple_gap_check(s, 10, 14), len(s._prefix))")
    proc = capped_python("-c", script, cap_mb=64, cpu_s=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True True True True 2\n", "")
