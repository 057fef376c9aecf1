import random
from math import gcd

import pytest

from recurra.lnumbers import LSpec, l_terms
from recurra.pisano import state_period
from recurra.recurrence import SequenceSpec, terms_mod
from recurra.ringcore import ModulusMismatch, NotInvertible
from recurra.quaternions import (
    CensusRecord,
    CensusReport,
    QuatAlgebra,
    Quaternion,
    invertibility_census,
    l_quat_norm_check,
    l_quaternion,
    l_quaternion_norm,
    m_two_mod_l2_check,
    period_two_check,
    quat_gap_check,
    quat_window_sum,
)

from oracles import naive_lterms, table_quat_mul

PRIMES = (3, 5, 7, 11, 13, 31, 97)


def random_quat(rng, algebra):
    return algebra.quat(*(rng.randrange(algebra.modulus) for _ in range(4)))


def test_basis_products():
    h = QuatAlgebra(-1, -1, 7)
    one, e2, e3, e4 = (h.quat(1, 0, 0, 0), h.quat(0, 1, 0, 0),
                       h.quat(0, 0, 1, 0), h.quat(0, 0, 0, 1))
    assert e2 * e3 == e4
    assert e3 * e2 == -e4 == h.quat(0, 0, 0, 6)
    assert e2 * e2 == h.quat(-1, 0, 0, 0)  # alpha
    assert e3 * e3 == h.quat(-1, 0, 0, 0)  # beta
    assert e4 * e4 == h.quat(-1, 0, 0, 0)  # -alpha*beta
    assert e2 * e4 == -e3  # alpha e3
    assert e4 * e2 == e3   # -alpha e3
    assert e3 * e4 == e2   # -beta e2
    assert e4 * e3 == -e2  # beta e2
    x = random_quat(random.Random(1), h)
    assert one * x == x == x * one


def test_mul_against_table_oracle():
    rng = random.Random(149)
    for _ in range(120):
        p = rng.choice(PRIMES)
        alpha, beta = rng.randrange(p), rng.randrange(p)
        h = QuatAlgebra(alpha, beta, p)
        x, y = random_quat(rng, h), random_quat(rng, h)
        assert (x * y).coeffs == table_quat_mul(x.coeffs, y.coeffs,
                                                alpha, beta, p)


def test_algebra_mismatch():
    with pytest.raises(ModulusMismatch):
        (QuatAlgebra(-1, -1, 5).quat(1, 0, 0, 0)
         * QuatAlgebra(-1, -1, 7).quat(1, 0, 0, 0))


def test_associativity_randomized():
    rng = random.Random(151)
    for _ in range(100):
        p = rng.choice(PRIMES)
        h = QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x, y, z = (random_quat(rng, h) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_conj_norm_trace():
    h = QuatAlgebra(-1, -1, 5)
    x = h.quat(1, 1, 1, 1)
    assert x.norm() == 4
    assert x.trace() == 2
    assert x.conjugate().conjugate() == x
    # norm equals the scalar part of x * conj(x), and the other parts vanish
    rng = random.Random(157)
    for _ in range(60):
        p = rng.choice(PRIMES)
        h = QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x = random_quat(rng, h)
        prod = x * x.conjugate()
        assert prod.coeffs == (x.norm(), 0, 0, 0)
        assert (x + x.conjugate()).coeffs == (x.trace(), 0, 0, 0)


def test_norm_multiplicative():
    rng = random.Random(163)
    for _ in range(80):
        p = rng.choice(PRIMES)
        h = QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x, y = random_quat(rng, h), random_quat(rng, h)
        assert (x * y).norm() == x.norm() * y.norm() % p


def test_conj_antiautomorphism():
    rng = random.Random(167)
    for _ in range(60):
        p = rng.choice(PRIMES)
        h = QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x, y = random_quat(rng, h), random_quat(rng, h)
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def test_inverse():
    h = QuatAlgebra(-1, -1, 5)
    assert h.one().inverse() == h.one()
    assert h.quat(0, 1, 0, 0).inverse() == h.quat(0, 4, 0, 0)
    with pytest.raises(NotInvertible):
        h.quat(1, 2, 0, 0).inverse()  # norm 1 + 4 = 0 mod 5
    rng = random.Random(173)
    hits = 0
    while hits < 40:
        p = rng.choice(PRIMES)
        h = QuatAlgebra(rng.randrange(p), rng.randrange(p), p)
        x = random_quat(rng, h)
        if gcd(x.norm(), p) != 1:
            continue
        hits += 1
        assert x * x.inverse() == h.one()
        assert x.inverse() * x == h.one()


def test_l_quaternion_construction():
    a = l_quaternion(3, 1, 0)
    assert naive_lterms(3, 4) == [0, 1, 3, 10]
    assert a.coeffs == (0, 1, 0, 1)
    assert a.algebra == QuatAlgebra(-1, -1, 3)
    raw = l_quaternion(3, 5, 2)
    assert raw.coeffs == (3, 10, 33, 109)  # below l^5 no reduction bites
    # l = 1: the coefficient window is a plain Fibonacci window; Z_{1^r}
    # is trivial, so the l = 1 family is exercised at the integer level
    assert naive_lterms(1, 8)[4:8] == [3, 5, 8, 13]
    assert l_quaternion_norm(1, 4) == 3 * 3 + 5 * 5 + 8 * 8 + 13 * 13
    for args, message in (((3, 0, 0), "need r >= 1"), ((3, 1, -1), "need n >= 0"),
                          ((1, 1, 0), "need l >= 2")):
        with pytest.raises(ValueError, match=message):
            l_quaternion(*args)


def test_l_quat_norm_identity():
    a1 = naive_lterms(1, 10)
    assert l_quaternion_norm(1, 0) == 6 == 3 * a1[3]
    a2 = naive_lterms(2, 10)
    assert l_quaternion_norm(2, 0) == 30 == 6 * a2[3]
    for l in (1, 2, 3, 4, 5):
        for n in range(21):
            assert l_quat_norm_check(l, n)
    for l, n in ((0, 3), (3, -1)):
        with pytest.raises(ValueError, match="need l >= 1 and n >= 0"):
            l_quat_norm_check(l, n)


def test_exact_norm_at_a_far_index_runs_in_bounded_memory(capped_python):
    # the five terms come off terms_from in O(n) bits; a prefix of 2n + 4
    # exact terms to n = 10^5 would take about a gigabyte
    script = ("from recurra.quaternions import l_quat_norm_check, l_quaternion_norm\n"
              "print(l_quat_norm_check(3, 10 ** 5), l_quaternion_norm(3, 10 ** 5) % 1000003)")
    proc = capped_python("-c", script, cap_mb=64, cpu_s=10)
    a = terms_mod(LSpec(3), 10 ** 5 + 4, 1000003)[-4:]
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"True {sum(x * x for x in a) % 1000003}\n"


def test_census():
    for l, r in ((3, 1), (3, 2), (5, 3), (7, 2)):
        report = invertibility_census(l, r, 30)
        assert len(report.records) == 31
        assert report.all_invertible
        assert report.all_norms_two_mod_l2
        for rec in report.records:
            assert gcd(l_quaternion_norm(l, rec.index), l ** r) == 1
    with pytest.raises(ValueError):
        invertibility_census(4, 1, 5)
    with pytest.raises(ValueError):
        invertibility_census(2, 1, 5)
    for r, n_max in ((0, 5), (1, -1)):
        with pytest.raises(ValueError, match="need r >= 1 and n_max >= 0"):
            invertibility_census(3, r, n_max)


def exact_census(l, r, n_max):
    """The census from exact terms and exact norms, reduced only at the end."""
    a, mod = naive_lterms(l, n_max + 4), l ** r
    records = []
    for n in range(n_max + 1):
        norm = sum(x * x for x in a[n:n + 4])
        records.append(CensusRecord(n, tuple(x % mod for x in a[n:n + 4]), norm % mod,
                                    gcd(norm, mod) == 1, norm % (l * l) == 2))
    return CensusReport(l, r, tuple(records))


@pytest.mark.parametrize("l", (3, 5, 7))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_census_against_exact_squares(l, r):
    for n_max in (0, 1, 2, 37, 300):
        assert invertibility_census(l, r, n_max) == exact_census(l, r, n_max)


@pytest.mark.parametrize("l", (3, 5, 7))
@pytest.mark.parametrize("n_max", (0, 1, 2, 37))
def test_census_against_exact_squares_around_its_exactness_cap(l, n_max):
    # the census works mod l^min(r, 4*n_max + 10); from there on its
    # records are the exact coefficients and norms, whatever r is
    cap = 4 * n_max + 10
    exact = exact_census(l, cap, n_max).records
    for r in (cap - 1, cap, cap + 1, 10 ** 6):
        report = invertibility_census(l, r, n_max)
        assert report == exact_census(l, r, n_max)
        if r >= cap:
            assert report.records == exact
            assert [rec.norm_mod for rec in exact] == [
                l_quaternion_norm(l, n) for n in range(n_max + 1)]


def test_period_two():
    for l in (3, 5, 7):
        for n in range(31):
            assert period_two_check(l, n)
    assert period_two_check(5, 7)
    with pytest.raises(ValueError):
        period_two_check(1, 3)
    with pytest.raises(ValueError, match="need n >= 0"):
        period_two_check(3, -1)


def test_gap_congruences():
    for l in (3, 5):
        for k in (2, 3):
            for n in range(11):
                assert quat_gap_check(l, n, k, 2 ** k)
                assert quat_gap_check(l, n, k, 3 * 2 ** k)
    # coefficient route agrees: M_k is 2 mod l^2, which is what makes the
    # doubled middle term the right-hand side
    for l in (3, 5, 7):
        for k in range(2, 8):
            assert m_two_mod_l2_check(l, k)
    with pytest.raises(ValueError):
        quat_gap_check(3, 0, 2, 5)
    for n, k in ((0, 1), (-1, 2)):
        with pytest.raises(ValueError, match="need k >= 2 and n >= 0"):
            quat_gap_check(3, n, k, 2 ** k)
    with pytest.raises(ValueError, match="needs l >= 2"):
        m_two_mod_l2_check(1, 2)


def test_window_sum_zero():
    for l in (3, 5):
        for n in (0, 1, 3, 7):
            total = quat_window_sum(l, n)
            assert total.coeffs == (0, 0, 0, 0)
            assert total.algebra.modulus == l * l
    with pytest.raises(ValueError, match="need n >= 0"):
        quat_window_sum(3, -1)


def test_window_length_is_multiple_of_sequence_period():
    # the term sequence mod l^2 has period dividing 2*l^2, which is why the
    # window sum is shift invariant
    for l in (3, 5):
        spec = SequenceSpec((l, 1), (0, 1))
        result = state_period(spec, l * l)
        assert result.tail == 0
        assert (2 * l * l) % result.period == 0


def test_window_sum_single_period_constant():
    # summing over one full period gives the same total from any phase
    for l in (3, 5):
        spec = SequenceSpec((l, 1), (0, 1))
        period = state_period(spec, l * l).period
        a = l_terms(LSpec(l), 4 * period + 8)
        m = l * l
        totals = {sum(a[s:s + period]) % m for s in range(6)}
        assert len(totals) == 1
