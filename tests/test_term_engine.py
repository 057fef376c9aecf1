"""The term engine against brute force: single terms read off x^n mod chi
(Fiduccia's method), exact and mod m, and everything built on it: the
l-numbers as the spec (l, 1), sequence quaternions and the unit census."""
from itertools import islice
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from recurra import recurrence
from recurra.lnumbers import LSpec, l_term, l_terms
from recurra.quaternions import invertibility_census, l_quaternion, l_quaternion_norm
from recurra.recurrence import (SequenceSpec, stream, term, term_mod, terms, terms_from,
                                terms_mod, x_power)

from oracles import naive_lterms, naive_matpow_squaring, naive_terms, naive_terms_mod

MODULI = st.one_of(
    st.integers(2, 1000),
    st.integers(1, 70).map(lambda r: 2 ** r),
    st.tuples(st.sampled_from((3, 5, 7, 11, 13, 97)), st.integers(1, 8)).map(
        lambda pr: pr[0] ** pr[1]),
    st.integers(2 ** 64, 2 ** 80),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_terms_property(data):
    k = data.draw(st.integers(2, 6), label="k")
    head = data.draw(st.lists(st.integers(-9, 9), min_size=k - 1, max_size=k - 1))
    a_k = data.draw(st.integers(-9, 9).filter(bool), label="a_k")
    coeffs = tuple(head + [a_k])
    initial = data.draw(st.none() | st.tuples(*[st.integers(-50, 50)] * k),
                        label="window")
    spec = SequenceSpec(coeffs, initial)
    n = data.draw(st.integers(0, 300), label="n")
    m = data.draw(MODULI, label="m")
    count = data.draw(st.integers(0, 2 * k + 3), label="count")
    ref = naive_terms(coeffs, n + count + 1, initial)
    assert term(spec, n) == ref[n]
    assert term_mod(spec, n, m).value == ref[n] % m
    assert terms_from(spec, n, count) == ref[n:n + count]
    assert terms_from(spec, n, count, m) == [x % m for x in ref[n:n + count]]
    assert terms(spec, n + 1) == ref[:n + 1]
    assert terms_mod(spec, n + 1, m) == naive_terms_mod(coeffs, n + 1, m, initial)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_far_terms_property(data):
    # terms_from powers x only to floor(n/2), so both parities of n are
    # drawn, and the smallest n, where x^floor(n/2) is 1 or x
    k = data.draw(st.integers(2, 8), label="k")
    head = data.draw(st.lists(st.integers(-9, 9), min_size=k - 1, max_size=k - 1))
    a_k = data.draw(st.integers(-9, 9).filter(bool), label="a_k")
    coeffs = tuple(head + [a_k])
    initial = data.draw(st.none() | st.tuples(*[st.integers(-50, 50)] * k),
                        label="window")
    spec = SequenceSpec(coeffs, initial)
    count = data.draw(st.integers(0, 2 * k + 3), label="count")
    n = data.draw(st.sampled_from((0, 1, 2, 3)) | st.integers(0, 3000), label="n")
    ref = naive_terms(coeffs, n + count + 2, initial)
    for t in (n, n + 1):
        assert term(spec, t) == ref[t]
        assert terms_from(spec, t, count) == ref[t:t + count]
    # mod m, against D^n Y_i = Y_{n+i}, Y_i = (d_{i+k-1}, ..., d_i), whose
    # last entry is d_{n+i}
    m = data.draw(MODULI, label="m")
    n = data.draw(st.sampled_from((0, 1, 2, 3)) | st.integers(0, 10 ** 30), label="far n")
    prefix = naive_terms(coeffs, count + k + 1, initial)
    windows = [prefix[i:i + k][::-1] for i in range(count + 2)]
    for t in (n, n + 1):
        bottom = naive_matpow_squaring(coeffs, t, m)[-1]
        expected = [sum(map(mul, bottom, y)) % m for y in windows]
        assert term_mod(spec, t, m).value == expected[0]
        assert terms_from(spec, t, count, m) == expected[:count]


def test_a_long_run_at_a_far_exact_index():
    # past its first k terms, terms_from steps the recurrence on; checked
    # against the exact D^n applied to the windows Y_i
    for coeffs, initial in (((1, 1), None), ((2, -1, 3), (4, -7, 1)),
                            ((1, 0, -2, 1, 1), (1, 2, 3, 4, 5))):
        k = len(coeffs)
        spec = SequenceSpec(coeffs, initial)
        count = 3 * k + 1
        prefix = naive_terms(coeffs, count + k, initial)
        windows = [prefix[i:i + k][::-1] for i in range(count)]
        for n in (20000, 20001):
            bottom = naive_matpow_squaring(coeffs, n, None)[-1]
            expected = [sum(map(mul, bottom, y)) for y in windows]
            assert terms_from(spec, n, count) == expected, (coeffs, n)
            assert term(spec, n + count - 1) == expected[-1]


def test_products_per_power_are_pinned(monkeypatch):
    # the top-bit-first ladder squares once per further bit and multiplies
    # by the base once per further set bit, from x as from any other
    # base; term powers only to floor(n/2)
    real = recurrence._mulmod_charpoly
    calls = []
    monkeypatch.setattr(recurrence, "_mulmod_charpoly",
                        lambda *args: calls.append(args) or real(*args))
    for coeffs in ((1, 1), (3, -1, 4, 1, -5)):
        spec = SequenceSpec(coeffs)
        other = (2, 1) + (0,) * (spec.k - 2)
        for m in (None, 10 ** 9 + 7):
            for n in (1, 2, 3, 7, 8, 255, 256, 1000, 4097):
                for base in (None, other):
                    calls.clear()
                    x_power(spec, n, m, base)
                    squares = sum(u is v for u, v, *_ in calls)
                    assert (squares, len(calls) - squares) == (
                        n.bit_length() - 1, bin(n).count("1") - 1), (coeffs, m, n, base)
                if n >= 2:
                    calls.clear()
                    if m is None:
                        term(spec, n)
                    else:
                        term_mod(spec, n, m)
                    h = n // 2
                    assert len(calls) == h.bit_length() - 1 + bin(h).count("1") - 1
            # a run past k terms steps on from the first k: no more products
            calls.clear()
            terms_from(spec, 1001, 3 * spec.k, m)
            assert len(calls) == 8 + 6 - 1, (coeffs, m)     # 500 = 0b111110100


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stream_from_any_window(data):
    # terms and terms_mod are the stream from the spec's own window; a spec
    # whose window is the one at t goes on with d_t, d_{t+1}, ...
    k = data.draw(st.integers(2, 6), label="k")
    coeffs = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k).filter(
        lambda c: c[-1]), label="coeffs"))
    initial = data.draw(st.none() | st.tuples(*[st.integers(-50, 50)] * k), label="initial")
    t = data.draw(st.integers(0, 200), label="t")
    count = data.draw(st.integers(0, 50), label="count")
    m = data.draw(st.none() | MODULI, label="m")
    spec = SequenceSpec(coeffs, initial)
    ref = naive_terms(coeffs, t + max(count, k), initial)
    if m is not None:
        ref = [x % m for x in ref]
    assert list(islice(stream(spec, m), t + count)) == ref[:t + count]
    # the window need not be reduced: the stream reduces it
    window = tuple(naive_terms(coeffs, t + k, initial)[t:])
    later = SequenceSpec(coeffs, window)
    assert list(islice(stream(later, m), count)) == ref[t:t + count]


def test_stream_checks_its_arguments_when_called():
    spec = SequenceSpec((1, 1))
    for m in (1, 0):
        with pytest.raises(ValueError):
            stream(spec, m)


def test_l_terms_extends_its_prefix_from_the_last_window():
    spec = LSpec(3)
    for count in (0, 1, 2, 3, 5, 4, 40, 41, 300, 7, 1000):
        assert l_terms(spec, count) == naive_lterms(3, count), count
    assert len(spec._prefix) == 1000


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(l=st.integers(1, 30), n=st.integers(0, 300))
def test_lnumbers_property(l, n):
    ref = naive_lterms(l, n + 1)
    assert l_term(LSpec(l), n) == ref[n]
    assert l_terms(LSpec(l), n + 1) == ref


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(l=st.integers(2, 30), r=st.integers(1, 5), n=st.integers(0, 300))
def test_l_quaternion_property(l, r, n):
    a = naive_lterms(l, n + 4)
    assert l_quaternion(l, r, n).coeffs == tuple(x % l ** r for x in a[n:n + 4])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(l=st.sampled_from((3, 5, 7, 11, 13)), r=st.integers(1, 4),
       n_max=st.integers(0, 60))
def test_census_property(l, r, n_max):
    # the census reduces an l_terms prefix; l_quaternion_norm reads its
    # four terms off terms_from
    report = invertibility_census(l, r, n_max)
    assert [rec.index for rec in report.records] == list(range(n_max + 1))
    for rec in report.records:
        assert rec.norm_mod == l_quaternion_norm(l, rec.index) % l ** r


def test_far_fibonacci_term_mod():
    # F_n is the (0, 1) entry of D^n
    m = 10 ** 9 + 7
    expected = naive_matpow_squaring((1, 1), 10 ** 6, m)[0][1]
    assert term_mod(SequenceSpec((1, 1)), 10 ** 6, m).value == expected


def test_negative_counts_raise():
    spec = SequenceSpec((1, 1))
    for count in (-1, -2):
        with pytest.raises(ValueError):
            terms(spec, count)
        with pytest.raises(ValueError):
            terms_mod(spec, count, 7)
        with pytest.raises(ValueError):
            l_terms(LSpec(1), count)
        with pytest.raises(ValueError):
            terms_from(spec, 5, count, 7)
    assert terms(spec, 0) == terms_mod(spec, 0, 7) == l_terms(LSpec(1), 0) == []
