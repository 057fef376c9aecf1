"""The term engine against brute force: single terms read off x^n mod chi
(Fiduccia's method), exact and mod m, and everything built on it: the
l-numbers as the spec (l, 1), sequence quaternions and the unit census."""
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from recurra.lnumbers import LSpec, l_term, l_terms
from recurra.quaternions import invertibility_census, l_quaternion, l_quaternion_norm
from recurra.recurrence import (SequenceSpec, stream, term, term_mod, terms, terms_from,
                                terms_mod)

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
    count = data.draw(st.integers(0, 8), label="count")
    ref = naive_terms(coeffs, n + count + 1, initial)
    assert term(spec, n) == ref[n]
    assert term_mod(spec, n, m).value == ref[n] % m
    assert terms_from(spec, n, count) == ref[n:n + count]
    assert terms_from(spec, n, count, m) == [x % m for x in ref[n:n + count]]
    assert terms(spec, n + 1) == ref[:n + 1]
    assert terms_mod(spec, n + 1, m) == naive_terms_mod(coeffs, n + 1, m, initial)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stream_from_any_window(data):
    # terms and terms_mod are the stream from the spec's own window; from
    # the window at t, it goes on with d_t, d_{t+1}, ...
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
    assert list(islice(stream(spec, m, window), count)) == ref[t:t + count]


def test_stream_checks_its_arguments_when_called():
    spec = SequenceSpec((1, 1))
    for m, window in ((1, None), (0, None), (7, (1, 2, 3)), (None, (1,))):
        with pytest.raises(ValueError):
            stream(spec, m, window)


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
    assert l_quaternion(l, r, n).quat.coeffs == tuple(x % l ** r for x in a[n:n + 4])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(l=st.sampled_from((3, 5, 7, 11, 13)), r=st.integers(1, 4),
       n_max=st.integers(0, 60))
def test_census_property(l, r, n_max):
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
