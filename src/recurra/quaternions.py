"""Generalized quaternion algebras H(alpha, beta) over Z_n.

Basis (1, i, j, ij) with i^2 = alpha, j^2 = beta, ij = -ji; conjugate
negates the three imaginary coefficients, the norm is
c1^2 - alpha c2^2 - beta c3^2 + alpha*beta c4^2, and an element is a unit
exactly when its norm is a unit in Z_n (x * conj(x) = norm(x) * 1).

The second half builds "sequence quaternions" over H(-1,-1): four
consecutive terms of the l-number sequence as coefficients, where the
norm collapses to (l^2 + 2) * a_{2n+3} and is always 2 mod l^2, so every
such element is a unit mod any power of an odd prime l.
"""
from __future__ import annotations

from math import gcd
from operator import index

from .ringcore import ModulusMismatch, Value, check_modulus, invert_mod, set_field
from .ntheory import is_prime
from .lnumbers import LSpec, l_terms, m_value
from .recurrence import terms_from


class QuatAlgebra(Value):
    """H(alpha, beta) over Z_n, each an integer (operator.index)."""

    _fields = ("alpha", "beta", "modulus")

    def __init__(self, alpha: int, beta: int, modulus: int):
        modulus = check_modulus(modulus)
        set_field(self, "alpha", index(alpha) % modulus)
        set_field(self, "beta", index(beta) % modulus)
        set_field(self, "modulus", modulus)

    def quat(self, c1: int, c2: int, c3: int, c4: int) -> "Quaternion":
        return Quaternion(self, (c1, c2, c3, c4))

    def one(self) -> "Quaternion":
        return self.quat(1, 0, 0, 0)

    def zero(self) -> "Quaternion":
        return self.quat(0, 0, 0, 0)


class Quaternion(Value):
    """c1 + c2 i + c3 j + c4 ij: exactly four integer coefficients, in Z_n."""

    _fields = ("algebra", "coeffs")

    def __init__(self, algebra: QuatAlgebra, coeffs: tuple[int, int, int, int]):
        m = algebra.modulus
        coeffs = tuple([index(c) % m for c in coeffs])
        if len(coeffs) != 4:
            raise ValueError(f"a quaternion has 4 coefficients, got {len(coeffs)}")
        set_field(self, "algebra", algebra)
        set_field(self, "coeffs", coeffs)

    def _match(self, other: "Quaternion") -> None:
        if self.algebra != other.algebra:
            raise ModulusMismatch(f"{self.algebra} vs {other.algebra}")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._match(other)
        return Quaternion(self.algebra,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        self._match(other)
        return Quaternion(self.algebra,
                          tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Quaternion":
        return Quaternion(self.algebra, tuple(-c for c in self.coeffs))

    def scale(self, c: int) -> "Quaternion":
        return Quaternion(self.algebra, tuple(c * x for x in self.coeffs))

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        self._match(other)
        al, be = self.algebra.alpha, self.algebra.beta
        x1, x2, x3, x4 = self.coeffs
        y1, y2, y3, y4 = other.coeffs
        return Quaternion(self.algebra, (
            x1 * y1 + al * x2 * y2 + be * x3 * y3 - al * be * x4 * y4,
            x1 * y2 + x2 * y1 - be * x3 * y4 + be * x4 * y3,
            x1 * y3 + al * x2 * y4 + x3 * y1 - al * x4 * y2,
            x1 * y4 + x2 * y3 - x3 * y2 + x4 * y1,
        ))

    def conjugate(self) -> "Quaternion":
        c1, c2, c3, c4 = self.coeffs
        return Quaternion(self.algebra, (c1, -c2, -c3, -c4))

    def trace(self) -> int:
        """Scalar part of x + conj(x)."""
        return 2 * self.coeffs[0] % self.algebra.modulus

    def norm(self) -> int:
        al, be, m = self.algebra.alpha, self.algebra.beta, self.algebra.modulus
        c1, c2, c3, c4 = self.coeffs
        return (c1 * c1 - al * c2 * c2 - be * c3 * c3 + al * be * c4 * c4) % m

    def inverse(self) -> "Quaternion":
        """conj(x) * norm(x)^{-1}; NotInvertible when the norm is not a unit."""
        n_inv = invert_mod(self.norm(), self.algebra.modulus)
        return self.conjugate().scale(n_inv)

    def is_unit(self) -> bool:
        return gcd(self.norm(), self.algebra.modulus) == 1


def _require_odd_prime(l: int) -> None:
    if l < 3 or not is_prime(l):
        raise ValueError(f"l must be an odd prime, got {l}")


def l_quaternion(l: int, r: int, n: int) -> Quaternion:
    """A_n = a_n + a_{n+1} i + a_{n+2} j + a_{n+3} ij in H(-1,-1) over Z_{l^r}."""
    if r < 1:
        raise ValueError("need r >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    if l < 2:
        raise ValueError("need l >= 2; Z_{l^r} is trivial for l = 1, use "
                         "l_quaternion_norm for the integer-level identities")
    mod = l ** r
    coeffs = terms_from(LSpec(l), n, 4, mod)
    return QuatAlgebra(-1, -1, mod).quat(*coeffs)


def l_quaternion_norm(l: int, n: int) -> int:
    """The exact integer norm of A_n in H(-1,-1): the four-square sum.
    Its four terms are read off one x^floor(n/2), in O(n) bits."""
    a = terms_from(LSpec(l), n, 4)
    return a[0] ** 2 + a[1] ** 2 + a[2] ** 2 + a[3] ** 2


def l_quat_norm_check(l: int, n: int) -> bool:
    """Over Z: a_n^2 + a_{n+1}^2 + a_{n+2}^2 + a_{n+3}^2 = (l^2+2) a_{2n+3}."""
    if l < 1 or n < 0:
        raise ValueError("need l >= 1 and n >= 0")
    return l_quaternion_norm(l, n) == (l * l + 2) * terms_from(LSpec(l), 2 * n + 3, 1)[0]


class CensusRecord(Value):
    _fields = ("index", "coeffs", "norm_mod", "invertible", "norm_is_two_mod_l2")

    def __init__(self, index: int, coeffs: tuple[int, int, int, int], norm_mod: int,
                 invertible: bool, norm_is_two_mod_l2: bool):
        set_field(self, "index", index)
        set_field(self, "coeffs", tuple(coeffs))
        set_field(self, "norm_mod", norm_mod)
        set_field(self, "invertible", invertible)
        set_field(self, "norm_is_two_mod_l2", norm_is_two_mod_l2)


class CensusReport(Value):
    _fields = ("l", "r", "records")

    def __init__(self, l: int, r: int, records: tuple[CensusRecord, ...]):
        set_field(self, "l", l)
        set_field(self, "r", r)
        set_field(self, "records", records)

    @property
    def all_invertible(self) -> bool:
        return all(rec.invertible for rec in self.records)

    @property
    def all_norms_two_mod_l2(self) -> bool:
        return all(rec.norm_is_two_mod_l2 for rec in self.records)


def invertibility_census(l: int, r: int, n_max: int) -> CensusReport:
    """For n = 0..n_max: A_n mod l^r, is it a unit, is its norm 2 mod l^2?

    Both hold for every n when l is an odd prime; the report makes that
    checkable instead of assumed.  The terms are reduced mod l^max(s, 2),
    s = min(r, 4*n_max + 10), as a_t <= (l+1)^(t-1) <= l^(2t-2) for t >= 1:
      every coefficient (a_t, t <= n_max + 3) is below l^(2*n_max + 4),
      every norm (at most 4*a_{n_max+3}^2) is below l^(4*n_max + 10),
    so past s a residue is the exact value.  A unit has a norm prime to l.
    """
    _require_odd_prime(l)
    if r < 1 or n_max < 0:
        raise ValueError("need r >= 1 and n_max >= 0")
    s = min(r, 4 * n_max + 10)
    mod, l2, big = l ** s, l * l, l ** max(s, 2)
    a = [x % big for x in l_terms(LSpec(l), n_max + 4)]
    records = []
    for n in range(n_max + 1):
        norm = a[n] ** 2 + a[n + 1] ** 2 + a[n + 2] ** 2 + a[n + 3] ** 2
        records.append(CensusRecord(n, tuple(x % mod for x in a[n:n + 4]), norm % mod,
                                    norm % l != 0, norm % l2 == 2))
    return CensusReport(l, r, tuple(records))


def period_two_check(l: int, n: int) -> bool:
    """A_n = A_{n+2} in H(-1,-1) over Z_l (coefficients agree mod l)."""
    _require_odd_prime(l)
    if n < 0:
        raise ValueError("need n >= 0")
    return l_quaternion(l, 1, n) == l_quaternion(l, 1, n + 2)


def quat_gap_check(l: int, n: int, k: int, variant: int) -> bool:
    """A_n + A_{n+g} = 2 A_{n+g/2} mod l^2, g = 2^k or 3*2^k (k >= 2)."""
    _require_odd_prime(l)
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    if variant not in (2 ** k, 3 * 2 ** k):
        raise ValueError(f"variant must be 2^k or 3*2^k, got {variant}")
    a_n = l_quaternion(l, 2, n)
    a_hi = l_quaternion(l, 2, n + variant)
    a_mid = l_quaternion(l, 2, n + variant // 2)
    return a_n + a_hi == a_mid.scale(2)


def quat_window_sum(l: int, n: int) -> Quaternion:
    """Sum of the 2*l^2 consecutive A_n, ..., A_{n+2l^2-1} mod l^2."""
    _require_odd_prime(l)
    if n < 0:
        raise ValueError("need n >= 0")
    algebra = QuatAlgebra(-1, -1, l * l)
    a = terms_from(LSpec(l), n, 2 * l * l + 3, l * l)
    total = algebra.zero()
    for t in range(2 * l * l):
        total = total + algebra.quat(*a[t:t + 4])
    return total


def m_two_mod_l2_check(l: int, k: int) -> bool:
    """M_k = 2 mod l^2 (2 is fixed by x -> x^2 - 2, and M_2 = 2 mod l^2)."""
    if l < 2:
        raise ValueError("needs l >= 2")
    return m_value(LSpec(l), k) % (l * l) == 2
