"""Generalized Pisano periods and the laws they satisfy.

pi(m) is defined here as the multiplicative order of the companion matrix
mod m (the sequence-window period divides it and is reported separately,
since the two need not coincide for every initial window).  The order is
not searched for step by step: it is the least divisor of a factored
multiple that sends x to 1 in Z_m[x]/(chi).  Per p^r || m the multiple is
lcm(p^d - 1) over the degrees d of the irreducible factors of chi mod p,
found by distinct-degree factorization, times a power of p; only those
p^d - 1 are factored, and a product tree descends from the multiple.
"""
from __future__ import annotations

from itertools import accumulate, repeat
from math import gcd, lcm, log
from operator import index, mul

from .ringcore import (BrokenIdentity, NotInvertible, Residue, Value, check_modulus,
                       multiplicative_order, set_field)
from .ntheory import (_exponent_factored, factorize, is_prime, order_from_multiple,
                      poly_divmod_mod_p, poly_gcd_mod_p, poly_mod_p, unfactor)
from .recurrence import SequenceSpec, _power_reduced, terms_from, terms_mod, x_power


class PeriodResult(Value):
    """Eventual period of the state sequence mod m: tail then cycle length."""

    _fields = ("tail", "period")

    def __init__(self, tail: int, period: int):
        set_field(self, "tail", tail)
        set_field(self, "period", period)

    def as_tuple(self) -> tuple[int, int]:
        return (self.tail, self.period)


class DiagnosisResult(Value):
    _fields = ("diagonalizable", "eigenvalues")

    def __init__(self, diagonalizable: bool, eigenvalues: tuple[int, ...] | None = None):
        set_field(self, "diagonalizable", diagonalizable)
        set_field(self, "eigenvalues", eigenvalues)


def _require_unit_tail_coeff(spec: SequenceSpec, m: int) -> None:
    if gcd(spec.coeffs[-1], m) != 1:
        raise NotInvertible(f"gcd(a_k, {m}) != 1: companion matrix is "
                            f"singular mod {m}")


def _descend(spec: SequenceSpec, m: int, multiple: dict[int, int],
             is_one) -> dict[int, int]:
    """Least t dividing the factored multiple with is_one(x^t mod chi);
    m must be a valid modulus."""
    coeffs = tuple([a % m for a in spec.coeffs])
    x = (0, 1) + (0,) * (spec.k - 2)
    return order_from_multiple(multiple, x,
                               lambda y, e: _power_reduced(y, e, coeffs, m), is_one)


def matrix_order(spec: SequenceSpec, m: int) -> int:
    """Least t >= 1 with D^t = I mod m. Requires gcd(a_k, m) = 1."""
    check_modulus(m)
    _require_unit_tail_coeff(spec, m)
    one = (1,) + (0,) * (spec.k - 1)
    return unfactor(_descend(spec, m, _order_multiple_factored(spec, factorize(m)),
                             lambda y: y == one))


def state_period(spec: SequenceSpec, m: int) -> PeriodResult:
    """Eventual period of the k-term state sequence mod m.

    Per p^r || m, Z_{p^r}[x]/(chi) splits into a part where x is a unit
    and, when p | a_k, a part where chi = x^e mod p with e <= k, so that
    x^(e r) = 0 there (Ward 1933).  The windows are therefore purely
    periodic from T = k * max r over the p dividing both a_k and m (T = 0
    when a_k is a unit), and from there on the t with
    window(T + t) = window(T) are exactly the multiples of the period.
    The multiple of pi(m) that matrix_order descends from sends x to 1 on
    the unit part, so one descent from it finds the period.  Once
    window(t + period) = window(t) holds, it holds for every later t, and
    it holds at T, so the tail is the first t <= T at which the prefixes
    d_0, ... and d_period, ... agree over a window.
    """
    check_modulus(m)
    k = spec.k
    m_factored = factorize(m)
    bound = k * max((r for p, r in m_factored.items() if spec.coeffs[-1] % p == 0),
                    default=0)
    prefix = terms_mod(spec, bound + 2 * k - 1, m)
    # x^t = sum c_i x^i gives d_{T+t+j} = sum c_i d_{T+i+j}: the window at
    # time T + t from the terms d_T .. d_{T+2k-2}, T = bound
    terms = prefix[bound:]

    def returns(c: tuple[int, ...]) -> bool:
        return all(sum(ci * d for ci, d in zip(c, terms[j:])) % m == terms[j]
                   for j in range(k))

    period = unfactor(_descend(spec, m, _order_multiple_factored(spec, m_factored),
                               returns))
    tail = 0
    if bound:
        shifted = terms_from(spec, period, bound + k, m)
        tail = next(t for t in range(bound + 1) if prefix[t:t + k] == shifted[t:t + k])
    return PeriodResult(tail=tail, period=period)


def _order_multiple_factored(spec: SequenceSpec,
                             m_factored: dict[int, int]) -> dict[int, int]:
    """A multiple of pi(m), factored as {q: e}, from the degrees of the
    factors of chi mod each p | m, for m factored as {p: r}; it divides
    matrix_order_multiple(k, m)."""
    return _exponent_factored(m_factored, spec.k,
                              lambda p: _factor_degrees(spec, p))


def matrix_order_multiple(k: int, m: int) -> int:
    """A multiple of the order of every invertible k x k matrix mod m: the
    bound on the exponent of GL_k(Z_m), where any degrees up to k and
    repeated factors may occur.  Shifting a cipher exponent by it must
    leave the ciphertext unchanged, which checks that bound on its own."""
    return unfactor(_exponent_factored(factorize(check_modulus(m)), k,
                                       lambda p: (range(1, k + 1), False)))


def order_divisibility_check(spec: SequenceSpec, m: int) -> bool:
    """ord((-1)^{k+1} a_k mod m) divides the matrix order mod m."""
    det = (-1) ** (spec.k + 1) * spec.coeffs[-1]
    order = matrix_order(spec, m)
    return order % multiplicative_order(Residue(det, m)) == 0


def divisor_monotone_check(spec: SequenceSpec, s1: int, s2: int) -> bool:
    """s1 | s2 implies pi(s1) | pi(s2)."""
    if s1 < 1:
        raise ValueError(f"need s1 >= 1, got {s1}")
    if s2 % s1 != 0:
        raise ValueError("need s1 | s2")
    return matrix_order(spec, s2) % matrix_order(spec, s1) == 0


def lcm_check(spec: SequenceSpec, s1: int, s2: int) -> bool:
    """pi(lcm(s1, s2)) = lcm(pi(s1), pi(s2))."""
    return matrix_order(spec, lcm(s1, s2)) == lcm(matrix_order(spec, s1),
                                                  matrix_order(spec, s2))


def prime_power_ladder(spec: SequenceSpec, p: int, r_max: int) -> list[int]:
    """[pi(p), pi(p^2), ..., pi(p^r_max)] for an odd prime p, from one
    power and one gcd (Wall 1960 for k = 2).

    With t = pi(p), p^s is the gcd of p^r_max and the coefficients of
    x^t - 1 mod p^r_max.  For odd p and s >= 1, x^t = 1 + p^s u gives
    x^(t p) = 1 + p^(s+1) u' with u' = u mod p, since p | C(p, 2) and
    p s >= s + 2; so pi(p^r) = t for r <= s, and t p^(r-s) above.
    s = 0 means t is not pi(p), and raises BrokenIdentity.
    """
    p, r_max = index(p), index(r_max)
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if r_max < 1:
        raise ValueError("need r_max >= 1")
    t = matrix_order(spec, p)
    top = p ** r_max
    y = x_power(spec, t, top)
    # gcd is p^s exactly, so the float log is off by far less than 1/2
    s = round(log(gcd(y[0] - 1, *y[1:], top), p))
    if s < 1:
        raise BrokenIdentity(f"ladder step pi({p}) = {t}: x^{t} != 1 mod {p}")
    return [t] * (s - 1) + list(accumulate(repeat(p, r_max - s), mul, initial=t))


def char_poly(spec: SequenceSpec) -> list[int]:
    """Coefficients [c_0, ..., c_k] of det(xI - D) = x^k - a_1 x^{k-1} - ... - a_k."""
    return [-a for a in reversed(spec.coeffs)] + [1]


def _factor_degrees(spec: SequenceSpec, p: int) -> tuple[frozenset[int], bool]:
    """The degrees of the irreducible factors of chi mod p, and whether
    chi mod p is squarefree.

    Distinct-degree factorization (Knuth, TAOCP 2, 4.6.2): x^(p^d) - x is
    the product of the monic irreducibles of degree dividing d, each once,
    so with the factors of lower degree already divided out,
    gcd(rest, x^(p^d) - x) is the product of those of degree d.  Dividing
    them out again while they still divide the rest strips repeated
    factors.  x^(p^d) mod chi is one x_power from x^(p^(d-1)).  The walk
    ends when the factors found account for all k degrees, or once the
    rest has degree below 2(d + 1): every factor left has degree above d,
    so the rest is then one irreducible factor.
    """
    x = (0, 1) + (0,) * (spec.k - 2)
    rest = poly_mod_p(char_poly(spec), p)
    degrees: set[int] = set()
    squarefree = True
    frobenius, d = x, 0
    while len(rest) > 1:
        if len(rest) - 1 < 2 * (d + 1):
            degrees.add(len(rest) - 1)
            break
        d += 1
        frobenius = x_power(spec, p, p, frobenius)
        g = poly_gcd_mod_p(rest, poly_mod_p([a - b for a, b in zip(frobenius, x)], p), p)
        if len(g) == 1:
            continue
        degrees.add(d)
        rest = poly_divmod_mod_p(rest, g, p)[0]
        while len(rest) > d:            # a factor of degree d may repeat
            g = poly_gcd_mod_p(rest, g, p)
            if len(g) == 1:
                break
            squarefree = False
            rest = poly_divmod_mod_p(rest, g, p)[0]
    return frozenset(degrees), squarefree


def _split_roots(spec: SequenceSpec, p: int) -> list[int]:
    """The roots of chi mod p, for chi a product of distinct linear
    factors mod the odd prime p.

    Equal-degree splitting (Cantor and Zassenhaus 1981): (x + delta) is a
    square for about half the roots, so gcd(f, (x + delta)^((p-1)/2) - 1)
    splits any factor f with two roots that delta separates.  delta runs
    0, 1, 2, ..., which separates any two roots within p steps, so the
    search is deterministic; each delta costs one x_power mod chi, shared
    by every factor still to split.
    """
    k = spec.k
    pending = [poly_mod_p(char_poly(spec), p)]
    roots = []
    delta = 0
    while pending:
        h = x_power(spec, (p - 1) // 2, p, (delta, 1) + (0,) * (k - 2))
        h = poly_mod_p([h[0] - 1, *h[1:]], p)
        still = []
        for f in pending:
            g = poly_gcd_mod_p(f, h, p)
            parts = [f] if len(g) in (1, len(f)) else [g, poly_divmod_mod_p(f, g, p)[0]]
            for part in parts:
                if len(part) == 2:              # monic x - root
                    roots.append(-part[0] % p)
                else:
                    still.append(part)
        pending = still
        delta += 1
    return sorted(roots)


def diagonalizable_mod_p(spec: SequenceSpec, p: int) -> DiagnosisResult:
    """Is the companion matrix diagonalizable over Z_p, p an odd prime?

    chi is also the minimal polynomial of D (a companion matrix is
    non-derogatory), so D is diagonalizable over F_p exactly when chi is a
    product of distinct linear factors, that is, when chi divides x^p - x:
    one test, x^p = x mod chi.  The eigenvalues then come from equal-degree
    splitting, and must multiply back to chi, which is re-verified here.
    Since x is a unit, x^(p-1) = 1 follows, so the order of D mod p
    divides p - 1.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    _require_unit_tail_coeff(spec, p)
    x = (0, 1) + (0,) * (spec.k - 2)
    if x_power(spec, p, p) != x:
        return DiagnosisResult(False)
    eigenvalues = _split_roots(spec, p)
    product = [1]
    for lam in eigenvalues:
        product = [(low - lam * high) % p for low, high in zip([0] + product, product + [0])]
    if product != [c % p for c in char_poly(spec)]:
        raise BrokenIdentity(f"eigenvalues {eigenvalues} do not multiply back "
                             f"to chi mod {p}")
    return DiagnosisResult(True, tuple(eigenvalues))


def pi2_all_odd_check(spec: SequenceSpec) -> bool:
    """With every coefficient odd, the state period mod 2 is exactly k + 1."""
    if any(a % 2 == 0 for a in spec.coeffs):
        raise ValueError("requires all coefficients odd")
    return state_period(spec, 2).as_tuple() == (0, spec.k + 1)
