"""Generalized Pisano periods and the laws they satisfy.

pi(m) is defined here as the multiplicative order of the companion matrix
mod m (the sequence-window period divides it and is reported separately,
since the two need not coincide for every initial window).  The order is
not searched for step by step: it is the least divisor of the exponent of
GL_k(Z_m), known in factored form, that sends x to 1 in Z_m[x]/(chi).
That costs a few hundred polynomial products whatever the period's size.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm

from .ringcore import (Matrix, NotInvertible, Residue, check_modulus,
                       factorize, is_prime, lcm_factored, multiplicative_order,
                       order_from_multiple, unfactor)
from .recurrence import SequenceSpec, companion, terms_mod, x_power


class PrimeTooLarge(ValueError):
    """Exhaustive root search is only feasible for small primes."""


@dataclass(frozen=True)
class PeriodResult:
    """Eventual period of the state sequence mod m: tail then cycle length."""

    tail: int
    period: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.tail, self.period)


@dataclass(frozen=True)
class DiagnosisResult:
    diagonalizable: bool
    eigenvalues: tuple[int, ...] | None = None


def _require_unit_tail_coeff(spec: SequenceSpec, m: int) -> None:
    if gcd(spec.coeffs[-1], m) != 1:
        raise NotInvertible(f"gcd(a_k, {m}) != 1: companion matrix is "
                            f"singular mod {m}")


def _descend(spec: SequenceSpec, m: int, multiple: dict[int, int],
             is_one) -> dict[int, int]:
    """Least t dividing the factored multiple with is_one(x^t mod chi)."""
    x = (0, 1) + (0,) * (spec.k - 2)
    return order_from_multiple(multiple, x, lambda y, e: x_power(spec, e, m, y),
                               is_one)


def _matrix_order_factored(spec: SequenceSpec, m: int) -> dict[int, int]:
    check_modulus(m)
    _require_unit_tail_coeff(spec, m)
    one = (1,) + (0,) * (spec.k - 1)
    return _descend(spec, m, _gl_exponent_factored(spec.k, m), lambda y: y == one)


def matrix_order(spec: SequenceSpec, m: int) -> int:
    """Least t >= 1 with D^t = I mod m. Requires gcd(a_k, m) = 1."""
    return unfactor(_matrix_order_factored(spec, m))


def _next_window(window: tuple[int, ...], coeffs: tuple[int, ...],
                 m: int) -> tuple[int, ...]:
    return window[1:] + (sum(a * d for a, d in zip(coeffs, reversed(window))) % m,)


def state_period(spec: SequenceSpec, m: int) -> PeriodResult:
    """Eventual period of the k-term state sequence mod m.

    With gcd(a_k, m) = 1, D permutes the windows, so the tail is 0 and the
    period is the least divisor t of pi(m) with D^t Y_0 = Y_0.  Otherwise
    the sequence is only eventually periodic, and Brent's cycle search
    finds the tail and the period in O(1) memory and O(tail + period)
    steps.
    """
    check_modulus(m)
    k = spec.k
    coeffs = tuple(a % m for a in spec.coeffs)
    window = tuple(x % m for x in spec.initial)
    if gcd(coeffs[-1], m) == 1:
        # x^t = sum c_i x^i gives d_{t+j} = sum c_i d_{i+j}: the window at
        # time t from the terms d_0 .. d_{2k-2}
        terms = terms_mod(spec, 2 * k - 1, m)

        def returns(c: tuple[int, ...]) -> bool:
            return all(sum(ci * d for ci, d in zip(c, terms[j:])) % m == window[j]
                       for j in range(k))

        period = _descend(spec, m, _matrix_order_factored(spec, m), returns)
        return PeriodResult(tail=0, period=unfactor(period))
    # Brent: the period is the first gap between the hare and a tortoise
    # parked at each power of two; the tail is where two walkers that far
    # apart first meet.
    power = period = 1
    tortoise, hare = window, _next_window(window, coeffs, m)
    while tortoise != hare:
        if power == period:
            tortoise, power, period = hare, 2 * power, 0
        hare = _next_window(hare, coeffs, m)
        period += 1
    tortoise = hare = window
    for _ in range(period):
        hare = _next_window(hare, coeffs, m)
    tail = 0
    while tortoise != hare:
        tortoise = _next_window(tortoise, coeffs, m)
        hare = _next_window(hare, coeffs, m)
        tail += 1
    return PeriodResult(tail=tail, period=period)


def _cyclotomic_value(d: int, p: int) -> int:
    """Phi_d(p), from p^d - 1 = prod over e | d of Phi_e(p)."""
    value = p ** d - 1
    for e in range(1, d):
        if d % e == 0:
            value //= _cyclotomic_value(e, p)
    return value


def _gl_exponent_factored(k: int, m: int) -> dict[int, int]:
    """The exponent of GL_k(Z_m) divides this, factored as {q: e}.

    Per prime power p^r || m: lcm_{j <= k}(p^j - 1) bounds the order of a
    semisimple element mod p, p^s with p^s >= k that of a unipotent one,
    and p^(r-1) that of the kernel of reduction mod p (Wall 1960 gives the
    k = 2 case).  Each p^j - 1 is factored as its cyclotomic pieces
    Phi_d(p), d | j, which are far smaller.
    """
    parts = []
    for p, r in factorize(m).items():
        pieces = [Counter(factorize(_cyclotomic_value(d, p))) for d in range(1, k + 1)]
        for j in range(1, k + 1):
            parts.append(sum((pieces[d - 1] for d in range(1, j + 1) if j % d == 0),
                             Counter()))
        s = 0
        while p ** s < k:
            s += 1
        parts.append({p: s + r - 1})
    return {q: e for q, e in lcm_factored(*parts).items() if e}


def matrix_order_multiple(k: int, m: int) -> int:
    """A multiple of the order of every invertible k x k matrix mod m.

    The bound on the exponent of GL_k(Z_m) that matrix_order descends
    from.  Shifting a cipher exponent by it must leave the ciphertext
    unchanged, which checks that bound on its own.
    """
    check_modulus(m)
    return unfactor(_gl_exponent_factored(k, m))


def order_divisibility_check(spec: SequenceSpec, m: int) -> bool:
    """ord((-1)^{k+1} a_k mod m) divides the matrix order mod m."""
    det = (-1) ** (spec.k + 1) * spec.coeffs[-1]
    order = matrix_order(spec, m)
    return order % multiplicative_order(Residue(det, m)) == 0


def divisor_monotone_check(spec: SequenceSpec, s1: int, s2: int) -> bool:
    """s1 | s2 implies pi(s1) | pi(s2)."""
    if s2 % s1 != 0:
        raise ValueError("need s1 | s2")
    return matrix_order(spec, s2) % matrix_order(spec, s1) == 0


def lcm_check(spec: SequenceSpec, s1: int, s2: int) -> bool:
    """pi(lcm(s1, s2)) = lcm(pi(s1), pi(s2))."""
    return matrix_order(spec, lcm(s1, s2)) == lcm(matrix_order(spec, s1),
                                                  matrix_order(spec, s2))


def prime_power_ladder(spec: SequenceSpec, p: int, r_max: int) -> list[int]:
    """[pi(p), pi(p^2), ..., pi(p^r_max)] for an odd prime p.

    Each rung is the previous one times 1 or p, and once a rung grows it
    keeps growing; both facts are re-verified on the computed values.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if r_max < 1:
        raise ValueError("need r_max >= 1")
    ladder = [matrix_order(spec, p ** r) for r in range(1, r_max + 1)]
    growing = False
    for lo, hi in zip(ladder, ladder[1:]):
        if hi not in (lo, p * lo):
            raise ArithmeticError(f"ladder step {lo} -> {hi} is neither "
                                  f"x1 nor x{p}")
        if growing and hi == lo:
            raise ArithmeticError(f"ladder stalled after growing: {ladder}")
        growing = growing or hi == p * lo
    return ladder


def char_poly(spec: SequenceSpec) -> list[int]:
    """Coefficients [c_0, ..., c_k] of det(xI - D) = x^k - a_1 x^{k-1} - ... - a_k."""
    return [-a for a in reversed(spec.coeffs)] + [1]


def _poly_eval_mod(poly: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def diagonalizable_mod_p(spec: SequenceSpec, p: int,
                         max_prime: int = 10**4) -> DiagnosisResult:
    """Is the companion matrix diagonalizable over Z_p?

    Finds all characteristic roots by exhaustive evaluation, then applies
    the distinct-linear-factor criterion: D is diagonalizable iff the
    product of (D - lambda I) over the distinct roots vanishes mod p.
    When it is, the order of D mod p must divide p - 1 (Fermat on the
    diagonal form); that consequence is re-verified here.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > max_prime:
        raise PrimeTooLarge(f"exhaustive root search capped at {max_prime}")
    _require_unit_tail_coeff(spec, p)
    k = spec.k
    f = char_poly(spec)
    roots = [x for x in range(p) if _poly_eval_mod(f, x, p) == 0]
    if not roots:
        return DiagnosisResult(False)
    d = companion(spec).reduce(p)
    ident = Matrix.identity(k, p)
    g_of_d = ident
    for lam in roots:
        g_of_d = g_of_d @ (d - ident.scale(lam))
    if g_of_d != Matrix.zero(k, k, p):
        return DiagnosisResult(False)
    # multiplicities via synthetic division; they must sum to k
    eigenvalues = []
    for lam in roots:
        poly = f[:]
        while len(poly) > 1:
            quot, rem = _synth_div(poly, lam, p)
            if rem != 0:
                break
            eigenvalues.append(lam)
            poly = quot
    eigenvalues.sort()
    if len(eigenvalues) != k:
        raise ArithmeticError("split minimal polynomial with non-split "
                              "characteristic polynomial; unreachable")
    if (p - 1) % matrix_order(spec, p) != 0:
        raise ArithmeticError(f"diagonalizable mod {p} but order does not "
                              f"divide {p - 1}")
    return DiagnosisResult(True, tuple(eigenvalues))


def _synth_div(poly: list[int], lam: int, p: int) -> tuple[list[int], int]:
    """Divide poly (coeffs low->high) by (x - lam) mod p; (quotient, remainder)."""
    quot = [0] * (len(poly) - 1)
    carry = 0
    for i in range(len(poly) - 1, 0, -1):
        carry = (poly[i] + carry * lam) % p
        quot[i - 1] = carry
    rem = (poly[0] + carry * lam) % p
    return quot, rem


def pi2_all_odd_check(spec: SequenceSpec) -> bool:
    """With every coefficient odd, the state period mod 2 is exactly k + 1."""
    if any(a % 2 == 0 for a in spec.coeffs):
        raise ValueError("requires all coefficients odd")
    return state_period(spec, 2).as_tuple() == (0, spec.k + 1)
