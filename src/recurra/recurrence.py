"""k-term integer linear recurrences and their companion-matrix identities.

A spec is d_n = a_1 d_{n-1} + ... + a_k d_{n-k} with a fixed initial window;
the default window is (0, ..., 0, 1).  The companion matrix D (first row
a_1..a_k, ones on the subdiagonal) shifts state windows, and its powers are
made of sequence terms; the *_check and *_det functions here evaluate both
sides of those identities independently and compare exactly.

Because a_k != 0 the recurrence runs backward over the rationals:
d_{j-k} = (d_j - a_1 d_{j-1} - ... - a_{k-1} d_{j-k+1}) / a_k.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .ringcore import Matrix, Residue, check_modulus


@dataclass(frozen=True)
class SequenceSpec:
    """Coefficients a_1..a_k plus the initial window d_0..d_{k-1}."""

    coeffs: tuple[int, ...]
    initial: tuple[int, ...] | None = None

    def __post_init__(self):
        coeffs = tuple(int(a) for a in self.coeffs)
        if len(coeffs) < 2:
            raise ValueError("need k >= 2 coefficients")
        if coeffs[-1] == 0:
            raise ValueError("a_k must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)
        if self.initial is None:
            object.__setattr__(self, "initial", (0,) * (len(coeffs) - 1) + (1,))
        else:
            initial = tuple(int(x) for x in self.initial)
            if len(initial) != len(coeffs):
                raise ValueError("initial window must have length k")
            object.__setattr__(self, "initial", initial)

    @property
    def k(self) -> int:
        return len(self.coeffs)

    @property
    def has_default_window(self) -> bool:
        return self.initial == (0,) * (self.k - 1) + (1,)


def _require_default_window(spec: SequenceSpec) -> None:
    if not spec.has_default_window:
        raise ValueError("this identity is only proved for the default "
                         "initial window (0, ..., 0, 1)")


def terms_from(spec: SequenceSpec, n: int, count: int,
               m: int | None = None) -> list[int]:
    """[d_n, ..., d_{n+count-1}] for n >= 0, exact or reduced mod m.

    With x^n = sum c_j x^j mod chi, d_{n+i} = sum c_j d_{i+j} for any
    initial window (Fiduccia's method), so one x^n costs O(k^2 log n)
    products and each further term O(k).
    """
    if n < 0 or count < 0:
        raise ValueError(f"need n, count >= 0, got {n}, {count}")
    c = x_power(spec, n, m)
    d = terms(spec, count + spec.k - 1)
    out = [sum(map(mul, c, d[i:i + spec.k])) for i in range(count)]
    return out if m is None else [x % m for x in out]


def term(spec: SequenceSpec, n: int) -> int:
    """Exact d_n for n >= 0, in O(k^2 log n) products (see terms_from)."""
    if n < 0:
        raise ValueError("term() is for n >= 0; use term_negative()")
    return terms_from(spec, n, 1)[0]


def terms(spec: SequenceSpec, count: int) -> list[int]:
    """The list [d_0, ..., d_{count-1}]."""
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    k = spec.k
    backward = spec.coeffs[::-1]        # d_{t+k} = a_k d_t + ... + a_1 d_{t+k-1}
    d = list(spec.initial)
    for t in range(count - k):
        d.append(sum(map(mul, backward, d[t:t + k])))
    return d[:count]


def term_mod(spec: SequenceSpec, n: int, m: int) -> Residue:
    """d_n mod m, as term() but with every product reduced mod m."""
    check_modulus(m)
    if n < 0:
        raise ValueError("term_mod() is for n >= 0")
    return Residue(terms_from(spec, n, 1, m)[0], m)


def terms_mod(spec: SequenceSpec, count: int, m: int) -> list[int]:
    """[d_0, ..., d_{count-1}] reduced mod m, with reduced intermediates."""
    check_modulus(m)
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    k = spec.k
    backward = [a % m for a in reversed(spec.coeffs)]
    d = [x % m for x in spec.initial]
    for t in range(count - k):
        d.append(sum(map(mul, backward, d[t:t + k])) % m)
    return d[:count]


def term_negative(spec: SequenceSpec, n: int) -> Fraction:
    """Exact rational d_n for n < 0, by backward recursion."""
    if n >= 0:
        raise ValueError("term_negative() is for n < 0")
    k = spec.k
    a = spec.coeffs
    # window = (d_t, ..., d_{t+k-1}), walked down from t = 0 to t = n
    window = [Fraction(x) for x in spec.initial]
    for _ in range(-n):
        d_new = (window[-1] - sum(Fraction(a[i - 1]) * window[k - 1 - i]
                                  for i in range(1, k))) / a[-1]
        window = [d_new] + window[:-1]
    return window[0]


def term_any(spec: SequenceSpec, n: int) -> Fraction:
    """d_n for any integer n, as an exact rational."""
    return Fraction(term(spec, n)) if n >= 0 else term_negative(spec, n)


def companion(spec: SequenceSpec) -> Matrix:
    """The k x k companion matrix over Z: first row a_1..a_k, subdiagonal 1s."""
    k = spec.k
    rows = [list(spec.coeffs)]
    for i in range(k - 1):
        rows.append([1 if j == i else 0 for j in range(k)])
    return Matrix(rows)


def power(d: Matrix, n: int, modulus: int | None = None) -> Matrix:
    """D^n by binary exponentiation, exact over Z or reduced mod modulus."""
    if n < 0:
        raise ValueError("power() is for n >= 0")
    if modulus is not None:
        d = d.reduce(modulus)
    return d ** n


def _mulmod_charpoly(u: tuple[int, ...], v: tuple[int, ...],
                     coeffs: tuple[int, ...], m: int | None) -> tuple[int, ...]:
    # u * v, then x^k -> a_1 x^{k-1} + ... + a_k from the top degree down;
    # over Z when m is None
    k = len(coeffs)
    full = [0] * (2 * k - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v, i):
                full[j] += ui * vj
    for top in range(2 * k - 2, k - 1, -1):
        c = full[top] if m is None else full[top] % m
        if c:
            for j, a in enumerate(coeffs, 1):
                full[top - j] += c * a
    return tuple(full[:k]) if m is None else tuple(x % m for x in full[:k])


def x_power(spec: SequenceSpec, n: int, m: int | None = None,
            base: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """base^n (default x^n) in Z_m[x]/(chi), or Z[x]/(chi) when m is None;
    chi is the characteristic polynomial.

    Elements are coefficient tuples (c_0, ..., c_{k-1}), lowest degree
    first.  D acts as multiplication by x on this free module, so
    x^n = sum c_i x^i means D^n = sum c_i D^i; in particular D^n = I
    exactly when x^n = 1.  One product costs O(k^2), against O(k^3) for a
    matrix product.
    """
    if m is not None:
        check_modulus(m)
    if n < 0:
        raise ValueError("x_power() is for n >= 0")
    k = spec.k
    coeffs = spec.coeffs if m is None else tuple(a % m for a in spec.coeffs)
    if base is None:
        base = (0, 1) + (0,) * (k - 2)
    result = None                       # 1, until the first set bit
    while n:
        if n & 1:
            result = (base if result is None
                      else _mulmod_charpoly(result, base, coeffs, m))
        n >>= 1
        if n:
            base = _mulmod_charpoly(base, base, coeffs, m)
    return (1,) + (0,) * (k - 1) if result is None else result


def state_vector(spec: SequenceSpec, i: int) -> tuple[int, ...]:
    """Y_i = (d_{i+k-1}, ..., d_{i+1}, d_i)."""
    d = terms(spec, i + spec.k)
    return tuple(d[i + spec.k - 1 - r] for r in range(spec.k))


def _structure_entry(spec: SequenceSpec, n: int, r: int, j: int,
                     d: dict[int, Fraction]) -> Fraction:
    # D^n entry at (row r, col j), both 1-based, built from sequence terms:
    # col 1 is d_{n+k-r}; col j>=2 is sum_{i=1}^{k-j+1} a_{i+j-1} d_{n+k-i-r}.
    k = spec.k
    a = spec.coeffs
    if j == 1:
        return d[n + k - r]
    return sum((Fraction(a[i + j - 2]) * d[n + k - i - r]
                for i in range(1, k - j + 2)), Fraction(0))


def power_structure_check(spec: SequenceSpec, n: int) -> bool:
    """Does D^n equal the matrix of sequence terms, entry by entry?

    For n < k-1 the term-built entries reach negative indices; those are
    exact rationals and the comparison still holds over Q.
    """
    _require_default_window(spec)
    if n < 1:
        raise ValueError("need n >= 1")
    k = spec.k
    lo, hi = n + 1 - k, n + k - 1
    d = {t: term_any(spec, t) for t in range(lo, hi + 1)}
    dn = power(companion(spec), n)
    for r in range(1, k + 1):
        for j in range(1, k + 1):
            if _structure_entry(spec, n, r, j, d) != dn[r - 1, j - 1]:
                return False
    return True


def state_step_check(spec: SequenceSpec, n: int, r: int) -> bool:
    """Y_n = D Y_{n-1}, Y_n = D^n Y_0 and Y_{n+r} = D^n Y_r, exactly."""
    _require_default_window(spec)
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    d = companion(spec)
    dn = power(d, n)
    y = {i: state_vector(spec, i) for i in (0, n - 1, n, r, n + r)}
    return (y[n] == d.apply(y[n - 1])
            and y[n] == dn.apply(y[0])
            and y[n + r] == dn.apply(y[r]))


def window_matrix(spec: SequenceSpec, n: int) -> Matrix:
    """k x k matrix with columns Y_n, Y_{n+1}, ..., Y_{n+k-1}."""
    k = spec.k
    d = terms(spec, n + 2 * k)
    return Matrix([[d[n + k - 1 - i + j] for j in range(k)] for i in range(k)])


def window_det(spec: SequenceSpec, n: int) -> int:
    """det of the consecutive-window matrix; equals (-1)^{n(k+1)} a_k^n."""
    _require_default_window(spec)
    if n < 0:
        raise ValueError("need n >= 0")
    value = window_matrix(spec, n).det()
    expected = (-1) ** (n * (spec.k + 1)) * spec.coeffs[-1] ** n
    if value != expected:
        raise ArithmeticError(f"window determinant identity broke: "
                              f"{value} != {expected} for {spec}, n={n}")
    return value


def bordered_matrix(spec: SequenceSpec, n: int) -> Matrix:
    """k x k matrix with columns Y_n, ..., Y_{n+k-2} and a final e_1 column."""
    k = spec.k
    d = terms(spec, n + 2 * k)
    rows = [[d[n + k - 1 - i + j] for j in range(k - 1)] + [1 if i == 0 else 0]
            for i in range(k)]
    return Matrix(rows)


def bordered_det(spec: SequenceSpec, n: int) -> int:
    """det of the e_1-bordered window matrix.

    Equals (-1)^{n(k+1)} a_k^n d_{-n}: an integer, even though d_{-n}
    alone usually is not.
    """
    _require_default_window(spec)
    if n < 1:
        raise ValueError("need n >= 1")
    value = bordered_matrix(spec, n).det()
    expected = (Fraction(-1) ** (n * (spec.k + 1))
                * Fraction(spec.coeffs[-1]) ** n
                * term_negative(spec, -n))
    if expected.denominator != 1 or value != expected:
        raise ArithmeticError(f"bordered determinant identity broke: "
                              f"{value} != {expected} for {spec}, n={n}")
    return value


def addition_formula(spec: SequenceSpec, m: int, n: int) -> int:
    """The (1,1) entry of D^n D^m written out in sequence terms.

    Evaluates d_{m+k-1} d_{n+k-1} + sum_{j=2}^{k} d_{m+k-j} *
    (sum_{i=1}^{k-j+1} a_{i+j-1} d_{n+k-i-1}) and checks it equals
    d_{m+n+k-1} before returning it.
    """
    _require_default_window(spec)
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    k = spec.k
    a = spec.coeffs
    d = terms(spec, m + n + 2 * k)
    total = d[m + k - 1] * d[n + k - 1]
    for j in range(2, k + 1):
        inner = sum(a[i + j - 2] * d[n + k - i - 1] for i in range(1, k - j + 2))
        total += d[m + k - j] * inner
    if total != d[m + n + k - 1]:
        raise ArithmeticError(f"index-addition identity broke for {spec}, "
                              f"m={m}, n={n}: {total} != {d[m + n + k - 1]}")
    return total
