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

from collections.abc import Iterator
from itertools import islice
from operator import mul

from .ringcore import Matrix, Residue, Value, check_modulus, invert_mod, set_field


class SequenceSpec(Value):
    """Coefficients a_1..a_k plus the initial window d_0..d_{k-1}."""

    _fields = ("coeffs", "initial")

    def __init__(self, coeffs: tuple[int, ...], initial: tuple[int, ...] | None = None):
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) < 2:
            raise ValueError("need k >= 2 coefficients")
        if coeffs[-1] == 0:
            raise ValueError("a_k must be nonzero")
        if initial is None:
            initial = (0,) * (len(coeffs) - 1) + (1,)
        else:
            initial = tuple(map(int, initial))
            if len(initial) != len(coeffs):
                raise ValueError("initial window must have length k")
        set_field(self, "coeffs", coeffs)
        set_field(self, "initial", initial)

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

    With x^h = sum c_j x^j mod chi, d_{h+s} = sum c_j d_{s+j} for any
    initial window and any s >= 0 (Fiduccia's method).  So one power to
    h = floor(n/2) serves twice: with r = n - 2h, it reads the window
    mid_i = d_{h+r+i} off a short prefix, then d_{n+t} = d_{h+(h+r+t)} off
    that window for t < min(count, k), and the recurrence steps on from
    there.  Over Z, x^h's coefficients are half as long as x^n's.  Mod m,
    the power, the prefix and each term are reduced.
    """
    if n < 0 or count < 0:
        raise ValueError(f"need n, count >= 0, got {n}, {count}")
    k = spec.k
    head = min(count, k)
    h, r = divmod(n, 2)
    c = x_power(spec, h, m)
    size = r + head + 2 * k - 2
    d = terms(spec, size) if m is None else terms_mod(spec, size, m)
    mid = [sum(map(mul, c, d[r + i:r + i + k])) for i in range(head + k - 1)]
    out = [sum(map(mul, c, mid[t:t + k])) for t in range(head)]
    backward = spec.coeffs[::-1]
    if m is not None:
        out = [x % m for x in out]
        backward = tuple([a % m for a in backward])
    return list(islice(_steps(backward, out, m), count))


def term(spec: SequenceSpec, n: int) -> int:
    """Exact d_n for n >= 0, off x^floor(n/2) in O(k^2 log n) products
    (see terms_from)."""
    if n < 0:
        raise ValueError("term() is for n >= 0; use term_negative()")
    return terms_from(spec, n, 1)[0]


def terms(spec: SequenceSpec, count: int) -> list[int]:
    """The list [d_0, ..., d_{count-1}]."""
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    return list(islice(stream(spec), count))


def stream(spec: SequenceSpec, m: int | None = None) -> Iterator[int]:
    """d_0, d_1, ... without end, exact or reduced mod m.  Only one window
    is held: each step is d_{t+k} = a_k d_t + ... + a_1 d_{t+k-1}.  The
    modulus is checked here, before the first term is asked for."""
    window = spec.initial
    backward = spec.coeffs[::-1]
    if m is not None:
        check_modulus(m)
        backward = tuple([a % m for a in backward])
        window = tuple([x % m for x in window])
    return _steps(backward, list(window), m)


def _steps(backward: tuple[int, ...], w: list[int], m: int | None) -> Iterator[int]:
    yield from w
    while True:
        x = sum(map(mul, backward, w))
        if m is not None:
            x %= m
        w.append(x)
        del w[0]
        yield x


def term_mod(spec: SequenceSpec, n: int, m: int) -> Residue:
    """d_n mod m, as term() but with every product reduced mod m."""
    check_modulus(m)
    if n < 0:
        raise ValueError("term_mod() is for n >= 0")
    return Residue(terms_from(spec, n, 1, m)[0], m)


def terms_mod(spec: SequenceSpec, count: int, m: int) -> list[int]:
    """[d_0, ..., d_{count-1}] reduced mod m, with reduced intermediates."""
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    return list(islice(stream(spec, m), count))


def _scaled_backward(spec: SequenceSpec, steps: int) -> list[int]:
    """[d_{-steps}, ..., d_{-1}], each times a_k^steps.

    Each backward step divides by a_k once, so every d_{-j} a_k^steps with
    j <= steps is an integer, and the walk runs over integers with exact //.
    """
    k = spec.k
    a, a_k = spec.coeffs[:-1], spec.coeffs[-1]
    scale = a_k ** steps
    # newest last: out[-k] is d_{t+k-1}, and out[1-k:] is d_{t+k-2}, ..., d_t
    out = [x * scale for x in reversed(spec.initial)]
    for _ in range(steps):
        out.append((out[-k] - sum(map(mul, a, out[1 - k:]))) // a_k)
    return out[:k - 1:-1]


def term_negative(spec: SequenceSpec, n: int) -> Fraction:
    """Exact rational d_n for n < 0, by backward recursion."""
    from fractions import Fraction
    if n >= 0:
        raise ValueError("term_negative() is for n < 0")
    return Fraction(_scaled_backward(spec, -n)[0], spec.coeffs[-1] ** -n)


def companion(spec: SequenceSpec) -> Matrix:
    """The k x k companion matrix over Z: first row a_1..a_k, subdiagonal 1s."""
    k = spec.k
    rows = [list(spec.coeffs)]
    for i in range(k - 1):
        rows.append([1 if j == i else 0 for j in range(k)])
    return Matrix(rows)


def _mulmod_charpoly(u: tuple[int, ...], v: tuple[int, ...],
                     coeffs: tuple[int, ...], m: int | None) -> tuple[int, ...]:
    # u * v, then x^k -> a_1 x^{k-1} + ... + a_k from the top degree down;
    # over Z when m is None.  A square (u is v) takes each cross product
    # u_i u_j, i < j, once and doubles it: k(k+1)/2 products, not k^2.
    k = len(coeffs)
    full = [0] * (2 * k - 1)
    if u is v:
        for i, ui in enumerate(u):
            if ui:
                full[2 * i] += ui * ui
                twice = ui + ui
                for j, uj in enumerate(u[i + 1:], 2 * i + 1):
                    full[j] += twice * uj
    else:
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v, i):
                    full[j] += ui * vj
    for top in range(2 * k - 2, k - 1, -1):
        c = full[top] if m is None else full[top] % m
        if c:
            for j, a in enumerate(coeffs, 1):
                full[top - j] += c * a
    del full[k:]
    return tuple(full) if m is None else tuple([x % m for x in full])


def x_power(spec: SequenceSpec, n: int, m: int | None = None,
            base: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """base^n (default x^n) in Z_m[x]/(chi), or Z[x]/(chi) when m is None;
    chi is the characteristic polynomial.

    Elements are coefficient tuples (c_0, ..., c_{k-1}), lowest degree
    first, so base must have length k.  D acts as multiplication by x on
    this free module, so x^n = sum c_i x^i means D^n = sum c_i D^i; in
    particular D^n = I exactly when x^n = 1.  One product costs O(k^2),
    against O(k^3) for a matrix product, and base^n takes at most
    2 (bit_length(n) - 1) of them (see _power_reduced).
    """
    if m is not None:
        check_modulus(m)
    if n < 0:
        raise ValueError("x_power() is for n >= 0")
    k = spec.k
    if base is not None and len(base) != k:
        raise ValueError(f"base must have k = {k} coefficients, got {len(base)}")
    if n == 0:
        return (1,) + (0,) * (k - 1)
    coeffs = spec.coeffs if m is None else tuple([a % m for a in spec.coeffs])
    if base is None:
        base = (0, 1) + (0,) * (k - 2)
    elif m is not None:
        base = tuple([c % m for c in base])
    return _power_reduced(base, n, coeffs, m)


def _power_reduced(base: tuple[int, ...], n: int, coeffs: tuple[int, ...],
                   m: int | None) -> tuple[int, ...]:
    """base^n for n >= 1, as x_power does it, with nothing checked: base
    and the coefficients a_1..a_k must already be reduced mod m.

    n is read from its top bit down: each further bit squares the power,
    and a set bit then multiplies it by base.  From x, that factor's
    entries are 0 and 1, so over Z the squarings take nearly all the work.
    """
    result = base
    for bit in bin(n)[3:]:
        result = _mulmod_charpoly(result, result, coeffs, m)
        if bit == "1":
            result = _mulmod_charpoly(result, base, coeffs, m)
    return result


def x_inverse(spec: SequenceSpec, m: int) -> tuple[int, ...]:
    """x^{-1} in Z_m[x]/(chi), the element D^{-1} is read off.

    chi(x) = 0 gives x (x^{k-1} - a_1 x^{k-2} - ... - a_{k-1}) = a_k, so
    x^{-1} = a_k^{-1} (x^{k-1} - a_1 x^{k-2} - ... - a_{k-1}).  NotInvertible
    unless a_k is a unit mod m, which is exactly when det D = (-1)^{k+1} a_k
    is one.
    """
    inv = invert_mod(spec.coeffs[-1], check_modulus(m))
    return tuple(-a * inv % m for a in reversed(spec.coeffs[:-1])) + (inv,)


def companion_power(spec: SequenceSpec, n: int, m: int | None = None,
                    base: tuple[int, ...] | None = None) -> Matrix:
    """D^n (or f(D) for f = base^n, see x_power), over Z or reduced mod m.

    Row k of D is e_{k-1}, so the bottom row of any f(D) = sum c_i D^i is
    (c_{k-1}, ..., c_0), and row k - j of f(D) is the bottom row of
    D^j f(D), which is x^j f mod chi read the same way.  After the one
    x_power, each further row is a multiplication by x in O(k), with no
    matrix product at all.
    """
    c = x_power(spec, n, m, base)
    top_coeffs = spec.coeffs[::-1]      # x^k = a_k + a_{k-1} x + ... + a_1 x^{k-1}
    if m is not None:
        top_coeffs = tuple(a % m for a in top_coeffs)
    rows = []
    for _ in range(spec.k):
        rows.append(c[::-1])
        top = c[-1]
        shifted = zip(top_coeffs, (0,) + c[:-1])
        c = tuple([top * a + low for a, low in shifted] if m is None
                  else [(top * a + low) % m for a, low in shifted])
    return Matrix._of_rows(tuple(rows[::-1]), m)


def power_structure_check(spec: SequenceSpec, n: int) -> bool:
    """Does D^n equal the matrix of sequence terms, entry by entry?

    Entry (r, 1) is d_{n+k-r} and entry (r, j), j >= 2, is
    sum_{i=1}^{k-j+1} a_{i+j-1} d_{n+k-i-r} (both indices 1-based).  For
    n < k-1 these reach negative indices, whose terms are rationals; both
    sides are then compared times a_k^s, s = k-1-n, which makes every term
    an integer.
    """
    _require_default_window(spec)
    if n < 1:
        raise ValueError("need n >= 1")
    k = spec.k
    a = spec.coeffs
    steps = max(0, k - 1 - n)
    scale = a[-1] ** steps
    # d[t + steps] = d_t * scale, for t from -steps to n+k-1
    d = _scaled_backward(spec, steps) + [x * scale for x in terms(spec, n + k)]
    dn = companion(spec) ** n
    for r, dn_row in enumerate(dn.entries, 1):
        top = steps + n + k - r             # d_{n+k-r}
        # entry j pairs a_k, ..., a_j with d_{n+j-1-r}, ..., d_{n+k-1-r}
        row = [d[top]] + [sum(map(mul, reversed(a[j - 1:]), d[top - k + j - 1:top]))
                          for j in range(2, k + 1)]
        if row != [x * scale for x in dn_row]:
            return False
    return True


def state_step_check(spec: SequenceSpec, n: int, r: int) -> bool:
    """Y_n = D Y_{n-1}, Y_n = D^n Y_0 and Y_{n+r} = D^n Y_r exactly, for
    the windows Y_i = (d_{i+k-1}, ..., d_{i+1}, d_i)."""
    _require_default_window(spec)
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    k = spec.k
    d = companion(spec)
    dn = d ** n
    prefix = terms(spec, n + r + k)
    y = {i: tuple(reversed(prefix[i:i + k])) for i in (0, n - 1, n, r, n + r)}
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
    expected = (-1) ** (n * (spec.k + 1)) * _scaled_backward(spec, n)[0]
    if value != expected:
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
