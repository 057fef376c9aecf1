"""k-term integer linear recurrences and their companion-matrix identities.

A spec is d_n = a_1 d_{n-1} + ... + a_k d_{n-k} with a fixed initial window;
the default window is (0, ..., 0, 1).  The companion matrix D (first row
a_1..a_k, ones on the subdiagonal) shifts state windows, and its powers are
made of sequence terms; the *_check and *_det functions here evaluate both
sides of those identities independently and compare exactly.

Because a_k != 0 the recurrence runs backward over the rationals:
d_{j-k} = (d_j - a_1 d_{j-1} - ... - a_{k-1} d_{j-k+1}) / a_k.

Every index n, count and x_power base coefficient is taken with
operator.index, so a float or a string raises TypeError and a bool is
the int it is.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from operator import index, mul

from .ringcore import (BrokenIdentity, Matrix, Residue, Value, check_modulus, invert_mod,
                       set_field)


class SequenceSpec(Value):
    """Coefficients a_1..a_k plus the initial window d_0..d_{k-1}, each an
    integer (operator.index: a float or a string raises TypeError)."""

    _fields = ("coeffs", "initial")

    def __init__(self, coeffs: tuple[int, ...], initial: tuple[int, ...] | None = None):
        coeffs = tuple(map(index, coeffs))
        if len(coeffs) < 2:
            raise ValueError("need k >= 2 coefficients")
        if coeffs[-1] == 0:
            raise ValueError("a_k must be nonzero")
        if initial is None:
            initial = (0,) * (len(coeffs) - 1) + (1,)
        else:
            initial = tuple(map(index, initial))
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
    n, count = index(n), index(count)
    if n < 0 or count < 0:
        raise ValueError(f"need n, count >= 0, got {n}, {count}")
    k = spec.k
    head = min(count, k)
    h, r = divmod(n, 2)
    c = x_power(spec, h, m)
    d = list(islice(stream(spec, m), r + head + 2 * k - 2))
    mid = [sum(map(mul, c, d[r + i:r + i + k])) for i in range(head + k - 1)]
    out = [sum(map(mul, c, mid[t:t + k])) for t in range(head)]
    return list(islice(_steps(spec.coeffs[::-1], out, m), count))


def term(spec: SequenceSpec, n: int) -> int:
    """Exact d_n for n >= 0, off x^floor(n/2) in O(k^2 log n) products
    (see terms_from)."""
    n = index(n)
    if n < 0:
        raise ValueError("term() is for n >= 0; use term_negative()")
    return terms_from(spec, n, 1)[0]


def terms(spec: SequenceSpec, count: int) -> list[int]:
    """The list [d_0, ..., d_{count-1}]."""
    count = index(count)
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    return list(islice(stream(spec), count))


def stream(spec: SequenceSpec, m: int | None = None) -> Iterator[int]:
    """d_0, d_1, ... without end, exact or reduced mod m, which is checked
    before the first term is asked for (see _steps)."""
    return _steps(spec.coeffs[::-1], spec.initial, m)


def _steps(backward: tuple[int, ...], w: tuple[int, ...] | list[int],
           m: int | None) -> Iterator[int]:
    """The terms of window w (oldest first), then those after it, each
    d_{t+k} = a_k d_t + ... + a_1 d_{t+k-1} for backward = (a_k, ..., a_1);
    only one window is held.  With m given, m is checked and backward and
    w are reduced mod m here, before the first term is asked for.  w may
    be shorter than k only if no term past it is asked for.

    Up to k = _KERNEL_K_MAX the step is a straight-line kernel (see
    _kernel): the window lives in k locals, and a step is one sum of k
    products and a rotation.  Above it the step is a loop, and nothing is
    configurable.
    """
    if m is not None:
        check_modulus(m)
        backward = tuple([a % m for a in backward])
        w = tuple([x % m for x in w])
    k = len(backward)
    if k > _KERNEL_K_MAX:
        return _step_loop(backward, list(w), m)
    return _kernel("steps", k, m is not None)(backward, w, m)


def _step_loop(backward: tuple[int, ...], w: list[int], m: int | None) -> Iterator[int]:
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
    n = index(n)
    if n < 0:
        raise ValueError("term_mod() is for n >= 0")
    return Residue(terms_from(spec, n, 1, m)[0], m)


def terms_mod(spec: SequenceSpec, count: int, m: int) -> list[int]:
    """[d_0, ..., d_{count-1}] reduced mod m, with reduced intermediates."""
    count = index(count)
    if count < 0:
        raise ValueError(f"need count >= 0, got {count}")
    return list(islice(stream(spec, m), count))


def _scaled_window(spec: SequenceSpec, s: int) -> list[int]:
    """[a_k^s d_{-s}, ..., a_k^s d_{k-1-s}], integers, for s >= 0 and any
    initial window.  a_k x^{-1} = x^{k-1} - a_1 x^{k-2} - ... - a_{k-1}
    (x_inverse's formula times a_k) is in Z[x]/(chi), and with its power
    sum c_j x^j the index law of terms_from gives a_k^s d_{i-s} = sum c_j d_{i+j}."""
    k = spec.k
    base = tuple([-a for a in reversed(spec.coeffs[:-1])]) + (1,)
    c = x_power(spec, s, None, base)
    d = list(islice(stream(spec), 2 * k - 1))
    return [sum(map(mul, c, d[i:i + k])) for i in range(k)]


def term_negative(spec: SequenceSpec, n: int) -> Fraction:
    """Exact rational d_n for n < 0, off one power of a_k x^{-1} (_scaled_window)."""
    from fractions import Fraction
    n = index(n)
    if n >= 0:
        raise ValueError("term_negative() is for n < 0")
    return Fraction(_scaled_window(spec, -n)[0], spec.coeffs[-1] ** -n)


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


_LOOP_PRODUCTS = (lambda u, coeffs, m: _mulmod_charpoly(u, u, coeffs, m), _mulmod_charpoly)


def x_power(spec: SequenceSpec, n: int, m: int | None = None,
            base: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """base^n (default x^n) in Z_m[x]/(chi), or Z[x]/(chi) when m is None;
    chi is the characteristic polynomial.

    Elements are coefficient tuples (c_0, ..., c_{k-1}), lowest degree
    first, so base must have length k.  D acts as multiplication by x on
    this free module, so x^n = sum c_i x^i means D^n = sum c_i D^i; in
    particular D^n = I exactly when x^n = 1.  One product costs O(k^2),
    against O(k^3) for a matrix product, and base^n takes at most
    2 (bit_length(n) - 1) of them (see _power_reduced).  Up to
    k = _KERNEL_K_MAX (16) a product is straight-line code compiled once
    per process for k and the mode; above it, where that code and its
    compile time and memory would grow as k^2, it is a loop.  Nothing
    about this is configurable.
    """
    if m is not None:
        check_modulus(m)
    n = index(n)
    if n < 0:
        raise ValueError("x_power() is for n >= 0")
    k = spec.k
    if base is not None:
        base = tuple(map(index, base))
        if len(base) != k:
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
    The square and the product are fetched once, through _products: the
    compiled kernels for k and the mode up to k = _KERNEL_K_MAX, and
    _mulmod_charpoly's loops above it.
    """
    square, times = _products(len(coeffs), m is not None)
    result = base
    for bit in bin(n)[3:]:
        result = square(result, coeffs, m)
        if bit == "1":
            result = times(result, base, coeffs, m)
    return result


def _products(k: int, modular: bool):
    """(square(u, coeffs, m), times(u, v, coeffs, m)) in Z_m[x]/(chi), or
    in Z[x]/(chi) when not modular."""
    if k > _KERNEL_K_MAX:
        return _LOOP_PRODUCTS
    return _kernel("products", k, modular)


# The engine's two inner loops, the recurrence step and the product in
# Z_m[x]/(chi), run as straight-line Python up to k = _KERNEL_K_MAX: each
# has a template that depends only on k and on the mode (exact, or reduced
# mod m), compiled once per process for each (k, mode) on first use.  A
# product kernel's source grows as k^2, and so do its compile time and
# memory (Python 3.11 on a 2-vCPU Xeon VM): 3 ms at k = 16, the cost of
# about 200 products there, 16 ms and 3 MB at k = 32, 0.13 s and 38 MB at
# k = 100, 0.6 s and 150 MB at k = 200.  A step kernel's grows as k, but
# from about k = 32 on it is no faster than the loop, and a flat sum of a
# few thousand terms overflows the compiler's recursion.  Above the bound
# both stay loops, whose cost there is mostly the arithmetic.  The bound
# is a constant, not an option.
_KERNEL_K_MAX = 16
_kernels: dict[tuple[str, int, bool], object] = {}


def _kernel(kind: str, k: int, modular: bool):
    """The compiled kernel "products" (the pair square, times) or "steps"
    for k and the mode.  Threads that race on a new kernel each compile
    it, and all of them get the one that was stored first."""
    try:
        return _kernels[kind, k, modular]
    except KeyError:
        pass
    source = (_products_source if kind == "products" else _steps_source)(k, modular)
    name = f"<recurra kernel {kind} k={k}{' mod m' if modular else ''}>"
    namespace: dict = {}
    exec(compile(source, name, "exec"), namespace)
    return _kernels.setdefault((kind, k, modular), namespace[kind])


def _sum(terms: list[str]) -> str:
    return f"({' + '.join(terms)})"


def _names(prefix: str, start: int, stop: int) -> str:
    return "".join(f"{prefix}{i}, " for i in range(start, stop))


def _steps_source(k: int, modular: bool) -> str:
    # b_i = a_{k-i} pairs with d_i, the oldest term first
    mod = " % m" if modular else ""
    step = _sum([f"b{i} * d{i}" for i in range(k)])
    return (f"def steps(backward, w, m):\n"
            f"    yield from w\n"
            f"    {_names('b', 0, k)}= backward\n"
            f"    {_names('d', 0, k)}= w\n"
            f"    while True:\n"
            f"        {_names('d', 0, k)}= {_names('d', 1, k)}{step}{mod}\n"
            f"        yield d{k - 1}\n")


def _products_source(k: int, modular: bool) -> str:
    # u * v as _mulmod_charpoly takes it: full[i] holds the products
    # u_j v_l with j + l = i; c_top, from top = 2k - 2 down to k, is full[top]
    # plus what the tops above it folded in, reduced mod m, and it folds
    # c_top a_j into full[top - j]
    mod = " % m" if modular else ""

    def body(full: list[list[str]]) -> str:
        lines = []
        for top in range(2 * k - 2, k - 1, -1):
            folded = [f"c{top + j} * a{j}" for j in range(1, 2 * k - 1 - top)]
            lines.append(f"    c{top} = {_sum(full[top] + folded)}{mod}\n")
        low = []
        for i in range(k):
            folded = [f"c{i + j} * a{j}" for j in range(k - i, min(k, 2 * k - 2 - i) + 1)]
            low.append(f"{_sum(full[i] + folded)}{mod}, ")
        return "".join(lines) + f"    return ({''.join(low)})\n"

    # a square takes each cross product u_i u_j, i < j, once, as t_i u_j
    # with t_i = 2 u_i: k(k+1)/2 products
    square: list[list[str]] = [[] for _ in range(2 * k - 1)]
    times: list[list[str]] = [[] for _ in range(2 * k - 1)]
    for i in range(k):
        square[2 * i].append(f"u{i} * u{i}")
        for j in range(k):
            if j > i:
                square[i + j].append(f"t{i} * u{j}")
            times[i + j].append(f"u{i} * v{j}")
    unpack = f"    {_names('u', 0, k)}= u\n    {_names('a', 1, k + 1)}= a\n"
    twice = "".join(f"    t{i} = u{i} + u{i}\n" for i in range(k - 1))
    return (f"def square(u, a, m):\n{unpack}{twice}{body(square)}\n"
            f"def times(u, v, a, m):\n{unpack}    {_names('v', 0, k)}= v\n{body(times)}\n"
            f"products = square, times\n")


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
    n = index(n)
    if n < 1:
        raise ValueError("need n >= 1")
    k = spec.k
    a = spec.coeffs
    s = max(0, k - 1 - n)
    scale = a[-1] ** s
    # d[t + s] = d_t * scale for t from -s to n+k-1, stepped on from the window at -s
    d = list(islice(_steps(a[::-1], _scaled_window(spec, s), None), s + n + k))
    dn = companion(spec) ** n
    for r, dn_row in enumerate(dn.entries, 1):
        top = s + n + k - r                 # d_{n+k-r}
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
        raise BrokenIdentity(f"window determinant identity broke: "
                             f"{value} != {expected} for {spec}, n={n}")
    return value


def bordered_matrix(spec: SequenceSpec, n: int) -> Matrix:
    """k x k matrix with columns Y_n, ..., Y_{n+k-2} and a final e_1 column:
    the window matrix with its last column replaced."""
    rows = window_matrix(spec, n).entries
    return Matrix([row[:-1] + (1 if i == 0 else 0,) for i, row in enumerate(rows)])


def bordered_det(spec: SequenceSpec, n: int) -> int:
    """det of the e_1-bordered window matrix.

    Equals (-1)^{n(k+1)} a_k^n d_{-n}: an integer, even though d_{-n}
    alone usually is not.
    """
    _require_default_window(spec)
    n = index(n)
    if n < 1:
        raise ValueError("need n >= 1")
    value = bordered_matrix(spec, n).det()
    expected = (-1) ** (n * (spec.k + 1)) * _scaled_window(spec, n)[0]
    if value != expected:
        raise BrokenIdentity(f"bordered determinant identity broke: "
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
        raise BrokenIdentity(f"index-addition identity broke for {spec}, "
                             f"m={m}, n={n}: {total} != {d[m + n + k - 1]}")
    return total
