"""Reference arithmetic the benchmark checks recurra's outputs against.

Nothing here imports recurra: every routine takes a different route from
the library's (binary powers instead of linear walks, a factored group
order instead of a search, Gaussian rank instead of the minimal-polynomial
test), so a wrong library result cannot agree with its own check.
"""
from __future__ import annotations

import random
from functools import lru_cache
from fractions import Fraction
from math import gcd, log10
from operator import mul


def identity(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def companion(coeffs) -> list[list[int]]:
    """First row a_1..a_k, ones on the subdiagonal."""
    k = len(coeffs)
    return [list(coeffs)] + [[int(j == i) for j in range(k)] for i in range(k - 1)]


def mat_mul(a, b, m: int | None):
    bt = list(zip(*b))
    if m is None:
        return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
    return [[sum(x * y for x, y in zip(row, col)) % m for col in bt] for row in a]


def mat_pow(a, e: int, m: int | None):
    result = identity(len(a))
    base = a if m is None else [[x % m for x in row] for row in a]
    if m is not None:
        result = [[x % m for x in row] for row in result]
    while e:
        if e & 1:
            result = mat_mul(result, base, m)
        e >>= 1
        if e:
            base = mat_mul(base, base, m)
    return result


def apply(a, vec, m: int | None):
    out = [sum(x * y for x, y in zip(row, vec)) for row in a]
    return out if m is None else [x % m for x in out]


# -- factoring -------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24; probabilistic beyond."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the composite n (Pollard rho, Brent's cycle)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y, c = rng.randrange(1, n), rng.randrange(1, n)
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        x = stack.pop()
        if is_prime(x):
            out[x] = out.get(x, 0) + 1
        else:
            f = _rho(x)
            stack += [f, x // f]
    return out


def _merge(into: dict[int, int], more: dict[int, int]) -> None:
    for p, e in more.items():
        into[p] = max(into.get(p, 0), e)


# -- orders and periods ------------------------------------------------------

def _poly_mulmod(u, v, coeffs, m: int) -> list[int]:
    """u * v in Z_m[x] / (x^k - a_1 x^(k-1) - ... - a_k), coefficients low first."""
    k = len(coeffs)
    prod = [0] * (2 * k - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] += ui * vj
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d] % m
        if c:
            for j, a in enumerate(coeffs, 1):
                prod[d - j] += c * a
    return [x % m for x in prod[:k]]


def _one(k: int, m: int) -> list[int]:
    return [1 % m] + [0] * (k - 1)


def _x_power(coeffs, e: int, m: int, base=None) -> list[int]:
    """base^e (default x^e) in Z_m[x] / (f).  The companion matrix acts as
    multiplication by x on this free module, so D^e = I exactly when x^e = 1."""
    k = len(coeffs)
    result = _one(k, m)
    base = base or [0, 1 % m] + [0] * (k - 2)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, coeffs, m)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, coeffs, m)
    return result


@lru_cache(maxsize=None)
def _gl_exponent(k: int, p: int, r: int) -> tuple[tuple[int, int], ...]:
    """Factored exponent of GL_k(Z_{p^r}): lcm_{j<=k}(p^j - 1) for the
    semisimple part, p^ceil(log_p k) for the unipotent part, p^(r-1) for
    the kernel of reduction mod p."""
    part: dict[int, int] = {}
    for j in range(1, k + 1):
        _merge(part, factorize(p ** j - 1))
    s, u = 0, 1
    while u < k:
        u *= p
        s += 1
    part[p] = s + r - 1
    return tuple(part.items())


def is_matrix_order(coeffs, m: int, t: int) -> bool:
    """D^t = I mod m, and D^(t/q) != I for every prime q dividing t."""
    if t < 1:
        return False
    one = _one(len(coeffs), m)
    if _x_power(coeffs, t, m) != one:
        return False
    return all(_x_power(coeffs, t // q, m) != one for q in factorize(t))


def matrix_order(coeffs, m: int) -> int:
    """Order of the companion matrix mod m (gcd(a_k, m) = 1): start from the
    exponent of GL_k(Z_m) and strip each prime down to what is needed."""
    multiple: dict[int, int] = {}
    for p, r in factorize(m).items():
        _merge(multiple, dict(_gl_exponent(len(coeffs), p, r)))
    order = 1
    for q, e in multiple.items():
        order *= q ** e
    one = _one(len(coeffs), m)
    for q, e in multiple.items():
        order //= q ** e
        y = _x_power(coeffs, order, m)
        while y != one:
            y = _x_power(coeffs, q, m, base=y)
            order *= q
    return order


def window(coeffs, initial, i: int, m: int) -> tuple[int, ...]:
    """(d_i, ..., d_{i+k-1}) mod m, via D^i applied to the initial window."""
    top_first = [x % m for x in reversed(initial)]
    y = apply(mat_pow(companion(coeffs), i, m), top_first, m)
    return tuple(reversed(y))


def is_state_period(coeffs, initial, m: int, tail: int, period: int) -> bool:
    """Windows repeat at tail + period, not from any earlier index, and not
    at tail + period/q for a prime q dividing the period."""
    if tail < 0 or period < 1:
        return False
    w = window(coeffs, initial, tail, m)
    if w != window(coeffs, initial, tail + period, m):
        return False
    if tail and window(coeffs, initial, tail - 1, m) == window(
            coeffs, initial, tail - 1 + period, m):
        return False
    return all(w != window(coeffs, initial, tail + period // q, m)
               for q in factorize(period))


def is_unit_order(a: int, m: int, t: int) -> bool:
    return (t >= 1 and pow(a, t, m) == 1 % m
            and all(pow(a, t // q, m) != 1 for q in factorize(t)))


# -- terms -------------------------------------------------------------------

def term_mod(coeffs, initial, n: int, m: int) -> int:
    """d_n mod m: the top entry of D^(n-k+1) applied to (d_{k-1}, ..., d_0)."""
    k = len(coeffs)
    if n < k:
        return initial[n] % m
    top_first = [x % m for x in reversed(initial)]
    return apply(mat_pow(companion(coeffs), n - k + 1, m), top_first, m)[0]


def obeys_recurrence(values, coeffs, initial, m: int | None = None) -> bool:
    """values[0:k] is the initial window and each later value is the
    recurrence of the k before it (reduced mod m when m is given)."""
    k = len(coeffs)
    if m is None:
        head = list(initial[:len(values)])
        rule = lambda i: sum(a * values[i - j - 1] for j, a in enumerate(coeffs))
    else:
        head = [x % m for x in initial[:len(values)]]
        rule = lambda i: sum(a * values[i - j - 1] for j, a in enumerate(coeffs)) % m
    if list(values[:k]) != head:
        return False
    return all(values[i] == rule(i) for i in range(k, len(values)))


def term_negative(coeffs, initial, n: int) -> Fraction:
    """d_n for n < 0: the bottom entry of (D^-1)^|n| applied to Y_0 over Q,
    with D^-1 from Gauss-Jordan elimination."""
    inv = _inverse_q(companion(coeffs))
    top_first = [Fraction(x) for x in reversed(initial)]
    y = apply(mat_pow(inv, -n, None), top_first, None)
    return y[-1]


def _inverse_q(a):
    k = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
           for i, row in enumerate(a)]
    for c in range(k):
        piv = next(r for r in range(c, k) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def l_term(l: int, n: int) -> int:
    """a_n of a_n = l a_{n-1} + a_{n-2}, from [[l, 1], [1, 0]]^n."""
    return mat_pow([[l, 1], [1, 0]], n, None)[0][1]


def growth_digits(coeffs, steps: int = 400) -> float:
    """Decimal digits gained per step by the default-window sequence,
    estimated in floating point (rescaled so it never overflows)."""
    k = len(coeffs)
    w = [0.0] * (k - 1) + [1.0]
    logscale = 0.0
    for _ in range(steps):
        nxt = sum(a * x for a, x in zip(coeffs, reversed(w)))
        w = w[1:] + [nxt]
        big = max(abs(x) for x in w)
        if big > 1e100:
            w = [x / big for x in w]
            logscale += log10(big)
    big = max(abs(x) for x in w)
    return (logscale + (log10(big) if big > 0 else 0.0)) / steps


# -- linear algebra mod p ------------------------------------------------------

def rank_mod_p(a, p: int) -> int:
    rows = [[x % p for x in row] for row in a]
    rank, cols = 0, len(rows[0])
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def is_diagonalization(coeffs, p: int, diagonalizable: bool, eigenvalues) -> bool:
    """D is diagonalizable over F_p exactly when its eigenspaces, of nullity
    k - rank(D - lam I) over the distinct roots lam, span F_p^k; the reported
    eigenvalues must then be the roots with multiplicity."""
    k = len(coeffs)
    charpoly = [1] + [-a % p for a in coeffs]          # high -> low
    roots = [x for x in range(p) if _eval(charpoly, x, p) == 0]
    d = companion(coeffs)
    nullity = sum(k - rank_mod_p([[d[i][j] - lam * (i == j) for j in range(k)]
                                  for i in range(k)], p) for lam in roots)
    if (nullity == k) != diagonalizable:
        return False
    if not diagonalizable:
        return eigenvalues is None
    prod = [1]
    for lam in eigenvalues:
        prod = [(x - lam * y) % p for x, y in zip(prod + [0], [0] + prod)]
    return sorted(eigenvalues) == list(eigenvalues) and prod == charpoly


def _eval(poly_high_first, x: int, p: int) -> int:
    acc = 0
    for c in poly_high_first:
        acc = (acc * x + c) % p
    return acc


# -- cipher ----------------------------------------------------------------------

def encipher(coeffs, n_mod: int, exponent: int, labels, k: int) -> list[int]:
    """Labels of D^n V mod N, V packed column by column, k labels a column."""
    e = mat_pow(companion(coeffs), exponent, n_mod)
    cols = list(zip(*[iter(labels)] * k))
    rows = [[sum(map(mul, erow, col)) % n_mod for col in cols] for erow in e]
    return [x for col in zip(*rows) for x in col]
