"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive and shares no code path with the
package: permutation-sum determinants, full O(k^3) matrix products,
dictionary-driven quaternion multiplication, term lists by direct
recursion.
"""
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm


def naive_terms(coeffs, count, initial=None):
    k = len(coeffs)
    d = list(initial) if initial is not None else [0] * (k - 1) + [1]
    while len(d) < count:
        d.append(sum(coeffs[i] * d[-1 - i] for i in range(k)))
    return d[:count]


def naive_terms_mod(coeffs, count, m, initial=None):
    return [x % m for x in naive_terms(coeffs, count, initial)]


def perm_det(rows):
    """Determinant by the Leibniz permutation sum, exact over Q."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(rows[i][perm[i]])
        total += sign * prod
    return total


def naive_matmul(a, b, m=None):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc += a[i][t] * b[t][j]
            out[i][j] = acc if m is None else acc % m
    return out


def naive_companion(coeffs):
    k = len(coeffs)
    rows = [list(coeffs)]
    for i in range(k - 1):
        rows.append([1 if j == i else 0 for j in range(k)])
    return rows


def naive_matpow(coeffs, n, m=None):
    """D^n by repeated naive multiplication (no squaring)."""
    k = len(coeffs)
    d = naive_companion(coeffs)
    out = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(n):
        out = naive_matmul(d, out, m)
    return out


def naive_matrix_order(coeffs, m, cap=10**7):
    k = len(coeffs)
    d = naive_companion(coeffs)
    ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    cur = naive_matmul(d, ident, m)
    t = 1
    while cur != ident:
        cur = naive_matmul(d, cur, m)
        t += 1
        if t > cap:
            raise RuntimeError(f"order exceeds {cap}")
    return t


def naive_state_period(coeffs, m, initial=None, cap=None):
    """(tail, period) by scanning the raw term list for window repeats.

    Terms are generated as the scan needs them; past cap windows it raises
    RuntimeError.
    """
    k = len(coeffs)
    d = naive_terms_mod(coeffs, k, m, initial)
    seen = {}
    t = 0
    while True:
        window = tuple(d[t:t + k])
        if window in seen:
            return seen[window], t - seen[window]
        seen[window] = t
        t += 1
        if cap is not None and t > cap:
            raise RuntimeError(f"tail + period exceeds {cap}")
        d.append(sum(coeffs[i] * d[-1 - i] for i in range(k)) % m)


def naive_matpow_squaring(coeffs, n, m):
    """D^n mod m by square-and-multiply over naive products."""
    k = len(coeffs)
    out = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    base = naive_companion(coeffs)
    while n:
        if n & 1:
            out = naive_matmul(out, base, m)
        base = naive_matmul(base, base, m)
        n >>= 1
    return out


def trial_prime_factors(n):
    """The distinct primes dividing n, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def naive_is_matrix_order(coeffs, m, t):
    """Certificate that t is the order of D mod m, for orders too long to
    walk: D^t = I and D^(t/q) != I for every prime q dividing t."""
    k = len(coeffs)
    ident = [[1 % m if i == j else 0 for j in range(k)] for i in range(k)]
    return (t >= 1 and naive_matpow_squaring(coeffs, t, m) == ident
            and all(naive_matpow_squaring(coeffs, t // q, m) != ident
                    for q in trial_prime_factors(t)))


def naive_is_window_orbit(coeffs, m, tail, period, initial=None):
    """Certificate that the window orbit has this tail and least period,
    for orbits too long to walk: D^(tail+period) Y_0 = D^tail Y_0, not so
    for period/q for any prime q | period, and not so at tail - 1 unless
    tail = 0."""
    k = len(coeffs)
    d = naive_terms_mod(coeffs, k, m, initial)
    y0 = [[x] for x in reversed(d)]

    def state(n):
        return naive_matmul(naive_matpow_squaring(coeffs, n, m), y0, m)

    if tail < 0 or period < 1:
        return False
    start = state(tail)
    return (state(tail + period) == start
            and all(state(tail + period // q) != start
                    for q in trial_prime_factors(period))
            and (tail == 0 or state(tail - 1 + period) != state(tail - 1)))


def naive_mult_order(x, m):
    t, y = 1, x % m
    while y != 1:
        y = y * x % m
        t += 1
    return t


def carmichael_brute(m):
    """Exponent of (Z/m)^* as the lcm of every unit's order."""
    out = 1
    for u in range(1, m):
        if gcd(u, m) == 1:
            out = lcm(out, naive_mult_order(u, m))
    return out


# Quaternion basis products as (sign-ish coefficient kind, target index):
# entries map (i, j) of basis (1, e, f, ef) to a list of
# (constant, alpha_power, beta_power, target) meaning
# constant * alpha^a * beta^b * basis[target].
_QTABLE = {
    (0, 0): (1, 0, 0, 0), (0, 1): (1, 0, 0, 1), (0, 2): (1, 0, 0, 2), (0, 3): (1, 0, 0, 3),
    (1, 0): (1, 0, 0, 1), (1, 1): (1, 1, 0, 0), (1, 2): (1, 0, 0, 3), (1, 3): (1, 1, 0, 2),
    (2, 0): (1, 0, 0, 2), (2, 1): (-1, 0, 0, 3), (2, 2): (1, 0, 1, 0), (2, 3): (-1, 0, 1, 1),
    (3, 0): (1, 0, 0, 3), (3, 1): (-1, 1, 0, 2), (3, 2): (1, 0, 1, 1), (3, 3): (-1, 1, 1, 0),
}


def table_quat_mul(x, y, alpha, beta, m):
    """Bilinear expansion of the 4x4 basis table, coefficient by coefficient."""
    out = [0, 0, 0, 0]
    for i in range(4):
        for j in range(4):
            const, ap, bp, target = _QTABLE[(i, j)]
            out[target] += x[i] * y[j] * const * alpha ** ap * beta ** bp
    return tuple(c % m for c in out)


def naive_lterms(l, count):
    a = [0, 1]
    while len(a) < count:
        a.append(l * a[-1] + a[-2])
    return a[:count]


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_gcd_mod(f, g, p):
    """Monic gcd of coefficient lists (low to high) over F_p."""
    f = _poly_trim([c % p for c in f])
    g = _poly_trim([c % p for c in g])
    while g:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            factor = f[-1] * inv % p
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[i + shift] = (f[i + shift] - factor * c) % p
            f = _poly_trim(f)
            if not f:
                break
        f, g = g, f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def poly_derivative_mod(f, p):
    return _poly_trim([i * c % p for i, c in enumerate(f)][1:])


def poly_eval_mod(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def companion_diagonalizable_mod_p(coeffs, p):
    """Independent criterion: the characteristic polynomial (which is also
    the minimal polynomial of a companion matrix) is squarefree AND fully
    splits, i.e. gcd(f, f') = 1 and #roots = degree."""
    f = [-a for a in reversed(coeffs)] + [1]
    fp = poly_derivative_mod(f, p)
    if not fp:
        return False
    if len(poly_gcd_mod(f, fp, p)) != 1:
        return False
    roots = sum(1 for x in range(p) if poly_eval_mod(f, x, p) == 0)
    return roots == len(coeffs)
