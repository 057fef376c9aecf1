"""Number theory behind the periods: primality, factoring, group exponents,
orders, and polynomials over F_p.  A factored number is a dict {q: e}; each
p^d - 1 an exponent needs, p - 1 for lambda(m) included, is factored as the
product of its cyclotomic pieces Phi_d(p), each factored once and cached."""
from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod

from .ringcore import check_modulus

# The first 13 primes: Miller-Rabin to these bases is exact below
# 3317044064679887385961981 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
_TRIAL_LIMIT = 1000
# Pollard rho needs on the order of sqrt(q) steps to split off a prime
# factor q: this bound reaches q up to about 10^12 and makes a hopeless
# input (two 20-digit primes) fail in seconds rather than run for hours.
_RHO_STEP_LIMIT = 1 << 22


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: is the odd n > 2 a strong probable prime to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n that is not
    a perfect square: D is the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1, Q = (1 - D)/4."""
    d_sel = 5
    while _jacobi(d_sel, n) != -1:
        if gcd(abs(d_sel), n) not in (1, n):
            return False
        d_sel = -d_sel - 2 if d_sel > 0 else -d_sel + 2
    q = (1 - d_sel) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def halve(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    u, v, qk = 1, 1, q % n          # U_1, V_1 and Q^1 for P = 1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = halve(u + v), halve(d_sel * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality of an integer of any size.

    Miller-Rabin to the first 13 prime bases, which is exact below
    3.3 * 10^24; above that a strong Lucas test is added (together, the
    Baillie-PSW test, which has no known counterexample).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if not all(_strong_probable_prime(n, a) for a in _MR_BASES):
        return False
    if n < _MR_EXACT_BELOW:
        return True
    return isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)


def _rho_factor(n: int) -> int:
    """A nontrivial factor of the odd composite n: Pollard's rho with
    Brent's cycle search and batched gcds, over x^2 + c for c = 1, 2, ...
    (deterministic, so equal inputs take equal time).  ArithmeticError
    when no factor turns up within _RHO_STEP_LIMIT steps."""
    batch = 128
    c = steps = 0
    while True:
        c += 1
        y, power, acc, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * power
            if steps > _RHO_STEP_LIMIT:
                raise ArithmeticError(f"cannot factor {n}: no factor found in "
                                      f"{_RHO_STEP_LIMIT} Pollard rho steps")
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and g == 1:
                saved = y
                for _ in range(min(batch, power - done)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                done += batch
            power *= 2
        if g == n:          # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes ascending.

    Trial division below 1000, then Pollard-Brent rho on what is left;
    ArithmeticError when rho cannot split a composite within its step bound.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    f = 2
    while f < _TRIAL_LIMIT and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    pending = [n] if n > 1 else []
    while pending:
        x = pending.pop()
        if x < f * f or is_prime(x):    # no factor below f is left
            out[x] = out.get(x, 0) + 1
        else:
            d = _rho_factor(x)
            pending += [d, x // d]
    return dict(sorted(out.items()))


def unfactor(factored: dict[int, int]) -> int:
    """The number whose factorization is {q: e}."""
    return prod(q ** e for q, e in factored.items())


def lcm_factored(*parts: dict[int, int]) -> dict[int, int]:
    """lcm of factored numbers: the largest exponent of each prime."""
    out: dict[int, int] = {}
    for part in parts:
        for q, e in part.items():
            out[q] = max(out.get(q, 0), e)
    return out


def _cyclotomic_value(d: int, p: int) -> int:
    """Phi_d(p), from p^d - 1 = prod over e | d of Phi_e(p)."""
    value = p ** d - 1
    for e in range(1, d):
        if d % e == 0:
            value //= _cyclotomic_value(e, p)
    return value


@lru_cache(maxsize=1024)
def _cyclotomic_factored(d: int, p: int) -> tuple[tuple[int, int], ...]:
    """Phi_d(p) factored, as (q, e) pairs; the moduli of one law or one
    ladder, and the keys of one cipher modulus, share their primes, so each
    piece is factored once."""
    return tuple(factorize(_cyclotomic_value(d, p)).items())


def carmichael_factored(m: int) -> dict[int, int]:
    """lambda(m), the exponent of (Z/m)^*, as {q: e}; p - 1 is the cached
    piece Phi_1(p)."""
    parts = []
    for p, r in factorize(check_modulus(m)).items():
        if p == 2:
            parts.append({2: r - 1 if r < 3 else r - 2})     # 1, 2, 2^(r-2)
        else:
            parts += [dict(_cyclotomic_factored(1, p)), {p: r - 1}]
    return {q: e for q, e in lcm_factored(*parts).items() if e}


def carmichael(m: int) -> int:
    """lambda(m): the least t with x^t = 1 mod m for every unit x."""
    return unfactor(carmichael_factored(m))


def _exponent_factored(m_factored: dict[int, int], k: int, local) -> dict[int, int]:
    """A multiple, factored as {q: e}, of the order of x in Z_m[x]/(chi)
    for a degree-k chi with a unit constant term, where m is factored as
    {p: r} and local(p) gives the degrees of the irreducible factors of
    chi mod p and whether chi mod p is squarefree.  When p | chi(0), it is
    a multiple of the order of x on the part of Z_{p^r}[x]/(chi) where x
    is a unit: the factor x of chi mod p only adds the degree 1 and, when
    repeated, the p^s below.

    Z_p[x]/(chi) is a product of F_p[x]/(g^e) over the irreducible factors
    g of chi mod p.  There x^(p^d - 1) = 1 + n for d = deg g, with n
    nilpotent, n^e = 0, so (1 + n)^(p^s) = 1 once p^s >= e: s = 0 when
    chi mod p is squarefree, else the least s with p^s >= k.  The kernel
    of reduction from p^r || m to p has exponent p^(r-1) (Wall 1960 gives
    the k = 2 case).
    """
    parts = []
    for p, r in m_factored.items():
        degrees, squarefree = local(p)
        for j in degrees:       # p^j - 1, the product of its far smaller Phi_d(p), d | j
            total: dict[int, int] = {}
            for d in range(1, j + 1):
                if j % d == 0:
                    for q, e in _cyclotomic_factored(d, p):
                        total[q] = total.get(q, 0) + e
            parts.append(total)
        s = 0
        while not squarefree and p ** s < k:
            s += 1
        parts.append({p: s + r - 1})
    return {q: e for q, e in lcm_factored(*parts).items() if e}


def order_from_multiple(multiple: dict[int, int], x, power, is_one) -> dict[int, int]:
    """The least t >= 1 with is_one(power(x, t)), factored as {q: e}.

    multiple = {q: e} factors some M with is_one(power(x, M)), and the t
    that pass must be exactly the multiples of the answer (true of the
    powers of a group element).  A product tree over the prime powers q^e
    (Sutherland 2007) splits y into y^R, whose order is the part of ord(y)
    on the left half of the primes, and y^L for the right half, and
    recurses; at a leaf q, y^(q^j) climbs until the test passes.  Each level
    of the tree costs powers worth about log M multiplications, so the
    whole descent costs O(log M log w) for w primes, against O(w log M) one
    prime at a time.
    power(y, n) returns y^n.  Raises ArithmeticError if M is no multiple.
    """
    primes = [(q, e) for q, e in multiple.items() if e]
    found: dict[int, int] = {}

    def descend(y, lo: int, hi: int) -> None:
        # ord(y) divides the product of q^e over primes[lo:hi] when M is a multiple
        if is_one(y):
            return
        if hi - lo == 1:
            q, e = primes[lo]
            j = 0
            while not is_one(y):
                if j == e:
                    raise ArithmeticError(f"{unfactor(multiple)} is not a "
                                          f"multiple of the order")
                y = power(y, q)
                j += 1
            found[q] = j
            return
        mid = (lo + hi) // 2
        descend(power(y, unfactor(dict(primes[mid:hi]))), lo, mid)
        descend(power(y, unfactor(dict(primes[lo:mid]))), mid, hi)

    if primes:
        descend(x, 0, len(primes))
    elif not is_one(x):
        raise ArithmeticError("1 is not a multiple of the order")
    return {q: found[q] for q, _ in primes if q in found}


# -- polynomials over F_p, for the factorization of chi mod p: coefficient
# lists, lowest degree first, reduced mod p, with no trailing zeros (the zero
# polynomial is []) -------------------------------------------------------------

def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mod_p(f, p: int) -> list[int]:
    """The coefficients f reduced mod p, trailing zeros dropped."""
    return _trim([c % p for c in f])


def poly_divmod_mod_p(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by the nonzero g over F_p, p prime."""
    rem, low, dg = f[:], g[:-1], len(g) - 1
    inv = pow(g[-1], -1, p)
    quot = []
    while len(rem) > dg:
        c = rem.pop() * inv % p
        quot.append(c)
        if c:
            shift = len(rem) - dg
            rem[shift:] = [(a - c * b) % p for a, b in zip(rem[shift:], low)]
    return quot[::-1], _trim(rem)


def poly_gcd_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd of f and g over F_p, p prime ([] when both are zero)."""
    while g:
        f, g = g, poly_divmod_mod_p(f, g, p)[1]
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]
