"""Exact arithmetic substrate: residues mod m and matrices over Z or Z_m.

Everything here is arbitrary precision (plain Python ints) and immutable.
Matrix inversion goes through the adjugate and the inverse of the
determinant, never Gaussian elimination: over a composite modulus a matrix
can be invertible while every candidate pivot is a zero divisor.

Products over Z_m pack each row of the right-hand factor into one integer
(Kronecker substitution), one fixed-width slot per entry.  Entries are
reduced to [0, m), so an entry of A @ B with inner dimension k is at most
k * (m - 1)^2; slots wide enough for that bound never carry into each
other, and each row of the product is a sum of k big-integer multiples
that run in C.  Products over Z use the plain row-by-column sums.
"""
from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from math import gcd, isqrt, prod


class NotInvertible(ValueError):
    """Element (or matrix determinant) is not a unit in its ring."""


class ShapeMismatch(ValueError):
    """Matrix dimensions do not conform."""


class ModulusMismatch(ValueError):
    """Operands live in different residue rings."""


def check_modulus(m: int) -> int:
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
    return m


def invert_mod(a: int, m: int) -> int:
    """Inverse of a mod m, or NotInvertible when gcd(a, m) != 1."""
    a %= m
    if gcd(a, m) != 1:
        raise NotInvertible(f"{a} is not a unit mod {m}")
    return pow(a, -1, m)


# -- number theory: primality, factoring, group exponents, orders -------------

# The first 13 primes: Miller-Rabin to these bases is exact below
# 3317044064679887385961981 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
_TRIAL_LIMIT = 1000


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
    (deterministic, so equal inputs take equal time)."""
    batch = 128
    c = 0
    while True:
        c += 1
        y, power, acc, g = 2, 1, 1, 1
        while g == 1:
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

    Trial division below 1000, then Pollard-Brent rho on what is left.
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


def carmichael_factored(m: int) -> dict[int, int]:
    """lambda(m), the exponent of (Z/m)^*, as {q: e}."""
    parts = []
    for p, r in factorize(check_modulus(m)).items():
        if p == 2:
            parts.append({2: r - 1 if r < 3 else r - 2})     # 1, 2, 2^(r-2)
        else:
            parts.append(lcm_factored(factorize(p - 1), {p: r - 1}))
    return {q: e for q, e in lcm_factored(*parts).items() if e}


def carmichael(m: int) -> int:
    """lambda(m): the least t with x^t = 1 mod m for every unit x."""
    return unfactor(carmichael_factored(m))


def order_from_multiple(multiple: dict[int, int], x, power, is_one) -> dict[int, int]:
    """The least t >= 1 with is_one(power(x, t)), factored as {q: e}.

    multiple = {q: e} factors some M with is_one(power(x, M)), and the t
    that pass must be exactly the multiples of the answer (true of the
    powers of a group element).  One prime q at a time, t drops to M / q^e,
    with the primes already done at their final exponents, and climbs back
    by factors of q until the test passes: at most one call of power per
    prime plus sum(e).
    power(y, n) returns y^n.  Raises ArithmeticError if M is no multiple.
    """
    whole = total = unfactor(multiple)
    order: dict[int, int] = {}
    for q, e in multiple.items():
        total //= q ** e
        y = power(x, total)
        j = 0
        while not is_one(y):
            if j == e:
                raise ArithmeticError(f"{whole} is not a multiple of the order")
            y = power(y, q)
            j += 1
        total *= q ** j
        if j:
            order[q] = j
    return order


def multiplicative_order_int(a: int, m: int) -> int:
    """Least t >= 1 with a^t = 1 mod m; requires gcd(a, m) = 1.

    Descends from the Carmichael exponent lambda(m), which every unit's
    order divides.
    """
    check_modulus(m)
    a %= m
    if gcd(a, m) != 1:
        raise NotInvertible(f"{a} is not a unit mod {m}")
    return unfactor(order_from_multiple(carmichael_factored(m), a,
                                        lambda y, e: pow(y, e, m), lambda y: y == 1))


@dataclass(frozen=True)
class Residue:
    """An element of Z_m, stored as its canonical representative in [0, m)."""

    value: int
    modulus: int

    def __post_init__(self):
        check_modulus(self.modulus)
        object.__setattr__(self, "value", self.value % self.modulus)

    def _match(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"mod {self.modulus} vs mod {other.modulus}")

    def __add__(self, other: "Residue") -> "Residue":
        self._match(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._match(other)
        return Residue(self.value - other.value, self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        self._match(other)
        return Residue(self.value * other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __pow__(self, e: int) -> "Residue":
        if e < 0:
            return Residue(pow(invert_mod(self.value, self.modulus), -e, self.modulus),
                           self.modulus)
        return Residue(pow(self.value, e, self.modulus), self.modulus)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def mod_inverse(x: Residue) -> Residue:
    """y with x*y = 1 mod m; NotInvertible when gcd(x, m) != 1."""
    return Residue(invert_mod(x.value, x.modulus), x.modulus)


def multiplicative_order(x: Residue) -> int:
    return multiplicative_order_int(x.value, x.modulus)


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant, fraction-free Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
            m[r][c] = 0
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


# struct/memoryview format of each slot width that is a native C integer
_SLOT_FORMATS = {struct.calcsize(f): f for f in "BHIQ"}


def _packed_rows_product(a_rows, b_rows, m: int) -> tuple:
    """Rows of A @ B mod m for entries already in [0, m), by packed rows."""
    cols = len(b_rows[0])
    nbytes = (len(b_rows) * (m - 1) ** 2).bit_length() + 7 >> 3
    width = next((w for w in (1, 2, 4, 8) if w >= nbytes), nbytes)
    order = sys.byteorder
    fmt = _SLOT_FORMATS.get(width)
    if fmt:
        layout = f"{cols}{fmt}"
        packed = [int.from_bytes(struct.pack(layout, *row), order) for row in b_rows]
    else:
        packed = [int.from_bytes(b"".join(x.to_bytes(width, order) for x in row), order)
                  for row in b_rows]
    out = []
    for row in a_rows:
        data = sum(a * p for a, p in zip(row, packed) if a).to_bytes(cols * width, order)
        if fmt:
            slots = memoryview(data).cast(fmt)
        else:
            slots = [int.from_bytes(data[j:j + width], order)
                     for j in range(0, len(data), width)]
        out.append(tuple([x % m for x in slots]))
    return tuple(out)


class Matrix:
    """Immutable matrix over Z (modulus None) or Z_m (modulus m).

    Entries are plain ints; modular matrices keep them reduced to [0, m).
    """

    __slots__ = ("rows", "cols", "modulus", "entries")

    def __init__(self, entries, modulus: int | None = None):
        if modulus is None:
            rows = tuple(tuple(int(x) for x in row) for row in entries)
        else:
            check_modulus(modulus)
            rows = tuple(tuple(int(x) % modulus for x in row) for row in entries)
        if not rows:
            raise ShapeMismatch("matrix must have at least one row")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("ragged rows")
        self._set(rows, modulus)

    def _set(self, rows: tuple, modulus: int | None) -> None:
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]))
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _of_rows(cls, rows: tuple, modulus: int | None) -> "Matrix":
        """A matrix of a nonempty tuple of equal-length int tuples, already
        reduced to [0, m) when modular: nothing is converted or checked."""
        matrix = object.__new__(cls)
        matrix._set(rows, modulus)
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, k: int, modulus: int | None = None) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)],
                   modulus)

    @classmethod
    def zero(cls, rows: int, cols: int, modulus: int | None = None) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)], modulus)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.modulus == other.modulus
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.entries, self.modulus))

    def __repr__(self) -> str:
        ring = "Z" if self.modulus is None else f"Z_{self.modulus}"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{ring}]({body})"

    def _match(self, other: "Matrix") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"mod {self.modulus} vs mod {other.modulus}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._match(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition needs equal shapes")
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)], self.modulus)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._match(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction needs equal shapes")
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)], self.modulus)

    def scale(self, c: int) -> "Matrix":
        return Matrix([[c * x for x in row] for row in self.entries], self.modulus)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product self @ other.

        Over Z_m each row of other becomes one integer with a slot per
        entry, each slot the fewest of 1, 2, 4 or 8 bytes (or, past 8, the
        fewest bytes) that hold k * (m - 1)^2 for inner dimension k, the
        largest value an entry of the product can take before reduction, so
        slots never carry.  Row i of the product is then
        sum(a_it * packed_t) over the nonzero a_it, unpacked and reduced
        slot by slot.  Over Z the entries are row-by-column sums.
        """
        self._match(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        m = self.modulus
        if m is None:
            bt = list(zip(*other.entries))
            prod = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                         for row in self.entries)
        else:
            prod = _packed_rows_product(self.entries, other.entries, m)
        return Matrix._of_rows(prod, m)

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix-vector product (vec as a column)."""
        if self.cols != len(vec):
            raise ShapeMismatch(f"{self.rows}x{self.cols} applied to {len(vec)}-vector")
        m = self.modulus
        out = tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)
        return out if m is None else tuple(x % m for x in out)

    def __pow__(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("power needs a square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        result = Matrix.identity(self.rows, self.modulus)
        base = self
        while n:
            if n & 1:
                result = result @ base
            n >>= 1
            if n:
                base = base @ base
        return result

    def det(self) -> int:
        """Exact determinant; reduced to [0, m) for modular matrices."""
        if self.rows != self.cols:
            raise ShapeMismatch("determinant needs a square matrix")
        d = _det_bareiss([list(r) for r in self.entries])
        return d if self.modulus is None else d % self.modulus

    def _minor(self, i: int, j: int) -> list[list[int]]:
        return [[x for c, x in enumerate(row) if c != j]
                for r, row in enumerate(self.entries) if r != i]

    def adjugate(self) -> "Matrix":
        k = self.rows
        if k != self.cols:
            raise ShapeMismatch("adjugate needs a square matrix")
        if k == 1:
            return Matrix([[1]], self.modulus)
        adj = [[(-1) ** (i + j) * _det_bareiss(self._minor(j, i))
                for j in range(k)] for i in range(k)]
        return Matrix(adj, self.modulus)

    def inverse(self) -> "Matrix":
        """Adjugate times det^{-1}; needs only det to be a unit mod m."""
        if self.modulus is None:
            raise NotInvertible("inverse is only defined over Z_m here")
        d = self.det()
        dinv = invert_mod(d, self.modulus)
        return self.adjugate().scale(dinv)

    def reduce(self, m: int) -> "Matrix":
        """The same matrix viewed in Z_m."""
        return Matrix(self.entries, check_modulus(m))
