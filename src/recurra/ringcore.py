"""Exact arithmetic substrate: residues mod m and matrices over Z or Z_m.

Everything here is arbitrary precision (plain Python ints) and immutable.
Matrix inversion goes through the adjugate and the inverse of the
determinant, never Gaussian elimination: over a composite modulus a matrix
can be invertible while every candidate pivot is a zero divisor.
"""
from __future__ import annotations

from math import gcd
from operator import attrgetter, index, mul

# How a Value subclass's __init__ sets a field, past Value.__setattr__.
set_field = object.__setattr__


class Value:
    """Base of recurra's immutable value classes.

    A subclass names its fields in the class attribute _fields and sets
    them in its own __init__ with set_field.  == holds only between
    objects of the same class whose fields are equal, hash agrees with ==,
    repr reads Name(field=value, ...), and no attribute can be assigned or
    deleted afterwards.
    """

    __slots__ = ()                  # so a subclass that declares slots has no __dict__
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class NotInvertible(ValueError):
    """Element (or matrix determinant) is not a unit in its ring."""


class BrokenIdentity(ArithmeticError):
    """A function's check of an identity on its own result failed."""


class ShapeMismatch(ValueError):
    """Matrix dimensions do not conform."""


class ModulusMismatch(ValueError):
    """Operands live in different residue rings."""


def check_modulus(m: int) -> int:
    m = index(m)
    if m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
    return m


def invert_mod(a: int, m: int) -> int:
    """Inverse of a mod m, or NotInvertible when gcd(a, m) != 1."""
    a %= m
    if gcd(a, m) != 1:
        raise NotInvertible(f"{a} is not a unit mod {m}")
    return pow(a, -1, m)


class Residue(Value):
    """An element of Z_m, stored as its canonical representative in [0, m)."""

    _fields = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        modulus = check_modulus(modulus)
        set_field(self, "value", index(value) % modulus)
        set_field(self, "modulus", modulus)

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


def multiplicative_order_int(a: int, m: int) -> int:
    """Least t >= 1 with a^t = 1 mod m; requires gcd(a, m) = 1.

    Descends from the Carmichael exponent lambda(m), which every unit's
    order divides; ntheory loads on the first call, not with ringcore.
    """
    from .ntheory import carmichael_factored, order_from_multiple, unfactor
    check_modulus(m)
    a %= m
    if gcd(a, m) != 1:
        raise NotInvertible(f"{a} is not a unit mod {m}")
    return unfactor(order_from_multiple(carmichael_factored(m), a,
                                        lambda y, e: pow(y, e, m), lambda y: y == 1))


def multiplicative_order(x: Residue) -> int:
    return multiplicative_order_int(x.value, x.modulus)


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact integer determinant, fraction-free Bareiss elimination."""
    n = len(rows)
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


class Matrix(Value):
    """Immutable matrix over Z (modulus None) or Z_m (modulus m).

    Entries are plain ints, taken with operator.index, so a float or a
    string raises TypeError; modular matrices keep them reduced to [0, m).
    """

    __slots__ = ("rows", "cols", "modulus", "entries")
    _fields = ("entries", "modulus")

    def __init__(self, entries, modulus: int | None = None):
        if modulus is None:
            rows = tuple(tuple(map(index, row)) for row in entries)
        else:
            modulus = check_modulus(modulus)
            rows = tuple(tuple([index(x) % modulus for x in row]) for row in entries)
        if not rows:
            raise ShapeMismatch("matrix must have at least one row")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("ragged rows")
        self._set(rows, modulus)

    def _set(self, rows: tuple, modulus: int | None) -> None:
        set_field(self, "rows", len(rows))
        set_field(self, "cols", len(rows[0]))
        set_field(self, "modulus", modulus)
        set_field(self, "entries", rows)

    @classmethod
    def _of_rows(cls, rows: tuple, modulus: int | None) -> "Matrix":
        """A matrix of a nonempty tuple of equal-length int tuples, already
        reduced to [0, m) when modular: nothing is converted or checked."""
        matrix = object.__new__(cls)
        matrix._set(rows, modulus)
        return matrix

    @classmethod
    def identity(cls, k: int, modulus: int | None = None) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)],
                   modulus)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

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
        """The product self @ other: row-by-column sums, reduced mod m over
        Z_m."""
        self._match(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        m = self.modulus
        bt = list(zip(*other.entries))
        if m is None:
            prod = tuple(tuple([sum(map(mul, row, col)) for col in bt])
                         for row in self.entries)
        else:
            prod = tuple(tuple([sum(map(mul, row, col)) % m for col in bt])
                         for row in self.entries)
        return Matrix._of_rows(prod, m)

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """Matrix-vector product (vec as a column)."""
        if self.cols != len(vec):
            raise ShapeMismatch(f"{self.rows}x{self.cols} applied to {len(vec)}-vector")
        m = self.modulus
        out = tuple([sum(map(mul, row, vec)) for row in self.entries])
        return out if m is None else tuple(x % m for x in out)

    def __pow__(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("power needs a square matrix")
        n = index(n)
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Matrix.identity(self.rows, self.modulus)
        result, base = None, self       # None stands for I until the first set bit
        while True:
            if n & 1:
                result = base if result is None else result @ base
            n >>= 1
            if not n:
                return result
            base = base @ base

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
