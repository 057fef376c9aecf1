"""Block cipher keyed by a k-term recurrence.

The enciphering matrix is D^n mod N where D is the companion matrix of
the key's coefficients; plaintext labels are packed column-by-column into
a k x r matrix V and C = D^n V, V = D^{-n} C.  Invertibility of D mod N
reduces to gcd(a_k, N) = 1 because det D = (-1)^{k+1} a_k.

This is a classical linear (Hill-type) cipher: a handful of known
plaintext/ciphertext columns recovers D^n by linear algebra.  It is a
worked construction, not a secure one.
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from math import gcd

from .ringcore import Matrix
from .recurrence import SequenceSpec, companion
from .pisano import matrix_order


class BadShape(ValueError):
    """Key fails a structural bound (k < 2, N < 2, n < 1, size mismatch)."""


class BadCoefficient(ValueError):
    """a_k shares a factor with N, so the enciphering matrix is singular."""


class DegenerateExponent(ValueError):
    """n is a multiple of pi(N): the enciphering matrix is the identity."""


class UnknownSymbol(ValueError):
    """Text contains a symbol outside the alphabet."""


@dataclass(frozen=True)
class CipherKey:
    """(k, N, a_1..a_k, n): modulus N, recurrence coefficients, exponent n."""

    k: int
    n_mod: int
    coeffs: tuple[int, ...]
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(a) for a in self.coeffs))

    def spec(self) -> SequenceSpec:
        return SequenceSpec(self.coeffs)

    def matrix(self) -> Matrix:
        """The enciphering matrix D^n mod N."""
        return companion(self.spec()).reduce(self.n_mod) ** self.exponent

    def to_line(self) -> str:
        parts = [self.k, self.n_mod, *self.coeffs, self.exponent]
        return " ".join(str(x) for x in parts)

    @classmethod
    def from_line(cls, line: str) -> "CipherKey":
        fields = line.split()
        if len(fields) < 4:
            raise BadShape(f"key line needs k N a_1..a_k n, got {line!r}")
        try:
            values = [int(f) for f in fields]
        except ValueError as exc:
            raise BadShape(f"non-integer token in key line: {exc}") from None
        k, n_mod = values[0], values[1]
        if len(values) != k + 3:
            raise BadShape(f"key line claims k={k} but carries "
                           f"{len(values) - 3} coefficients")
        return cls(k=k, n_mod=n_mod, coeffs=tuple(values[2:2 + k]),
                   exponent=values[-1])


def validate_key(key: CipherKey) -> None:
    """Raise BadShape/BadCoefficient unless the key is usable."""
    if key.k < 2:
        raise BadShape(f"k must be >= 2, got {key.k}")
    if key.n_mod < 2:
        raise BadShape(f"N must be >= 2, got {key.n_mod}")
    if key.exponent < 1:
        raise BadShape(f"n must be >= 1, got {key.exponent}")
    if len(key.coeffs) != key.k:
        raise BadShape(f"expected {key.k} coefficients, got {len(key.coeffs)}")
    if key.coeffs[-1] == 0:
        raise BadCoefficient("a_k must be nonzero")
    if gcd(key.coeffs[-1], key.n_mod) != 1:
        raise BadCoefficient(f"gcd(a_k={key.coeffs[-1]}, N={key.n_mod}) != 1; "
                             f"det D would not be a unit")


def normalize_exponent(key: CipherKey) -> CipherKey:
    """Replace n by n mod pi(N); ciphertext is unchanged.

    Raises DegenerateExponent when n = 0 mod pi(N) (identity matrix).
    """
    validate_key(key)
    period = matrix_order(key.spec(), key.n_mod)
    reduced = key.exponent % period
    if reduced == 0:
        raise DegenerateExponent(f"n = {key.exponent} is a multiple of "
                                 f"pi({key.n_mod}) = {period}")
    return CipherKey(key.k, key.n_mod, key.coeffs, reduced)


DEFAULT_SYMBOLS = string.ascii_uppercase + "*"


@dataclass(frozen=True)
class Alphabet:
    """Symbol <-> label bijection; labels are positions 0..N-1."""

    symbols: tuple[str, ...]
    pad: str

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in self.symbols):
            raise ValueError("alphabet symbols must be single characters")
        if self.pad not in self.symbols:
            raise ValueError(f"pad symbol {self.pad!r} is not in the alphabet")
        object.__setattr__(self, "_labels", {s: i for i, s in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def label(self, symbol: str) -> int:
        return self.labels([symbol])[0]

    def labels(self, text) -> list[int]:
        """The label of each symbol of text, in one pass; UnknownSymbol names
        the first symbol that is not in the alphabet."""
        try:
            return list(map(self._labels.__getitem__, text))
        except KeyError as exc:
            raise UnknownSymbol(f"symbol {exc.args[0]!r} is not in the alphabet") from None

    def symbol(self, label: int) -> str:
        return self.symbols[label % self.size]

    @classmethod
    def default(cls) -> "Alphabet":
        return cls(tuple(DEFAULT_SYMBOLS), "*")

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """One symbol per line; optional first-line directive pad=<symbol>.

        Without a directive the pad defaults to the last symbol.
        """
        lines = text.splitlines()
        pad = None
        if lines and lines[0].startswith("pad="):
            pad = lines[0][4:]
            lines = lines[1:]
        symbols = tuple(lines)
        if not symbols:
            raise ValueError("alphabet file has no symbols")
        return cls(symbols, pad if pad is not None else symbols[-1])


def encode_text(alpha: Alphabet, text: str, k: int) -> Matrix:
    """Pack labels column-by-column, k per column, right-padded with the pad
    symbol to a multiple of k.  Empty text encodes to a k x 0 block."""
    if k < 2:
        raise BadShape(f"k must be >= 2, got {k}")
    labels = alpha.labels(text)
    labels += [alpha.label(alpha.pad)] * (-len(labels) % k)
    return Matrix._of_rows(tuple(tuple(labels[i::k]) for i in range(k)), alpha.size)


def decode_text(alpha: Alphabet, block: Matrix, strip_pad: bool = False) -> str:
    """Read labels back column-by-column.  Pad symbols are kept unless
    strip_pad, which removes them only from the right-hand end."""
    if block.modulus != alpha.size:
        raise BadShape(f"block is mod {block.modulus}, alphabet has "
                       f"{alpha.size} symbols")
    labels = [0] * (block.rows * block.cols)
    for i, row in enumerate(block.entries):
        labels[i::block.rows] = row
    text = "".join(map(alpha.symbols.__getitem__, labels))
    return text.rstrip(alpha.pad) if strip_pad else text


def encrypt(key: CipherKey, block: Matrix) -> Matrix:
    """C = D^n V mod N."""
    validate_key(key)
    _check_block(key, block)
    return key.matrix() @ block


def decrypt(key: CipherKey, block: Matrix) -> Matrix:
    """V = D^{-n} C mod N, with D^{-n} = (adjugate-inverse of D)^n."""
    validate_key(key)
    _check_block(key, block)
    d_inv = companion(key.spec()).reduce(key.n_mod).inverse()
    return (d_inv ** key.exponent) @ block


def decrypt_via_period(key: CipherKey, block: Matrix) -> Matrix:
    """Cross-check route: D^{-n} = D^{pi(N) - (n mod pi(N))}, with no
    matrix inverse."""
    validate_key(key)
    _check_block(key, block)
    period = matrix_order(key.spec(), key.n_mod)
    complement = (-key.exponent) % period
    d = companion(key.spec()).reduce(key.n_mod)
    return (d ** complement) @ block


def _check_block(key: CipherKey, block: Matrix) -> None:
    if block.rows != key.k:
        raise BadShape(f"block has {block.rows} rows, key has k={key.k}")
    if block.modulus != key.n_mod:
        raise BadShape(f"block is mod {block.modulus}, key has N={key.n_mod}")


def encrypt_text(key: CipherKey, alpha: Alphabet, text: str) -> str:
    if alpha.size != key.n_mod:
        raise BadShape(f"alphabet size {alpha.size} != key modulus {key.n_mod}")
    return decode_text(alpha, encrypt(key, encode_text(alpha, text, key.k)))


def decrypt_text(key: CipherKey, alpha: Alphabet, text: str,
                 strip_pad: bool = False) -> str:
    if alpha.size != key.n_mod:
        raise BadShape(f"alphabet size {alpha.size} != key modulus {key.n_mod}")
    return decode_text(alpha, decrypt(key, encode_text(alpha, text, key.k)),
                       strip_pad=strip_pad)
