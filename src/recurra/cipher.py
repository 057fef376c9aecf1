"""Block cipher keyed by a k-term recurrence.

The enciphering matrix is D^n mod N where D is the companion matrix of
the key's coefficients; plaintext labels are packed column-by-column into
a k x r matrix V and C = D^n V, V = D^{-n} C.  Invertibility of D mod N
reduces to gcd(a_k, N) = 1 because det D = (-1)^{k+1} a_k.

No matrix is raised to a power: D^n is read off x^n in Z_N[x]/(chi)
(recurrence.companion_power), and D^{-n} off (x^{-1})^n, where
x^{-1} = a_k^{-1} (x^{k-1} - a_1 x^{k-2} - ... - a_{k-1}) exists exactly
when a_k is a unit mod N, the same condition as for det D.

Text is enciphered in pieces of PIECE_COLUMNS whole columns.  Each of a
piece's k label rows is packed into one integer, a native slot a column
that holds k (N - 1)^2, the largest product entry before reduction, so a
row of D^n V is one sum of k big-integer multiples, read off slot by slot.

This is a classical linear (Hill-type) cipher: a handful of known
plaintext/ciphertext columns recovers D^n by linear algebra.  It is a
worked construction, not a secure one.
"""
from __future__ import annotations

from array import array
from math import gcd
from operator import index, mul
from sys import byteorder

from .ringcore import Matrix, Value, set_field
from .recurrence import SequenceSpec, companion_power, x_inverse


class BadShape(ValueError):
    """Key fails a structural bound (k < 2, N < 2, n < 1, size mismatch)."""


class BadCoefficient(ValueError):
    """a_k shares a factor with N, so the enciphering matrix is singular."""


class DegenerateExponent(ValueError):
    """n is a multiple of pi(N): the enciphering matrix is the identity."""


class UnknownSymbol(ValueError):
    """Text contains a symbol outside the alphabet."""


class _Labels(dict):
    """Code point -> label for str.translate, which passes on any error but
    LookupError, so the first unknown symbol in text order is named."""

    def __missing__(self, code: int):
        raise UnknownSymbol(f"symbol {chr(code)!r} is not in the alphabet")


class CipherKey(Value):
    """(k, N, a_1..a_k, n): modulus N, recurrence coefficients, exponent n,
    each an integer (operator.index).  Only a usable key is built: k >= 2,
    N >= 2, n >= 1, k coefficients, and gcd(a_k, N) = 1, so that
    det D = (-1)^{k+1} a_k is a unit mod N."""

    _fields = ("k", "n_mod", "coeffs", "exponent")

    def __init__(self, k: int, n_mod: int, coeffs: tuple[int, ...], exponent: int):
        k, n_mod, exponent = index(k), index(n_mod), index(exponent)
        coeffs = tuple(map(index, coeffs))
        if k < 2:
            raise BadShape(f"k must be >= 2, got {k}")
        if n_mod < 2:
            raise BadShape(f"N must be >= 2, got {n_mod}")
        if exponent < 1:
            raise BadShape(f"n must be >= 1, got {exponent}")
        if len(coeffs) != k:
            raise BadShape(f"expected {k} coefficients, got {len(coeffs)}")
        if coeffs[-1] == 0:
            raise BadCoefficient("a_k must be nonzero")
        if gcd(coeffs[-1], n_mod) != 1:
            raise BadCoefficient(f"gcd(a_k={coeffs[-1]}, N={n_mod}) != 1; "
                                 f"det D would not be a unit")
        set_field(self, "k", k)
        set_field(self, "n_mod", n_mod)
        set_field(self, "coeffs", coeffs)
        set_field(self, "exponent", exponent)

    def spec(self) -> SequenceSpec:
        return SequenceSpec(self.coeffs)

    def matrix(self) -> Matrix:
        """The enciphering matrix D^n mod N."""
        return companion_power(self.spec(), self.exponent, self.n_mod)

    def inverse_matrix(self) -> Matrix:
        """The deciphering matrix D^{-n} mod N, read off (x^{-1})^n; x^{-1}
        exists because a_k is a unit mod N."""
        spec = self.spec()
        return companion_power(spec, self.exponent, self.n_mod, x_inverse(spec, self.n_mod))

    def to_line(self) -> str:
        parts = [self.k, self.n_mod, *self.coeffs, self.exponent]
        return " ".join(str(x) for x in parts)

    @classmethod
    def from_line(cls, line: str) -> "CipherKey":
        fields = line.split()
        if len(fields) < 4:
            raise BadShape(f"key line needs k N a_1..a_k n, got {line!r}")
        for token in fields:            # -?[0-9]+ in full: int() would take 1_0, +2, ١٠
            digits = token[1:] if token[:1] == "-" else token
            if not (digits.isascii() and digits.isdigit()):
                raise BadShape(f"non-integer token in key line: {token!r}")
        k, n_mod, *coeffs, exponent = map(int, fields)
        return cls(k, n_mod, coeffs, exponent)


def normalize_exponent(key: CipherKey) -> CipherKey:
    """Replace n by n mod pi(N); ciphertext is unchanged.

    Raises DegenerateExponent when n = 0 mod pi(N) (identity matrix).
    """
    from .pisano import matrix_order
    period = matrix_order(key.spec(), key.n_mod)
    reduced = key.exponent % period
    if reduced == 0:
        raise DegenerateExponent(f"n = {key.exponent} is a multiple of "
                                 f"pi({key.n_mod}) = {period}")
    return CipherKey(key.k, key.n_mod, key.coeffs, reduced)


DEFAULT_SYMBOLS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ*"


class Alphabet(Value):
    """Symbol <-> label bijection; labels are positions 0..N-1."""

    _fields = ("symbols", "pad")

    def __init__(self, symbols: tuple[str, ...], pad: str):
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in symbols):
            raise ValueError("alphabet symbols must be single characters")
        if pad not in symbols:
            raise ValueError(f"pad symbol {pad!r} is not in the alphabet")
        set_field(self, "symbols", symbols)
        set_field(self, "pad", pad)
        set_field(self, "_labels", _Labels({ord(s): i for i, s in enumerate(symbols)}))

    @property
    def size(self) -> int:
        return len(self.symbols)

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


# Columns in a piece of text.  Memory holds the text and one piece's rows;
# encrypt of 4 * 10^6 symbols took as long at 2^10 as at 2^16 columns.
PIECE_COLUMNS = 1 << 12

# Labels pass between str and array("I") as UTF-32 in the native byte
# order; with surrogatepass a label may fall in U+D800..U+DFFF.
_UTF32 = f"utf-32-{byteorder[0]}e"


def _slot_format(k: int, n_mod: int) -> str:
    """The array type code of the narrowest native slot that holds
    k * (n_mod - 1)^2; BadShape when none does."""
    bits = (k * (n_mod - 1) ** 2).bit_length()
    for code in "BHIQ":
        if bits <= 8 * array(code).itemsize:
            return code
    raise BadShape(f"k * (N - 1)^2 needs {bits} bits, more than a 64-bit slot holds")


def encode_text(alpha: Alphabet, text: str, k: int) -> list[int]:
    """The k label rows of text, right-padded with the pad symbol to a
    multiple of k and read column by column, each packed with one slot a
    column, the first column in the lowest slot."""
    code = _slot_format(k, alpha.size)
    text += alpha.pad * (-len(text) % k)
    labels = memoryview(text.translate(alpha._labels).encode(_UTF32, "surrogatepass")).cast("I")
    return [int.from_bytes(array(code, labels[i::k].tolist()), byteorder) for i in range(k)]


def decode_text(alpha: Alphabet, labels: array) -> str:
    """The symbols of an array("I") of labels."""
    return str(labels, _UTF32, "surrogatepass").translate(alpha.symbols)


def encrypt(key: CipherKey, block: Matrix) -> Matrix:
    """C = D^n V mod N."""
    _check_block(key, block)
    return key.matrix() @ block


def decrypt(key: CipherKey, block: Matrix) -> Matrix:
    """V = D^{-n} C mod N."""
    _check_block(key, block)
    return key.inverse_matrix() @ block


def _check_block(key: CipherKey, block: Matrix) -> None:
    if block.rows != key.k:
        raise BadShape(f"block has {block.rows} rows, key has k={key.k}")
    if block.modulus != key.n_mod:
        raise BadShape(f"block is mod {block.modulus}, key has N={key.n_mod}")


def _times_text(key: CipherKey, alpha: Alphabet, text: str, power) -> str:
    """The symbols of power() @ V mod N, V the label block of text."""
    if alpha.size != key.n_mod:
        raise BadShape(f"alphabet size {alpha.size} != key modulus {key.n_mod}")
    k, n_mod, rows = key.k, key.n_mod, power().entries
    code = _slot_format(k, n_mod)
    pieces = []
    for start in range(0, len(text), k * PIECE_COLUMNS):
        piece = text[start:start + k * PIECE_COLUMNS]
        packed = encode_text(alpha, piece, k)
        cols = -(-len(piece) // k)
        labels = array("I", [0]) * (k * cols)
        for i, row in enumerate(rows):
            data = sum(map(mul, row, packed))
            slots = memoryview(data.to_bytes(cols * array(code).itemsize, byteorder)).cast(code)
            labels[i::k] = array("I", [x % n_mod for x in slots])
        pieces.append(decode_text(alpha, labels))
    return "".join(pieces)


def encrypt_text(key: CipherKey, alpha: Alphabet, text: str) -> str:
    return _times_text(key, alpha, text, key.matrix)


def decrypt_text(key: CipherKey, alpha: Alphabet, text: str,
                 strip_pad: bool = False) -> str:
    """Pad symbols are kept unless strip_pad, which removes them only from
    the right-hand end."""
    plain = _times_text(key, alpha, text, key.inverse_matrix)
    return plain.rstrip(alpha.pad) if strip_pad else plain
