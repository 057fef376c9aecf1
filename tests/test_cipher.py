import random
import sys
from array import array
from itertools import product
from math import gcd, isqrt

import pytest

from recurra.cipher import (
    PIECE_COLUMNS,
    Alphabet,
    BadCoefficient,
    BadShape,
    CipherKey,
    DegenerateExponent,
    UnknownSymbol,
    decode_text,
    decrypt,
    decrypt_text,
    encode_text,
    encrypt,
    encrypt_text,
    normalize_exponent,
    validate_key,
    _slot_format,
    _times_text,
)
from recurra.pisano import matrix_order, matrix_order_multiple
from recurra.ringcore import Matrix

from oracles import naive_encrypt_text, naive_matmul, naive_matpow

KEY_Z2 = CipherKey(3, 2, (1, 1, 1), 3)
KEY_Z27 = CipherKey(3, 27, (4, -5, 2), 2)
AB = Alphabet(("A", "B"), "B")
# labels that reach the surrogate range U+D800..U+DFFF
SUPPLEMENTARY = Alphabet(tuple(chr(0x10000 + i) for i in range(60_000)), chr(0x10000))


def random_key(rng, moduli=(2, 26, 27, 29, 256), kmax=5, nmax=50):
    n_mod = rng.choice(moduli)
    return random_key_of(rng, rng.randint(2, kmax), n_mod, nmax)


def random_key_of(rng, k, n_mod, nmax):
    """A key of k coefficients mod n_mod, a_k a unit, exponent at most nmax."""
    coeffs = [rng.randrange(n_mod) for _ in range(k - 1)]
    coeffs.append(rng.choice([a for a in range(1, n_mod) if gcd(a, n_mod) == 1]))
    return CipherKey(k, n_mod, tuple(coeffs), rng.randint(1, nmax))


def test_validate_key_examples():
    validate_key(KEY_Z2)
    validate_key(KEY_Z27)
    with pytest.raises(BadCoefficient):
        validate_key(CipherKey(2, 10, (1, 5), 3))
    with pytest.raises(BadShape):
        validate_key(CipherKey(1, 10, (3,), 1))
    with pytest.raises(BadShape):
        validate_key(CipherKey(2, 1, (1, 1), 1))
    with pytest.raises(BadShape):
        validate_key(CipherKey(2, 10, (1, 3), 0))
    with pytest.raises(BadCoefficient):
        validate_key(CipherKey(2, 10, (1, 0), 1))
    with pytest.raises(BadShape, match="expected 3 coefficients, got 2"):
        validate_key(CipherKey(3, 10, (1, 3), 1))


def test_key_file_round_trip():
    line = "3 27 4 -5 2 2"
    key = CipherKey.from_line(line)
    assert key == KEY_Z27
    assert key.to_line() == line
    with pytest.raises(BadShape):
        CipherKey.from_line("3 27 4 -5 2")
    with pytest.raises(BadShape):
        CipherKey.from_line("3 27 4 x 2 2")


def test_normalize_exponent():
    assert normalize_exponent(CipherKey(3, 2, (1, 1, 1), 31)).exponent == 3
    assert normalize_exponent(KEY_Z2) == KEY_Z2
    with pytest.raises(DegenerateExponent):
        normalize_exponent(CipherKey(3, 2, (1, 1, 1), 4))


def label_rows(alpha, text, k):
    """The rows of encode_text's label block, read back slot by slot."""
    code = _slot_format(k, alpha.size)
    size = -(-len(text) // k) * array(code).itemsize
    return tuple(tuple(array(code, row.to_bytes(size, sys.byteorder)))
                 for row in encode_text(alpha, text, k))


def block_of(alpha, text, k):
    """The label block of text, padded, from a symbol -> position dict."""
    label = {s: i for i, s in enumerate(alpha.symbols)}
    labels = [label[s] for s in text + alpha.pad * (-len(text) % k)]
    return Matrix([labels[i::k] for i in range(k)], alpha.size)


def text_of(alpha, block):
    """The symbols of a label block, read column by column."""
    return "".join(alpha.symbols[block[i, j]]
                   for j in range(block.cols) for i in range(block.rows))


def test_alphabet_default_and_labels():
    alpha = Alphabet.default()
    assert alpha.size == 27
    assert alpha.symbols[0] == "A" and alpha.symbols[18] == "S"
    assert alpha.symbols[26] == "*"
    assert alpha.pad == "*"
    # one column: each packed row is the label of its symbol
    assert encode_text(alpha, "AS*", 3) == [0, 18, 26]
    with pytest.raises(UnknownSymbol):
        encode_text(alpha, "!", 3)


def test_alphabet_file_parsing():
    alpha = Alphabet.from_text("pad=_\nA\nB\n_\n")
    assert alpha.symbols == ("A", "B", "_")
    assert alpha.pad == "_"
    # no directive: pad defaults to the last symbol
    alpha = Alphabet.from_text("X\nY\nZ\n")
    assert alpha.pad == "Z"
    with pytest.raises(ValueError):
        Alphabet.from_text("A\nA\n")
    with pytest.raises(ValueError):
        Alphabet.from_text("pad=Q\nA\nB\n")


def test_encode_examples():
    alpha = Alphabet.default()
    # 3 * 26^2 needs 2-byte slots, the first column in the lowest
    assert _slot_format(3, 27) == "H"
    assert encode_text(alpha, "SUCCESS**", 3)[0] == 18 + (2 << 16) + (18 << 32)
    assert label_rows(alpha, "SUCCESS**", 3) == ((18, 2, 18), (20, 4, 26), (2, 18, 26))
    assert _slot_format(3, 2) == "B"
    assert label_rows(AB, "ABBAAB", 3) == ((0, 0), (1, 0), (1, 1))
    # padding: two pad labels appended
    assert label_rows(alpha, "AB", 3) == ((0,), (1,), (26,))
    assert encode_text(alpha, "", 3) == [0, 0, 0]
    with pytest.raises(UnknownSymbol):
        encode_text(alpha, "ab", 3)


def test_decode_inverts_encode():
    alpha = Alphabet.default()
    assert decode_text(alpha, array("I", [18, 20, 2, 2, 4, 18, 18, 26, 26])) == "SUCCESS**"
    for text in ("SUCCESS**", "AB*", "QDSNYCTVS", "AB", ""):
        labels = array("I", [x for column in zip(*label_rows(alpha, text, 3)) for x in column])
        assert decode_text(alpha, labels) == text + "*" * (-len(text) % 3)
    labels = (0xD7FF, 0xD800, 0xDFFF, 59_999)
    assert decode_text(SUPPLEMENTARY, array("I", labels)) == "".join(
        SUPPLEMENTARY.symbols[i] for i in labels)


def test_worked_example_mod2():
    block = Matrix(label_rows(AB, "ABBAAB", 3), 2)
    encrypted = encrypt(KEY_Z2, block)
    assert encrypted.entries == ((1, 0), (1, 1), (0, 1))
    assert text_of(AB, encrypted) == encrypt_text(KEY_Z2, AB, "ABBAAB") == "BBAABB"
    assert decrypt(KEY_Z2, encrypted) == block
    assert decrypt_text(KEY_Z2, AB, "BBAABB") == "ABBAAB"


def test_worked_example_mod27_derived_ciphertext():
    # Pinned ciphertext was derived independently (naive matrix square and
    # multiply) before the library existed; re-derive it here too.
    alpha = Alphabet.default()
    d2 = naive_matpow((4, -5, 2), 2, 27)
    assert d2 == [[11, 9, 8], [4, 22, 2], [1, 0, 0]]
    v = [[18, 2, 18], [20, 4, 26], [2, 18, 26]]
    c = naive_matmul(d2, v, 27)
    expected = "".join(alpha.symbols[c[i][j]] for j in range(3) for i in range(3))
    assert expected == "QDSNYCTVS"

    assert encrypt_text(KEY_Z27, alpha, "SUCCESS**") == "QDSNYCTVS"
    assert decrypt_text(KEY_Z27, alpha, "QDSNYCTVS") == "SUCCESS**"


def test_encrypt_identity_exponent():
    # an exponent that is a multiple of pi(N) passes validate_key, which
    # does not normalize, and gives C = V
    key = CipherKey(3, 2, (1, 1, 1), 4)
    block = Matrix(label_rows(AB, "ABBAAB", 3), 2)
    assert key.matrix() @ block == block
    assert encrypt_text(key, AB, "ABBAAB") == "ABBAAB"


def test_decrypt_zero_block():
    zero = Matrix([[0] * 4 for _ in range(3)], 27)
    assert decrypt(KEY_Z27, zero) == zero


def test_block_shape_guards():
    with pytest.raises(BadShape):
        encrypt(KEY_Z27, Matrix([[1], [2]], 27))
    with pytest.raises(BadShape):
        encrypt(KEY_Z27, Matrix([[1], [2], [3]], 26))
    with pytest.raises(BadShape):
        encrypt_text(KEY_Z27, AB, "AB")


def test_round_trip_randomized():
    rng = random.Random(109)
    for _ in range(80):
        key = random_key(rng)
        cols = rng.randint(1, 5)
        block = Matrix([[rng.randrange(key.n_mod) for _ in range(cols)]
                        for _ in range(key.k)], key.n_mod)
        assert decrypt(key, encrypt(key, block)) == block


def test_decrypt_routes_agree():
    rng = random.Random(113)
    for _ in range(25):
        key = random_key(rng, moduli=(2, 26, 27), kmax=3, nmax=20)
        cols = rng.randint(1, 4)
        block = Matrix([[rng.randrange(key.n_mod) for _ in range(cols)]
                        for _ in range(key.k)], key.n_mod)
        encrypted = encrypt(key, block)
        # the period route, with no inverse: D^{-n} = D^{(-n) mod pi(N)}
        period = matrix_order(key.spec(), key.n_mod)
        complement = CipherKey(key.k, key.n_mod, key.coeffs, -key.exponent % period or period)
        assert decrypt(key, encrypted) == encrypt(complement, encrypted) == block


def test_exponent_periodicity():
    rng = random.Random(127)
    for _ in range(20):
        key = random_key(rng, moduli=(2, 26, 27), kmax=3, nmax=12)
        period = matrix_order(key.spec(), key.n_mod)
        block = Matrix([[rng.randrange(key.n_mod)] for _ in range(key.k)],
                       key.n_mod)
        base = encrypt(key, block)
        for l in (1, 2):
            shifted = CipherKey(key.k, key.n_mod, key.coeffs,
                                key.exponent + l * period)
            assert encrypt(shifted, block) == base


def test_exponent_periodicity_via_group_multiple():
    rng = random.Random(131)
    for _ in range(20):
        key = random_key(rng)
        bound = matrix_order_multiple(key.k, key.n_mod)
        block = Matrix([[rng.randrange(key.n_mod)] for _ in range(key.k)],
                       key.n_mod)
        shifted = CipherKey(key.k, key.n_mod, key.coeffs, key.exponent + bound)
        assert encrypt(shifted, block) == encrypt(key, block)


def test_encrypt_linear_in_columns():
    rng = random.Random(137)
    for _ in range(20):
        key = random_key(rng)
        c1, c2 = rng.randint(1, 3), rng.randint(1, 3)
        b1 = Matrix([[rng.randrange(key.n_mod) for _ in range(c1)]
                     for _ in range(key.k)], key.n_mod)
        b2 = Matrix([[rng.randrange(key.n_mod) for _ in range(c2)]
                     for _ in range(key.k)], key.n_mod)
        joined = Matrix([r1 + r2 for r1, r2 in zip(b1.entries, b2.entries)],
                        key.n_mod)
        e1, e2 = encrypt(key, b1), encrypt(key, b2)
        assert encrypt(key, joined) == Matrix(
            [r1 + r2 for r1, r2 in zip(e1.entries, e2.entries)], key.n_mod)


def test_enciphering_matrix_det_is_unit():
    rng = random.Random(139)
    for _ in range(30):
        key = random_key(rng)
        assert gcd(key.matrix().det(), key.n_mod) == 1


def test_empty_text():
    alpha = Alphabet.default()
    assert encrypt_text(KEY_Z27, alpha, "") == ""
    assert decrypt_text(KEY_Z27, alpha, "") == ""


def test_normalize_preserves_ciphertext():
    rng = random.Random(151)
    checked = 0
    while checked < 25:
        key = random_key(rng, moduli=(2, 26, 27), kmax=3, nmax=200)
        block = Matrix([[rng.randrange(key.n_mod) for _ in range(3)]
                        for _ in range(key.k)], key.n_mod)
        try:
            normalized = normalize_exponent(key)
        except DegenerateExponent:
            assert key.matrix() == Matrix.identity(key.k, key.n_mod)
            continue
        checked += 1
        assert 1 <= normalized.exponent <= matrix_order(key.spec(), key.n_mod)
        assert encrypt(normalized, block) == encrypt(key, block)


def test_text_round_trip_randomized():
    alpha = Alphabet.default()
    rng = random.Random(149)
    for _ in range(30):
        key = random_key(rng, moduli=(27,), kmax=4, nmax=30)
        text = "".join(rng.choice(alpha.symbols) for _ in range(rng.randint(0, 24)))
        padded = text + alpha.pad * (-len(text) % key.k)
        assert decrypt_text(key, alpha, encrypt_text(key, alpha, text)) == padded


TEXT_ALPHABETS = (
    Alphabet(("A", "B"), "B"),
    Alphabet.default(),
    Alphabet(tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ.,*"), "*"),
    Alphabet(tuple(chr(0x100 + i) for i in range(256)), chr(0x1FF)),
    Alphabet(tuple(chr(0x400 + i) for i in range(300)), chr(0x400)),   # labels past a byte
)


def test_text_path_against_block_and_naive_routes():
    rng = random.Random(157)
    for alpha in TEXT_ALPHABETS:
        for _ in range(6):
            key = random_key(rng, moduli=(alpha.size,), kmax=6, nmax=10 ** 6)
            for length in [0, 1, 37, 400] + [key.k * rng.randint(1, 9) + r
                                             for r in range(key.k)]:
                text = "".join(rng.choices(alpha.symbols, k=length))
                if length and rng.random() < 0.5:      # pad symbols inside and at the end
                    text = text[:length // 2] + alpha.pad + text[length // 2:] + alpha.pad
                padded = text + alpha.pad * (-len(text) % key.k)
                ct = encrypt_text(key, alpha, text)
                assert ct == text_of(alpha, encrypt(key, block_of(alpha, text, key.k)))
                assert ct == naive_encrypt_text(key, alpha, text)
                assert len(ct) == len(padded)
                pt = decrypt_text(key, alpha, ct)
                assert pt == padded
                assert pt == text_of(alpha, decrypt(key, block_of(alpha, ct, key.k)))
                assert naive_encrypt_text(key, alpha, pt) == ct
                assert decrypt_text(key, alpha, ct, strip_pad=True) == text.rstrip(alpha.pad)


def pin_text_path(key, alpha, text):
    """encrypt_text equals the oracle's ciphertext, and decrypt_text, with
    and without strip_pad, takes it back to the padded text."""
    padded = text + alpha.pad * (-len(text) % key.k)
    ct = encrypt_text(key, alpha, text)
    assert ct == naive_encrypt_text(key, alpha, text), key
    assert decrypt_text(key, alpha, ct) == padded, key
    assert decrypt_text(key, alpha, ct, strip_pad=True) == padded.rstrip(alpha.pad), key


def test_text_path_is_pinned_to_the_oracle_over_a_grid():
    # N = 27, 29, 256, 300 and 60000, every k from 2 to 8, texts short,
    # long, and a symbol short of, at and past a whole piece, exponents up
    # to 10^18
    rng = random.Random(173)
    for alpha, k in product((*TEXT_ALPHABETS[1:], SUPPLEMENTARY), range(2, 9)):
        piece = k * PIECE_COLUMNS
        for length in (9, 1000, 20000, piece - 1, piece, piece + 1):
            key = random_key_of(rng, k, alpha.size, 10 ** 18)
            pin_text_path(key, alpha, "".join(rng.choices(alpha.symbols, k=length)))
    latin = TEXT_ALPHABETS[3]
    pin_text_path(random_key_of(rng, 5, latin.size, 10 ** 18), latin,
                  "".join(rng.choices(latin.symbols, k=400_000)))


def test_unknown_symbol_names_the_first_in_text_order():
    alpha = Alphabet.default()
    cases = (("ab", "a"), ("AB?C!", "?"), ("!AB?", "!"), ("SUCCESS*\n", "\n"),
             ("A" * 1000 + "\u00e9" + "z", "\u00e9"), ("A" * 3 * PIECE_COLUMNS + "!?", "!"))
    for text, first in cases:
        message = f"symbol {first!r} is not in the alphabet"
        for call in (lambda: encode_text(alpha, text, 3),
                     lambda: encrypt_text(KEY_Z27, alpha, text),
                     lambda: decrypt_text(KEY_Z27, alpha, text)):
            with pytest.raises(UnknownSymbol) as exc:
                call()
            assert str(exc.value) == message


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_text_path_at_the_slot_bound(bits):
    # every entry of the matrix and every label N - 1, so that each entry
    # of the product is k (N - 1)^2 before reduction: just below 2^bits,
    # and at it, where the next slot width is needed
    k = 4
    below = isqrt(2 ** bits // k)
    assert k * (below - 1) ** 2 < 2 ** bits == k * below ** 2
    for n_mod, size in ((below, bits // 8), (below + 1, bits // 4)):
        assert array(_slot_format(k, n_mod)).itemsize == size
        symbols = tuple(chr(0x10000 + i) for i in range(n_mod))
        alpha = Alphabet(symbols, symbols[-1])
        key = CipherKey(k, n_mod, (0,) * (k - 1) + (1,), 1)
        worst = Matrix([[n_mod - 1] * k] * k, n_mod)
        expected = symbols[k * (n_mod - 1) ** 2 % n_mod] * (3 * k)
        assert _times_text(key, alpha, symbols[-1] * (2 * k + 1), lambda: worst) == expected


def test_no_native_slot_past_64_bits():
    # k (N - 1)^2 = 2^64 needs 65 bits: the alphabet has 2^20 + 1 symbols
    # and the key 2^24 coefficients
    assert _slot_format(2 ** 24 - 1, 2 ** 20 + 1) == "Q"
    with pytest.raises(BadShape, match="needs 65 bits"):
        _slot_format(2 ** 24, 2 ** 20 + 1)
