import random
from math import gcd

import pytest

from recurra.cipher import (
    Alphabet,
    BadCoefficient,
    BadShape,
    CipherKey,
    DegenerateExponent,
    UnknownSymbol,
    decode_text,
    decrypt,
    decrypt_text,
    decrypt_via_period,
    encode_text,
    encrypt,
    encrypt_text,
    normalize_exponent,
    validate_key,
)
from recurra.pisano import matrix_order, matrix_order_multiple
from recurra.ringcore import Matrix

from oracles import naive_matmul, naive_matpow, naive_matpow_squaring

KEY_Z2 = CipherKey(3, 2, (1, 1, 1), 3)
KEY_Z27 = CipherKey(3, 27, (4, -5, 2), 2)
AB = Alphabet(("A", "B"), "B")


def random_key(rng, moduli=(2, 26, 27, 29, 256), kmax=5, nmax=50):
    n_mod = rng.choice(moduli)
    k = rng.randint(2, kmax)
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


def test_alphabet_default_and_labels():
    alpha = Alphabet.default()
    assert alpha.size == 27
    assert alpha.label("A") == 0
    assert alpha.label("S") == 18
    assert alpha.symbol(26) == "*"
    assert alpha.pad == "*"
    with pytest.raises(UnknownSymbol):
        alpha.label("!")


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
    block = encode_text(alpha, "SUCCESS**", 3)
    assert block.entries == ((18, 2, 18), (20, 4, 26), (2, 18, 26))
    block = encode_text(AB, "ABBAAB", 3)
    assert block.entries == ((0, 0), (1, 0), (1, 1))
    # padding: two pad labels appended
    block = encode_text(alpha, "AB", 3)
    assert block.entries == ((0,), (1,), (26,))
    with pytest.raises(UnknownSymbol):
        encode_text(alpha, "ab", 3)


def test_decode_inverts_encode():
    alpha = Alphabet.default()
    for text in ("SUCCESS**", "AB*", "QDSNYCTVS", ""):
        assert decode_text(alpha, encode_text(alpha, text, 3)).startswith(text)
    assert decode_text(alpha, encode_text(alpha, "AB", 3)) == "AB*"
    assert decode_text(alpha, encode_text(alpha, "AB", 3), strip_pad=True) == "AB"


def test_worked_example_mod2():
    block = encode_text(AB, "ABBAAB", 3)
    encrypted = encrypt(KEY_Z2, block)
    assert encrypted.entries == ((1, 0), (1, 1), (0, 1))
    assert decode_text(AB, encrypted) == "BBAABB"
    assert decrypt(KEY_Z2, encrypted) == block
    assert decode_text(AB, decrypt(KEY_Z2, encrypted)) == "ABBAAB"


def test_worked_example_mod27_derived_ciphertext():
    # Pinned ciphertext was derived independently (naive matrix square and
    # multiply) before the library existed; re-derive it here too.
    alpha = Alphabet.default()
    d2 = naive_matpow((4, -5, 2), 2, 27)
    assert d2 == [[11, 9, 8], [4, 22, 2], [1, 0, 0]]
    v = [[18, 2, 18], [20, 4, 26], [2, 18, 26]]
    c = naive_matmul(d2, v, 27)
    expected = "".join(alpha.symbol(c[i][j]) for j in range(3) for i in range(3))
    assert expected == "QDSNYCTVS"

    assert encrypt_text(KEY_Z27, alpha, "SUCCESS**") == "QDSNYCTVS"
    assert decrypt_text(KEY_Z27, alpha, "QDSNYCTVS") == "SUCCESS**"


def test_encrypt_identity_exponent():
    # exponent multiple of pi(N) forced through without validation: C = V
    key = CipherKey(3, 2, (1, 1, 1), 4)
    block = encode_text(AB, "ABBAAB", 3)
    assert key.matrix() @ block == block


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
        assert decrypt(key, encrypted) == decrypt_via_period(key, encrypted) == block


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


def naive_encrypt_text(key, alpha, text):
    """Labels by symbol position, padded, k per column, times D^n mod N by
    naive products, and read back column by column."""
    k, n_mod = key.k, key.n_mod
    labels = [alpha.symbols.index(s) for s in text]
    labels += [alpha.symbols.index(alpha.pad)] * (-len(labels) % k)
    cols = len(labels) // k
    if cols == 0:
        return ""
    v = [[labels[j * k + i] for j in range(cols)] for i in range(k)]
    c = naive_matmul(naive_matpow_squaring(key.coeffs, key.exponent, n_mod), v, n_mod)
    return "".join(alpha.symbols[c[i][j]] for j in range(cols) for i in range(k))


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
                assert ct == decode_text(alpha, encrypt(key, encode_text(alpha, text, key.k)))
                assert ct == naive_encrypt_text(key, alpha, text)
                assert len(ct) == len(padded)
                pt = decrypt_text(key, alpha, ct)
                assert pt == padded
                assert pt == decode_text(alpha, decrypt(key, encode_text(alpha, ct, key.k)))
                assert naive_encrypt_text(key, alpha, pt) == ct
                assert decrypt_text(key, alpha, ct, strip_pad=True) == text.rstrip(alpha.pad)


def test_unknown_symbol_names_the_first_in_text_order():
    alpha = Alphabet.default()
    cases = (("ab", "a"), ("AB?C!", "?"), ("!AB?", "!"), ("SUCCESS*\n", "\n"),
             ("A" * 1000 + "\u00e9" + "z", "\u00e9"))
    for text, first in cases:
        message = f"symbol {first!r} is not in the alphabet"
        for call in (lambda: encode_text(alpha, text, 3),
                     lambda: encrypt_text(KEY_Z27, alpha, text),
                     lambda: decrypt_text(KEY_Z27, alpha, text)):
            with pytest.raises(UnknownSymbol) as exc:
                call()
            assert str(exc.value) == message
    with pytest.raises(UnknownSymbol, match="symbol 'AB' is not"):
        alpha.label("AB")
