"""verify's checks and the one runner that reports them: the full output of
`verify --suite all`, the draws a failing check leaves behind, and what
the runner does with a check's first counterexample, its note and its
exceptions."""
import random
from hashlib import sha256

import pytest

from recurra import cipher, lnumbers, pisano, quaternions, recurrence, ringcore, verify
from recurra.cli import main
from recurra.ntheory import carmichael
from recurra.pisano import state_period
from recurra.quaternions import Quaternion

from conftest import suite_draws_after

CHECKS = {
    "matrix": ["residue_inverse", "order_divides_carmichael", "adjugate_inverse",
               "rational_exact", "power_structure", "state_steps", "window_det",
               "bordered_det", "addition_formula", "power_det"],
    "pisano": ["state_divides_order", "divisor_monotone", "lcm_law", "det_order_divides",
               "prime_power_ladder", "pigeonhole_bound", "all_odd_mod2_period"],
    "lnum": ["square_sum", "index_addition", "divisibility", "gap_identity", "triple_gap",
             "residue_dichotomy", "even_index_gcd", "binet_float", "m_tower_mod_l2"],
    "quat": ["associativity", "norm_multiplicative", "inverse_roundtrip",
             "conj_antiautomorphism", "lquat_norm_identity", "unit_census", "period_two",
             "gap_congruences", "window_sum_zero"],
    "cipher": ["round_trip", "exponent_periodicity", "columnwise_linear", "power_det_unit"],
}
NOTES = {"pisano.state_divides_order": " state==order in 40/40 samples"}
ALL_PASS = "".join(f"PASS {suite}.{name}{NOTES.get(f'{suite}.{name}', '')}\n"
                   for suite, names in CHECKS.items() for name in names) + "ok 39/39 checks\n"


@pytest.mark.parametrize("seed", range(3))
def test_verify_all_prints_every_check_in_order(capsys, seed):
    assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
    assert capsys.readouterr() == (ALL_PASS, "")


# sha256 of what run_suites gives for all five suites, a line each, at
# seeds 1-3; seed 0's lines are pinned in full
RUN_SUITES_SHA256 = dict.fromkeys(
    (1, 2, 3), "24fdc9e7b76b207f7890c463704e59241f08d1f77bad54a0098b8b5cd70c5eb2")


def test_run_suites_gives_the_pinned_lines_for_seeds_0_to_3():
    for seed in range(4):
        text = "".join(f"{r.line()}\n" for r in verify.run_suites(list(verify.SUITES), seed))
        if seed == 0:
            assert text + "ok 39/39 checks\n" == ALL_PASS
        else:
            assert sha256(text.encode()).hexdigest() == RUN_SUITES_SHA256[seed], seed


@pytest.fixture
def wrong_bordered_matrix(monkeypatch):
    """The bordered window matrix with its first row doubled at n = 5."""
    real = recurrence.bordered_matrix

    def wrong(spec, n):
        out = real(spec, n)
        if n != 5:
            return out
        rows = [list(row) for row in out.entries]
        rows[0] = [2 * x for x in rows[0]]
        return ringcore.Matrix(rows)

    monkeypatch.setattr(recurrence, "bordered_matrix", wrong)


# rng.getrandbits(64) after the matrix suite, seeds 0-2, with three checks
# failing (power_structure, state_steps, power_det) ...
DRAWS_AFTER_POW_FAULT = (13526410863773680250, 6957473062489204559, 2768419794529647722)
# ... and with bordered_det's ArithmeticError caught as its failure
DRAWS_AFTER_BORDER_FAULT = (8807494197289474697, 17334939638095862152, 4971642072940956286)


@pytest.mark.parametrize("seed", range(3))
def test_a_failing_check_draws_nothing_after_its_counterexample(wrong_pow, seed):
    assert suite_draws_after("matrix", seed) == DRAWS_AFTER_POW_FAULT[seed]


BORDER_FAULT = {
    0: "-1300 != -650 for SequenceSpec(coeffs=(-1, 1, 5, -5), initial=(0, 0, 0, 1))",
    1: "-160 != -80 for SequenceSpec(coeffs=(4, -4), initial=(0, 1))",
    2: "-176 != -88 for SequenceSpec(coeffs=(0, 2, -4, 2), initial=(0, 0, 0, 1))",
}


@pytest.mark.parametrize("seed", range(3))
def test_a_broken_identity_fails_its_check_and_the_suite_goes_on(wrong_bordered_matrix, seed):
    results = verify.run_suites(["matrix"], seed)
    assert [r.name for r in results] == CHECKS["matrix"]
    assert [r.line() for r in results if not r.passed] == [
        f"FAIL matrix.bordered_det seed={seed} counterexample: bordered determinant "
        f"identity broke: {BORDER_FAULT[seed]}, n=5"]
    assert suite_draws_after("matrix", seed) == DRAWS_AFTER_BORDER_FAULT[seed]


def test_m_tower_mod_l2_is_quaternions_check(monkeypatch):
    real = quaternions.m_value
    monkeypatch.setattr(quaternions, "m_value",
                        lambda spec, k: real(spec, k) + (spec.l == 3 and k == 7))
    assert [r.line() for r in verify.run_suites(["lnum"], 0) if not r.passed] == [
        "FAIL lnum.m_tower_mod_l2 seed=0 counterexample: l=3 k=7"]


def test_order_divides_carmichael_tests_the_order_with_pow(monkeypatch):
    # lambda(m) divides itself, so only x^(t/q) != 1 catches it as an order
    monkeypatch.setattr(verify, "multiplicative_order", lambda r: carmichael(r.modulus))
    for seed in range(3):
        assert [r.name for r in verify.run_suites(["matrix"], seed) if not r.passed] == [
            "order_divides_carmichael"]


def off_by_one(real):
    return lambda *args: real(*args) + 1


def wrong_period(change):
    """pisano.state_period with change(period, spec, m) for its period."""
    def wrong(spec, m):
        st = state_period(spec, m)
        return pisano.PeriodResult(st.tail, change(st.period, spec, m))
    return wrong


# each pisano check: the pisano function it reads, that function with a
# fault planted, and the counterexample the check reports at seed 0
PISANO_FAULTS = {
    # a halved even period still divides the order, but the default window
    # with a unit a_k returns exactly when D^t = I: its period is the order
    "state_divides_order": ("state_period",
                            wrong_period(lambda t, spec, m: t // 2 if t % 2 == 0 else t),
                            "a=(3, 2, 1) m=32 state=(0, 56) order=112"),
    "divisor_monotone": ("matrix_order", off_by_one(pisano.matrix_order),
                         "a=(2, -1) s1=4 s2=16"),
    "lcm_law": ("matrix_order", off_by_one(pisano.matrix_order),
                "a=(0, 0, -4, 1) s1=3 s2=16"),
    "det_order_divides": ("multiplicative_order", off_by_one(pisano.multiplicative_order),
                          "a=(-1, -4, -1) m=5"),
    "prime_power_ladder": ("matrix_order", off_by_one(pisano.matrix_order),
                           "ladder step pi(5) = 63: x^63 != 1 mod 5"),
    "pigeonhole_bound": ("state_period", wrong_period(lambda t, spec, m: t + m ** spec.k),
                         "a=(-2, 2) m=14 visited=246"),
    "all_odd_mod2_period": ("state_period", wrong_period(lambda t, spec, m: t + (m == 2)),
                            "a=(-1, 1)"),
}


@pytest.mark.parametrize("check", CHECKS["pisano"])
def test_every_pisano_check_fails_on_a_fault_in_what_it_reads(monkeypatch, check):
    name, fault, counterexample = PISANO_FAULTS[check]
    monkeypatch.setattr(pisano, name, fault)
    assert f"FAIL pisano.{check} seed=0 counterexample: {counterexample}" in [
        r.line() for r in verify.run_suites(["pisano"], 0) if not r.passed]


def test_prime_power_ladder_checks_its_rungs_against_matrix_order(monkeypatch):
    # a top rung one factor of p too high is still a multiple of the rung
    # below, and x to it is still 1: only matrix_order's descent mod p^3
    # sees it
    real = pisano.prime_power_ladder

    def wrong(spec, p, r_max):
        *low, top = real(spec, p, r_max)
        return [*low, top * p]

    monkeypatch.setattr(pisano, "prime_power_ladder", wrong)
    assert [r.line() for r in verify.run_suites(["pisano"], 0) if not r.passed] == [
        "FAIL pisano.prime_power_ladder seed=0 counterexample: "
        "a=(4, -1, 4, -4) p=3 ladder=[10, 30, 270]"]


def with_exponent(key, n):
    return cipher.CipherKey(key.k, key.n_mod, key.coeffs, n)


def exponent_changed(real, change):
    """real(key, block) for the key with exponent change(n)."""
    return lambda key, block: real(with_exponent(key, change(key.exponent)), block)


def first_columns_only(real, width):
    """real(key, block) on the block's first width columns; the rest are
    left as they are."""
    def wrong(key, block):
        out = real(key, block)
        rows = [c[:width] + v[width:] for c, v in zip(out.entries, block.entries)]
        return ringcore.Matrix(rows, block.modulus)
    return wrong


def last_row_zeroed(real):
    def wrong(key):
        rows = real(key).entries
        return ringcore.Matrix([*rows[:-1], [0] * len(rows[-1])], key.n_mod)
    return wrong


# each cipher check: the cipher function it reads, that function with a
# fault planted, and the counterexample the check reports at seed 0
CIPHER_FAULTS = {
    # deciphers by D^-(n+1)
    "round_trip": (cipher, "decrypt", exponent_changed(cipher.decrypt, lambda n: n + 1),
                   "key='4 27 5 6 25 5 13'"),
    # enciphers by D^min(n, 64), which a shift of n by a period changes
    "exponent_periodicity": (cipher, "encrypt",
                             exponent_changed(cipher.encrypt, lambda n: min(n, 64)),
                             "key='3 26 21 1 1 17' l=1 T=399672"),
    # a block is drawn with at most 6 columns, two of them joined with up to 12
    "columnwise_linear": (cipher, "encrypt", first_columns_only(cipher.encrypt, 6),
                          "key='5 29 6 21 22 6 16 44'"),
    "power_det_unit": (cipher.CipherKey, "matrix", last_row_zeroed(cipher.CipherKey.matrix),
                       "key='2 256 45 7 36'"),
}


@pytest.mark.parametrize("check", CHECKS["cipher"])
def test_every_cipher_check_fails_on_a_fault_in_what_it_reads(monkeypatch, check):
    owner, name, fault, counterexample = CIPHER_FAULTS[check]
    monkeypatch.setattr(owner, name, fault)
    assert f"FAIL cipher.{check} seed=0 counterexample: {counterexample}" in [
        r.line() for r in verify.run_suites(["cipher"], 0) if not r.passed]


def fermat_inverse(real):
    """Residue ** e with x^-1 taken as x^(m-2), the inverse for prime m only."""
    return lambda x, e: real(x, x.modulus - 2 if e == -1 else e)


def cofactors(real):
    """Matrix.adjugate without its transpose: the cofactor matrix."""
    return lambda a: ringcore.Matrix(list(zip(*real(a).entries)), a.modulus)


def term_off(real, i):
    """terms(spec, count) with d_i off by one."""
    def wrong(spec, count):
        out = real(spec, count)
        if count > i:
            out[i] += 1
        return out
    return wrong


def rows_reversed(real):
    return lambda spec, n: ringcore.Matrix(real(spec, n).entries[::-1])


def raised_at(real, l, n, by=1):
    """l_term(spec, i), by more for l and n."""
    return lambda spec, i: real(spec, i) + by * (spec.l == l and i == n)


def doubled(real):
    return lambda spec, count: [2 * x for x in real(spec, count)]


def plus_one(real):
    """The product x y + 1."""
    return lambda x, y: real(x, y) + x.algebra.one()


def scaled_from(real, start):
    """l_quaternion(l, r, n) times 1 + l from n = start on: the same mod l."""
    return lambda l, r, n: real(l, r, n).scale(1 + l) if n >= start else real(l, r, n)


# each check of the matrix, lnum and quat suites that no other test sees
# fail: the object and name of a function it reads, that function with a
# fault planted, and the counterexample the check reports at seed 0
CHECK_FAULTS = {
    "matrix.residue_inverse": (ringcore.Residue, "__pow__",
                               fermat_inverse(ringcore.Residue.__pow__), "x=1991 m=7094"),
    "matrix.adjugate_inverse": (ringcore.Matrix, "adjugate", cofactors(ringcore.Matrix.adjugate),
                                "a=Matrix[Z_49](1 28 36; 31 8 3; 9 25 28)"),
    # rows reversed: the det changes sign for k = 2 and 3
    "matrix.window_det": (recurrence, "window_matrix", rows_reversed(recurrence.window_matrix),
                          "window determinant identity broke: 1953125 != -1953125 for "
                          "SequenceSpec(coeffs=(5, 1, -5), initial=(0, 0, 1)), n=9"),
    "matrix.addition_formula": (recurrence, "terms", term_off(recurrence.terms, 10),
                                "index-addition identity broke for SequenceSpec(coeffs=(3, -4, "
                                "-4, 2), initial=(0, 0, 0, 1)), m=7, n=9: 1443660 != 1439251"),
    # a_1 = 2 for l = 3 is neither 0 mod 3 nor 1 mod 9
    "lnum.residue_dichotomy": (lnumbers, "l_term", raised_at(lnumbers.l_term, 3, 1),
                               "a_1 for l=3 fits neither residue class; unreachable"),
    # doubled, every even-index term is still a multiple of l: only the
    # gcd sees it
    "lnum.even_index_gcd": (lnumbers, "l_terms", doubled(lnumbers.l_terms), "l=2"),
    # (x y + 1) z + 1 != x (y z + 1) + 1 unless x = z
    "quat.associativity": (Quaternion, "__mul__", plus_one(Quaternion.__mul__),
                           "p=5 alpha=4 beta=1"),
    "quat.norm_multiplicative": (Quaternion, "norm", off_by_one(Quaternion.norm),
                                 "p=31 x=(24, 10, 25, 16) y=(9, 14, 19, 7)"),
    # conj(x), not scaled by norm(x)^-1
    "quat.inverse_roundtrip": (Quaternion, "inverse", Quaternion.conjugate,
                               "p=97 x=(59, 36, 35, 24)"),
    "quat.conj_antiautomorphism": (Quaternion, "conjugate", lambda x: x,
                                   "p=97 x=(35, 51, 3, 74) y=(84, 67, 70, 9)"),
    "quat.lquat_norm_identity": (quaternions, "l_quaternion_norm",
                                 off_by_one(quaternions.l_quaternion_norm), "l=1 n=0"),
    # doubled terms keep every norm a unit, but make it 8 mod l^2
    "quat.unit_census": (quaternions, "l_terms", doubled(quaternions.l_terms), "l=3 r=1"),
    # period_two reads A_n mod l, where the fault does not show
    "quat.gap_congruences": (quaternions, "l_quaternion",
                             scaled_from(quaternions.l_quaternion, 12), "l=3 k=2 n=0"),
}


@pytest.mark.parametrize("check", CHECK_FAULTS)
def test_every_other_check_fails_on_a_fault_in_what_it_reads(monkeypatch, check):
    owner, name, fault, counterexample = CHECK_FAULTS[check]
    monkeypatch.setattr(owner, name, fault)
    assert f"FAIL {check} seed=0 counterexample: {counterexample}" in [
        r.line() for r in verify.run_suites([check.split(".")[0]], 0) if not r.passed]


def test_residue_dichotomy_fails_a_term_in_the_other_class(monkeypatch):
    # a_1 = 3 for l = 3 is a multiple of l, the class of the even indices
    monkeypatch.setattr(lnumbers, "l_term", raised_at(lnumbers.l_term, 3, 1, by=2))
    assert "FAIL lnum.residue_dichotomy seed=0 counterexample: l=3 n=1" in [
        r.line() for r in verify.run_suites(["lnum"], 0) if not r.passed]


RATIONAL_FAULT = {0: "a=(-2, 85) window=(39, 85)", 1: "a=(-67, 20) window=(17, 27)",
                  2: "a=(-54, 95) window=(-69, 87)"}


@pytest.mark.parametrize("seed", range(3))
def test_rational_exact_checks_recurrences_backward_terms(monkeypatch, seed):
    # off by one, every backward term fails on the first case drawn
    real = recurrence.term_negative
    monkeypatch.setattr(recurrence, "term_negative", lambda spec, n: real(spec, n) + 1)
    assert [r.line() for r in verify.run_suites(["matrix"], seed) if not r.passed] == [
        f"FAIL matrix.rational_exact seed={seed} counterexample: {RATIONAL_FAULT[seed]}"]


def test_the_first_counterexample_fails_a_check_and_it_is_not_resumed():
    resumed = []

    def _drawing(rng):
        for i in range(10):
            rng.random()
            yield f"case {i}"
            resumed.append(i)

    def _after(rng):
        yield f"draw {rng.getrandbits(8)}"

    expected = random.Random(1)
    expected.random()               # the one case _drawing drew
    assert list(verify._run_checks((_drawing, _after), random.Random(1))) == [
        ("drawing", False, "case 0"), ("after", False, f"draw {expected.getrandbits(8)}")]
    assert resumed == []


def test_a_check_that_yields_nothing_passes_with_its_note():
    def _noted(rng):
        return "3/3 samples"
        yield

    def _silent(rng, extra):
        assert extra == "shared"
        return
        yield

    assert list(verify._run_checks((_noted,), None)) == [("noted", True, "3/3 samples")]
    assert list(verify._run_checks((_silent,), None, "shared")) == [("silent", True, "")]


def test_a_check_that_raises_ends_the_stream():
    def _fine(rng):
        return
        yield

    def _raises(rng):
        raise ZeroDivisionError("boom")
        yield

    def _never(rng):
        raise AssertionError("a check after a raise ran")
        yield

    stream = verify._run_checks((_fine, _raises, _never), None)
    assert next(stream) == ("fine", True, "")
    with pytest.raises(ZeroDivisionError, match="boom"):
        next(stream)
