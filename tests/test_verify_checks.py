"""verify's checks and the one runner that reports them: the full output of
`verify --suite all`, the draws a failing check leaves behind, and what
the runner does with a check's first counterexample, its note and its
exceptions."""
import random

import pytest

from recurra import quaternions, recurrence, ringcore, verify
from recurra.cli import main

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


@pytest.fixture
def wrong_pow(monkeypatch):
    """D^n with a wrong bottom-left entry whenever n = 3 mod 5."""
    real_pow = ringcore.Matrix.__pow__

    def wrong(self, n):
        out = real_pow(self, n)
        if n % 5 != 3:
            return out
        rows = [list(row) for row in out.entries]
        rows[-1][0] += 1
        return ringcore.Matrix(rows, out.modulus)

    monkeypatch.setattr(ringcore.Matrix, "__pow__", wrong)


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


def _matrix_draws_after(seed):
    rng = random.Random(f"{seed}:matrix")
    for _ in verify.SUITES["matrix"](rng):
        pass
    return rng.getrandbits(64)


# rng.getrandbits(64) after the matrix suite, seeds 0-2, with three checks
# failing (power_structure, state_steps, power_det) ...
DRAWS_AFTER_POW_FAULT = (13526410863773680250, 6957473062489204559, 2768419794529647722)
# ... and with bordered_det's ArithmeticError caught as its failure
DRAWS_AFTER_BORDER_FAULT = (8807494197289474697, 17334939638095862152, 4971642072940956286)


@pytest.mark.parametrize("seed", range(3))
def test_a_failing_check_draws_nothing_after_its_counterexample(wrong_pow, seed):
    assert _matrix_draws_after(seed) == DRAWS_AFTER_POW_FAULT[seed]


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
    assert _matrix_draws_after(seed) == DRAWS_AFTER_BORDER_FAULT[seed]


def test_m_tower_mod_l2_is_quaternions_check(monkeypatch):
    real = quaternions.m_value
    monkeypatch.setattr(quaternions, "m_value",
                        lambda spec, k: real(spec, k) + (spec.l == 3 and k == 7))
    assert [r.line() for r in verify.run_suites(["lnum"], 0) if not r.passed] == [
        "FAIL lnum.m_tower_mod_l2 seed=0 counterexample: l=3 k=7"]


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
