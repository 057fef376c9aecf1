import contextlib
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
from itertools import chain, cycle, islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from recurra import cli, recurrence
from recurra.cipher import DEFAULT_SYMBOLS, Alphabet, CipherKey, encrypt_text
from recurra.cli import main
from recurra.pisano import matrix_order
from recurra.quaternions import QuatAlgebra

from oracles import (naive_encrypt_text, naive_is_matrix_order, naive_is_window_orbit,
                     naive_lterms, naive_state_period, naive_terms, naive_terms_mod)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq(capsys):
    code, out, _ = run(capsys, "seq", "1", "1", "--n", "10")
    assert code == 0
    assert out.split() == "0 1 1 2 3 5 8 13 21 34 55".split()


def test_seq_mod_and_initial(capsys):
    code, out, _ = run(capsys, "seq", "4", "-5", "2", "--n", "8", "--mod", "9")
    assert code == 0
    assert out.split() == ["0", "0", "1", "4", "2", "8", "3", "3", "4"]
    code, out, _ = run(capsys, "seq", "1", "1", "--initial", "2", "1", "--n", "4")
    assert code == 0
    assert out.split() == ["2", "1", "3", "4", "7"]


def test_pisano_matrix_default(capsys):
    assert run(capsys, "pisano", "1", "1", "1", "--mod", "2")[1].strip() == "4"
    assert run(capsys, "pisano", "1", "0", "1", "--mod", "2")[1].strip() == "7"
    assert run(capsys, "pisano", "1", "1", "--mod", "10")[1].strip() == "60"
    assert run(capsys, "pisano", "1", "1", "--mod", "10", "--matrix")[1].strip() == "60"


def test_pisano_state_and_ladder(capsys):
    code, out, _ = run(capsys, "pisano", "1", "2", "--mod", "4", "--state")
    assert code == 0 and out.split() == ["2", "2"]
    code, out, _ = run(capsys, "pisano", "4", "-5", "2", "--ladder", "3", "3")
    assert code == 0 and out.split() == ["6", "18", "54"]


def test_pisano_needs_mod(capsys):
    with pytest.raises(SystemExit):
        main(["pisano", "1", "1"])


def test_pisano_ladder_takes_no_mod_state_or_matrix(capsys):
    for extra in (("--mod", "10"), ("--state",), ("--matrix",), ("--mod", "10", "--state")):
        with pytest.raises(SystemExit) as exc:
            main(["pisano", "1", "1", *extra, "--ladder", "3", "2"])
        assert exc.value.code == 2, extra
        err = capsys.readouterr().err
        assert err.endswith("error: pisano --ladder P R takes no --mod, --state or "
                            "--matrix\n"), extra


def test_order(capsys):
    assert run(capsys, "order", "2", "--mod", "27")[1].strip() == "18"
    code, _, err = run(capsys, "order", "3", "--mod", "9")
    assert code == 2 and "error:" in err


def test_cipher_round_trip_files(capsys, tmp_path, monkeypatch):
    key = tmp_path / "key.txt"
    key.write_text("3 2 1 1 1 3\n")
    alpha = tmp_path / "ab.txt"
    alpha.write_text("A\nB\n")

    monkeypatch.setattr("sys.stdin", io.StringIO("ABBAAB\n"))
    code, out, _ = run(capsys, "encrypt", "--key", str(key), "--alphabet", str(alpha))
    assert code == 0 and out == "BBAABB\n"

    monkeypatch.setattr("sys.stdin", io.StringIO("BBAABB\n"))
    code, out, _ = run(capsys, "decrypt", "--key", str(key), "--alphabet", str(alpha))
    assert code == 0 and out == "ABBAAB\n"


def test_cipher_default_alphabet_and_strip(capsys, tmp_path, monkeypatch):
    key = tmp_path / "key.txt"
    key.write_text("3 27 4 -5 2 2\n")

    monkeypatch.setattr("sys.stdin", io.StringIO("SUCCESS**"))
    code, out, _ = run(capsys, "encrypt", "--key", str(key))
    assert code == 0 and out == "QDSNYCTVS\n"

    monkeypatch.setattr("sys.stdin", io.StringIO("QDSNYCTVS"))
    code, out, _ = run(capsys, "decrypt", "--key", str(key), "--strip-pad")
    assert code == 0 and out == "SUCCESS\n"


def test_cipher_empty_input(capsys, tmp_path, monkeypatch):
    key = tmp_path / "key.txt"
    key.write_text("3 27 4 -5 2 2\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, _ = run(capsys, "encrypt", "--key", str(key))
    assert code == 0 and out == "\n"


def test_cipher_unknown_symbol_is_hard_error(capsys, tmp_path, monkeypatch):
    key = tmp_path / "key.txt"
    key.write_text("3 27 4 -5 2 2\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("hello!"))
    code, _, err = run(capsys, "encrypt", "--key", str(key))
    assert code == 2
    assert "not in the alphabet" in err


def test_validate_key(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("3 2 1 1 1 31\n")
    code, out, _ = run(capsys, "validate-key", "--key", str(good))
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(capsys, "validate-key", "--key", str(good), "--normalize")
    assert code == 0 and out.strip() == "ok 3 2 1 1 1 3"

    bad = tmp_path / "bad.txt"
    bad.write_text("2 10 1 5 3\n")
    code, _, err = run(capsys, "validate-key", "--key", str(bad))
    assert code == 2 and "error:" in err


def test_lnum(capsys):
    code, out, _ = run(capsys, "lnum", "2", "--n", "7")
    assert code == 0 and out.split() == ["0", "1", "2", "5", "12", "29", "70", "169"]
    code, out, _ = run(capsys, "lnum", "3", "--n", "5", "--mod", "9")
    assert code == 0 and out.split() == ["0", "1", "3", "1", "6", "1"]


def test_quat(capsys):
    code, out, _ = run(capsys, "quat", "3", "--r", "1", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["0", "0", "1", "0", "1", "2", "unit"]
    assert all(line.endswith("unit") for line in lines)


# `recurra quat L --r R --n 2000` output, as sha256 of its stdout; every
# r = 1 census reads the same, since a_n mod l is 0, 1, 0, 1, ...
QUAT_SHA256 = {
    (3, 1): "33750047f0d137a96f7478c610a45cf2a5cc9df673106ab7368854512edafa68",
    (3, 2): "49de34c9cff93e50cc7815019ca6eb75121c4236046e49e14bf2dc17227975b6",
    (3, 3): "76071c3d53a2f749db33067a06c2a16f8a800dcd3952b43b6758f94017d0ec3b",
    (5, 1): "33750047f0d137a96f7478c610a45cf2a5cc9df673106ab7368854512edafa68",
    (5, 2): "27708902fea96488cc2e50b69b8b5ff6a444c5cbc893686b869ee45694f94487",
    (5, 3): "3b12640f52df28cdac49fafc9c695e09f43f10d12cacdab6edfe351f24b40070",
    (7, 1): "33750047f0d137a96f7478c610a45cf2a5cc9df673106ab7368854512edafa68",
    (7, 2): "b130899f2b5cff554c5c56608374521c647a3800b28f0a198c4114f79da716cf",
    (7, 3): "2c3f074869eb9746f5bf644e95b6eba135a6a07a0a3056e9af24d85af70fe1f4",
}


def test_quat_readme_example_is_pinned(capsys):
    assert run(capsys, "quat", "3", "--r", "2", "--n", "10") == (0, (
        "0 0 1 3 1 2 unit\n1 1 3 1 6 2 unit\n2 3 1 6 1 2 unit\n3 1 6 1 0 2 unit\n"
        "4 6 1 0 1 2 unit\n5 1 0 1 3 2 unit\n6 0 1 3 1 2 unit\n7 1 3 1 6 2 unit\n"
        "8 3 1 6 1 2 unit\n9 1 6 1 0 2 unit\n10 6 1 0 1 2 unit\n"), "")


@pytest.mark.parametrize("l, r", sorted(QUAT_SHA256))
def test_quat_output_is_pinned(capsys, l, r):
    code, full, _ = run(capsys, "quat", str(l), "--r", str(r), "--n", "2000")
    assert code == 0 and hashlib.sha256(full.encode()).hexdigest() == QUAT_SHA256[l, r]
    lines = full.splitlines(keepends=True)
    for n in (0, 10):
        assert run(capsys, "quat", str(l), "--r", str(r), "--n", str(n)) == (
            0, "".join(lines[:n + 1]), "")


def test_quat_x_power_calls_do_not_grow_with_n(capsys, monkeypatch):
    real = recurrence.x_power
    calls = []
    monkeypatch.setattr(recurrence, "x_power", lambda *args: calls.append(args) or real(*args))
    counts = []
    for n in ("10", "300"):
        calls.clear()
        assert run(capsys, "quat", "5", "--r", "2", "--n", n)[0] == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lnum", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("ok ")


def test_verify_deterministic_for_fixed_seed(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "matrix", "--seed", "7")
    _, out2, _ = run(capsys, "verify", "--suite", "matrix", "--seed", "7")
    assert out1 == out2


def test_verify_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("RECURRA_BUDGET_MS", "0")
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "0")
    assert code == 1
    assert "budget" in out


def test_verify_budget_flag(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "0",
                       "--budget", "0")
    assert code == 1
    assert "budget" in out


def test_verify_budget_suffixed(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lnum", "--seed", "0",
                       "--budget", "60s")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("ok ")
    code, out, _ = run(capsys, "verify", "--suite", "lnum", "--seed", "0",
                       "--budget", "500ms")
    assert code == 0


def test_encrypt_alphabet_size_mismatch(capsys, tmp_path, monkeypatch):
    key = tmp_path / "key.txt"
    key.write_text("3 2 1 1 1 3\n")  # N = 2, default alphabet has 27
    monkeypatch.setattr("sys.stdin", io.StringIO("AB"))
    code, _, err = run(capsys, "encrypt", "--key", str(key))
    assert code == 2 and "alphabet size" in err


def test_verify_bad_suite_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_orders_with_long_periods(capsys):
    # periods of 5 * 10^8 and 10^6: found from the factored group exponent
    code, out, _ = run(capsys, "order", "3", "--mod", "1000000007")
    assert code == 0 and out.strip() == "500000003"
    code, out, _ = run(capsys, "pisano", "1", "1", "1", "--mod", "1000003")
    assert code == 0 and out.strip() == "1000002"


def test_arithmetic_error_exit_code(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "--suite", "lnum", "--budget", "1e400s")
    assert code == 3 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    # a ladder rung that is neither x1 nor xp of the one below
    monkeypatch.setattr("recurra.pisano.matrix_order", lambda spec, m: m + 1)
    code, out, err = run(capsys, "pisano", "4", "-5", "2", "--ladder", "3", "3")
    assert code == 3 and out == ""
    assert err.startswith("error: ladder step") and len(err.strip().splitlines()) == 1


def test_negative_last_index_is_rejected(capsys):
    for argv in (("seq", "1", "1", "--n", "-2"),
                 ("seq", "1", "1", "--n", "-1", "--mod", "7"),
                 ("lnum", "2", "--n", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, argv


def test_a_last_index_past_the_index_bound_names_the_flag(capsys):
    # quat reads n + 4 terms, so the bound is sys.maxsize - 4 for every command
    message = f"error: --n must be <= {sys.maxsize - 4}, got "
    for n in (sys.maxsize, 10 ** 23):
        for argv in (("seq", "1", "1", "--n", str(n), "--mod", "7"),
                     ("lnum", "1", "--n", str(n)),
                     ("quat", "3", "--n", str(n))):
            assert run(capsys, *argv) == (2, "", f"{message}{n}\n"), argv


def test_quat_names_the_bad_flag(capsys):
    # each flag is checked on its own, under its own name, before the census
    for argv, message in ((("--n", "-1"), "error: --n must be >= 0, got -1\n"),
                          (("--r", "0", "--n", "3"), "error: --r must be >= 1, got 0\n"),
                          (("--r", "-2", "--n", "-1"), "error: --r must be >= 1, got -2\n")):
        assert run(capsys, "quat", "3", *argv) == (2, "", message), argv


def test_verify_reports_the_first_counterexample(capsys, monkeypatch):
    monkeypatch.setattr("recurra.lnumbers.square_sum_check", lambda spec, n: False)
    monkeypatch.setattr("recurra.lnumbers.divisibility_check", lambda spec, d, n: False)
    monkeypatch.setattr("recurra.quaternions.period_two_check", lambda l, n: False)
    monkeypatch.setattr("recurra.quaternions.quat_window_sum",
                        lambda l, n: QuatAlgebra(-1, -1, l * l).one())
    code, out, _ = run(capsys, "verify", "--suite", "lnum", "--seed", "0")
    assert code == 1
    assert "FAIL lnum.square_sum seed=0 counterexample: l=1 n=0\n" in out
    assert "FAIL lnum.divisibility seed=0 counterexample: l=1 d=1 n=1\n" in out
    code, out, _ = run(capsys, "verify", "--suite", "quat", "--seed", "0")
    assert code == 1
    assert "FAIL quat.period_two seed=0 counterexample: l=3 n=0\n" in out
    assert ("FAIL quat.window_sum_zero seed=0 counterexample: l=3 n=0 "
            "sum=(1, 0, 0, 0)\n") in out


def test_terms_past_the_digit_limit_fail_before_converting_the_rest(capsys, monkeypatch):
    # fib(20000) is the first term past Python's 4300-digit int-to-str
    # limit, and record 536 of the quat census the first one; every width is
    # checked before anything is printed, and only the first value past the
    # limit is converted, so the error comes after a single conversion
    conversions = []

    def counting_str(x):
        conversions.append(x)
        return str(x)

    monkeypatch.setattr(cli, "str", counting_str, raising=False)
    for argv in (("seq", "1", "1", "--n", "21000"), ("lnum", "1", "--n", "21000"),
                 ("quat", "10007", "--r", "1000000", "--n", "540")):
        conversions.clear()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: Exceeds the limit (4300 digits)"), argv
        assert len(err.strip().splitlines()) == 1, argv
        assert len(conversions) == 1, argv
    conversions.clear()
    code, out, _ = run(capsys, "seq", "1", "1", "--n", "10")
    assert code == 0 and out == "0 1 1 2 3 5 8 13 21 34 55\n"
    assert len(conversions) == 11       # each term once, as it is printed


def test_the_digit_limit_is_exact_for_either_sign(capsys):
    # the sign is not counted: a term of 4300 digits prints, and +-10^4300,
    # of 4301, does not
    for sign in ("", "-"):
        widest = sign + "9" * 4300
        code, out, err = run(capsys, "seq", "0", "1", "--initial", widest, "5", "--n", "3")
        assert (code, out, err) == (0, f"{widest} 5 {widest} 5\n", ""), sign
        code, out, err = run(capsys, "seq", "0", f"{sign}10", "--initial", "1" + "0" * 4299, "1",
                             "--n", "2")
        assert code == 2 and out == "", sign
        assert err.startswith("error: Exceeds the limit (4300 digits)"), sign


def test_lnum_mod_below_two_is_rejected(capsys):
    _, _, seq_err = run(capsys, "seq", "3", "1", "--n", "4", "--mod", "1")
    for mod in ("1", "0", "-3"):
        code, out, err = run(capsys, "lnum", "3", "--n", "4", "--mod", mod)
        assert code == 2 and out == "", mod
        assert err == f"error: modulus must be an integer >= 2, got {mod}\n", mod
    assert seq_err == "error: modulus must be an integer >= 2, got 1\n"
    code, out, _ = run(capsys, "lnum", "7", "--n", "300", "--mod", "1000000007")
    assert code == 0
    a = [0, 1]
    while len(a) < 301:
        a.append(7 * a[-1] + a[-2])
    assert out.split() == [str(x % 1000000007) for x in a]


def run_cli(*argv, stdin: str, cwd) -> str:
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "recurra.cli", *argv], cwd=cwd,
                          input=stdin.encode("utf-8"), capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    return proc.stdout.decode("utf-8")


def long_stdin_cases(tmp_path):
    """(key, alphabet, alphabet flags) of the long-stdin tests: the default
    alphabet under a k = 3 key, and 256 two-byte symbols (U+0100-U+01FF)
    under a k = 5 key, whose alphabet file this writes to tmp_path."""
    latin = Alphabet(tuple(chr(0x100 + i) for i in range(256)), chr(0x1FF))
    (tmp_path / "latin.txt").write_text("pad=\u01ff\n" + "\n".join(latin.symbols) + "\n",
                                        encoding="utf-8")
    return ((CipherKey(3, 27, (4, -5, 2), 987654321), Alphabet.default(), ()),
            (CipherKey(5, 256, (83, 210, 158, 229, 3), 828352265730872686), latin,
             ("--alphabet", str(tmp_path / "latin.txt"))))


def test_cli_encrypt_decrypt_round_trip_on_a_long_stdin(tmp_path):
    rng = random.Random(163)
    for key, alpha, alpha_args in long_stdin_cases(tmp_path):
        (tmp_path / "key.txt").write_text(key.to_line() + "\n")
        plain = "".join(rng.choices(alpha.symbols, k=100_001))
        padded = plain + alpha.pad * (-len(plain) % key.k)
        ct = run_cli("encrypt", "--key", "key.txt", *alpha_args, stdin=plain, cwd=tmp_path)
        assert ct == encrypt_text(key, alpha, plain) + "\n"
        pt = run_cli("decrypt", "--key", "key.txt", *alpha_args, stdin=ct, cwd=tmp_path)
        assert pt == padded + "\n"


def test_factoring_bound_ends_hard_inputs(capsys):
    # Phi_5(2^61 - 1) (73 digits) and (2^61 - 1)(2^64 - 59) have no factor
    # Pollard rho finds within its step bound: one error line and exit 3,
    # after a few seconds rather than hours.  x^5 - x^4 - x^3 - 2x - 2 is
    # irreducible mod 2^61 - 1, so its period needs Phi_5(p).
    for argv in (("pisano", "1", "1", "1", "2", "2", "--mod", "2305843009213693951"),
                 ("order", "3", "--mod", "42535295865117307778430344311653531707")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("error: cannot factor ") and "Pollard rho steps" in err, argv
        assert len(err.strip().splitlines()) == 1, argv
    assert "42535295865117307778430344311653531707" in err


def test_state_period_factors_the_modulus_whatever_a_k_is(capsys, monkeypatch):
    # the modulus of test_engine's rho step-bound test, which rho cannot
    # split in 2^15 steps: --state exits 3 for a unit and a non-unit a_k
    # alike, even where the windows settle at once (x^2 = 0 mod n)
    n = (2 ** 31 - 1) * (10 ** 9 + 9)
    monkeypatch.setattr("recurra.ntheory._RHO_STEP_LIMIT", 1 << 15)
    for coeffs in (("1", "1"), ("0", str(n))):
        code, out, err = run(capsys, "pisano", *coeffs, "--mod", str(n), "--state")
        assert code == 3 and out == "", coeffs
        assert err.startswith(f"error: cannot factor {n}: no factor found in 32768 "
                              f"Pollard rho steps"), coeffs
        assert len(err.strip().splitlines()) == 1, coeffs


def test_nonunit_state_period_of_a_large_modulus_is_quick():
    # tail + period is about 3 * 10^12 windows, far too many to walk
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "recurra.cli", "pisano", "1", "2",
                           "--mod", str(10 ** 18), "--state"],
                          capture_output=True, env=env, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"18 3051757812500\n", b"")


def test_cli_constants_match_verify():
    from recurra import verify
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))
    assert cli.DEFAULT_BUDGET_MS == verify.DEFAULT_BUDGET_MS


VERIFY_USAGE = """\
usage: recurra verify [-h] [--suite {cipher,lnum,matrix,pisano,quat,all}]
                      [--seed SEED] [--budget MS]
"""


def test_verify_help_and_bad_suite_text_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --suite {cipher,lnum,matrix,pisano,quat,all}
  --seed SEED
  --budget MS           wall-time cap, ms or suffixed like 60s (default
                        RECURRA_BUDGET_MS or 60000)
"""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == VERIFY_USAGE + (
        "recurra verify: error: argument --suite: invalid choice: 'bogus' (choose "
        "from 'cipher', 'lnum', 'matrix', 'pisano', 'quat', 'all')\n")


def test_budget_parse_error_names_the_flag(capsys):
    # nothing around the value is dropped, and only ASCII digits count
    for budget in ("abc", "1.5", "xs", "ms", " 5ms", "5 ms", "5ms ", "1_000", "\u0663",
                   "+5", "infs"):
        code, out, err = run(capsys, "verify", "--suite", "matrix", "--budget", budget)
        assert code == 2 and out == "", budget
        assert err == (f"error: --budget takes milliseconds (500 or 500ms) or seconds "
                       f"with an 's' suffix (60s), got {budget!r}\n"), budget


def test_budget_env_goes_through_the_budget_parser(capsys, monkeypatch):
    monkeypatch.setenv("RECURRA_BUDGET_MS", "abc")
    code, out, err = run(capsys, "verify", "--suite", "lnum", "--seed", "0")
    assert code == 2 and out == ""
    assert err == ("error: RECURRA_BUDGET_MS takes milliseconds (500 or 500ms) or "
                   "seconds with an 's' suffix (60s), got 'abc'\n")
    for budget in ("60s", "500ms"):
        monkeypatch.setenv("RECURRA_BUDGET_MS", budget)
        code, out, err = run(capsys, "verify", "--suite", "lnum", "--seed", "0")
        assert code == 0 and err == "", budget
        assert out.splitlines()[-1] == "ok 9/9 checks", budget
    # the flag still wins over the variable
    monkeypatch.setenv("RECURRA_BUDGET_MS", "abc")
    code, _, _ = run(capsys, "verify", "--suite", "lnum", "--seed", "0", "--budget", "60s")
    assert code == 0


def test_negative_budget_is_rejected(capsys, monkeypatch):
    # `--budget=...`: argparse takes "-5ms" after a space for an option
    for budget in ("-5", "-5ms", "-0.5s", "-1e400s"):
        code, out, err = run(capsys, "verify", "--suite", "lnum", f"--budget={budget}")
        assert (code, out) == (2, ""), budget
        assert err == f"error: --budget must not be negative, got {budget!r}\n"
    monkeypatch.setenv("RECURRA_BUDGET_MS", "-5")
    assert run(capsys, "verify", "--suite", "lnum") == (
        2, "", "error: RECURRA_BUDGET_MS must not be negative, got '-5'\n")


def test_budget_stops_a_suite_between_checks(capsys, monkeypatch):
    # a zero budget is spent by the first check: one budget line, no more
    code, out, _ = run(capsys, "verify", "--suite", "matrix", "--seed", "0", "--budget", "0")
    assert code == 1
    assert out.splitlines() == ["PASS matrix.residue_inverse",
                                "FAIL matrix.budget budget of 0 ms exhausted",
                                "FAILED 1/2 checks"]
    # a clock that passes the deadline during the third check of pisano
    from types import SimpleNamespace
    from recurra import verify
    ticks = iter([0.0, 0.0, 0.0, 5.0])
    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    results = verify.run_suites(["pisano", "cipher"], 0, budget_ms=1000)
    assert [r.line().split(" ")[:2] for r in results] == [
        ["PASS", "pisano.state_divides_order"], ["PASS", "pisano.divisor_monotone"],
        ["PASS", "pisano.lcm_law"], ["FAIL", "pisano.budget"]]


def test_pisano_split_chi_mod_a_61_bit_prime(capsys):
    # chi = x^5 - x^4 - x^3 - x^2 - x - 1 has factors of degrees 1, 2, 2 mod
    # 2^61 - 1, so only p - 1 and p + 1 need factoring: pi = p^2 - 1
    code, out, err = run(capsys, "pisano", "1", "1", "1", "1", "1",
                         "--mod", "2305843009213693951")
    assert (code, out, err) == (0, "5316911983139663487003542222693990400\n", "")


def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_seq", exhausted)
    assert run(capsys, "seq", "1", "1", "--n", "5") == (
        3, "", "error: out of memory running 'seq'\n")


def test_a_capped_process_out_of_memory_exits_3(capped_cli):
    # the census reduces an exact prefix of 10^5 terms of l_terms, about
    # 26k digits each on average and some 1 GB in all, which a 256 MB
    # address space cannot take; its records, 96-digit residues mod
    # 3^200, would fit
    proc = capped_cli("quat", "3", "--r", "200", "--n", "100000", cap_mb=256)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: out of memory running 'quat'\n")
    # exact Fibonacci terms to 10^7 would take terabytes; the scan for the
    # widest term stops at the first one past the int-to-str digit limit
    proc = capped_cli("seq", "1", "1", "--n", "10000000", cap_mb=256)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: Exceeds the limit (4300 digits)")
    assert len(proc.stderr.splitlines()) == 1


def test_a_power_of_l_past_exactness_costs_nothing(capped_cli):
    # past r = 4*n + 10 the census's residues are its exact values, so
    # 3^(10^7), some 2 MB, is never built: the records are those of r = 18
    proc = capped_cli("quat", "3", "--r", "10000000", "--n", "2", cap_mb=256, cpu_s=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == stdout_of("quat", "3", "--r", "18", "--n", "2")


# Each period command answers in well under a second, far inside a 5 s CPU
# cap.  The answers are checked by the oracles' certificates, which need no
# walk of the period.
PISANO_LADDER_3 = [6 * 3 ** r for r in range(12)]
FIBONACCI_LADDER_3 = [8 * 3 ** r for r in range(1000)]


@pytest.mark.parametrize("argv, expected, certified", [
    (("order", "3", "--mod", "1000000007"), "500000003",
     lambda: naive_is_matrix_order((3,), 1000000007, 500000003)),
    (("pisano", "1", "1", "1", "--mod", "1000003"), "1000002",
     lambda: naive_is_matrix_order((1, 1, 1), 1000003, 1000002)),
    (("pisano", "1", "2", "--mod", str(10 ** 18), "--state"), "18 3051757812500",
     lambda: naive_is_window_orbit((1, 2), 10 ** 18, 18, 3051757812500)),
    (("pisano", "4", "-5", "2", "--ladder", "3", "12"), " ".join(map(str, PISANO_LADDER_3)),
     lambda: all(naive_is_matrix_order((4, -5, 2), 3 ** r, t)
                 for r, t in enumerate(PISANO_LADDER_3, 1))),
    (("pisano", "1", "1", "--ladder", "3", "1000"), " ".join(map(str, FIBONACCI_LADDER_3)),
     lambda: all(naive_is_matrix_order((1, 1), 3 ** r, FIBONACCI_LADDER_3[r - 1])
                 for r in (*range(1, 101), 1000))),
], ids=["order", "pisano", "state", "ladder", "long-ladder"])
def test_a_period_command_answers_in_a_capped_process(capped_cli, argv, expected, certified):
    proc = capped_cli(*argv, cap_mb=256, cpu_s=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected + "\n", "")
    assert certified()


def test_the_cipher_commands_run_on_a_long_stdin_in_a_capped_process(capped_cli, tmp_path):
    # 10^6 characters each way; the texts end in a symbol other than the
    # pad, so --strip-pad gives each back whole
    rng = random.Random(167)
    key_path = tmp_path / "key.txt"
    key_file = str(key_path)
    for key, alpha, alpha_args in long_stdin_cases(tmp_path):
        key_path.write_text(key.to_line() + "\n")
        plain = "".join(rng.choices(alpha.symbols, k=10 ** 6 - 1)) + alpha.symbols[0]
        proc = capped_cli("encrypt", "--key", key_file, *alpha_args, stdin=plain,
                          cap_mb=256, cpu_s=10)
        assert (proc.returncode, proc.stderr) == (0, ""), key
        assert proc.stdout == naive_encrypt_text(key, alpha, plain) + "\n", key
        proc = capped_cli("decrypt", "--key", key_file, *alpha_args, "--strip-pad",
                          stdin=proc.stdout, cap_mb=256, cpu_s=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, plain + "\n", ""), key
        # n mod pi(N), with the period certified by the oracle
        period = matrix_order(key.spec(), key.n_mod)
        assert naive_is_matrix_order(key.coeffs, key.n_mod, period)
        assert key.exponent % period
        normalized = CipherKey(key.k, key.n_mod, key.coeffs, key.exponent % period)
        proc = capped_cli("validate-key", "--key", key_file, "--normalize",
                          cap_mb=256, cpu_s=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, f"ok {normalized.to_line()}\n", ""), key


def test_the_cipher_commands_hold_a_long_stdin_in_a_small_address_space(capped_cli, tmp_path):
    # 4 * 10^6 symbols each way in 64 MB: the text is labelled, multiplied
    # and decoded a piece at a time.  Columns are independent, so the first
    # and last 10^4 are checked against the oracle.
    key, alpha, _ = long_stdin_cases(tmp_path)[0]
    (tmp_path / "key.txt").write_text(key.to_line() + "\n")
    rng = random.Random(179)
    plain = "".join(rng.choices(alpha.symbols, k=4 * 10 ** 6 - 1)) + "A"
    proc = capped_cli("encrypt", "--key", str(tmp_path / "key.txt"), stdin=plain,
                      cap_mb=64, cpu_s=20)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    ct = proc.stdout[:-1]
    assert len(ct) == len(plain) + (-len(plain) % key.k)
    tail = len(ct) - 10 ** 4 * key.k
    assert ct[:10 ** 4 * key.k] == naive_encrypt_text(key, alpha, plain[:10 ** 4 * key.k])
    assert ct[tail:] == naive_encrypt_text(key, alpha, plain[tail:])
    proc = capped_cli("decrypt", "--key", str(tmp_path / "key.txt"), "--strip-pad",
                      stdin=proc.stdout, cap_mb=64, cpu_s=20)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == plain + "\n"


def test_a_long_lnum_prefix_and_every_verify_suite_run_in_a_capped_process(capped_cli):
    n = 200_000
    proc = capped_cli("lnum", "3", "--n", str(n), "--mod", "1000000007", cap_mb=256, cpu_s=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    a = [0, 1]
    while len(a) < n + 1:
        a.append((3 * a[-1] + a[-2]) % 1000000007)
    assert proc.stdout == joined(a)
    proc = capped_cli("verify", "--suite", "all", "--seed", "0", cap_mb=256, cpu_s=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == stdout_of("verify", "--suite", "all", "--seed", "0")


def periodic_terms_mod(coeffs, count, m, initial=None):
    """The oracle's terms mod m, repeated from its (tail, period) of
    windows, so that no exact term past the first cycle is built."""
    tail, period = naive_state_period(coeffs, m, initial)
    head = naive_terms_mod(coeffs, tail + period, m, initial)
    return islice(chain(head[:tail], cycle(head[tail:])), count)


def joined(values) -> str:
    return " ".join(map(str, values)) + "\n"


def test_a_long_prefix_mod_m_prints_in_bounded_memory(capped_cli):
    # 3 * 10^6 terms, 6 MB of output: held whole, the prefix list alone
    # would take about 100 MB
    n = 3_000_000
    proc = capped_cli("seq", "1", "1", "--n", str(n), "--mod", "7", cap_mb=128)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == joined(periodic_terms_mod((1, 1), n + 1, 7))


# A reader that stops early (`| head -c 10`) closes the pipe while the
# command still writes.  Both buffering modes are run: unbuffered, the
# next print meets the closed pipe; buffered, so may the flush at the end.
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ("quat", "3", "--n", "50000"),
    ("seq", "1", "1", "--n", "200000", "--mod", "7"),
    ("lnum", "1", "--n", "200000", "--mod", "7"),
    ("verify", "--suite", "all", "--seed", "0"),
])
def test_a_stdout_closed_early_ends_the_command_with_exit_0_and_no_error(argv, unbuffered):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen([sys.executable, "-m", "recurra.cli", *argv], bufsize=0,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10)
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=120)) == (b"", 0)


def test_a_stdout_closed_before_the_first_write_ends_the_command_with_exit_0():
    # buffered, all of the output is written by the flush at the end
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="")
    with subprocess.Popen([sys.executable, "-m", "recurra.cli", "seq", "1", "1", "--n", "10"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=120)) == (b"", 0)


@pytest.mark.parametrize("argv", [
    ("seq", "1", "1", "--n", "1000000000", "--mod", "7"),
    ("lnum", "1", "--n", "1000000000", "--mod", "7"),
])
def test_a_closed_stdout_stops_a_long_prefix_at_the_next_chunk(argv):
    # 10^9 terms would take minutes to print; the prefix is streamed, so
    # the reader's close ends the command at its next write.  A command
    # that writes nothing for 30 s is killed, which fails the read.
    env = dict(os.environ, PYTHONPATH=SRC)
    with subprocess.Popen([sys.executable, "-m", "recurra.cli", *argv], bufsize=0,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        deadline = threading.Timer(30, proc.kill)
        deadline.start()
        try:
            assert proc.stdout.read(10)
            proc.stdout.close()
            assert (proc.wait(timeout=30), proc.stderr.read()) == (0, b"")
        finally:
            deadline.cancel()
            proc.kill()


def stdout_of(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_streamed_seq_and_lnum_match_the_oracle(data):
    k = data.draw(st.integers(2, 5), label="k")
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k).filter(
        lambda c: c[-1]), label="coeffs")
    initial = data.draw(st.none() | st.lists(st.integers(-50, 50), min_size=k, max_size=k),
                        label="initial")
    n = data.draw(st.sampled_from((0, 1, k - 1, k)) | st.integers(0, 200), label="n")
    m = data.draw(st.none() | st.integers(2, 10 ** 6) | st.integers(2 ** 64, 2 ** 70),
                  label="m")
    l = data.draw(st.integers(1, 30), label="l")
    # chunks of one token each, of a few, and of the real size
    chunk = data.draw(st.sampled_from((1, 2, 7, 40, cli.CHUNK_CHARS)), label="chunk")
    argv = ["seq", *map(str, coeffs), "--n", str(n)]
    if initial is not None:
        argv += ["--initial", *map(str, initial)]
    lnum = ["lnum", str(l), "--n", str(n)]
    if m is not None:
        argv += ["--mod", str(m)]
        lnum += ["--mod", str(m)]
    with mock.patch.object(cli, "CHUNK_CHARS", chunk):
        seq_out, lnum_out = stdout_of(*argv), stdout_of(*lnum)
    ref, lref = naive_terms(coeffs, n + 1, initial), naive_lterms(l, n + 1)
    if m is not None:
        ref, lref = [x % m for x in ref], [x % m for x in lref]
    assert seq_out == joined(ref)
    assert lnum_out == joined(lref)


@pytest.mark.parametrize("n", [32766, 32767, 32768, 65535, 65536])
def test_prefixes_on_either_side_of_a_chunk_boundary_match_the_oracle(n):
    # terms mod 7 print as one digit and a space: a chunk is 32768 terms
    assert cli.CHUNK_CHARS == 2 * 32768
    expected = joined(periodic_terms_mod((1, 1), n + 1, 7))
    assert stdout_of("seq", "1", "1", "--n", str(n), "--mod", "7") == expected
    assert stdout_of("lnum", "1", "--n", str(n), "--mod", "7") == expected
    assert stdout_of("seq", "3", "-2", "--initial", "5", "-4", "--n", str(n), "--mod", "7") == (
        joined(periodic_terms_mod((3, -2), n + 1, 7, (5, -4))))


# The CLI contract over small grammars of argv: whatever the numbers, a
# command ends with a defined exit code and at most one error line.
NUMBERS = st.integers(-3, 3) | st.just(10 ** 30)
LAST_INDICES = st.sampled_from((-1, 0, 1, 40, sys.maxsize, 10 ** 23))
MODULI_ARGS = st.sampled_from((-5, 0, 1, 2, 10, 27, 1000003))


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(("seq", "lnum", "quat", "order", "pisano")))
    mod = ["--mod", str(draw(MODULI_ARGS))]
    last = ["--n", str(draw(LAST_INDICES))]
    if command in ("seq", "pisano"):
        argv = [command, *map(str, draw(st.lists(NUMBERS, min_size=1, max_size=4)))]
    else:                               # 3, quat's one odd prime here, comes often
        argv = [command, str(draw(st.just(3) | NUMBERS))]
    if command == "seq":
        argv += last + (mod if draw(st.booleans()) else [])
        if draw(st.booleans()):
            argv += ["--initial", *map(str, draw(st.lists(NUMBERS, min_size=1, max_size=4)))]
    elif command == "lnum":
        argv += last + (mod if draw(st.booleans()) else [])
    elif command == "quat":
        argv += last + ["--r", str(draw(st.sampled_from((-1, 0, 1, 2, 3, 10 ** 7))))]
    elif command == "order":
        argv += mod
    else:
        ladder = ["--ladder", str(draw(st.sampled_from((-3, 1, 2, 3, 7)))),
                  str(draw(st.sampled_from((-1, 0, 1, 3))))]
        # the three modes, or any combination, the ones refused included
        modes = st.sampled_from((mod, mod + ["--state"], ladder))
        combos = st.tuples(*[st.sampled_from(([], part)) for part in (mod, ["--state"], ladder)])
        argv += draw(modes | combos.map(lambda parts: sum(parts, [])))
    return argv


def exit_code_and_stderr(argv) -> tuple[int, str]:
    """main(argv) in-process; argparse's exit as a code.  A run that ends
    in exit 2 or 3 must have printed nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's usage errors
            code = exc.code
    assert code not in (2, 3) or out.getvalue() == "", (argv, code, out.getvalue()[:200])
    return code, err.getvalue()


def is_one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def assert_a_defined_end(argv, code: int, err: str) -> None:
    assert code in (0, 1, 2, 3), (argv, code)
    if err.startswith("usage: "):
        assert code == 2 and re.match(r"recurra( [\w-]+)?: error: ", err.splitlines()[-1]), (
            argv, err)
    else:
        assert err == "" or is_one_error_line(err), (argv, err)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_argv())
def test_every_argv_ends_with_an_exit_code_and_at_most_one_error_line(argv):
    assert_a_defined_end(argv, *exit_code_and_stderr(argv))


# verify's flags: every suite, unknown ones, seeds of any size, and a budget
# from the flag or the variable, never the 60 s default.  The budgets that
# parse are at most 1 ms, so that no run goes much past the first check of
# a suite; the others ("5 ms" among them) are refused, or overflow.
BUDGETS = ("0", "0ms", "0s", "1", "1ms", "nan", "nans", "inf", "1e400s", "-1", "-0.5s", "",
           "abc", "5 ms", "1e3ms", "1.5")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(suite=st.sampled_from((*cli.SUITE_NAMES, "all", "nope", "")),
       seed=st.sampled_from((0, 1, -1, 2 ** 63, -10 ** 30)),
       budget=st.sampled_from(BUDGETS), from_env=st.booleans())
def test_every_verify_argv_ends_with_an_exit_code_and_at_most_one_error_line(
        suite, seed, budget, from_env):
    argv = ["verify", "--suite", suite, "--seed", str(seed)]
    if from_env:
        env = {"RECURRA_BUDGET_MS": budget}
    else:
        env = {}
        argv.append(f"--budget={budget}")   # "-0.5s" after a space reads as an option
    with mock.patch.dict(os.environ, env):
        code, err = exit_code_and_stderr(argv)
    assert_a_defined_end((argv, env), code, err)


# The same contract for the cipher commands, whose input is in files and
# on stdin: keys of any shape, alphabets that do or do not fit them.  About
# half of the runs draw only a usable key, a fitting alphabet and a text of
# its symbols, so that the commands' success paths are drawn as often.
@st.composite
def key_file(draw, n_mod: int, usable: bool) -> bytes:
    def pick(good, bad):
        return draw(st.sampled_from(good if usable else good + bad))

    kind = pick(("key",), ("key", "non-integer", "empty", "non-UTF-8"))
    if kind == "empty":
        return b""
    if kind == "non-UTF-8":
        return b"\xff\xfe2 27 1 1 1\n"
    k = pick((2, 3), (1,))
    # a unit, zero, or a non-unit mod N (3 shares a factor with 27, 2 with 2 and 256)
    a_k = pick((1,), (0, 3 if n_mod == 27 else 2))
    tokens = [k, n_mod, *draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1)),
              a_k, pick((1, 10 ** 30), (-5, 0))]
    tokens = list(map(str, tokens))
    if kind == "non-integer":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(("x", "1.5")))
    return (" ".join(tokens) + "\n").encode()


@st.composite
def cipher_run(draw) -> tuple[list[str], bytes, bytes | None, str]:
    usable = draw(st.booleans())
    n_mod = draw(st.sampled_from((2, 27, 256) if usable else (0, 1, 2, 27, 256)))
    command = draw(st.sampled_from(("encrypt", "decrypt", "validate-key")))
    flags = {"decrypt": ["--strip-pad"], "validate-key": ["--normalize"]}.get(command, [])
    argv = [command, *draw(st.sampled_from(([], flags)))]
    symbols = [chr(0x100 + i) for i in range(n_mod)]
    if usable:
        pad = draw(st.sampled_from(([], ["pad=\u0100"])))
        alphabet = None if n_mod == 27 and draw(st.booleans()) else "\n".join(pad + symbols)
        text = st.sampled_from(list(DEFAULT_SYMBOLS) if alphabet is None else symbols)
    else:                               # repeated symbols, multi-character and blank lines
        lines = draw(st.just(symbols) | st.lists(
            st.sampled_from(("A", "B", "AB", "", " ", "\u0100")), max_size=5))
        pad = draw(st.sampled_from(([], ["pad=\u0100"], ["pad=A"], ["pad=Z"], ["pad="])))
        alphabet = draw(st.sampled_from((None, "\n".join(pad + lines))))
        text = st.sampled_from(("A", "B", "*", "\u0100", "\u0101", "\u00e9", "\u00fc"))
    if alphabet is not None and command != "validate-key":
        alphabet = (alphabet + draw(st.sampled_from(("", "\n")))).encode()
    else:
        alphabet = None
    stdin = "".join(draw(st.lists(text, max_size=12))) + draw(st.sampled_from(("", "\n")))
    return argv, draw(key_file(n_mod, usable)), alphabet, stdin


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cipher_run())
def test_every_cipher_run_ends_with_an_exit_code_and_at_most_one_error_line(run_):
    argv, key, alphabet, stdin = run_
    with tempfile.TemporaryDirectory() as tmp:
        files = {"--key": key} if alphabet is None else {"--key": key, "--alphabet": alphabet}
        for flag, content in files.items():
            argv = [*argv, flag, os.path.join(tmp, flag.lstrip("-"))]
            with open(argv[-1], "wb") as fh:
                fh.write(content)
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            code, err = exit_code_and_stderr(argv)
    assert code in (0, 1, 2, 3), (run_, code)
    assert err == "" or is_one_error_line(err), (run_, err)
