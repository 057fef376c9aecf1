import io
import os
import random
import subprocess
import sys

import pytest

from recurra import cli
from recurra.cipher import Alphabet, CipherKey, encrypt_text
from recurra.cli import main
from recurra.quaternions import QuatAlgebra

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
    # limit; the widest term is converted first, so the error comes after a
    # single conversion instead of ~20000
    conversions = []

    def counting_str(x):
        conversions.append(x)
        return str(x)

    monkeypatch.setattr(cli, "str", counting_str, raising=False)
    for argv in (("seq", "1", "1", "--n", "21000"), ("lnum", "1", "--n", "21000")):
        conversions.clear()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: Exceeds the limit (4300 digits)"), argv
        assert len(err.strip().splitlines()) == 1, argv
        assert len(conversions) == 1, argv
    conversions.clear()
    code, out, _ = run(capsys, "seq", "1", "1", "--n", "10")
    assert code == 0 and out == "0 1 1 2 3 5 8 13 21 34 55\n"
    assert len(conversions) == 12       # the widest term, then all eleven


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


def test_cli_encrypt_decrypt_round_trip_on_a_long_stdin(tmp_path):
    rng = random.Random(163)
    latin = Alphabet(tuple(chr(0x100 + i) for i in range(256)), chr(0x1FF))
    (tmp_path / "latin.txt").write_text("pad=\u01ff\n" + "\n".join(latin.symbols) + "\n",
                                        encoding="utf-8")
    cases = ((CipherKey(3, 27, (4, -5, 2), 987654321), Alphabet.default(), ()),
             (CipherKey(5, 256, (83, 210, 158, 229, 3), 828352265730872686), latin,
              ("--alphabet", "latin.txt")))
    for key, alpha, alpha_args in cases:
        (tmp_path / "key.txt").write_text(key.to_line() + "\n")
        plain = "".join(rng.choices(alpha.symbols, k=100_001))
        padded = plain + alpha.pad * (-len(plain) % key.k)
        ct = run_cli("encrypt", "--key", "key.txt", *alpha_args, stdin=plain, cwd=tmp_path)
        assert ct == encrypt_text(key, alpha, plain) + "\n"
        pt = run_cli("decrypt", "--key", "key.txt", *alpha_args, stdin=ct, cwd=tmp_path)
        assert pt == padded + "\n"
