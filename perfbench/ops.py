"""Running ops against recurra, and checking each result by oracle.

Library ops call a module function; CLI ops run `python -m recurra.cli`
as a subprocess, one at a time, killed at the workload's deadline.  Module
attributes are looked up at call time, so the tracing wrappers that
tracing.install() patches into the modules see every library op.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass

import oracle
from workloads import INT_STR_LIMIT, KILLED, Op
from recurra import cipher, lnumbers, pisano, quaternions, recurrence, ringcore
from recurra.recurrence import SequenceSpec

OK, KNOWN, FAILED = "ok", "known-defect", "failed"
CHECK_PRIMES = (2 ** 61 - 1, 10 ** 9 + 7, 998244353)


def _spec(coeffs) -> SequenceSpec:
    return SequenceSpec(tuple(coeffs))


def _key(line) -> cipher.CipherKey:
    return cipher.CipherKey.from_line(" ".join(map(str, line)))


LIBRARY = {
    "pisano.matrix_order": lambda c, m: pisano.matrix_order(_spec(c), m),
    "pisano.state_period": lambda c, m: pisano.state_period(_spec(c), m).as_tuple(),
    "pisano.prime_power_ladder": lambda c, p, r: pisano.prime_power_ladder(_spec(c), p, r),
    "pisano.diagonalizable_mod_p": lambda c, p: pisano.diagonalizable_mod_p(_spec(c), p),
    "ringcore.multiplicative_order":
        lambda a, m: ringcore.multiplicative_order(ringcore.Residue(a, m)),
    "cipher.normalize_exponent": lambda key: cipher.normalize_exponent(_key(key)).exponent,
    "recurrence.term_mod": lambda c, n, m: recurrence.term_mod(_spec(c), n, m).value,
    "recurrence.term": lambda c, n: recurrence.term(_spec(c), n),
    "recurrence.terms": lambda c, count: recurrence.terms(_spec(c), count),
    "recurrence.terms_mod": lambda c, count, m: recurrence.terms_mod(_spec(c), count, m),
    "recurrence.term_negative": lambda c, n: recurrence.term_negative(_spec(c), n),
    "lnumbers.l_term": lambda l, n: lnumbers.l_term(lnumbers.LSpec(l), n),
    "lnumbers.l_terms": lambda l, count: lnumbers.l_terms(lnumbers.LSpec(l), count),
    "quaternions.invertibility_census":
        lambda l, r, n: quaternions.invertibility_census(l, r, n),
}


def _window(k: int) -> tuple[int, ...]:
    return (0,) * (k - 1) + (1,)


def _l_values(l: int, count: int, m: int) -> list[int]:
    out = [0, 1 % m]
    while len(out) < count:
        out.append((l * out[-1] + out[-2]) % m)
    return out[:count]


def _census_ok(l: int, r: int, n_max: int, report) -> bool:
    mod = l ** r
    a = _l_values(l, n_max + 4, mod * l * l)
    if [rec.index for rec in report.records] != list(range(n_max + 1)):
        return False
    for rec in report.records:
        norm = sum(x * x for x in a[rec.index:rec.index + 4])
        if (rec.norm_mod != norm % mod or not rec.invertible
                or not rec.norm_is_two_mod_l2 or norm % (l * l) != 2):
            return False
    return True


LIBRARY_CHECKS = {
    "pisano.matrix_order": oracle.is_matrix_order,
    "pisano.state_period": lambda c, m, res: oracle.is_state_period(
        c, _window(len(c)), m, *res),
    "pisano.prime_power_ladder": lambda c, p, r, ladder: len(ladder) == r and all(
        oracle.is_matrix_order(c, p ** (i + 1), t) for i, t in enumerate(ladder)),
    "pisano.diagonalizable_mod_p": lambda c, p, res: oracle.is_diagonalization(
        c, p, res.diagonalizable, res.eigenvalues),
    "ringcore.multiplicative_order": oracle.is_unit_order,
    "cipher.normalize_exponent": lambda key, n: n == key[-1] % oracle.matrix_order(
        key[2:-1], key[1]),
    "recurrence.term_mod": lambda c, n, m, v: v == oracle.term_mod(c, _window(len(c)), n, m),
    "recurrence.term": lambda c, n, v: all(
        v % p == oracle.term_mod(c, _window(len(c)), n, p) for p in CHECK_PRIMES),
    "recurrence.terms": lambda c, count, vs: len(vs) == count and oracle.obeys_recurrence(
        vs, c, _window(len(c))),
    "recurrence.terms_mod": lambda c, count, m, vs: len(vs) == count
        and oracle.obeys_recurrence(vs, c, _window(len(c)), m),
    "recurrence.term_negative": lambda c, n, v: v == oracle.term_negative(
        c, _window(len(c)), n),
    "lnumbers.l_term": lambda l, n, v: v == oracle.l_term(l, n),
    "lnumbers.l_terms": lambda l, count, vs: len(vs) == count and oracle.obeys_recurrence(
        vs, (l, 1), (0, 1)),
    "quaternions.invertibility_census": _census_ok,
}


# -- CLI ops -------------------------------------------------------------------

def _cli_args(argv) -> tuple[list[int], dict[str, list[str]]]:
    """Positional integers, then {flag: values} for each --flag."""
    positional, flags, current = [], {}, None
    for tok in argv[1:]:
        if tok.startswith("--"):
            current = flags.setdefault(tok[2:], [])
        elif current is None:
            positional.append(int(tok))
        else:
            current.append(tok)
    return positional, flags


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def _check_seq(argv, out: str) -> bool:
    coeffs, flags = _cli_args(argv)
    n = int(flags["n"][0])
    m = int(flags["mod"][0]) if "mod" in flags else None
    initial = tuple(map(int, flags["initial"])) if "initial" in flags else _window(len(coeffs))
    values = _ints(out)
    return len(values) == n + 1 and oracle.obeys_recurrence(values, coeffs, initial, m)


def _check_lnum(argv, out: str) -> bool:
    (l,), flags = _cli_args(argv)
    n = int(flags["n"][0])
    values = _ints(out)
    if "mod" in flags:
        return values == _l_values(l, n + 1, int(flags["mod"][0]))
    return len(values) == n + 1 and oracle.obeys_recurrence(values, (l, 1), (0, 1))


def _check_quat(argv, out: str) -> bool:
    (l,), flags = _cli_args(argv)
    r, n = int(flags["r"][0]), int(flags["n"][0])
    mod = l ** r
    a = _l_values(l, n + 4, mod)
    lines = [line.split() for line in out.splitlines()]
    if len(lines) != n + 1:
        return False
    for i, fields in enumerate(lines):
        coeffs = a[i:i + 4]
        if fields != [str(i), *map(str, coeffs), str(sum(x * x for x in coeffs) % mod), "unit"]:
            return False
    return True


def _check_pisano(argv, out: str) -> bool:
    coeffs, flags = _cli_args(argv)
    values = _ints(out)
    if "ladder" in flags:
        p, r = map(int, flags["ladder"])
        return len(values) == r and all(
            oracle.is_matrix_order(coeffs, p ** (i + 1), t) for i, t in enumerate(values))
    m = int(flags["mod"][0])
    if "state" in flags:
        return len(values) == 2 and oracle.is_state_period(
            coeffs, _window(len(coeffs)), m, *values)
    return len(values) == 1 and oracle.is_matrix_order(coeffs, m, values[0])


def _check_order(argv, out: str) -> bool:
    (x,), flags = _cli_args(argv)
    return oracle.is_unit_order(x, int(flags["mod"][0]), int(out))


def _check_validate(op: Op, out: str) -> bool:
    key = op.expect
    exponent = key[-1] % oracle.matrix_order(key[2:-1], key[1])
    return out == "ok " + " ".join(map(str, (*key[:-1], exponent))) + "\n"


VERIFY_LAST = re.compile(r"ok (\d+)/(\d+) checks")


def _check_verify(out: str) -> bool:
    lines = out.splitlines()
    last = VERIFY_LAST.fullmatch(lines[-1]) if lines else None
    passed = sum(line.startswith("PASS ") for line in lines[:-1])
    return (last is not None and last[1] == last[2]
            and int(last[1]) == passed == len(lines) - 1)


CLI_CHECKS = {
    "seq": lambda op, out: _check_seq(op.args, out),
    "lnum": lambda op, out: _check_lnum(op.args, out),
    "quat": lambda op, out: _check_quat(op.args, out),
    "pisano": lambda op, out: _check_pisano(op.args, out),
    "order": lambda op, out: _check_order(op.args, out),
    "encrypt": lambda op, out: out == op.expect + "\n",
    "decrypt": lambda op, out: out == op.expect + "\n",
    "validate-key": _check_validate,
    "verify": lambda op, out: _check_verify(out),
}


@dataclass(frozen=True)
class CliRun:
    returncode: int | None      # None: killed at the deadline
    stdout: str
    stderr: str


def run_process(cmd: list[str], stdin_path: str | None, deadline: float,
                env: dict[str, str], cwd: str) -> tuple[float, CliRun]:
    """Run cmd to completion or kill it at the deadline; a killed run
    counts for exactly the deadline."""
    with open(stdin_path or os.devnull, "rb") as stdin:
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdin=stdin, capture_output=True,
                                  timeout=deadline, env=env, cwd=cwd)
        except subprocess.TimeoutExpired:
            return deadline, CliRun(None, "", "")
        seconds = time.perf_counter() - start
    return seconds, CliRun(proc.returncode, proc.stdout.decode("utf-8", "replace"),
                           proc.stderr.decode("utf-8", "replace"))


class Runner:
    """Runs ops one at a time (a closed loop with one client)."""

    def __init__(self, root: str, workdir: str, deadline: float,
                 trace_dir: str | None = None, cli_cmd: list[str] | None = None):
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONIOENCODING="utf-8",
                        PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.workdir, self.deadline = workdir, deadline
        self.trace_dir = trace_dir
        self.cli_cmd = cli_cmd or [sys.executable, "-m", "recurra.cli"]
        self.launcher = os.path.join(root, "perfbench", "launch.py")

    def run(self, index: int, op: Op) -> tuple[float, object]:
        """(seconds, result): the library's return value or the exception it
        raised, or a CliRun."""
        if op.kind == "cli":
            cmd = self.cli_cmd
            if self.trace_dir is not None:
                out = os.path.join(self.trace_dir, f"op{index}.trace")
                cmd = [sys.executable, self.launcher, out, str(index)]
            stdin = os.path.join(self.workdir, op.stdin) if op.stdin else None
            return run_process([*cmd, *op.args], stdin, self.deadline, self.env, self.workdir)
        fn = LIBRARY[op.kind]
        start = time.perf_counter()
        try:
            result = fn(*op.args)
        except Exception as exc:    # a raising op is a failed op, not a harness crash
            result = exc
        return time.perf_counter() - start, result


def classify(op: Op, result) -> tuple[str, str]:
    """(status, note).  A known defect that fails the recorded way is
    KNOWN; any other wrong output, nonzero exit, kill or exception FAILED."""
    if isinstance(result, CliRun):
        if result.returncode is None:
            return (KNOWN if op.known_defect == KILLED else FAILED), "killed at deadline"
        if result.returncode != 0:
            note = f"exit {result.returncode}: {result.stderr.strip()[-200:]}"
            known = (op.known_defect == INT_STR_LIMIT and result.returncode == 2
                     and "Exceeds the limit (4300 digits)" in result.stderr)
            return (KNOWN if known else FAILED), note
        out = result.stdout
        if op.args[0] == "pisano" and op.expect is not None and out.strip() != op.expect:
            return FAILED, f"pinned {op.expect!r}, got {out.strip()[:80]!r}"
        try:
            good = CLI_CHECKS[op.args[0]](op, out)
        except (ValueError, KeyError, IndexError) as exc:
            return FAILED, f"unparsable output: {exc}"
        return (OK, "") if good else (FAILED, f"wrong output {out[:80]!r}")
    if isinstance(result, Exception):
        return FAILED, f"raised {type(result).__name__}: {result}"
    if op.expect is not None and result != op.expect:
        return FAILED, f"pinned {op.expect!r}, got {result!r}"
    good = LIBRARY_CHECKS[op.kind](*op.args, result)
    return (OK, "") if good else (FAILED, f"wrong result {str(result)[:80]}")
