"""Command-line frontend: sequence terms, periods, the cipher, and the
randomized verification suites.

All numeric output is plain decimal, one value per whitespace-separated
token.  Exit codes:

  0  success; every requested check passed; also a stdout that its
     reader closed early (as `| head` does), which ends the command
     with nothing on stderr
  1  a verify check failed, or the quat census found a zero divisor
  2  bad input or usage: an invalid key, modulus or file, an unknown
     symbol, a negative --budget, an --n below 0 or above sys.maxsize - 4,
     a --r below 1 (argparse's own usage errors exit 2 as well); a value
     past Python's int-to-str digit limit (`seq`, `lnum`, `quat`); also a
     verify worker that died without reporting
  3  an arithmetic failure: a checked identity broke (ArithmeticError),
     a value overflowed (e.g. --budget 1e400s), or a number the period or
     order needs did not factor within the factoring bound, m included
     (`pisano` factors m for the order and for --state, whatever a_k is);
     also a request that ran out of memory (MemoryError), such as
     `quat 3 --r 200 --n 100000` in a 256 MB address space

Codes 2 and 3 print a one-line "error: ..." message on stderr and
nothing on stdout.

`seq` and `lnum` stream their one line: terms come from one recurrence
step (recurrence.stream) and are written in chunks of about CHUNK_CHARS
characters, so memory stays one window and one chunk whatever --n is,
and a stdout closed by its reader stops the command at the next chunk.

`verify` runs each suite in its own forked child, all at once, when it
runs more than one suite on more than one CPU with no other thread.  The
results come back in suite order, and whatever is still running is
killed after the first suite that raised, died or spent the budget, so
the output is the same as running them in turn (see recurra.verify).

Each command imports only the recurra modules it runs; `verify` is the
one that loads them all.  Only `order` (with `ringcore` alone), `pisano`,
`quat`, `validate-key --normalize` and `verify` load the number theory
(`ntheory`: primality, factoring, orders).  No command loads
`dataclasses`, `inspect`, `string` or `fractions`, except that `verify`
loads `fractions`.  `quat` prints the unit census, which still reduces an
exact l_terms prefix but builds no power of l past exactness.
"""
from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

# verify.SUITES and verify.DEFAULT_BUDGET_MS, kept here so that building
# the parser does not import verify (tests hold the two in step)
SUITE_NAMES = ("cipher", "lnum", "matrix", "pisano", "quat")
DEFAULT_BUDGET_MS = 60_000


def _spec_from_args(args):
    from .recurrence import SequenceSpec
    initial = tuple(args.initial) if getattr(args, "initial", None) else None
    return SequenceSpec(tuple(args.coeffs), initial)


def _require_last_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"--n must be >= 0, got {n}")
    if n > sys.maxsize - 4:             # quat reads n + 4 terms
        raise ValueError(f"--n must be <= {sys.maxsize - 4}, got {n}")


# seq and lnum write their line in pieces of about this many characters
CHUNK_CHARS = 1 << 16


def _check_digits(values) -> None:
    """Converts the first of values that Python's int-to-str digit limit
    refuses, so that its ValueError is raised, and converts nothing else:
    the conversion fails exactly when abs(x) >= 10 ** limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        bound = 10 ** limit
        for x in values:
            if not -bound < x < bound:
                str(x)


def _print_prefix(spec, n: int, mod: int | None) -> int:
    """Prints d_0, ..., d_n of spec on one line, reduced mod `mod` when it
    is given, streamed a chunk at a time so that memory stays one window
    and one chunk.  Exact terms are generated twice: the first pass checks
    each term's width, so a term past the digit limit raises its ValueError
    after one conversion and before anything is printed.  Terms mod m have
    fewer digits than m, which was parsed from decimal."""
    from . import recurrence
    if mod is None:
        _check_digits(islice(recurrence.stream(spec), n + 1))
    chunk, size, sep = [], 0, ""
    for token in map(str, islice(recurrence.stream(spec, mod), n + 1)):
        if size >= CHUNK_CHARS:         # flushed only before a further token
            sys.stdout.write(sep + " ".join(chunk))
            chunk, size, sep = [], 0, " "
        chunk.append(token)
        size += len(token) + 1
    sys.stdout.write(sep + " ".join(chunk) + "\n")
    return 0


def _cmd_seq(args) -> int:
    _require_last_index(args.n)
    return _print_prefix(_spec_from_args(args), args.n, args.mod)


def _cmd_pisano(args) -> int:
    from . import pisano
    spec = _spec_from_args(args)
    if args.ladder:
        p, r_max = args.ladder
        print(" ".join(str(v) for v in pisano.prime_power_ladder(spec, p, r_max)))
        return 0
    if args.state:
        result = pisano.state_period(spec, args.mod)
        print(result.tail, result.period)
    else:
        print(pisano.matrix_order(spec, args.mod))
    return 0


def _cmd_order(args) -> int:
    from .ringcore import Residue, multiplicative_order
    print(multiplicative_order(Residue(args.x, args.mod)))
    return 0


def _load_key(path: str):
    from . import cipher
    with open(path, encoding="utf-8") as fh:
        return cipher.CipherKey.from_line(fh.read())


def _load_alphabet(path: str | None):
    from . import cipher
    if path is None:
        return cipher.Alphabet.default()
    with open(path, encoding="utf-8") as fh:
        return cipher.Alphabet.from_text(fh.read())


def _read_text() -> str:
    text = sys.stdin.read()
    return text[:-1] if text.endswith("\n") else text


def _cmd_encrypt(args) -> int:
    from . import cipher
    key = _load_key(args.key)
    alpha = _load_alphabet(args.alphabet)
    sys.stdout.write(cipher.encrypt_text(key, alpha, _read_text()) + "\n")
    return 0


def _cmd_decrypt(args) -> int:
    from . import cipher
    key = _load_key(args.key)
    alpha = _load_alphabet(args.alphabet)
    out = cipher.decrypt_text(key, alpha, _read_text(), strip_pad=args.strip_pad)
    sys.stdout.write(out + "\n")
    return 0


def _cmd_validate_key(args) -> int:
    from . import cipher
    key = _load_key(args.key)
    cipher.validate_key(key)
    if args.normalize:
        key = cipher.normalize_exponent(key)
        print("ok", key.to_line())
    else:
        print("ok")
    return 0


def _cmd_lnum(args) -> int:
    from .lnumbers import LSpec
    _require_last_index(args.n)
    return _print_prefix(LSpec(args.l), args.n, args.mod)


def _cmd_quat(args) -> int:
    from . import quaternions
    if args.r < 1:
        raise ValueError(f"--r must be >= 1, got {args.r}")
    _require_last_index(args.n)
    report = quaternions.invertibility_census(args.l, args.r, args.n)
    _check_digits(chain.from_iterable((*rec.coeffs, rec.norm_mod) for rec in report.records))
    for rec in report.records:
        print(rec.index, *rec.coeffs, rec.norm_mod, "unit" if rec.invertible else "zero-divisor")
    return 0 if report.all_invertible else 1


def _parse_budget(text: str, source: str = "--budget") -> int:
    """Milliseconds, at least 0; accepts a bare count or an 'ms'/'s' suffix
    ('60s').  source names the flag or variable the text came from in the
    error."""
    text = text.strip()
    usage = (f"{source} takes milliseconds (500 or 500ms) or seconds "
             f"with an 's' suffix (60s), got {text!r}")
    try:
        if text.endswith("ms"):
            ms = int(text[:-2])
        elif text.endswith("s"):
            ms = float(text[:-1]) * 1000
        else:
            ms = int(text)
    except ValueError:
        raise ValueError(usage) from None
    if ms < 0:
        raise ValueError(f"{source} must not be negative, got {text!r}")
    if ms != ms:                        # nan
        raise ValueError(usage)
    return int(ms)                      # inf overflows: exit 3


def _cmd_verify(args) -> int:
    from . import verify
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.budget is not None:
        budget = _parse_budget(args.budget)
    elif "RECURRA_BUDGET_MS" in os.environ:
        budget = _parse_budget(os.environ["RECURRA_BUDGET_MS"], "RECURRA_BUDGET_MS")
    else:
        budget = DEFAULT_BUDGET_MS
    results = verify.run_suites(names, args.seed, budget)
    for result in results:
        print(result.line())
    failed = sum(not r.passed for r in results)
    print(f"{'ok' if failed == 0 else 'FAILED'} {len(results) - failed}/{len(results)} checks")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recurra",
        description="Exact k-term recurrences, Pisano periods, a "
                    "recurrence-keyed block cipher, and sequence identities "
                    "over residue rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print d_0..d_n of a recurrence")
    p.add_argument("coeffs", nargs="+", type=int, help="a_1 .. a_k")
    p.add_argument("--n", type=int, required=True, help="last index to print")
    p.add_argument("--initial", nargs="+", type=int,
                   help="initial window d_0..d_{k-1} (default 0,...,0,1)")
    p.add_argument("--mod", type=int, help="reduce all terms mod m")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("pisano", help="period of the recurrence mod m")
    p.add_argument("coeffs", nargs="+", type=int)
    p.add_argument("--mod", type=int, help="modulus m")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--matrix", action="store_true",
                       help="order of the companion matrix (default)")
    group.add_argument("--state", action="store_true",
                       help="print 'tail period' of the state sequence")
    p.add_argument("--ladder", nargs=2, type=int, metavar=("P", "R"),
                   help="print pi(p), pi(p^2), ..., pi(p^R)")
    p.set_defaults(func=_cmd_pisano)

    p = sub.add_parser("order", help="multiplicative order of x mod m")
    p.add_argument("x", type=int)
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("encrypt", help="stdin -> ciphertext on stdout")
    p.add_argument("--key", required=True, help="key file: k N a_1..a_k n")
    p.add_argument("--alphabet", help="alphabet file (default A..Z then *)")
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="stdin -> plaintext on stdout")
    p.add_argument("--key", required=True)
    p.add_argument("--alphabet")
    p.add_argument("--strip-pad", action="store_true",
                   help="drop trailing pad symbols from the output")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("validate-key", help="check a key file")
    p.add_argument("--key", required=True)
    p.add_argument("--normalize", action="store_true",
                   help="also print the key with n reduced mod pi(N)")
    p.set_defaults(func=_cmd_validate_key)

    p = sub.add_parser("lnum", help="print a_0..a_n of the l-number sequence")
    p.add_argument("l", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mod", type=int)
    p.set_defaults(func=_cmd_lnum)

    p = sub.add_parser("quat", help="sequence-quaternion census over Z_{l^r}")
    p.add_argument("l", type=int, help="odd prime")
    p.add_argument("--r", type=int, default=1, help="power of l (default 1)")
    p.add_argument("--n", type=int, required=True, help="largest index")
    p.set_defaults(func=_cmd_quat)

    p = sub.add_parser("verify", help="run randomized property suites")
    p.add_argument("--suite", default="all",
                   choices=[*SUITE_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", default=None, metavar="MS",
                   help="wall-time cap, ms or suffixed like 60s (default "
                        f"RECURRA_BUDGET_MS or {DEFAULT_BUDGET_MS})")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pisano":
        if args.ladder and (args.mod is not None or args.state or args.matrix):
            parser.error("pisano --ladder P R takes no --mod, --state or --matrix")
        if not args.ladder and args.mod is None:
            parser.error("pisano needs --mod (or --ladder P R)")
    try:
        code = args.func(args)
        sys.stdout.flush()      # inside the try, so a closed stdout is caught here
        return code
    except BrokenPipeError:     # the reader closed stdout: stop, as `head` expects
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)     # the exit-time flush then writes nowhere, silently
        os.close(devnull)
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory running {args.command!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
