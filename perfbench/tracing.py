"""Spans and counts around recurra's public functions, for the traced run.

install() wraps every public function of the library modules, the Matrix
and Quaternion methods, and verify's suites, and patches each wrapper into
every recurra module namespace that holds the original (cipher imports
matrix_order and Matrix by name, quaternions imports l_terms, and so on).
A span records its name, start, end, parent span and op id; spans stay in
memory and dump() writes them out.  Counts are taken in the same wrappers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
import time
from array import array
from collections import Counter

MODULES = ("ringcore", "recurrence", "pisano", "cipher", "lnumbers", "quaternions", "verify")
METHODS = {
    ("ringcore", "Matrix"): ("__init__", "__add__", "__sub__", "scale", "__matmul__",
                             "apply", "__pow__", "det", "adjugate", "inverse", "reduce"),
    ("quaternions", "Quaternion"): ("__add__", "__sub__", "__neg__", "scale", "__mul__",
                                    "conjugate", "trace", "norm", "inverse", "is_unit"),
}


class Tracer:
    """Spans of one process, in the order they were opened."""

    def __init__(self, op_id: int = -1):
        self.op_id = op_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        target = self._ids.get(name)
        return any(self.name[i] == target for i in self.stack[1:])

    def dump(self, path: str) -> None:
        """One JSON header line, then the five span arrays as raw bytes."""
        header = {"names": self.names, "counts": dict(self.counts), "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)


def load(path: str) -> Tracer:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        tracer = Tracer()
        for name in header["names"]:
            tracer.name_id(name)
        tracer.counts.update(header["counts"])
        n = header["spans"]
        for arr in (tracer.name, tracer.start, tracer.end, tracer.parent, tracer.op):
            arr.fromfile(fh, n)
    return tracer


def wrap(tracer: Tracer, name: str, fn, hook=None):
    """fn inside a span; hook(tracer, args, result_or_exception) sees each call."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(i)
            if hook is not None:
                hook(tracer, args, exc)
            raise
        except BaseException:       # SystemExit from argparse, KeyboardInterrupt
            tracer.close(i)
            raise
        tracer.close(i)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper


# -- counts ----------------------------------------------------------------------

def _order_hook(tracer, args, result):
    c = tracer.counts
    c["pisano.order_attempted"] += 1
    if isinstance(result, Exception):
        c["pisano.cap_exceeded"] += type(result).__name__ == "CapExceeded"
    else:
        c["pisano.order_sum"] += result
        c["pisano.order_completed"] += 1


def _state_hook(tracer, args, result):
    if not isinstance(result, Exception):
        tracer.counts["pisano.state_windows"] += result.tail + result.period


def _l_terms_hook(tracer, args, result):
    if not isinstance(result, Exception):
        tracer.counts["lnumbers.terms_generated"] += len(result)
        if tracer.inside("quaternions.invertibility_census"):
            tracer.counts["quaternions.census_terms"] += len(result)


def _census_hook(tracer, args, result):
    if not isinstance(result, Exception):
        tracer.counts["quaternions.census_useful"] += len(result.records) + 3


def _encode_hook(tracer, args, result):
    tracer.counts["cipher.chars"] += len(args[1])


_CAPPED = re.compile(r"(\d+) capped")
_CROSS_CHECKED = re.compile(r"on (\d+)/(\d+) keys")


def _suites_hook(tracer, args, result):
    """Cases a verify check skipped: capped walks, and keys whose literal
    period was not walked."""
    if isinstance(result, Exception):
        return
    for check in result:
        if m := _CAPPED.search(check.detail):
            tracer.counts["verify.cases_skipped"] += int(m[1])
        if m := _CROSS_CHECKED.search(check.detail):
            tracer.counts["verify.cases_skipped"] += int(m[2]) - int(m[1])


HOOKS = {
    "pisano.matrix_order": _order_hook,
    "pisano.state_period": _state_hook,
    "lnumbers.l_terms": _l_terms_hook,
    "quaternions.invertibility_census": _census_hook,
    "cipher.encode_text": _encode_hook,
    "verify.run_suites": _suites_hook,
}


def install(tracer: Tracer) -> None:
    mods = {name: importlib.import_module(f"recurra.{name}") for name in MODULES}
    importlib.import_module("recurra.cli")
    namespaces = [m for n, m in sys.modules.items() if n == "recurra" or n.startswith("recurra.")]
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapper = wrap(tracer, name, fn, HOOKS.get(name))
            for ns in namespaces:
                for other, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, other, wrapper)
    for (short, cls_name), methods in METHODS.items():
        cls = getattr(mods[short], cls_name)
        for meth in methods:
            setattr(cls, meth, wrap(tracer, f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
    suites = mods["verify"].SUITES
    for suite, fn in list(suites.items()):
        suites[suite] = wrap(tracer, f"verify.suite_{suite}", fn)


# -- analysis --------------------------------------------------------------------

def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans are in the order they were opened, so each parent's children come
    by start time; overlapping children count once, and a child's part
    outside its parent does not count.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n     # latest end of the children seen so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(tracers) -> tuple[Counter, Counter, Counter, Counter]:
    """(calls, self seconds, total seconds) per span name, and the counts,
    over the spans of several processes."""
    calls, self_s, total_s, counts = Counter(), Counter(), Counter(), Counter()
    for tracer in tracers:
        own = self_times(tracer.start, tracer.end, tracer.parent)
        for i, nid in enumerate(tracer.name):
            name = tracer.names[nid]
            calls[name] += 1
            self_s[name] += own[i]
            total_s[name] += tracer.end[i] - tracer.start[i]
        counts.update(tracer.counts)
    return calls, self_s, total_s, counts


GROUPS = {
    "ringcore.matmul": ("ringcore.Matrix.__matmul__",),
    "ringcore.matrix_init": ("ringcore.Matrix.__init__",),
    "ringcore.pow": ("ringcore.Matrix.__pow__",),
    "ringcore.det": ("ringcore.Matrix.det", "ringcore.Matrix.adjugate",
                     "ringcore.Matrix.inverse"),
    "ringcore.order_int": ("ringcore.multiplicative_order_int",),
    "recurrence.term_mod": ("recurrence.term_mod",),
    "recurrence.term": ("recurrence.term",),
    "recurrence.terms": ("recurrence.terms", "recurrence.terms_mod"),
    "recurrence.term_negative": ("recurrence.term_negative",),
    "recurrence.identity_check": ("recurrence.power_structure_check",
                                  "recurrence.state_step_check", "recurrence.window_det",
                                  "recurrence.bordered_det", "recurrence.addition_formula"),
    "pisano.matrix_order": ("pisano.matrix_order",),
    "pisano.state_period": ("pisano.state_period",),
    "pisano.ladder": ("pisano.prime_power_ladder",),
    "pisano.diag": ("pisano.diagonalizable_mod_p",),
    "cipher.encode": ("cipher.encode_text",),
    "cipher.decode": ("cipher.decode_text",),
    "cipher.encrypt": ("cipher.encrypt_text", "cipher.encrypt"),
    "cipher.decrypt": ("cipher.decrypt_text", "cipher.decrypt"),
    "cipher.normalize": ("cipher.normalize_exponent",),
    "lnumbers.l_terms": ("lnumbers.l_terms",),
    "lnumbers.l_term": ("lnumbers.l_term",),
    "quaternions.census": ("quaternions.invertibility_census",),
    "quaternions.mul": ("quaternions.Quaternion.__mul__",),
}

# (metric, unit, better): the per-layer metrics, in BENCHMARK.json's order.
PER_LAYER = [
    ("ringcore.matmul_calls", "count", "lower"),
    ("ringcore.matmul_self_s", "s", "lower"),
    ("ringcore.matrix_init_calls", "count", "lower"),
    ("ringcore.matrix_init_self_s", "s", "lower"),
    ("ringcore.pow_calls", "count", "lower"),
    ("ringcore.pow_self_s", "s", "lower"),
    ("ringcore.det_self_s", "s", "lower"),
    ("ringcore.order_int_calls", "count", "lower"),
    ("ringcore.order_int_self_s", "s", "lower"),
    ("recurrence.term_mod_calls", "count", "lower"),
    ("recurrence.term_mod_self_s", "s", "lower"),
    ("recurrence.term_calls", "count", "lower"),
    ("recurrence.term_self_s", "s", "lower"),
    ("recurrence.terms_calls", "count", "lower"),
    ("recurrence.terms_self_s", "s", "lower"),
    ("recurrence.term_negative_self_s", "s", "lower"),
    ("recurrence.identity_check_self_s", "s", "lower"),
    ("pisano.matrix_order_calls", "count", "lower"),
    ("pisano.matrix_order_self_s", "s", "lower"),
    ("pisano.order_sum", "count", "lower"),
    ("pisano.state_period_calls", "count", "lower"),
    ("pisano.state_period_self_s", "s", "lower"),
    ("pisano.state_windows", "count", "lower"),
    ("pisano.cap_exceeded", "count", "lower"),
    ("pisano.order_completed_ratio", "ratio", "higher"),
    ("pisano.ladder_self_s", "s", "lower"),
    ("pisano.diag_self_s", "s", "lower"),
    ("cipher.encode_self_s", "s", "lower"),
    ("cipher.decode_self_s", "s", "lower"),
    ("cipher.encrypt_self_s", "s", "lower"),
    ("cipher.decrypt_self_s", "s", "lower"),
    ("cipher.normalize_self_s", "s", "lower"),
    ("cipher.chars", "count", "higher"),
    ("lnumbers.l_terms_calls", "count", "lower"),
    ("lnumbers.l_terms_self_s", "s", "lower"),
    ("lnumbers.terms_generated", "count", "lower"),
    ("lnumbers.l_term_self_s", "s", "lower"),
    ("quaternions.census_self_s", "s", "lower"),
    ("quaternions.census_terms_useful_ratio", "ratio", "higher"),
    ("quaternions.mul_calls", "count", "lower"),
    ("quaternions.mul_self_s", "s", "lower"),
    ("verify.suite_matrix_s", "s", "lower"),
    ("verify.suite_pisano_s", "s", "lower"),
    ("verify.suite_lnum_s", "s", "lower"),
    ("verify.suite_quat_s", "s", "lower"),
    ("verify.suite_cipher_s", "s", "lower"),
    ("verify.cases_skipped", "count", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.nonzero_exits", "count", "lower"),
    ("cli.killed", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(calls: Counter, self_s: Counter, total_s: Counter,
                  counts: Counter) -> dict[str, float]:
    """Every span-derived per-layer metric; the run adds the CLI and
    overhead ones, which come from outside the spans."""
    out: dict[str, float] = {}
    for group, names in GROUPS.items():
        out[f"{group}_calls"] = sum(calls[n] for n in names)
        out[f"{group}_self_s"] = sum(self_s[n] for n in names)
    for suite in ("matrix", "pisano", "lnum", "quat", "cipher"):
        out[f"verify.suite_{suite}_s"] = total_s[f"verify.suite_{suite}"]
    for name in ("pisano.order_sum", "pisano.state_windows", "pisano.cap_exceeded",
                 "cipher.chars", "lnumbers.terms_generated", "verify.cases_skipped"):
        out[name] = counts[name]
    out["pisano.order_completed_ratio"] = _ratio(counts["pisano.order_completed"],
                                                 counts["pisano.order_attempted"])
    out["quaternions.census_terms_useful_ratio"] = _ratio(
        counts["quaternions.census_useful"], counts["quaternions.census_terms"])
    out["cli.self_s"] = self_s["cli.main"]
    return out
