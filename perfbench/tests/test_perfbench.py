"""Tests of the benchmark harness itself (not of recurra)."""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracle  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import KILLED, Op, Workload  # noqa: E402


def test_same_seed_gives_same_op_list():
    for name, make in workloads.WORKLOADS.items():
        first, second = make(7), make(7)
        assert first.ops == second.ops, name
        assert first.files == second.files, name
    assert workloads.periods(7).ops != workloads.periods(8).ops


def test_percentile_workloads_have_enough_ops():
    assert len(workloads.periods(0).ops) >= 100
    assert len(workloads.sequences(0).ops) >= 100


def test_self_time_on_synthetic_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]), b [5, 6], and two
    # overlapping children c [7, 9] and d [8, 11], d reaching past the root.
    start = [0.0, 1.0, 2.0, 5.0, 7.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 9.0, 11.0]
    parent = [-1, 0, 1, 0, 0, 0]
    root, a, a1, b, c, d = tracing.self_times(start, end, parent)
    assert root == 10.0 - (3.0 + 1.0 + 3.0)       # children cover [1,4] [5,6] [7,10]
    assert a == 3.0 - 1.0
    assert (a1, b, c, d) == (1.0, 1.0, 2.0, 3.0)


def test_trace_file_round_trip(tmp_path):
    tracer = tracing.Tracer(op_id=3)
    outer = tracer.open(tracer.name_id("outer"))
    tracer.close(tracer.open(tracer.name_id("inner")))
    tracer.close(outer)
    tracer.counts["x"] += 2
    path = str(tmp_path / "t.trace")
    tracer.dump(path)
    back = tracing.load(path)
    assert back.names == ["outer", "inner"]
    assert list(back.parent) == [-1, 0] and list(back.op) == [3, 3]
    assert back.counts["x"] == 2


def _fake_passes(count):
    workload = Workload("fake", tuple(Op("recurrence.term", ((1, 1), i)) for i in range(count)), 1.0)
    return workload, [[(0.001 * (i + 1), ops.OK, "") for i in range(count)]]


def test_p90_omitted_below_100_samples():
    workload, passes = _fake_passes(99)
    _, lines = run.end_to_end(workload, passes, [0.1], 10.0)
    assert not any(line.startswith("op_p90_ms") for line in lines)
    workload, passes = _fake_passes(100)
    _, lines = run.end_to_end(workload, passes, [0.1], 10.0)
    assert any(line.startswith("op_p90_ms") for line in lines)


def test_op_past_its_deadline_fails_and_counts_the_deadline(tmp_path):
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    runner = ops.Runner(os.path.dirname(BENCH), str(tmp_path), 0.5, cli_cmd=sleeper)
    elapsed, result = runner.run(0, Op("cli", ("order", "3", "--mod", "7")))
    assert elapsed == 0.5
    assert result.returncode is None
    assert ops.classify(Op("cli", ("order", "3", "--mod", "7")), result)[0] == ops.FAILED
    known = Op("cli", ("order", "3", "--mod", "7"), known_defect=KILLED)
    assert ops.classify(known, result)[0] == ops.KNOWN


def test_oracle_matches_the_readme_cipher_pair():
    labels = [workloads.DEFAULT_SYMBOLS.index(s) for s in "SUCCESS**"]
    out = oracle.encipher((4, -5, 2), 27, 2, labels, 3)
    assert "".join(workloads.DEFAULT_SYMBOLS[j] for j in out) == "QDSNYCTVS"
    assert oracle.matrix_order((1, 1), 100003) == 200008
    assert oracle.matrix_order((4, -5, 2), 997) == 331004


CHILD = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import ops, tracing
tracer = tracing.Tracer()
tracing.install(tracer)
ops.LIBRARY["quaternions.invertibility_census"](3, 1, 5)
ops.LIBRARY["cipher.normalize_exponent"]((3, 27, 4, -5, 2, 2))
calls, _, _, counts = tracing.summarize([tracer])
print(sorted(calls), counts["pisano.order_sum"])
"""


def test_wrappers_reach_names_imported_by_name():
    # quaternions imports l_terms and cipher imports matrix_order by name;
    # both calls must still open spans.  Runs in a child process, since
    # install() patches recurra's modules for the rest of the process.
    code = CHILD.format(bench=BENCH, src=os.path.join(os.path.dirname(BENCH), "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    for name in ("quaternions.invertibility_census", "lnumbers.l_terms",
                 "cipher.normalize_exponent", "pisano.matrix_order"):
        assert repr(name) in out
    assert out.split()[-1] == "54"     # pi(27) of the README key
