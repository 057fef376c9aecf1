"""recurra's benchmark: run one workload from a seed, check every output,
print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: each op starts when the previous
one has returned, CLI ops run one at a time as subprocesses, and no
threads are used.  The timed phase runs whole passes over the workload's
fixed op list for about --seconds (at least one pass); each op's output is
checked by oracle between ops, outside the timing.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same passes,
then one more with spans around recurra's public functions, and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 3
STARTUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("periods", "sequences", "cipher-stream", "verify-all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="generate the inputs and write their files, then exit "
                        "(the run times this in fresh processes for setup_s)")
    return p.parse_args(argv)


def setup(name: str, seed: int):
    """Build the workload's op list and write its files."""
    import workloads
    import ops  # noqa: F401  (the harness imports, recurra included, are part of set-up)
    workload = workloads.WORKLOADS[name](seed)
    workdir = os.path.join(WORK, name)
    os.makedirs(workdir, exist_ok=True)
    for fname, content in workload.files.items():
        with open(os.path.join(workdir, fname), "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    return workload, workdir


def time_subprocess(cmd: list[str], repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=SRC))
        times.append(time.perf_counter() - start)
    return times


def timed_phase(workload, runner, seconds: float, in_process: bool):
    """Whole passes over the op list while another pass fits in `seconds`.
    Returns [[(seconds, status, note), ...] per pass] and the peak RSS in MB
    after the first pass (later passes reuse memory unevenly)."""
    import ops
    passes, rss_mb = [], None
    while True:
        records = []
        for i, op in enumerate(workload.ops):
            elapsed, result = runner.run(i, op)
            status, note = ops.classify(op, result)
            del result
            records.append((elapsed, status, note))
        passes.append(records)
        rss_mb = rss_mb or peak_rss_mb(in_process)
        pass_times = [sum(r[0] for r in p) for p in passes]
        if sum(pass_times) + statistics.median(pass_times) > seconds:
            return passes, rss_mb


def peak_rss_mb(in_process: bool) -> float:
    """Largest resident set of any process that ran ops, from getrusage
    (kilobytes on Linux).  The harness counts only if it ran library ops."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if in_process:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024


def end_to_end(workload, passes, setup_times, rss_mb) -> tuple[dict, list[str]]:
    """The gated end-to-end metrics, and report lines that carry every
    metric with its unit and sample count.  op_p50_ms is reported, not
    gated: over ten seeds its spread reached 0.21-0.29 on three workloads,
    about twice that of wall_s."""
    import ops
    latencies = [r[0] for p in passes for r in p]
    pass_times = [sum(r[0] for r in p) for p in passes]
    statuses = [r[1] for p in passes for r in p]
    known, unexpected = statuses.count(ops.KNOWN), statuses.count(ops.FAILED)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"setup_s      {metrics['setup_s'][0]:.4f} s   (median of {len(setup_times)} set-ups)",
        f"wall_s       {metrics['wall_s'][0]:.4f} s   (median of {len(passes)} passes "
        f"of {len(workload.ops)} ops)",
        f"op_p50_ms    {statistics.median(latencies) * 1e3:.3f} ms  (n={len(latencies)})",
    ]
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[8] * 1e3
        lines.append(f"op_p90_ms    {p90:.3f} ms  (n={len(latencies)})")
    lines.append(f"failed_frac  {(known + unexpected) / len(statuses):.4f} ratio "
                 f"({known + unexpected}/{len(statuses)}: {known} known defects, "
                 f"{unexpected} unexpected)")
    lines.append(f"peak_rss_mb  {rss_mb:.1f} MB")
    for direction in ("encrypt", "decrypt"):
        chosen = [(len(workload.files[op.stdin]), r[0]) for p in passes
                  for op, r in zip(workload.ops, p) if op.args[0] == direction]
        if chosen:
            rate = sum(c for c, _ in chosen) / sum(t for _, t in chosen)
            lines.append(f"{direction}_chars_per_s {rate:.0f} chars/s (n={len(chosen)} calls)")
    return metrics, lines


def report_failures(workload, passes) -> list[str]:
    import ops
    lines = []
    for op, (elapsed, status, note) in zip(workload.ops, passes[0]):
        if status != ops.OK:
            what = " ".join(op.args) if op.kind == "cli" else f"{op.kind}{op.args}"
            lines.append(f"{status}: {what[:100]} -> {note[:160]} ({elapsed:.3f} s)")
    return lines


def traced_pass(workload, workdir, untraced_wall: float) -> tuple[dict, list[str], int]:
    """One pass with spans on: the per-layer metrics, report lines, and the
    number of unexpected failures."""
    import ops
    import tracing
    trace_dir = os.path.join(WORK, "trace", workload.name)
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    runner = ops.Runner(ROOT, workdir, workload.deadline_s, trace_dir=trace_dir)
    wall, statuses, runs = 0.0, [], []
    for i, op in enumerate(workload.ops):
        tracer.op_id = i
        elapsed, result = runner.run(i, op)
        wall += elapsed
        statuses.append(ops.classify(op, result)[0])
        runs.append(result if isinstance(result, ops.CliRun) else None)
        del result
    tracer.dump(os.path.join(trace_dir, "harness.trace"))
    tracers = [tracer] + [tracing.load(os.path.join(trace_dir, f))
                          for f in sorted(os.listdir(trace_dir)) if f.startswith("op")]
    metrics = tracing.layer_metrics(*tracing.summarize(tracers))
    startup = time_subprocess([sys.executable, "-c", "import recurra.cli"], STARTUP_REPEATS)
    metrics["cli.startup_ms"] = statistics.median(startup) * 1e3
    metrics["cli.nonzero_exits"] = sum(r is not None and r.returncode not in (0, None)
                                       for r in runs)
    metrics["cli.killed"] = sum(r is not None and r.returncode is None for r in runs)
    metrics["trace.overhead_s"] = wall - untraced_wall
    lines = [f"traced wall_s {wall:.4f} s, untraced {untraced_wall:.4f} s, "
             f"overhead {wall - untraced_wall:.4f} s; {sum(len(t.start) for t in tracers)} "
             f"spans in {trace_dir}"]
    if statuses.count(ops.FAILED):
        lines.append(f"traced pass: {statuses.count(ops.FAILED)} unexpected failures")
    return metrics, lines, statuses.count(ops.FAILED)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "recurra", "__init__.py")):
        print(f"error: recurra's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.set_int_max_str_digits(0)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    import ops
    workload, workdir = setup(args.workload, args.seed)
    runner = ops.Runner(ROOT, workdir, workload.deadline_s)
    in_process = any(op.kind != "cli" for op in workload.ops)
    passes, rss_mb = timed_phase(workload, runner, args.seconds, in_process)
    setup_times = time_subprocess(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"], SETUP_REPEATS)

    metrics, lines = end_to_end(workload, passes, setup_times, rss_mb)
    print(f"workload={workload.name} seed={args.seed} deadline_s={workload.deadline_s}")
    for line in lines + report_failures(workload, passes):
        print("  " + line)
    statuses = [r[1] for p in passes for r in p]
    failed = statuses.count(ops.FAILED)
    attempted = len(statuses)
    if args.trace:
        import tracing
        layer, trace_lines, traced_failed = traced_pass(workload, workdir, metrics["wall_s"][0])
        for line in trace_lines:
            print("  " + line)
        failed += traced_failed
        attempted += len(workload.ops)
        out = {name: {"value": layer[name], "unit": unit}
               for name, unit, _ in tracing.PER_LAYER}
    else:
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
