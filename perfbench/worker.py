"""One workload in a fresh interpreter; started by run.py, one at a time.

Imports spinscatter.cli, runs one untimed warm-up op and prints READY with
the CPU seconds spent so far, so the parent can time set-up.  With
--setup-only it stops there.  Otherwise it runs ops one after another (a
closed loop with one client) for the given seconds, records each op's wall
and CPU time and the CPU time of a fixed reference task run between ops,
then checks every output, runs the workload's untimed probe ops, if any, and
prints one JSON object with the raw results as its last line.

With --trace 1 the window is split: the first half runs untraced, then the
same ops run again with the tracer installed, which gives both the
per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import sys
import time

import spans
import workloads

MAX_SPANS = 1_000_000  # about 40 MB of span columns
REFERENCE_SHARE = 0.25  # reference time after an op, as a share of the op's wall time

# The reference task, run in a block after every op, samples the shared
# host's current speed; an op's cost in reference units cancels most of the
# host's swings.  Its code, data and sampling are fixed: changing any of them
# breaks comparison with earlier results.
REFERENCE_ROWS = [
    {"theta": 0.01 + i * 0.003, "f_plus": math.cos(i * 0.003), "f_minus": math.sin(i * 0.003),
     "entropy": 0.1 * i, "F": 1.0 + i * 1e-3, "violated": i % 2 == 0, "slater_rank": 2}
    for i in range(300)
]
GOLDEN_TABLES = {
    "scan": ["scan"],
    "scan --steps 100000": ["scan", "--steps", "100000"],
    "scan --interaction constant:0.6": ["scan", "--interaction", "constant:0.6"],
}


def reference_cpu_s() -> float:
    """CPU seconds of one run of the reference task: float math, dicts and indented JSON."""
    c0 = time.process_time()
    rows = []
    for row in REFERENCE_ROWS:
        c = math.cos(row["theta"])
        scale = math.sqrt(2.0 * (1.0 + c * c))
        rows.append(dict(row, f_plus=(1.0 + c) / scale, f_minus=(1.0 - c) / scale))
    json.dumps(rows, indent=2)
    return time.process_time() - c0


def cpu_s() -> float:
    """CPU seconds (user + system) of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_op(wl, op, cli, tracer) -> tuple[float, float]:
    """Run one op; return its (wall, CPU) seconds.  A failing op is recorded, never fatal."""
    t0, c0 = time.perf_counter(), cpu_s()
    try:
        if tracer is None:
            wl.run(op, cli, None)
        else:
            tracer.run_op(op.index, lambda: wl.run(op, cli, tracer))
    except (Exception, SystemExit) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, cpu_s() - c0


def reference_block(op_wall: float) -> float:
    """Mean CPU seconds per reference run, over at least one run and REFERENCE_SHARE of op_wall."""
    runs, cpu = 0, 0.0
    end = time.perf_counter() + REFERENCE_SHARE * op_wall
    while runs == 0 or time.perf_counter() < end:
        cpu += reference_cpu_s()
        runs += 1
    return cpu / runs


def run_window(wl, cli, seconds):
    """Closed loop: start the next op until the window closes.

    Returns (ops, [(wall, cpu, reference cpu)]); an op's reference is the
    mean of the reference blocks just before and just after it.
    """
    ops, times = [], []
    for _ in range(5):  # the first runs in a fresh interpreter are slow
        reference_cpu_s()
    before = reference_block(0.0)
    begin = time.perf_counter()
    while not ops or time.perf_counter() - begin < seconds:
        ops.append(wl.make_op(len(ops)))
        wall, cpu = timed_op(wl, ops[-1], cli, None)
        after = reference_block(wall)
        times.append((wall, cpu, 0.5 * (before + after)))
        before = after
    return ops, times


def check_ops(wl, ops, label="op"):
    failures = []
    for op in ops:
        error = getattr(op, "error", None)
        if error is None:
            try:
                wl.check(op)
            except workloads.OpFailed as exc:
                error = str(exc)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{label} {op.index}: {error}")
        op.error = None
    return failures


def golden_digests(cli, tmpdir):
    out = {}
    for label, argv in GOLDEN_TABLES.items():
        path = os.path.join(tmpdir, "golden.out")
        code = cli.main([*argv, "--output", path])
        with open(path, "rb") as fh:
            data = fh.read()
        out[label] = {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the op processes of point-cold.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import numpy
    import spinscatter.cli as cli

    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(cli.__file__).startswith(src):
        print(f"error: spinscatter imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tmpdir = os.path.join(args.workdir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        wl = workloads.make(args.workload, rng, tmpdir)
        wl.warmup(cli)
        print(f"READY {cpu_s()!r}", flush=True)
        if args.setup_only:
            return 0

        result = {"numpy": numpy.__version__, "rows_per_op": wl.rows_per_op}
        if not args.trace:
            ops, times = run_window(wl, cli, args.seconds)
            result["peak_rss_mb"] = peak_rss_mb()
            result["failures"] = check_ops(wl, ops)
        else:
            ops, times = run_window(wl, cli, args.seconds / 2.0)
            failures = check_ops(wl, ops)
            tracer = spans.Tracer()
            tracer.install()
            traced = []
            try:
                for op in ops:
                    if traced and len(tracer) >= MAX_SPANS:
                        break
                    traced.append(timed_op(wl, op, cli, tracer)[0])
            finally:
                tracer.uninstall()
            result["failures"] = failures + check_ops(wl, ops[: len(traced)], "traced op")
            result["traced_latencies"] = traced
            result["layers"] = tracer.layer_metrics()
            result["layers"]["trace.overhead"] = sum(traced) / sum(t[0] for t in times[: len(traced)])
            result["absent"] = tracer.absent
            tracer.dump(os.path.join(args.workdir, f"spans-{args.workload}"))
        result["latencies"] = [t[0] for t in times]
        result["cpu_times"] = [t[1] for t in times]
        result["reference_cpu_times"] = [t[2] for t in times]
        if getattr(wl, "probes", ()):
            result["probes"] = wl.run_probes(cli, len(ops))
        if args.trace and args.workload == "scan-csv":
            result["golden"] = golden_digests(cli, tmpdir)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
