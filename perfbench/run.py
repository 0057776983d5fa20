"""End-to-end and per-layer benchmark of the spinscatter scan / critical / point pipeline.

Run from the root of a checkout (standard library only; the program is used
from ./src as it is):

    python3 perfbench/run.py --workload scan-csv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in fresh interpreters started one at a time (worker.py).
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer ones.  A readable report comes first; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}.  The full
result, with run metadata, also goes to <results>/<workload>-seed<n>-trace<t>.json,
which compare.py reads.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import parse_importtime  # noqa: E402

# Same as workloads.NAMES; this process never imports workloads.py, which imports the program.
NAMES = ("scan-csv", "scan-json", "critical-solve", "point-cold")
# Fresh interpreters per run whose set-up is timed: half before the measured
# worker, half after it, so the median spans the run's drift in host speed.
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3  # `python -X importtime` probes per traced run
RUN_BUDGET_S = 170.0  # every run ends within 180 s

E2E_UNITS = {"setup_s": "s", "op_cost_ref_p50": "ref", "peak_rss_mb": "MB"}
LAYER_UNITS = {"import.numpy_s": "s", "import.spinscatter_s": "s", "trace.overhead": "ratio"}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("self_s_per_op"):
        return "s"
    if name.endswith("bytes_per_row"):
        return "B"
    return "count"


class RunFailed(Exception):
    pass


def _kill(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def spawn_worker(workload, args, env, workdir, deadline, extra=()):
    """Start worker.py; return (wall and CPU seconds until READY, its stdout after READY)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir, *extra,
    ]
    t0 = time.perf_counter()
    # Unbuffered, so reading the READY line takes nothing that follows it.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=env) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
            line = proc.stdout.readline() if ready else b""
            wall = time.perf_counter() - t0
            if not line.startswith(b"READY "):
                _kill(proc)
                raise RunFailed(f"{workload} worker did not get ready (exit {proc.returncode})")
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            _kill(proc)
            raise RunFailed(f"{workload} worker ran past the time budget") from None
        except BaseException:
            if proc.poll() is None:
                _kill(proc)
            raise
    if proc.returncode != 0:
        raise RunFailed(f"{workload} worker exited with status {proc.returncode}")
    return wall, float(line.split()[1]), out.decode()


def import_split(env, deadline):
    """Median (numpy_s, spinscatter_s) over fresh `python -X importtime` probes."""
    numpy_s, own_s = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import spinscatter.cli"],
            capture_output=True, text=True, env=env, timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0:
            raise RunFailed(f"import probe failed: {proc.stderr.strip()[-200:]}")
        a, b = parse_importtime(proc.stderr)
        numpy_s.append(a)
        own_s.append(b)
    return statistics.median(numpy_s), statistics.median(own_s)


def percentile(values, q):
    """Nearest-rank percentile; None below 10 samples beyond it."""
    ordered = sorted(values)
    if len(values) * (1.0 - q) < 10.0:
        return None
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload, args, env):
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.abspath(args.results)
    os.makedirs(workdir, exist_ok=True)

    def setup_only(samples):
        return [spawn_worker(workload, args, env, workdir, deadline, ("--setup-only",))[:2] for _ in range(samples)]

    setups = []  # (wall, CPU) seconds until READY
    if not args.trace:
        setups += setup_only((SETUP_SAMPLES - 1) // 2)
    else:
        numpy_s, own_s = import_split(env, deadline)
    wall, cpu, out = spawn_worker(workload, args, env, workdir, deadline)
    setups.append((wall, cpu))
    if not args.trace:
        setups += setup_only(SETUP_SAMPLES - len(setups))
    raw = json.loads(out.strip().splitlines()[-1])

    latencies = raw["latencies"]
    attempted = len(latencies) + len(raw.get("traced_latencies", []))
    failed = len(raw["failures"])
    ops_per_s = len(latencies) / sum(latencies)
    extra = {
        "setup_wall_s": statistics.median(w for w, _ in setups),
        "op_cpu_s_p50": statistics.median(raw["cpu_times"]),
        "reference_cpu_s_p50": statistics.median(raw["reference_cpu_times"]),
        "op_s_p50": statistics.median(latencies),
        "ops_per_s": ops_per_s,
        "op_s_p90": percentile(latencies, 0.9),
        "failed_share": failed / attempted,
        "rows_per_s": ops_per_s * raw["rows_per_op"] if raw["rows_per_op"] else None,
    }
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(c for _, c in setups),
            "op_cost_ref_p50": statistics.median(
                c / r for c, r in zip(raw["cpu_times"], raw["reference_cpu_times"])
            ),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = E2E_UNITS
    else:
        metrics = dict(raw["layers"])
        metrics["import.numpy_s"] = numpy_s
        metrics["import.spinscatter_s"] = own_s
        units = {name: layer_unit(name) for name in metrics}
    result = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "samples": {"ops": len(latencies), "setup_s": len(setups)},
        "setup_samples_s": setups,
        "metrics": metrics,
        "units": units,
        "extra": extra,
        "failures": raw["failures"][:5],
        "absent": raw.get("absent", []),
        "golden": raw.get("golden"),
        "probes": raw.get("probes", {}),
    }
    path = os.path.join(workdir, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result) -> None:
    r = result
    print(f"== {r['workload']}  seed={r['seed']}  seconds={r['seconds']}  trace={r['trace']}")
    print(f"   git {r['git_sha'][:12]}  python {r['python']}  numpy {r['numpy']}  nproc {r['nproc']}")
    for name, value in r["metrics"].items():
        print(f"   {name:<40} {value:>14.6g} {r['units'][name]}")
    x = r["extra"]
    print("   not gated:")
    print(f"   {'setup_wall_s':<40} {x['setup_wall_s']:>14.6g} s")
    print(f"   {'op_cpu_s_p50':<40} {x['op_cpu_s_p50']:>14.6g} s")
    print(f"   {'reference_cpu_s_p50':<40} {x['reference_cpu_s_p50']:>14.6g} s")
    print(f"   {'op_s_p50':<40} {x['op_s_p50']:>14.6g} s")
    p90 = "n/a (under 100 ops)" if x["op_s_p90"] is None else f"{x['op_s_p90']:.6g} s"
    print(f"   {'op_s_p90':<40} {p90:>14}")
    print(f"   {'ops_per_s':<40} {x['ops_per_s']:>14.6g} 1/s")
    rows = "n/a (no table)" if x["rows_per_s"] is None else f"{x['rows_per_s']:.6g}"
    print(f"   {'rows_per_s':<40} {rows:>14} rows/s")
    print(f"   {'failed_share':<40} {x['failed_share']:>14.6g} ratio  ({r['failed']} of {r['attempted']} ops)")
    print(f"   samples: {r['samples']}")
    for line in r["failures"]:
        print(f"   FAILED {line}")
    for statistics, error in r["probes"].items():
        outcome = "passed" if error is None else f"FAILED, not counted in failed: {error}"
        print(f"   untimed {statistics} probe: {outcome}")
    if r["absent"]:
        print(f"   absent trace names: {', '.join(r['absent'])}")
    for label, g in (r["golden"] or {}).items():
        print(f"   golden `{label}`: {g['bytes']} bytes sha256 {g['sha256']}")


def summary(result) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=".perfbench", help="directory for result and span files")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "spinscatter", "cli.py")):
        print(f"error: no spinscatter sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    # numpy's BLAS pool is never used by this single-threaded program, but its
    # idle threads spin after start-up and add CPU time that varies run to run.
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        OPENBLAS_NUM_THREADS="1",
    )

    results = []
    for workload in NAMES if args.workload == "all" else (args.workload,):
        try:
            results.append(run_workload(workload, args, env))
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(results[-1])
    if len(results) == 1:
        print(json.dumps(summary(results[0])))
    else:
        parts = [summary(r) for r in results]
        print(json.dumps({
            "correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": {f"{r['workload']}.{k}": v for r, p in zip(results, parts) for k, v in p["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
