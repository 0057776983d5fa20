"""Report-only comparison of two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the <workload>-seed<n>-trace<t>.json files that run.py
writes.  For every workload and metric found in both sets this prints the
median and quartiles of each side, the sample counts, and the ratio of the
medians (new / base).  It gates nothing and always exits 0 after reading
both sets.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(directory: str) -> dict:
    """{(workload, trace): {metric: [values]}} over every result file."""
    groups: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*-trace*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        values = groups.setdefault((result["workload"], result["trace"]), {})
        numbers = dict(result["metrics"])
        numbers.update(result["extra"])
        for name, value in numbers.items():
            if isinstance(value, (int, float)):
                values.setdefault(name, []).append(float(value))
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':<16} {'t':>1} {'metric':<38} {'base median [q1, q3] (n)':>38} {'new median [q1, q3] (n)':>38} {'new/base':>9}")
    for key in sorted(base.keys() & new.keys()):
        for name in sorted(base[key].keys() & new[key].keys()):
            b, n = base[key][name], new[key][name]
            bq, nq = quartiles(b), quartiles(n)
            ratio = f"{nq[1] / bq[1]:.4f}" if bq[1] else "n/a"
            left = f"{bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] ({len(b)})"
            right = f"{nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] ({len(n)})"
            print(f"{key[0]:<16} {key[1]:>1} {name:<38} {left:>38} {right:>38} {ratio:>9}")
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]} trace={key[1]}: only in {'base' if key in base else 'new'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
