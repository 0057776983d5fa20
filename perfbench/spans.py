"""In-memory span tracer for the traced runs of the benchmark.

A span is (layer, start, end, parent span, op id), times from
``time.perf_counter_ns``.  Spans live in flat ``array('q')`` columns while a
run goes on and are written out once, when it ends.

Tracing works from outside the program: it replaces the names each module
boundary exposes to its caller (``spinscatter.cli.normalize``,
``spinscatter.bell.bell_F``, the provider ``parse_interaction`` returns, ...)
with timing wrappers around the original objects, so the program's own code
path runs.  A name that no longer exists is recorded as absent and skipped.

Run as a script, the module is the bootstrap for one traced CLI process:

    python perfbench/spans.py SPANS_BASE point 1.0 --format json

runs ``spinscatter.cli.main`` on the remaining arguments with tracing on and
writes the spans to SPANS_BASE.json / SPANS_BASE.bin.
"""

from __future__ import annotations

import array
import importlib
import json
import re
import sys
import time

OP = "op"  # the benchmark's root span around one op

LAYERS = (
    "amplitudes.provider",
    "amplitudes.normalize",
    "spin_states",
    "entanglement",
    "bell.F",
    "bell.critical",
    "cli.parse",
    "cli.evaluate",
    "cli.render",
    "cli.write",
)

# (module, attribute, layer): the names callers look up at call time.
TARGETS = (
    ("spinscatter.cli", "build_parser", "cli.parse"),
    ("spinscatter.cli", "parse_interaction", "cli.parse"),
    ("spinscatter.cli", "ScanConfig", "cli.parse"),
    ("spinscatter.cli", "scan_records", "cli.evaluate"),
    ("spinscatter.cli", "evaluate_angle", "cli.evaluate"),
    ("spinscatter.cli", "normalize", "amplitudes.normalize"),
    ("spinscatter.cli", "outgoing_state", "spin_states"),
    ("spinscatter.cli", "slater_decomposition", "spin_states"),
    ("spinscatter.cli", "slater_rank", "spin_states"),
    ("spinscatter.cli", "entropy_of_state", "entanglement"),
    ("spinscatter.cli", "bell_F", "bell.F"),
    ("spinscatter.cli", "critical_angle", "bell.critical"),
    ("spinscatter.cli", "render", "cli.render"),
    ("spinscatter.cli", "_emit", "cli.write"),
    ("spinscatter.bell", "normalize", "amplitudes.normalize"),
    ("spinscatter.bell", "bell_F", "bell.F"),
    ("spinscatter.bell", "critical_angle", "bell.critical"),
    ("spinscatter", "critical_angle", "bell.critical"),
)

FIELDS = ("layer", "start", "end", "parent", "op")


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.columns = {f: array.array("q") for f in FIELDS}
        self.stack = [-1]
        self.op_id = -1
        self.render_bytes = 0
        self.render_rows = 0
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.columns["layer"])

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, fn, layer: str):
        """Return fn wrapped so that each call records one span of the layer."""
        lid = self._layer_id(layer)
        c = self.columns
        lay, start, end, parent, op = c["layer"], c["start"], c["end"], c["parent"], c["op"]
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(lay)
            lay.append(lid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn):
        """Call fn under the root span of op op_id."""
        self.op_id = op_id
        return self.wrap(fn, OP)()

    def _adapt(self, attr: str, fn):
        # Names whose results carry further boundaries get a small adapter.
        if attr == "parse_interaction":
            def adapted(*args, **kwargs):
                return self.wrap(fn(*args, **kwargs), "amplitudes.provider")
        elif attr == "build_parser":
            def adapted(*args, **kwargs):
                parser = fn(*args, **kwargs)
                parser.parse_args = self.wrap(parser.parse_args, "cli.parse")
                return parser
        elif attr == "render":
            def adapted(records, *args, **kwargs):
                text = fn(records, *args, **kwargs)
                self.render_bytes += len(text.encode())
                self.render_rows += len(records)
                return text
        else:
            return fn
        return adapted

    def install(self, targets=TARGETS) -> None:
        """Replace each target name with its traced wrapper."""
        for module_name, attr, layer in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(self._adapt(attr, original), layer))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every replaced name back."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def dump(self, base: str) -> None:
        """Write the spans to base.json (header) and base.bin (int64 columns)."""
        header = {
            "layers": self.layers,
            "fields": list(FIELDS),
            "count": len(self),
            "absent": self.absent,
            "render_bytes": self.render_bytes,
            "render_rows": self.render_rows,
        }
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(base + ".bin", "wb") as fh:
            for f in FIELDS:
                self.columns[f].tofile(fh)

    def merge(self, base: str, op_id: int) -> None:
        """Append spans dumped by another process, as part of op op_id.

        Its root spans become children of the span open here.
        """
        with open(base + ".json", encoding="utf-8") as fh:
            header = json.load(fh)
        n = header["count"]
        cols = {}
        with open(base + ".bin", "rb") as fh:
            for f in header["fields"]:
                col = array.array("q")
                col.fromfile(fh, n)
                cols[f] = col
        offset = len(self)
        ids = [self._layer_id(name) for name in header["layers"]]
        c = self.columns
        c["layer"].extend(ids[i] for i in cols["layer"])
        c["start"].extend(cols["start"])
        c["end"].extend(cols["end"])
        root = self.stack[-1]
        c["parent"].extend(p + offset if p >= 0 else root for p in cols["parent"])
        c["op"].extend([op_id] * n)
        for name in header["absent"]:
            if name not in self.absent:
                self.absent.append(name)
        self.render_bytes += header["render_bytes"]
        self.render_rows += header["render_rows"]

    def layer_metrics(self) -> dict[str, float]:
        """Per-op self time and call count of every layer, plus derived counts.

        A span's self time is its duration minus the durations of its direct
        children; calls are made one at a time, so children never overlap.
        """
        c = self.columns
        lay, start, end, parent = c["layer"], c["start"], c["end"], c["parent"]
        n = len(lay)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ns = [0] * len(self.layers)
        calls = [0] * len(self.layers)
        for i in range(n):
            self_ns[lay[i]] += dur[i] - child[i]
            calls[lay[i]] += 1

        ids = {name: k for k, name in enumerate(self.layers)}
        ops = calls[ids[OP]] if OP in ids else 0
        per_op = max(ops, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            k = ids.get(layer)
            out[f"{layer}.self_s_per_op"] = (self_ns[k] if k is not None else 0) / 1e9 / per_op
            out[f"{layer}.calls_per_op"] = (calls[k] if k is not None else 0) / per_op

        # Provider calls made inside an outermost bell.critical span, per solve.
        crit = ids.get("bell.critical")
        prov = ids.get("amplitudes.provider")
        solves = inner = 0
        if crit is not None:
            for i in range(n):
                if lay[i] == crit and (parent[i] < 0 or lay[parent[i]] != crit):
                    solves += 1
            if prov is not None:
                for i in range(n):
                    if lay[i] == prov:
                        p = parent[i]
                        while p >= 0 and lay[p] != crit:
                            p = parent[p]
                        inner += p >= 0
        out["bell.provider_calls_per_solve"] = inner / solves if solves else 0.0
        out["cli.render.bytes_per_row"] = self.render_bytes / self.render_rows if self.render_rows else 0.0
        out["trace.absent_names"] = float(len(self.absent))
        return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s+)(\S+)\s*$")


def parse_importtime(stderr: str, top: str = "spinscatter.cli") -> tuple[float, float]:
    """(numpy_s, spinscatter_s) from ``python -X importtime -c 'import <top>'``.

    numpy_s is numpy's cumulative import time; spinscatter_s is the
    cumulative time of the top module minus numpy, i.e. spinscatter itself
    plus the standard-library modules it pulls in.
    """
    cumulative: dict[str, int] = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(4) not in cumulative:
            cumulative[m.group(4)] = int(m.group(2))
    numpy_us = cumulative.get("numpy", 0)
    top_us = cumulative.get(top, cumulative.get("spinscatter", 0))
    return numpy_us / 1e6, max(top_us - numpy_us, 0) / 1e6


def _bootstrap(argv: list[str]) -> int:
    base, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    import spinscatter.cli

    tracer.install()
    tracer.op_id = 0
    code = 1
    try:
        code = spinscatter.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.dump(base)
    return code


if __name__ == "__main__":
    sys.exit(_bootstrap(sys.argv[1:]))
