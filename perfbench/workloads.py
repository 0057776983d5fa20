"""The four workloads: seeded inputs, how one op runs, and the check of its output.

Every output is checked against closed forms written here, independently of
the program: the normalized pair (Coulomb or constant), the Shannon entropy
of |f_plus|^2 and |f_minus|^2, the Bell combination F for the statistics the
op asked for, F < 1 as the violation flag, and the Slater rank.  A seeded
sample of rows is also checked against the program's Pauli-tensor oracle,
F = 1 + E(b, c).  Roots are checked against their closed forms.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace as Op  # one op's inputs, plus what its check needs

import spinscatter as ss

HALF_PI = math.pi / 2.0
COLUMNS = ("theta", "f_plus", "f_minus", "entropy", "F", "violated", "slater_rank")
CSV_HEADER = ",".join(COLUMNS)

VALUE_TOL = 1e-11  # CSV prints 12 decimals; leaves room for last-ulp changes
BORDER_BAND = 1e-12  # |F - 1| below this: either violation flag is right
RANK_EPS = 1e-12  # slater_rank's default weight threshold
ROOT_SLACK = 1e-15  # F's rounding near a root moves the bisection by ~1e-16
ORACLE_ROWS = 8  # rows per op checked against correlator_oracle
SIGN = {"fermion": -1, "boson": 1}


class OpFailed(Exception):
    """An op raised, exited nonzero, or its output failed a check."""


def coulomb_pair(theta: float) -> tuple[float, float]:
    c = math.cos(theta)
    scale = math.sqrt(2.0 * (1.0 + c * c))
    return (1.0 + c) / scale, (1.0 - c) / scale


def constant_pair(f_plus: float) -> tuple[float, float]:
    return f_plus, math.sqrt(1.0 - f_plus * f_plus)


def interaction_pair(interaction: str):
    if interaction == "coulomb":
        return coulomb_pair
    f_plus = float(interaction.partition(":")[2])
    return lambda theta: constant_pair(f_plus)


def shannon_bits(weights) -> float:
    return -sum(w * math.log2(w) for w in weights if w > 0.0) + 0.0


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy.linspace's grid: lo + i * step, with the last point exactly hi."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def check_row(row: dict, theta: float, pair: tuple[float, float], statistics: str) -> None:
    f_plus, f_minus = pair
    F = 1.25 + 1.5 * SIGN[statistics] * f_plus * f_minus
    expected = {
        "theta": theta,
        "f_plus": f_plus,
        "f_minus": f_minus,
        "entropy": shannon_bits((f_plus * f_plus, f_minus * f_minus)),
        "F": F,
    }
    for key, want in expected.items():
        got = row[key]
        if not abs(got - want) <= VALUE_TOL:
            raise OpFailed(f"{key} = {got!r}, expected {want!r} ({statistics}, theta = {theta!r})")
    if abs(F - 1.0) > BORDER_BAND and row["violated"] != (F < 1.0):
        raise OpFailed(f"violated = {row['violated']!r} with F = {F!r} at theta = {theta!r}")
    weights = (f_plus * f_plus, f_minus * f_minus)
    if all(abs(w - RANK_EPS) > 1e-9 * RANK_EPS for w in weights):
        rank = sum(w > RANK_EPS for w in weights)
        if row["slater_rank"] != rank:
            raise OpFailed(f"slater_rank = {row['slater_rank']!r}, expected {rank} at theta = {theta!r}")


def check_oracle(row: dict, pair: tuple[float, float], statistics: str) -> None:
    """The printed F must equal 1 + E(b, c) from the program's Pauli-tensor oracle."""
    stats = ss.ExchangeStatistics.FERMION if statistics == "fermion" else ss.ExchangeStatistics.BOSON
    geometry = ss.standard_geometry()
    state = ss.outgoing_state(ss.NormalizedAmplitudePair(*pair), stats)
    F = 1.0 + ss.correlator_oracle(state, geometry.b_hat, geometry.c_hat)
    if not abs(row["F"] - F) <= VALUE_TOL:
        raise OpFailed(f"F = {row['F']!r}, oracle gives {F!r} ({statistics}, theta = {row['theta']!r})")


def parse_csv(text: str) -> list[dict]:
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise OpFailed(f"bad CSV framing: header {lines[0]!r}")
    rows = []
    for line in lines[1:-1]:
        theta, f_plus, f_minus, entropy, F, violated, rank = line.split(",")
        if violated not in ("true", "false"):
            raise OpFailed(f"bad violated field {violated!r}")
        rows.append(
            {
                "theta": float(theta),
                "f_plus": float(f_plus),
                "f_minus": float(f_minus),
                "entropy": float(entropy),
                "F": float(F),
                "violated": violated == "true",
                "slater_rank": int(rank),
            }
        )
    return rows


def parse_json(text: str) -> list[dict]:
    rows = json.loads(text)
    for row in rows:
        if tuple(row) != COLUMNS or type(row["violated"]) is not bool or type(row["slater_rank"]) is not int:
            raise OpFailed(f"bad JSON row {row!r}")
    return rows


def check_table(text: str, fmt: str, thetas: list[float], interaction: str, statistics: str, rng) -> None:
    rows = parse_csv(text) if fmt == "csv" else parse_json(text)
    if len(rows) != len(thetas):
        raise OpFailed(f"{len(rows)} rows, expected {len(thetas)}")
    pair_at = interaction_pair(interaction)
    for row, theta in zip(rows, thetas):
        check_row(row, theta, pair_at(theta), statistics)
    for i in rng.sample(range(len(rows)), min(ORACLE_ROWS, len(rows))):
        check_oracle(rows[i], pair_at(thetas[i]), statistics)


class Scan:
    """`scan` through spinscatter.cli.main, the table written to a file.

    Timed ops are fermion, whose tables pass their check, so that the
    figures time the same work whatever the program gets wrong.  Each
    statistics in `probes` instead gets one untimed op after the window,
    checked like the rest and reported apart from `failed`: that is where a
    known defect stays visible.
    """

    def __init__(self, steps: int, fmt: str, rng, tmpdir: str, probes: tuple[str, ...] = ()) -> None:
        self.steps, self.fmt, self.probes = steps, fmt, probes
        self.rng, self.tmpdir = rng, tmpdir
        self.rows_per_op = steps

    def warmup(self, cli) -> None:
        path = os.path.join(self.tmpdir, f"warmup.{self.fmt}")
        if cli.main(["scan", "--format", self.fmt, "--output", path]) != 0:
            raise OpFailed("warm-up scan failed")

    def make_op(self, i: int, statistics: str = "fermion") -> Op:
        rng = self.rng
        lo = rng.uniform(0.001, 0.5)
        hi = HALF_PI if rng.random() < 0.25 else rng.uniform(lo + 0.5, HALF_PI)
        # Alternating keeps each run's mix of the two interactions balanced.
        interaction = "coulomb" if i % 2 == 0 else f"constant:{rng.uniform(0.05, 0.95)!r}"
        path = os.path.join(self.tmpdir, f"op{i}.{self.fmt}")
        argv = [
            "scan", "--theta-min", repr(lo), "--theta-max", repr(hi), "--steps", str(self.steps),
            "--interaction", interaction, "--statistics", statistics, "--format", self.fmt, "--output", path,
        ]
        return Op(index=i, argv=argv, lo=lo, hi=hi, interaction=interaction, statistics=statistics, path=path)

    def run(self, op: Op, cli, tracer) -> None:
        code = cli.main(op.argv)
        if code != 0:
            raise OpFailed(f"exit status {code}")

    def check(self, op: Op) -> None:
        with open(op.path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(op.path)
        thetas = linspace(op.lo, op.hi, self.steps)
        check_table(text, self.fmt, thetas, op.interaction, op.statistics, self.rng)

    def run_probes(self, cli, first_index: int) -> dict:
        """{statistics: None if its probe op passed, else why it failed}."""
        outcome = {}
        for k, statistics in enumerate(self.probes):
            op = self.make_op(first_index + k, statistics)
            try:
                self.run(op, cli, None)
                self.check(op)
                outcome[statistics] = None
            except (Exception, SystemExit) as exc:
                outcome[statistics] = f"{' '.join(op.argv[:-2])}: {exc}"
        return outcome


class Critical:
    """Library critical_angle calls over three providers, rotated op by op."""

    rows_per_op = None

    def __init__(self, rng) -> None:
        self.rng = rng

    def warmup(self, cli) -> None:
        ss.critical_angle(ss.coulomb_provider())

    def make_op(self, i: int) -> Op:
        rng = self.rng
        tol = 10.0 ** rng.uniform(-12.0, -6.0)
        kind = ("coulomb", "constant", "scalar")[i % 3]
        if kind == "coulomb":
            return Op(index=i, kind=kind, tol=tol, provider=ss.coulomb_provider(), root=math.pi / 4.0)
        if kind == "constant":
            f_plus = rng.uniform(0.05, 0.95)
            return Op(index=i, kind=f"constant:{f_plus!r}", tol=tol, provider=ss.constant_provider(f_plus), root=None)
        k = rng.uniform(0.25, 1.0)

        def scalar_provider(theta: float):
            # math.cos accepts only scalars: a user callable with no array path.
            return ss.AmplitudePair(math.cos(k * theta), math.sin(k * theta))

        # F = 5/4 - (3/4) sin(2k theta) first reaches 1 where sin(2k theta) = 1/3.
        return Op(index=i, kind=f"scalar:{k!r}", tol=tol, provider=scalar_provider, root=math.asin(1.0 / 3.0) / (2.0 * k))

    def run(self, op: Op, cli, tracer) -> None:
        provider = op.provider if tracer is None else tracer.wrap(op.provider, "amplitudes.provider")
        op.result = ss.critical_angle(provider, tol=op.tol)

    def check(self, op: Op) -> None:
        if op.root is None:
            if op.result is not None:
                raise OpFailed(f"{op.kind}: root {op.result!r}, expected no crossing")
        elif op.result is None or not abs(op.result - op.root) <= op.tol + ROOT_SLACK:
            raise OpFailed(f"{op.kind}: root {op.result!r}, expected {op.root!r} within {op.tol!r}")


class PointCold:
    """One fresh `python -m spinscatter.cli point` process per op."""

    rows_per_op = 1

    def __init__(self, rng, tmpdir: str) -> None:
        self.rng, self.tmpdir = rng, tmpdir

    def _argv(self, theta: float, fmt: str) -> list[str]:
        return ["point", repr(theta), "--format", fmt]

    def _spawn(self, argv: list[str]) -> str:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise OpFailed(f"exit status {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    def warmup(self, cli) -> None:
        self._spawn([sys.executable, "-m", "spinscatter.cli", *self._argv(1.0, "csv")])

    def make_op(self, i: int) -> Op:
        theta = self.rng.uniform(0.001, HALF_PI)
        return Op(index=i, theta=theta, fmt=("csv", "json")[i % 2])

    def run(self, op: Op, cli, tracer) -> None:
        argv = self._argv(op.theta, op.fmt)
        if tracer is None:
            op.output = self._spawn([sys.executable, "-m", "spinscatter.cli", *argv])
            return
        base = os.path.join(self.tmpdir, f"spans{op.index}")
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spans.py")
        op.output = self._spawn([sys.executable, script, base, *argv])
        tracer.merge(base, op.index)

    def check(self, op: Op) -> None:
        check_table(op.output, op.fmt, [op.theta], "coulomb", "fermion", self.rng)


NAMES = ("scan-csv", "scan-json", "critical-solve", "point-cold")


def make(name: str, rng, tmpdir: str):
    if name == "scan-csv":
        return Scan(20_000, "csv", rng, tmpdir)
    if name == "scan-json":
        # `scan --statistics boson` prints the fermion F (ROADMAP item 3a): probed, not timed.
        return Scan(10_000, "json", rng, tmpdir, probes=("boson",))
    if name == "critical-solve":
        return Critical(rng)
    if name == "point-cold":
        return PointCold(rng, tmpdir)
    raise ValueError(f"unknown workload {name!r}")
