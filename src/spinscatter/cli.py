"""Command-line front end: angle scans, single-point evaluation, critical angle.

Emits CSV or JSON tables with the fields in FIELDS, suitable for
regenerating the entropy and Bell curves.  Rows are plain tuples in FIELDS
order, and both formats fill one template per row; the JSON bytes are those
of json.dumps(indent=2).  Output is deterministic byte for byte for a fixed
invocation.

Exit status: 0 on success, 2 on usage or domain errors, 1 on runtime
failures such as an unwritable output file.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .amplitudes import AmplitudeProvider, constant_provider, coulomb_provider, normalize
from .bell import bell_F, critical_angle
from .entanglement import shannon_bits
from .spin_states import ExchangeStatistics, rank_of_weights

FIELDS = ("theta", "f_plus", "f_minus", "entropy", "F", "violated", "slater_rank")
CSV_HEADER = ",".join(FIELDS)
# One template per row.  JSON writes each value with str, which is repr (as in json.dumps) for the finite floats a
# table holds: the norm check keeps NaN and inf out, and those two are written differently.
_ROW = {
    "csv": "%.12f,%.12f,%.12f,%.12f,%.12f,%s,%d\n",
    "json": "  {\n" + ",\n".join(f'    "{name}": %s' for name in FIELDS) + "\n  }",
}

DEFAULT_THETA_MIN = 0.01
DEFAULT_THETA_MAX = math.pi / 2.0
DEFAULT_STEPS = 200

_STATISTICS = {"fermion": ExchangeStatistics.FERMION, "boson": ExchangeStatistics.BOSON}


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters; angles in radians, range restricted to (0, pi/2]."""

    theta_min: float
    theta_max: float
    steps: int
    interaction: str = "coulomb"
    statistics: str = "fermion"

    def __post_init__(self) -> None:
        if not 0.0 < self.theta_min < self.theta_max <= math.pi / 2.0:
            raise ValueError("scan range must satisfy 0 < theta-min < theta-max <= pi/2")
        if self.steps < 2:
            raise ValueError(f"a scan needs at least 2 steps, got {self.steps!r}")


def parse_interaction(text: str) -> AmplitudeProvider:
    """Resolve an interaction name: 'coulomb' or 'constant:<f_plus>'."""
    if text == "coulomb":
        return coulomb_provider()
    if text.startswith("constant:"):
        _, _, raw = text.partition(":")
        try:
            f_plus = float(raw)
        except ValueError:
            raise ValueError(f"bad interaction {text!r}: expected constant:<f_plus>") from None
        return constant_provider(f_plus)
    raise ValueError(f"unknown interaction {text!r} (choose coulomb or constant:<f_plus>)")


def evaluate_grid(thetas: np.ndarray, provider: AmplitudeProvider, statistics: ExchangeStatistics) -> list[tuple]:
    """Compute the rows of an angle grid, one array expression per column.

    The outgoing state f_plus |ud> + sign f_minus |du> is already in Schmidt
    form, so every column follows from the normalized pair: the entropy and
    the Slater rank from the weights |f_plus|^2 and |f_minus|^2, F from the
    pair and the exchange sign.  The provider is called once, on the whole
    grid.  Each row is a tuple of Python values in FIELDS order: five
    floats, a bool and an int.
    """
    amps = normalize(provider(thetas))
    f_value = bell_F(amps, statistics)
    f_plus, f_minus = amps.f_plus, amps.f_minus.real  # bell_F has rejected a relative phase; Im is round-off
    weights = (f_plus * f_plus, f_minus * f_minus)
    columns = (thetas, f_plus, f_minus, shannon_bits(weights), f_value, f_value < 1.0, rank_of_weights(weights))
    return list(zip(*[column.tolist() for column in columns]))


def scan_records(config: ScanConfig) -> list[tuple]:
    """Evaluate the scan grid in ascending theta order."""
    provider = parse_interaction(config.interaction)
    thetas = np.linspace(config.theta_min, config.theta_max, config.steps)
    return evaluate_grid(thetas, provider, _STATISTICS[config.statistics])


def render(rows: list[tuple], fmt: str) -> str:
    """Format rows as a CSV table with its header line, or as an indented JSON array of objects."""
    template = _ROW[fmt]
    lines = [template % (*r[:5], "true" if r[5] else "false", r[6]) for r in rows]
    if fmt == "csv":
        return CSV_HEADER + "\n" + "".join(lines)
    return "[\n" + ",\n".join(lines) + "\n]\n"


def _emit(text: str, output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_table(args: argparse.Namespace, records: Callable[[], list[tuple]]) -> int:
    """Evaluate, render and write a table; exit status 2 on ValueError, 1 on OSError."""
    try:
        rows = records()
    except ValueError as exc:
        return _fail(str(exc), 2)
    try:
        _emit(render(rows, args.format), args.output)
    except OSError as exc:
        return _fail(str(exc), 1)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    def records() -> list[tuple]:
        return scan_records(ScanConfig(args.theta_min, args.theta_max, args.steps, args.interaction, args.statistics))

    return _write_table(args, records)


def cmd_point(args: argparse.Namespace) -> int:
    def records() -> list[tuple]:
        if not 0.0 < args.theta <= math.pi / 2.0:
            raise ValueError(f"theta must lie in (0, pi/2], got {args.theta!r}")
        provider = parse_interaction(args.interaction)
        return evaluate_grid(np.array([args.theta]), provider, _STATISTICS[args.statistics])

    return _write_table(args, records)


def cmd_critical(args: argparse.Namespace) -> int:
    try:
        provider = parse_interaction(args.interaction)
        root = critical_angle(provider, tol=args.tol)
    except ValueError as exc:
        return _fail(str(exc), 2)
    if root is None:
        print("no crossing")
    else:
        print(f"theta_c = {root:.12f} rad ({math.degrees(root):.12f} deg)")
    return 0


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interaction", default="coulomb", help="coulomb or constant:<f_plus>")
    parser.add_argument("--statistics", choices=sorted(_STATISTICS), default="fermion")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinscatter",
        description="Spin entanglement and Bell-inequality tables for identical-particle scattering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="tabulate an angle scan over (0, pi/2]")
    scan.add_argument("--theta-min", type=float, default=DEFAULT_THETA_MIN)
    scan.add_argument("--theta-max", type=float, default=DEFAULT_THETA_MAX)
    scan.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    _add_common_options(scan)

    point = sub.add_parser("point", help="evaluate a single angle")
    point.add_argument("theta", type=float, help="scattering angle in radians, in (0, pi/2]")
    _add_common_options(point)

    crit = sub.add_parser("critical", help="locate the Bell crossing angle")
    crit.add_argument("--interaction", default="coulomb", help="coulomb or constant:<f_plus>")
    crit.add_argument("--tol", type=float, default=1e-10)

    return parser


_HANDLERS = {"scan": cmd_scan, "point": cmd_point, "critical": cmd_critical}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
