"""Command-line front end: angle scans, single-point evaluation, critical angle.

Emits CSV or JSON tables with the fields in FIELDS, suitable for
regenerating the entropy and Bell curves.  `scan` and `point` share one
path: angle_grid turns the options into an angle grid (`point` is a
one-angle grid), evaluate_grid computes and checks it into one numpy
column per field, a slice of BLOCK_ROWS angles at a time, and only then
is the destination opened.  The table is written in blocks of WRITE_ROWS
rows, so that neither a long grid's temporaries nor its table ever exist
whole: a scan holds little more than its columns.  render formats a
block straight from the column lists, one template per row in either
format; table_rows is the typed-row view (plain tuples in FIELDS order)
that tests use.  The JSON bytes are those of json.dumps(indent=2), and
the bytes depend on neither block size.  `critical` bisects the Bell
crossing until no float lies inside the bracket and prints 12 decimals.
Output is deterministic byte for byte for a fixed invocation.

Exit status, decided in main for every command: 0 on success, also when
the reader of stdout stops early (`| head`); 2 on usage or domain errors,
all raised before any output is opened; 1 on runtime failures such as an
unwritable output file, a full device or running out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Optional, TextIO

import numpy as np

from .amplitudes import BLOCK_ROWS, NORM_TOL, AmplitudeProvider, constant_provider, coulomb_provider, first_failure
from .amplitudes import normalize
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
# Head, separator between rows (and so between blocks) and tail of a table.
_FRAME = {"csv": (CSV_HEADER + "\n", "", ""), "json": ("[\n", ",\n", "\n]\n")}
# Table rows formatted and written at a time.  Writing costs the same for 512 to 4096 rows, but a block's text must
# stay below glibc's 128 KiB mmap threshold (512 rows: at most about 116 KB of JSON, 43 KB of CSV), or each block's
# string is mapped and unmapped again: 1024-row JSON blocks took about 750 minor page faults per 10k-row table, 512-row
# ones about 20.
WRITE_ROWS = 512

DEFAULT_THETA_MIN = 0.01
DEFAULT_THETA_MAX = math.pi / 2.0
DEFAULT_STEPS = 200

_STATISTICS = {"fermion": ExchangeStatistics.FERMION, "boson": ExchangeStatistics.BOSON}


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


def angle_grid(args: argparse.Namespace) -> np.ndarray:
    """The angles of a `scan` (ascending, both ends included) or of a `point`; ValueError outside (0, pi/2]."""
    if args.command == "point":
        if not 0.0 < args.theta <= math.pi / 2.0:
            raise ValueError(f"theta must lie in (0, pi/2], got {args.theta!r}")
        return np.array([args.theta])
    if not 0.0 < args.theta_min < args.theta_max <= math.pi / 2.0:
        raise ValueError("scan range must satisfy 0 < theta-min < theta-max <= pi/2")
    if args.steps < 2:
        raise ValueError(f"a scan needs at least 2 steps, got {args.steps!r}")
    return np.linspace(args.theta_min, args.theta_max, args.steps)


def evaluate_grid(thetas: np.ndarray, provider: AmplitudeProvider, statistics: ExchangeStatistics) -> tuple:
    """Compute the columns of an angle grid, one array expression per column and slice.

    The outgoing state f_plus |ud> + sign f_minus |du> is already in Schmidt
    form, so every column follows from the normalized pair: the entropy and
    the Slater rank from the weights |f_plus|^2 and |f_minus|^2, F from the
    pair and the exchange sign.  The columns are allocated once; the
    provider is called once per slice of BLOCK_ROWS angles, in grid order,
    and each slice's values are stored into them, so the temporaries never
    span the whole grid and a scan holds 49 bytes per angle (five float, one
    bool and one int column) plus one slice.  Every slice is evaluated and
    checked before this returns.  Returns one numpy array per field, in
    FIELDS order; render formats them, and table_rows turns them into rows.
    A table has no column for a phase: a relative phase above NORM_TOL
    raises ValueError naming the first such angle (normalize drops a common
    phase).
    """
    n = len(thetas)
    columns = (thetas, *(np.empty(n) for _ in range(4)), np.empty(n, bool), np.empty(n, int))
    for start in range(0, n, BLOCK_ROWS):
        part = slice(start, start + BLOCK_ROWS)
        angles = thetas[part]
        amps = normalize(provider(angles))
        if (phased := first_failure(abs(np.imag(amps.f_minus)) <= NORM_TOL, angles)) is not None:
            raise ValueError(f"tables need real channel amplitudes; relative phase at theta = {phased!r}")
        w = amps.weights
        f_value = bell_F(amps, statistics)
        values = (amps.f_plus, amps.f_minus.real, shannon_bits(w), f_value, f_value < 1.0, rank_of_weights(w))
        for column, value in zip(columns[1:], values):
            column[part] = value
    return columns


def table_rows(columns: tuple, start: int = 0, stop: Optional[int] = None) -> list[tuple]:
    """Rows start:stop of evaluated columns, each a tuple of Python values in FIELDS order.

    Five floats, a bool and an int, as the one-angle functions return them: the typed view of what render prints.
    """
    return list(zip(*[column[start:stop].tolist() for column in columns]))


def render(columns: tuple, fmt: str, start: int = 0, stop: Optional[int] = None) -> str:
    """Format rows start:stop of evaluated columns as a run of CSV lines or of indented JSON objects.

    The table's head and tail are not included.  Each column becomes one list per block, the violated flags are
    spelled true/false once per block, and each row is one template % over the zipped lists.
    """
    values = [column[start:stop].tolist() for column in columns]
    values[5] = ["true" if violated else "false" for violated in values[5]]
    return _FRAME[fmt][1].join(map(_ROW[fmt].__mod__, zip(*values)))


def _emit(columns: tuple, fmt: str, fh: TextIO) -> None:
    """Write the table's head, its rows WRITE_ROWS at a time, then its tail, to the open file fh."""
    head, separator, tail = _FRAME[fmt]
    fh.write(head)
    for start in range(0, len(columns[0]), WRITE_ROWS):
        if start:
            fh.write(separator)
        fh.write(render(columns, fmt, start, start + WRITE_ROWS))
    fh.write(tail)


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

    crit = sub.add_parser("critical", help="locate the Bell crossing angle to the float spacing")
    crit.add_argument("--interaction", default="coulomb", help="coulomb or constant:<f_plus>")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit status.

    A ValueError gives 2, a broken pipe on stdout 0, any other OSError or a MemoryError 1; argparse itself exits 2 on a
    malformed command line.
    """
    args = build_parser().parse_args(argv)
    to_stdout = getattr(args, "output", None) in (None, "-")
    try:
        if args.command == "critical":
            # The smallest positive tol: bisect until no float lies inside the bracket, so all 12 decimals hold.
            root = critical_angle(parse_interaction(args.interaction), tol=math.ulp(0.0))
            print("no crossing" if root is None else f"theta_c = {root:.12f} rad ({math.degrees(root):.12f} deg)")
        else:
            columns = evaluate_grid(angle_grid(args), parse_interaction(args.interaction), _STATISTICS[args.statistics])
            with contextlib.nullcontext(sys.stdout) if to_stdout else open(
                args.output, "w", encoding="utf-8", newline=""
            ) as fh:
                _emit(columns, args.format, fh)
        sys.stdout.flush()  # a write to a full or closed stdout fails here, not in the interpreter's last flush
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        if to_stdout:
            # Point stdout at devnull, so that the interpreter's last flush does not raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                return 0  # the reader of stdout stopped early, as `| head` does: not a failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
