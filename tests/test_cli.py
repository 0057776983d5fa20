"""Tests for the command-line interface: formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import spinscatter
from spinscatter import cli
from spinscatter.amplitudes import AmplitudePair, coulomb_provider, normalize
from spinscatter.bell import correlator_oracle, standard_geometry
from spinscatter.cli import (
    _FRAME,
    _ROW,
    BLOCK_ROWS,
    CSV_HEADER,
    DEFAULT_THETA_MAX,
    DEFAULT_THETA_MIN,
    FIELDS,
    WRITE_ROWS,
    angle_grid,
    build_parser,
    evaluate_grid,
    main,
    parse_interaction,
    render,
)
from spinscatter.entanglement import eoe_label_fixed
from spinscatter.spin_states import ExchangeStatistics, outgoing_state, slater_decomposition, slater_rank

from providers import grid_form


def rows_of(columns):
    """The rows of evaluated columns: tuples of Python values in FIELDS order, as render reads them."""
    return list(zip(*(column.tolist() for column in columns)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scan_rows(*options):
    """The rows a fermion `scan` writes for these grid options: its own grid rule, then the table columns."""
    args = build_parser().parse_args(["scan", *options])
    provider = parse_interaction(args.interaction)
    return rows_of(evaluate_grid(angle_grid(args), provider, ExchangeStatistics.FERMION))


class TestScanCommand:
    def test_header_and_row_count(self, capsys):
        """One header, one line per step and a final newline, also where the rows cross write or slice boundaries."""
        for steps in (
            5, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1,
        ):
            code, out, _ = run(capsys, "scan", "--steps", str(steps))
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == CSV_HEADER
            assert len(lines) == steps + 1
            assert out.endswith("\n")

    def test_symmetric_point_row_bytes(self, capsys):
        """A scan ending at pi/2 closes with the singlet row."""
        _, out, _ = run(capsys, "scan", "--steps", "3")
        assert out.splitlines()[-1] == (
            "1.570796326795,0.707106781187,0.707106781187,"
            "1.000000000000,0.500000000000,true,2"
        )

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "scan", "--steps", "40")
        _, second, _ = run(capsys, "scan", "--steps", "40")
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "scan", "--steps", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert set(rows[0]) == {
            "theta", "f_plus", "f_minus", "entropy", "F", "violated", "slater_rank",
        }
        assert rows[-1]["violated"] is True
        assert rows[-1]["slater_rank"] == 2

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan", "--steps", "4", "--output", str(target))
        assert code == 0
        assert out == ""
        _, direct, _ = run(capsys, "scan", "--steps", "4")
        assert target.read_text(encoding="utf-8") == direct

    def test_F_matches_oracle_for_both_statistics(self, capsys):
        """Each row's F is 1 + E(b, c) of the outgoing state of the statistics asked for."""
        geo = standard_geometry()
        for interaction in ("coulomb", "constant:0.6"):
            provider = parse_interaction(interaction)
            for name, statistics in (("fermion", ExchangeStatistics.FERMION), ("boson", ExchangeStatistics.BOSON)):
                _, out, _ = run(
                    capsys, "scan", "--steps", "40", "--format", "json",
                    "--interaction", interaction, "--statistics", name,
                )
                for row in json.loads(out):
                    state = outgoing_state(normalize(provider(row["theta"])), statistics)
                    want = 1.0 + correlator_oracle(state, geo.b_hat, geo.c_hat)
                    assert row["F"] == pytest.approx(want, abs=1e-12)
                    assert row["violated"] == (want < 1.0)

    def test_statistics_change_only_F_and_violated(self, capsys):
        _, fermion, _ = run(capsys, "scan", "--steps", "40")
        _, boson, _ = run(capsys, "scan", "--steps", "40", "--statistics", "boson")
        for f_row, b_row in zip(fermion.splitlines(), boson.splitlines()):
            f_cols, b_cols = f_row.split(","), b_row.split(",")
            assert f_cols[:4] == b_cols[:4] and f_cols[6] == b_cols[6]
        assert all(row.endswith(",false,2") for row in boson.splitlines()[1:])

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ((), "8190fe1638dfccca814bd151addd9c0a3c84ec2689beea35808d9733afeb3574"),
            (("--interaction", "constant:0.6"), "1e9a1a467c081b734ad2ea59103ed4b4a50cb8f9b04fc1eaf5cba3a95998290b"),
            (("--steps", "100000"), "a0710443964afa638760074c620da76f1a400fd02b13e5d85a86d81e139fc9c0"),
            (("--steps", "10000", "--format", "json"), "bb1460209592f1d6da9aed6364e08de685e0c17bcb98cbb4699ea4e358e6d7fa"),
            (
                ("--steps", "10000", "--format", "json", "--statistics", "boson"),
                "5dcf71a85a4fa047ecae972240898e5af56ca57aa966cc2768f8d005cc36ee78",
            ),
            (
                ("--interaction", "constant:0", "--format", "json"),
                "975d97ed08d1a00fd1d5530f7f4d5f26faca994b46ae3322d24ad5318a70521a",
            ),
        ],
        ids=["default", "constant-0.6", "steps-100000", "json-10000", "json-10000-boson", "json-constant-0"],
    )
    def test_golden_table(self, capsys, argv, digest):
        """CSV and JSON tables, fermion and boson, are pinned byte for byte (sha256 of stdout)."""
        code, out, _ = run(capsys, "scan", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_peak_memory_is_bounded(self, tmp_path):
        """A scan holds its columns plus one block: 49 bytes per angle (five float, one bool and one int column).

        The grid is evaluated in slices of BLOCK_ROWS angles into preallocated columns and written in blocks of
        WRITE_ROWS rows, so no temporary, Python list or text spans the whole grid.  Traced peaks: about 1.7 MB for
        a 20k-step CSV scan, 5.6 MB for a 100k-step one and 1.2 MB for a 10k-step JSON one.
        """
        target = str(tmp_path / "scan.out")
        for fmt in ("csv", "json"):  # imports and caches outside the trace
            assert main(["scan", "--steps", "20", "--format", fmt, "--output", target]) == 0
        for steps, fmt in ((20000, "csv"), (100000, "csv"), (10000, "json")):
            tracemalloc.start()
            try:
                code = main(["scan", "--steps", str(steps), "--format", fmt, "--output", target])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 49 * steps + 1_500_000, (steps, fmt, peak)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
    def test_error_in_the_last_slice_comes_before_any_output(self, capsys, tmp_path, monkeypatch, to_file):
        """The provider sees the grid slice by slice, in order; a phase, or a pair that vanishes in both channels, at
        the last angle fails before output opens.  A phased pair of numbers, the answer for every slice, fails at the
        first angle."""
        steps = 2 * BLOCK_ROWS + 3
        grid = np.linspace(DEFAULT_THETA_MIN, DEFAULT_THETA_MAX, steps)
        phased = "tables need real channel amplitudes; relative phase at theta = "
        at_last = lambda direct, exchange: lambda thetas: AmplitudePair(
            np.where(thetas == grid[-1], direct, 1.0), np.where(thetas == grid[-1], exchange, 1.0)
        )
        cases = [
            (at_last(1.0, 0.5j), f"{phased}{float(grid[-1])!r}", [BLOCK_ROWS, BLOCK_ROWS, 3]),
            (at_last(0.0, 0.0), "channel norm hypot(|direct|, |exchange|) must be finite and nonzero, got 0.0",
             [BLOCK_ROWS, BLOCK_ROWS, 3]),
            (lambda thetas: AmplitudePair(0.6, 0.8j), f"{phased}{float(grid[0])!r}", [BLOCK_ROWS]),
        ]
        monkeypatch.chdir(tmp_path)
        for answer, message, lengths in cases:
            slices = []

            @grid_form
            def provider(thetas, answer=answer):
                slices.append(thetas.copy())
                return answer(thetas)

            monkeypatch.setattr(cli, "parse_interaction", lambda text: provider)
            code, out, err = run(capsys, "scan", "--steps", str(steps), *(("--output", "t.csv") if to_file else ()))
            assert code == 2
            assert out == ""
            assert not any(tmp_path.iterdir())
            assert err == f"error: {message}\n"
            assert [len(angles) for angles in slices] == lengths
            assert np.concatenate(slices).tolist() == grid[: sum(lengths)].tolist()

    def test_constant_interaction(self, capsys):
        code, out, _ = run(capsys, "scan", "--steps", "3", "--interaction", "constant:0.6")
        assert code == 0
        rows = out.splitlines()[1:]
        assert all(",0.600000000000,0.800000000000," in row for row in rows)


class TestPointCommand:
    def test_single_record(self, capsys):
        code, out, _ = run(capsys, "point", str(math.pi / 2))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("1.570796326795,")

    def test_json_single_record(self, capsys):
        code, out, _ = run(capsys, "point", str(math.pi / 3), "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["F"] == pytest.approx(0.8, abs=1e-12)

    def test_golden_json(self, capsys):
        code, out, _ = run(capsys, "point", "1.0", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "1cb1a9f572065ae4f730606e33682675bc6d2718259f4d6f8aaa8a9741eb75c2"
        )

    def test_rejects_out_of_range(self, capsys):
        code, _, err = run(capsys, "point", "2.0")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [("point", "1e-9"), ("scan", "--theta-min", "1e-9"), ("scan", "--theta-min", "1e-9", "--output", "t.csv")],
        ids=["point", "scan", "scan-to-file"],
    )
    def test_beam_axis_divergence(self, capsys, tmp_path, monkeypatch, argv):
        """cos(1e-9) rounds to 1, so t = 0: one clear error line, no floating-point warning, no file created."""
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: Coulomb amplitude diverges at theta = 1e-09\n"
        assert not any(tmp_path.iterdir())


class TestCriticalCommand:
    def test_coulomb(self, capsys):
        code, out, _ = run(capsys, "critical")
        assert code == 0
        assert "rad" in out and "deg" in out
        assert float(out.split()[2]) == pytest.approx(math.pi / 4, abs=1e-9)

    def test_no_crossing(self, capsys):
        code, out, _ = run(capsys, "critical", "--interaction", "constant:0.6")
        assert code == 0
        assert out.strip() == "no crossing"

    @pytest.mark.parametrize(
        "argv, line",
        [
            ((), "theta_c = 0.785398163397 rad (45.000000000000 deg)"),  # pi/4 to every printed digit
            (("--interaction", "constant:0.6"), "no crossing"),
        ],
        ids=["default", "constant-0.6"],
    )
    def test_golden_stdout(self, capsys, argv, line):
        code, out, _ = run(capsys, "critical", *argv)
        assert code == 0
        assert out == line + "\n"

    def test_bisects_to_the_float_spacing(self, capsys, monkeypatch):
        """The CLI runs critical_angle until no float lies inside the bracket: 1031 Coulomb calls, 1030 at 1e-10."""
        provider = coulomb_provider()
        seen = []

        def recording(theta):
            seen.append(type(theta))
            return provider(theta)

        monkeypatch.setattr(cli, "parse_interaction", lambda text: recording)
        code, _, _ = run(capsys, "critical")
        assert code == 0
        assert seen == [float] * 1031

    def test_bisects_through_the_grid_form(self, capsys, monkeypatch):
        """A provider with a grid form gets the bracket in one call, then 7 floats, and prints the same line."""
        provider = coulomb_provider()
        seen = []

        @grid_form
        def recording(theta):
            seen.append(theta.shape if isinstance(theta, np.ndarray) else type(theta))
            return provider(theta)

        monkeypatch.setattr(cli, "parse_interaction", lambda text: recording)
        code, out, _ = run(capsys, "critical")
        assert code == 0
        assert out == "theta_c = 0.785398163397 rad (45.000000000000 deg)\n"
        assert seen == [(1024,)] + [float] * 7


_RANGE = "error: scan range must satisfy 0 < theta-min < theta-max <= pi/2\n"
_STEPS = "error: a scan needs at least 2 steps, got 1\n"
_UNKNOWN = "error: unknown interaction 'nope' (choose coulomb or constant:<f_plus>)\n"
# Each bad input with its one error line; where an input breaks two rules, the line names the one checked first.
_USAGE_ERRORS = [
    (("scan", "--theta-min", "-0.1"), _RANGE),
    (("scan", "--theta-min", "1.0", "--theta-max", "0.5"), _RANGE),
    (("scan", "--theta-max", "3.2"), _RANGE),
    (("scan", "--steps", "1"), _STEPS),
    (("scan", "--interaction", "nope"), _UNKNOWN),
    (("scan", "--interaction", "constant:1.7"), "error: f_plus must lie in [0, 1], got 1.7\n"),
    (("scan", "--interaction", "constant:abc"), "error: bad interaction 'constant:abc': expected constant:<f_plus>\n"),
    (("point", "0.0"), "error: theta must lie in (0, pi/2], got 0.0\n"),
    (("scan", "--theta-min", "nan"), _RANGE),
    (("scan", "--theta-max", "inf"), _RANGE),
    (("point", "nan"), "error: theta must lie in (0, pi/2], got nan\n"),
    (("scan", "--theta-min", "0", "--theta-max", "1.0", "--steps", "10"), _RANGE),
    (("scan", "--theta-min", "0.1", "--theta-max", "1.0", "--steps", "1"), _STEPS),
    (("scan", "--theta-min", "0.1", "--theta-max", "3.141592653589793", "--steps", "10"), _RANGE),
    (("scan", "--theta-min", "-0.1", "--interaction", "nope"), _RANGE),
    (("point", "2.0", "--interaction", "nope"), "error: theta must lie in (0, pi/2], got 2.0\n"),
    (("critical", "--interaction", "nope"), _UNKNOWN),
]
# Outputs that fit in stdout's buffer (critical, point, a 3-row scan) and one far larger than a pipe holds.
_STDOUT_COMMANDS = {
    "critical": ("critical",),
    "point": ("point", "1.0"),
    "scan-3": ("scan", "--steps", "3"),
    "scan-20000": ("scan", "--steps", "20000"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv, err", _USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(_USAGE_ERRORS))])
    def test_exit_code_two(self, capsys, argv, err):
        code, out, got = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert got == err

    def test_unknown_format_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--format", "yaml"])
        assert exc.value.code == 2

    def test_tolerance_option_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["critical", "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_io_failure_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nodir" / "x.csv"
        code, _, err = run(capsys, "scan", "--steps", "3", "--output", str(missing))
        assert code == 1
        assert err.startswith("error:")

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        """Running out of memory is a runtime failure: exit 1 with one `error:` line, and no output file."""
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

        def linspace(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(np, "linspace", linspace)
        target = tmp_path / "t.csv"
        code, out, err = run(capsys, "scan", "--steps", "1000000000000", "--output", str(target))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not target.exists()

    @pytest.mark.parametrize("capture", ["capsys", "redirect-stdout"])
    def test_out_of_memory_on_stdout_exit_code(self, capsys, monkeypatch, capture):
        """Out of memory with stdout as the output: exit 1 and one `error:` line, also when stdout has no descriptor."""

        def linspace(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(np, "linspace", linspace)
        if capture == "capsys":
            assert run(capsys, "scan") == (1, "", "error: Unable to allocate\n")
        else:
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["scan"])
            assert (code, out.getvalue(), err.getvalue()) == (1, "", "error: Unable to allocate\n")

    def test_broken_pipe_on_stdout_in_process(self, capsys, monkeypatch):
        """A stdout without a descriptor whose reader has gone: exit 0 and nothing on stderr."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["point", "1.0"])
        monkeypatch.undo()
        assert (code, capsys.readouterr().err) == (0, "")

    @pytest.mark.parametrize("theta, want", [("1.0", 0), ("2.0", 2)])
    def test_entry_point_exit_status(self, capsys, monkeypatch, theta, want):
        """The installed script's function raises SystemExit with main's status for the argv in sys.argv."""
        monkeypatch.setattr(sys, "argv", ["spinscatter", "point", theta])
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
        assert exc.value.code == want
        out, err = capsys.readouterr()
        assert (out.startswith(CSV_HEADER), err.startswith("error:")) == (want == 0, want == 2)

    @pytest.mark.parametrize("command", sorted(_STDOUT_COMMANDS))
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "stdout, want_code, want_err",
        [("closed-pipe", 0, b""), ("dev-full", 1, b"error: [Errno 28] No space left on device\n")],
        ids=["closed-pipe", "dev-full"],
    )
    def test_reader_closing_stdout_is_not_an_error(self, command, buffered, stdout, want_code, want_err):
        """`| head`: a reader that stops early ends every command quietly with 0; a full device gives 1 and one line.

        The pipe's read end is closed before the child starts, so every output fails, even one that fits in
        stdout's buffer and so fails only at the flush, and without a race.
        """
        src = os.path.dirname(os.path.dirname(spinscatter.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        if stdout == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            fd = os.open("/dev/full", os.O_WRONLY)
        else:
            read_end, fd = os.pipe()
            os.close(read_end)
        argv = [sys.executable, "-m", "spinscatter.cli", *_STDOUT_COMMANDS[command]]
        try:
            proc = subprocess.run(argv, stdout=fd, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(fd)
        assert proc.returncode == want_code
        assert proc.stderr == want_err


class TestInternals:
    def test_parse_interaction(self):
        assert parse_interaction("constant:0.25")(0.5).direct == 0.25
        with pytest.raises(ValueError):
            parse_interaction("constant:")
        with pytest.raises(ValueError):
            parse_interaction("yukawa")

    def test_grid_covers_endpoints(self):
        rows = scan_rows("--theta-min", "0.2", "--theta-max", "1.5", "--steps", "7")
        assert len(rows) == 7
        assert rows[0][0] == 0.2
        assert rows[-1][0] == 1.5

    def test_render_csv_shape(self):
        """render writes one line per row; the header is the table's head, written once before the first block."""
        args = build_parser().parse_args(["scan", "--theta-min", "0.3", "--theta-max", "0.6", "--steps", "3"])
        columns = evaluate_grid(angle_grid(args), parse_interaction("coulomb"), ExchangeStatistics.FERMION)
        for start, stop, lines in ((0, None, 3), (1, None, 2), (0, 2, 2), (1, 2, 1)):
            text = render(columns, "csv", start, stop)
            assert text.endswith("\n")
            assert text.count("\n") == lines
            assert CSV_HEADER not in text
        assert render(columns, "csv") == render(columns, "csv", 0, 3)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("statistics", list(ExchangeStatistics), ids=lambda s: s.name.lower())
    @pytest.mark.parametrize("interaction", ["coulomb", "constant:0.6"])
    def test_render_blocks_join_to_the_whole_table(self, fmt, statistics, interaction):
        """Blocks cut anywhere join, with the format's separator, to the whole table; each row is _ROW of a typed row."""
        steps = 2 * BLOCK_ROWS + 3
        grid = np.linspace(DEFAULT_THETA_MIN, DEFAULT_THETA_MAX, steps)
        columns = evaluate_grid(grid, parse_interaction(interaction), statistics)
        whole = render(columns, fmt)
        separator = _FRAME[fmt][1]
        for cuts in (
            (), (1,), (WRITE_ROWS - 1,), (WRITE_ROWS,), (WRITE_ROWS + 1,), (BLOCK_ROWS - 1,), (BLOCK_ROWS,),
            (BLOCK_ROWS + 1,), (7, WRITE_ROWS + 1, BLOCK_ROWS + 1, steps - 1),
        ):
            bounds = (0, *cuts, steps)
            blocks = [render(columns, fmt, start, stop) for start, stop in zip(bounds, bounds[1:])]
            assert separator.join(blocks) == whole
        rows = rows_of(columns)
        assert len(rows) == steps
        assert whole == separator.join(_ROW[fmt] % (*row[:5], "true" if row[5] else "false", row[6]) for row in rows)

    def test_one_angle_grid_fields(self):
        """The one-angle grid that `point` evaluates."""
        columns = evaluate_grid(np.array([math.pi / 3]), parse_interaction("coulomb"), ExchangeStatistics.FERMION)
        (row,) = rows_of(columns)
        record = dict(zip(FIELDS, row))
        assert record["F"] == pytest.approx(0.8, abs=1e-12)
        assert record["violated"] is True
        assert record["slater_rank"] == 2

    def test_common_phase_provider_gives_real_columns(self):
        """A phase common to both channels drops out of every column."""
        grid = np.array([0.3, 1.0, 1.5])
        phase = complex(math.cos(0.3), math.sin(0.3))
        real = grid_form(lambda thetas: AmplitudePair(np.cos(thetas / 2), np.sin(thetas / 2)))
        phased = grid_form(lambda thetas: AmplitudePair(phase * np.cos(thetas / 2), phase * np.sin(thetas / 2)))
        rows = [rows_of(evaluate_grid(grid, provider, ExchangeStatistics.FERMION)) for provider in (real, phased)]
        for want, got in zip(*rows):
            assert [type(v) for v in got] == [float] * 5 + [bool, int]
            assert got[:5] == pytest.approx(want[:5], rel=1e-15, abs=1e-15)
            assert got[5:] == want[5:]

    def test_round_off_phase_weights_match_the_library(self):
        """A relative phase within NORM_TOL passes, and the entropy and rank take |f_minus|^2, not (Re f_minus)^2.

        So a row holds eoe_label_fixed and slater_rank of its pair: 1.57e-22 bits here, where (Re f_minus)^2 gave half.
        """
        exchange = 1e-12 + 1e-12j
        amps = normalize(AmplitudePair(1.0, exchange))
        # The pair as constant arrays over the grid, and as the numbers a provider may answer a grid with.
        for provider in (
            grid_form(lambda thetas: AmplitudePair(np.ones(thetas.shape), np.full(thetas.shape, exchange))),
            grid_form(lambda thetas: AmplitudePair(1.0, exchange)),
        ):
            for row in rows_of(evaluate_grid(np.array([0.5, 1.0]), provider, ExchangeStatistics.FERMION)):
                assert row[1:3] == (amps.f_plus, amps.f_minus.real)
                assert row[3] == eoe_label_fixed([amps.f_plus, amps.f_minus])
                assert row[6] == slater_rank(slater_decomposition(amps))

    @pytest.mark.parametrize("interaction", ["coulomb", "constant:0.6"])
    def test_rows_do_not_depend_on_numpy_ufuncs(self, monkeypatch, interaction):
        """The grid takes cos, hypot and log2 from math: numpy ufuncs that round one ulp up change no bit of a row."""
        grid, provider = np.linspace(0.01, math.pi / 2, 200), parse_interaction(interaction)
        want = rows_of(evaluate_grid(grid, provider, ExchangeStatistics.FERMION))
        for name in ("cos", "sin", "hypot", "log", "log2", "exp", "sqrt"):
            ufunc = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *args, _f=ufunc, **kwargs: np.nextafter(_f(*args, **kwargs), np.inf))
        assert np.sqrt(4.0) > 2.0  # the wrappers are in place
        assert rows_of(evaluate_grid(grid, provider, ExchangeStatistics.FERMION)) == want

    def test_records_are_plain_python_values(self):
        """Columns leave numpy as float / bool / int, so JSON and CSV see what the scalar path gave."""
        columns = evaluate_grid(np.array([1.0]), parse_interaction("coulomb"), ExchangeStatistics.FERMION)
        assert len(columns) == len(FIELDS) and all(column.shape == (1,) for column in columns)
        assert FIELDS == ("theta", "f_plus", "f_minus", "entropy", "F", "violated", "slater_rank")
        assert CSV_HEADER == ",".join(FIELDS)
        assert [type(value) for column in columns for value in column.tolist()] == [float] * 5 + [bool, int]
