"""Tests for the command-line interface: formats, determinism, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from spinscatter.amplitudes import AmplitudePair, normalize
from spinscatter.bell import correlator_oracle, standard_geometry
from spinscatter.cli import (
    CSV_HEADER,
    ScanConfig,
    ScanRecord,
    evaluate_grid,
    main,
    parse_interaction,
    render_csv,
    scan_records,
)
from spinscatter.spin_states import ExchangeStatistics, outgoing_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScanCommand:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run(capsys, "scan", "--steps", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6

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
        ],
        ids=["default", "constant-0.6", "steps-100000"],
    )
    def test_golden_table(self, capsys, argv, digest):
        """Fermion CSV tables are pinned byte for byte (sha256 of stdout)."""
        code, out, _ = run(capsys, "scan", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

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

    def test_rejects_out_of_range(self, capsys):
        code, _, err = run(capsys, "point", "2.0")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [("point", "1e-9"), ("scan", "--theta-min", "1e-9")], ids=["point", "scan"])
    def test_beam_axis_divergence(self, capsys, argv):
        """cos(1e-9) rounds to 1, so t = 0: one clear error line, no floating-point warning."""
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: Coulomb amplitude diverges at theta = 1e-09\n"


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
            ((), "theta_c = 0.785398163414 rad (45.000000000972 deg)"),
            (("--tol", "1e-12"), "theta_c = 0.785398163398 rad (45.000000000030 deg)"),
            (("--interaction", "constant:0.6"), "no crossing"),
        ],
        ids=["default", "tol-1e-12", "constant-0.6"],
    )
    def test_golden_stdout(self, capsys, argv, line):
        code, out, _ = run(capsys, "critical", *argv)
        assert code == 0
        assert out == line + "\n"

    def test_bad_tolerance(self, capsys):
        code, _, err = run(capsys, "critical", "--tol", "-1")
        assert code == 2
        assert err.startswith("error:")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--theta-min", "-0.1"),
            ("scan", "--theta-min", "1.0", "--theta-max", "0.5"),
            ("scan", "--theta-max", "3.2"),
            ("scan", "--steps", "1"),
            ("scan", "--interaction", "nope"),
            ("scan", "--interaction", "constant:1.7"),
            ("scan", "--interaction", "constant:abc"),
            ("point", "0.0"),
            ("scan", "--theta-min", "nan"),
            ("scan", "--theta-max", "inf"),
            ("point", "nan"),
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_format_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--format", "yaml"])
        assert exc.value.code == 2

    def test_io_failure_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nodir" / "x.csv"
        code, _, err = run(capsys, "scan", "--steps", "3", "--output", str(missing))
        assert code == 1
        assert err.startswith("error:")


class TestInternals:
    def test_scan_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(theta_min=0.0, theta_max=1.0, steps=10)
        with pytest.raises(ValueError):
            ScanConfig(theta_min=0.1, theta_max=1.0, steps=1)
        with pytest.raises(ValueError):
            ScanConfig(theta_min=0.1, theta_max=math.pi, steps=10)

    def test_parse_interaction(self):
        assert parse_interaction("constant:0.25")(0.5).direct == 0.25
        with pytest.raises(ValueError):
            parse_interaction("constant:")
        with pytest.raises(ValueError):
            parse_interaction("yukawa")

    def test_grid_covers_endpoints(self):
        records = scan_records(ScanConfig(theta_min=0.2, theta_max=1.5, steps=7))
        assert len(records) == 7
        assert records[0].theta == 0.2
        assert records[-1].theta == 1.5

    def test_render_csv_shape(self):
        records = scan_records(ScanConfig(theta_min=0.3, theta_max=0.6, steps=2))
        text = render_csv(records)
        assert text.endswith("\n")
        assert text.count("\n") == 3

    def test_evaluate_angle_fields(self):
        """The one-angle grid that `point` evaluates."""
        (record,) = evaluate_grid(np.array([math.pi / 3]), parse_interaction("coulomb"), ExchangeStatistics.FERMION)
        assert record.F == pytest.approx(0.8, abs=1e-12)
        assert record.violated is True
        assert record.slater_rank == 2

    def test_common_phase_provider_gives_real_columns(self):
        """A phase common to both channels drops out of every column."""
        grid = np.array([0.3, 1.0, 1.5])
        phase = complex(math.cos(0.3), math.sin(0.3))
        real = lambda thetas: AmplitudePair(np.cos(thetas / 2), np.sin(thetas / 2))
        phased = lambda thetas: AmplitudePair(phase * np.cos(thetas / 2), phase * np.sin(thetas / 2))
        rows = [evaluate_grid(grid, provider, ExchangeStatistics.FERMION) for provider in (real, phased)]
        for want, got in zip(*rows):
            assert [type(v) for v in got] == [float] * 5 + [bool, int]
            assert got[:5] == pytest.approx(want[:5], rel=1e-15, abs=1e-15)
            assert got[5:] == want[5:]

    def test_records_are_plain_python_values(self):
        """Columns leave numpy as float / bool / int, so JSON and CSV see what the scalar path gave."""
        (record,) = evaluate_grid(np.array([1.0]), parse_interaction("coulomb"), ExchangeStatistics.FERMION)
        assert isinstance(record, ScanRecord) and record._fields == (
            "theta", "f_plus", "f_minus", "entropy", "F", "violated", "slater_rank",
        )
        assert [type(v) for v in record] == [float] * 5 + [bool, int]
