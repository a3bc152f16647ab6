import csv
import io
import json

import numpy as np
import pytest

import ptqubit.cli
from ptqubit.cli import main, parse_grid
from ptqubit.errors import NormalizationError, ParameterError

PI = np.pi


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestGridParsing:
    def test_linspace_semantics(self):
        grid = parse_grid("0:1:5")
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("spec", ["", "1:2", "a:b:c", "0:1:0", "2:1:5", "0:1:2:3"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ParameterError):
            parse_grid(spec)


class TestEvolve:
    def test_uniform_distance_without_gain(self, capsys):
        status, out, _ = run_cli(
            capsys, "evolve", "--gamma", "0", "--grid", f"0:{PI / 2}:51"
        )
        assert status == 0
        header, rows = read_csv(out)
        tau_col = header.index("tau")
        dist_col = header.index("distance")
        for row in rows:
            assert abs(float(row[tau_col]) - float(row[dist_col])) < 1e-12

    def test_flip_lands_on_plus_y(self, capsys):
        status, out, _ = run_cli(
            capsys, "evolve", "--gamma", "0.95", "--grid", f"0:{PI / 2}:51"
        )
        assert status == 0
        header, rows = read_csv(out)
        assert abs(float(rows[-1][header.index("bloch_y")]) - 1.0) < 1e-9

    def test_broken_regime_long_horizon_is_finite(self, capsys):
        # w t = 400 overflows cosh; the normalized path must reach the fixed point
        status, out, _ = run_cli(capsys, "evolve", "--gamma", "2", "--grid", "0:400:3")
        assert status == 0
        header, rows = read_csv(out)
        values = np.array(rows, dtype=float)
        assert np.all(np.isfinite(values))
        amps = values[:, 1:5]
        np.testing.assert_allclose(np.sum(amps**2, axis=1), 1.0, atol=1e-11)
        np.testing.assert_allclose(values[1], [200.0, *values[2, 1:]], atol=1e-12)
        # an overflowed state would read as zero amplitudes at distance pi/2
        assert values[2, header.index("distance")] < np.pi / 2 - 0.1

    def test_package_errors_map_to_exit_3(self, capsys, monkeypatch):
        def failing(*args):
            raise NormalizationError("norm is not finite")

        monkeypatch.setattr(ptqubit.cli, "trajectory", failing)
        status, _, err = run_cli(capsys, "evolve", "--grid", "0:1:5")
        assert status == 3
        assert "not finite" in err

    def test_empty_grid_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "evolve", "--grid", "0:1:0")
        assert status == 2
        assert err.strip()  # single-line diagnostic

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        status, out, _ = run_cli(
            capsys, "evolve", "--grid", "0:1:5", "--out", str(target)
        )
        assert status == 0
        assert out == ""
        header, rows = read_csv(target.read_text())
        assert header[0] == "tau"
        assert len(rows) == 5


class TestDistance:
    def test_speed_column_constant_without_gain(self, capsys):
        status, out, _ = run_cli(
            capsys, "distance", "--gamma", "0", "--grid", f"0:{PI / 2}:101"
        )
        assert status == 0
        header, rows = read_csv(out)
        speeds = [float(r[header.index("speed")]) for r in rows]
        np.testing.assert_allclose(speeds, 1.0, atol=1e-4)


class TestCorrelatorCommands:
    def test_single_interval(self, capsys):
        status, out, _ = run_cli(
            capsys, "correlators", "--gamma", "0", "--t", str(PI / 6)
        )
        assert status == 0
        header, rows = read_csv(out)
        assert abs(float(rows[0][header.index("K3")]) - 1.5) < 1e-9

    def test_hermitian_curve_hits_the_cap(self, capsys):
        status, out, _ = run_cli(capsys, "k3", "--gamma", "0", "--grid", f"0:{PI / 2}:76")
        assert status == 0
        header, rows = read_csv(out)
        values = [float(r[header.index("K3")]) for r in rows]
        assert abs(max(values) - 1.5) < 1e-9  # grid contains pi/6 (row 25)

    def test_near_break_quarter_interval(self, capsys):
        status, out, _ = run_cli(
            capsys, "k3", "--gamma", "0.95", "--grid", f"0:{PI / 4}:11"
        )
        header, rows = read_csv(out)
        assert abs(float(rows[-1][header.index("K3")]) - 2.8525) < 1e-9

    def test_broken_regime_long_horizon_is_finite(self, capsys):
        status, out, _ = run_cli(capsys, "k3", "--gamma", "2", "--grid", "0:400:3")
        assert status == 0
        header, rows = read_csv(out)
        values = np.array(rows, dtype=float)
        assert np.all(np.isfinite(values))
        assert np.all(values[:, header.index("K3")] <= 3.0)

    def test_moderate_gain_breaks_the_cap(self, capsys):
        status, out, _ = run_cli(capsys, "k3", "--gamma", "0.6", "--grid", f"0:{PI / 4}:51")
        header, rows = read_csv(out)
        assert max(float(r[header.index("K3")]) for r in rows) > 1.5


class TestK3Max:
    def test_first_row_is_hermitian_bound(self, capsys):
        status, out, _ = run_cli(capsys, "k3max", "--grid", "0:0.9:4")
        assert status == 0
        header, rows = read_csv(out)
        assert abs(float(rows[0][header.index("k3_max")]) - 1.5) < 1e-9
        assert rows[0][header.index("regime")] == "PTS"

    def test_ep_report(self, capsys):
        status, out, _ = run_cli(capsys, "k3max", "--ep-report", "--ep-eps", "0.01")
        assert status == 0
        header, rows = read_csv(out)
        assert header == ["eps", "left_limit", "right_value", "jump"]
        left = float(rows[0][header.index("left_limit")])
        right = float(rows[0][header.index("right_value")])
        jump = float(rows[0][header.index("jump")])
        assert abs(left - 3.0) < 1e-3
        assert jump == pytest.approx(right - left, abs=1e-9)

    def test_ep_band_grid_names_cli_remedies(self, capsys):
        status, out, err = run_cli(capsys, "k3max", "--grid", "0.9:1.1:3")
        assert status == 2
        assert out == ""
        assert "--ep-report" in err and "avoids gamma/j = 1" in err
        assert "allow_ep" not in err


class TestWitness:
    def test_hermitian_value(self, capsys):
        status, out, _ = run_cli(capsys, "witness", "--gamma", "0")
        assert status == 0
        header, rows = read_csv(out)
        assert abs(float(rows[0][header.index("witness")]) - 0.5) < 1e-12

    def test_ratio_grid(self, capsys):
        status, out, _ = run_cli(capsys, "witness", "--grid", "0:0.9:10")
        header, rows = read_csv(out)
        values = [float(r[header.index("witness")]) for r in rows]
        assert len(values) == 10
        assert np.all(np.diff(values) >= -1e-12)

    def test_broken_regime_is_parameter_error(self, capsys):
        status, _, err = run_cli(capsys, "witness", "--gamma", "1.5")
        assert status == 2
        assert "regime" in err or "gamma" in err


class TestMonteCarlo:
    def test_deterministic_given_flags(self, capsys):
        argv = (
            "montecarlo", "--quantity", "k3", "--gamma", "0.95",
            "--t", str(PI / 4), "--shots", "2000", "--seed", "42", "--mode", "dilated",
        )
        status1, out1, _ = run_cli(capsys, *argv)
        status2, out2, _ = run_cli(capsys, *argv)
        assert status1 == status2 == 0
        assert out1 == out2

    def test_seed_changes_the_draw(self, capsys):
        base = ("montecarlo", "--quantity", "k3", "--gamma", "0.6", "--t", "0.5",
                "--shots", "500")
        _, out1, _ = run_cli(capsys, *base, "--seed", "1")
        _, out2, _ = run_cli(capsys, *base, "--seed", "2")
        assert out1 != out2

    def test_conditional_quantity(self, capsys):
        status, out, _ = run_cli(
            capsys, "montecarlo", "--quantity", "conditional", "--qin", "-1",
            "--gamma", "0", "--tau", str(PI / 4), "--shots", "100000", "--seed", "5",
        )
        assert status == 0
        header, rows = read_csv(out)
        estimate = float(rows[0][header.index("estimate")])
        stderr = float(rows[0][header.index("stderr")])
        assert abs(estimate - 0.5) <= 5 * stderr

    def test_witness_quantity(self, capsys):
        status, out, _ = run_cli(
            capsys, "montecarlo", "--quantity", "witness", "--gamma", "0",
            "--shots", "100000", "--seed", "6",
        )
        header, rows = read_csv(out)
        estimate = float(rows[0][header.index("estimate")])
        stderr = float(rows[0][header.index("stderr")])
        assert abs(estimate - 0.5) <= 5 * stderr

    def test_starved_postselection_is_numeric_error(self, capsys):
        status, _, err = run_cli(
            capsys, "montecarlo", "--quantity", "conditional", "--gamma",
            str(1.0 - 1e-8), "--tau", str(PI / 2), "--shots", "10",
            "--seed", "3", "--mode", "dilated",
        )
        assert status == 3
        assert err.strip()


class TestDilationCheck:
    def test_near_break_success_probability(self, capsys):
        status, out, _ = run_cli(
            capsys, "dilation-check", "--gamma", "0.95", "--tau", str(PI / 2)
        )
        assert status == 0
        header, rows = read_csv(out)
        table = {row[0]: row[1] for row in rows}
        assert abs(float(table["success_prob"]) - 0.025) < 1e-6
        assert float(table["unitarity_residual"]) < 1e-12
        assert float(table["intertwining_residual"]) < 1e-12
        assert table["passed"] == "1"

    def test_broken_regime_is_parameter_error(self, capsys):
        status, _, _ = run_cli(capsys, "dilation-check", "--gamma", "2.0")
        assert status == 2


class TestOutputFormats:
    def test_json_schema_round_trip(self, capsys):
        status, out, _ = run_cli(
            capsys, "witness", "--gamma", "0.6", "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["command"] == "witness"
        assert doc["columns"] == ["gamma_over_j", "p_without", "p_with", "witness"]
        assert doc["rows"][0][3] == pytest.approx(0.8, abs=1e-12)
        assert json.loads(json.dumps(doc)) == doc

    def test_csv_precision_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "correlators", "--gamma", "0.95", "--t", str(PI / 4))
        _, json_out, _ = run_cli(
            capsys, "correlators", "--gamma", "0.95", "--t", str(PI / 4),
            "--format", "json",
        )
        header, rows = read_csv(out)
        doc = json.loads(json_out)
        for csv_value, json_value in zip(rows[0], doc["rows"][0]):
            assert float(csv_value) == pytest.approx(json_value, rel=1e-11)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("gamma=0.95\nt=0.5\n# comment line\n")
        _, out_config, _ = run_cli(
            capsys, "correlators", "--config", str(config)
        )
        header, rows = read_csv(out_config)
        assert float(rows[0][header.index("T")]) == 0.5
        _, out_override, _ = run_cli(
            capsys, "correlators", "--config", str(config), "--t", "0.25"
        )
        header, rows = read_csv(out_override)
        assert float(rows[0][header.index("T")]) == 0.25

    def test_missing_config_file(self, capsys):
        status, _, err = run_cli(
            capsys, "correlators", "--t", "0.3", "--config", "/nonexistent/file.conf"
        )
        assert status == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
