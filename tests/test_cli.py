import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptqubit.cli
from ptqubit.cli import main, parse_grid
from ptqubit.errors import NormalizationError, ParameterError

PI = np.pi
SRC = Path(ptqubit.cli.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_subprocess(*argv, timeout=60):
    """Run `python -m ptqubit` from this checkout; a hang fails the test at `timeout`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "ptqubit", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestGridParsing:
    def test_linspace_semantics(self):
        grid = parse_grid("0:1:5")
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize(
        "spec",
        ["", "1:2", "a:b:c", "0:1:0", "2:1:5", "0:1:2:3",
         "0:inf:3", "-inf:0:3", "nan:1:3", "0:nan:3", "0:1:1000001"],
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(ParameterError):
            parse_grid(spec)

    def test_oversized_grid_exits_2_before_allocating(self, capsys):
        # 10**12 points would be 8 TB; the cap rejects it before numpy sees it
        status, out, err = run_cli(capsys, "evolve", "--grid", "0:1:1000000000000")
        assert status == 2
        assert out == ""
        assert "1000000 points" in err


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


    def test_unwritable_out_is_parameter_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        status, out, err = run_cli(capsys, "k3", "--out", str(target))
        assert status == 2
        assert out == ""
        assert err.startswith(f"ptqubit k3: cannot write {target}")


@pytest.mark.parametrize(
    "argv",
    [
        ["correlators", "--j", "1e-10", "--t", "1e300"],
        ["evolve", "--j", "1e-150", "--grid", "0:1e300:3"],
        ["montecarlo", "--j", "1e-150", "--tau", "1e300", "--quantity", "conditional"],
    ],
)
def test_raw_time_overflow_is_parameter_error(capsys, argv):
    # a small rate turns a finite scaled time into a raw time beyond the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert "leaves the double range" in err


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

    @pytest.mark.parametrize(
        "flags,entries",
        [
            (["--ep-report", "--grid", "0:0.95:20"], ""),  # the default grid, given explicitly
            (["--ep-report"], "grid=0:0.5:3"),
            (["--ep-rep", "--gr", "0:0.5:3"], ""),  # abbreviated
            (["--grid", "0:0.5:3"], "ep_report=1"),
        ],
    )
    def test_grid_with_ep_report_is_parameter_error(self, capsys, tmp_path, flags, entries):
        if entries:
            config = tmp_path / "run.conf"
            config.write_text(entries + "\n")
            flags = [*flags, "--config", str(config)]
        status, out, err = run_cli(capsys, "k3max", *flags)
        assert status == 2
        assert out == ""
        assert err == "ptqubit k3max: --grid is not read by --ep-report\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid", "0.5:0.5:1", "--tol", "nan"],  # NaN passed a `tol <= 0` check
            ["--grid", "1.5:1.5:1", "--ptb-t-hi", "inf"],  # reached np.linspace(0, inf)
            ["--grid", "0:0:1", "--j", "inf"],  # 0 * inf before j was checked
            ["--grid", "0.5:0.5:1", "--gamma", "-1"],  # --gamma was accepted unchecked
            ["--ep-report", "--gamma", "nan"],
        ],
    )
    def test_non_finite_search_inputs_are_parameter_errors(self, capsys, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out, err = run_cli(capsys, "k3max", *flags)
        assert status == 2
        assert out == ""
        assert err.startswith("ptqubit k3max: ")


    @pytest.mark.parametrize(
        "flags,status",
        [
            (["--grid", "0.5:0.5:1", "--tol", "1e-30"], 0),  # tol below the bracket's ulp
            (["--grid", "0.5:0.5:1", "--t-hi", "1e300"], 0),  # ulp of the bracket above tol
            (["--ep-report", "--ep-eps", "1e-300"], 2),  # eps/100 inside the EP band
            # eps/100 > 1e-9, but 1 - eps/100 rounds into the band
            (["--ep-report", "--ep-eps", "1.0000000000000002e-07"], 2),
        ],
    )
    def test_optimizer_edge_cases_end_in_time(self, flags, status):
        result = run_subprocess("k3max", *flags)
        assert result.returncode == status, result.stderr
        if status == 0:
            header, rows = read_csv(result.stdout)
            assert np.isfinite(float(rows[0][header.index("k3_max")]))
        else:
            assert result.stdout == ""
            assert "exceptional-point band" in result.stderr


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

    @pytest.mark.parametrize(
        "flags,name",
        [
            (["--grid", "0:0.5:2", "--gamma", "-1"], "gamma"),  # was ignored with a grid
            (["--grid", "0:0:1", "--j", "inf"], "coupling rate j"),  # 0 * inf before the check
        ],
    )
    def test_grid_still_validates_rates(self, capsys, flags, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out, err = run_cli(capsys, "witness", *flags)
        assert status == 2
        assert out == ""
        assert name in err


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


    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--shots", "1000000000000000000000"]]
    )
    def test_out_of_range_budget_is_parameter_error(self, capsys, flags):
        status, out, err = run_cli(capsys, "montecarlo", "--shots", "10", *flags)
        assert status == 2
        assert out == ""
        assert err.startswith("ptqubit montecarlo: ")

    @pytest.mark.parametrize(
        "flags,entries,message",
        [
            (["--j", "1e-150", "--tau", "1e300"], "", "--tau is not read by --quantity k3"),
            (["--quantity", "conditional", "--t", "5"], "", "--t is not read by --quantity conditional"),
            (["--quantity", "witness", "--qin", "1"], "", "--qin is not read by --quantity witness"),
            (["--qua", "k3", "--ta", "3"], "", "--tau is not read by --quantity k3"),  # abbreviated
            (["--quantity", "witness"], "t=0.5", "--t is not read by --quantity witness"),
        ],
    )
    def test_unread_flags_are_parameter_errors(self, capsys, tmp_path, flags, entries, message):
        if entries:
            config = tmp_path / "run.conf"
            config.write_text(entries + "\n")
            flags = [*flags, "--config", str(config)]
        status, out, err = run_cli(capsys, "montecarlo", *flags)
        assert status == 2
        assert out == ""
        assert err == f"ptqubit montecarlo: {message}\n"

    def test_non_finite_time_in_dilated_mode_is_parameter_error(self, capsys):
        status, _, err = run_cli(
            capsys, "montecarlo", "--quantity", "conditional", "--mode", "dilated", "--tau", "nan"
        )
        assert status == 2
        assert "finite" in err


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

    def test_config_sets_format_and_out(self, capsys, tmp_path):
        target = tmp_path / "w.json"
        config = tmp_path / "run.conf"
        config.write_text(f"gamma=0.6\nformat=json\nout={target}\n")
        status, out, _ = run_cli(capsys, "witness", "--config", str(config))
        assert status == 0
        assert out == ""
        _, expected, _ = run_cli(capsys, "witness", "--gamma", "0.6", "--format", "json")
        assert target.read_text() == expected

    @pytest.mark.parametrize(
        "command,entries,flags",
        [
            ("k3max", "grid=0.5:0.5:1\nwide=1", ["--grid", "0.5:0.5:1", "--wide"]),
            ("k3max", "grid=0.5:0.5:1\nwide=false", ["--grid", "0.5:0.5:1"]),
            ("k3max", "ep_report=true\nep-eps=0.05", ["--ep-report", "--ep-eps", "0.05"]),
            ("montecarlo", "bootstrap=TRUE\nshots=50", ["--bootstrap", "--shots", "50"]),
            ("montecarlo", "bootstrap=0\nmode=dilated", ["--mode", "dilated"]),
        ],
    )
    def test_config_switches_match_flags(self, capsys, tmp_path, command, entries, flags):
        config = tmp_path / "run.conf"
        config.write_text(entries + "\n")
        status, out, _ = run_cli(capsys, command, "--config", str(config))
        assert status == 0
        assert (status, out) == run_cli(capsys, command, *flags)[:2]

    def test_flags_override_config_switches_and_values(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("quantity=conditional\nshots=50\n")
        _, out, _ = run_cli(
            capsys, "montecarlo", "--config", str(config), "--shots", "70", "--bootstrap"
        )
        _, expected, _ = run_cli(
            capsys, "montecarlo", "--quantity", "conditional", "--shots", "70", "--bootstrap"
        )
        assert out == expected

    def test_config_leaves_no_state_in_the_parser(self, capsys, tmp_path):
        _, first, _ = run_cli(capsys, "montecarlo")
        config = tmp_path / "run.conf"
        config.write_text("bootstrap=1\nt=0.3\n")
        _, configured, _ = run_cli(capsys, "montecarlo", "--config", str(config))
        _, again, _ = run_cli(capsys, "montecarlo")
        assert configured != first
        assert again == first

    @pytest.mark.parametrize(
        "command,entry,message",
        [
            ("correlators", "gama=0.5", "unknown key 'gama'"),
            ("correlators", "grid=0:1:3", "unknown key 'grid'"),  # not a correlators flag
            ("correlators", "config=other.conf", "unknown key 'config'"),
            ("k3max", "wide=yes", "1/0/true/false"),
        ],
    )
    def test_config_rejects_other_keys(self, capsys, tmp_path, command, entry, message):
        config = tmp_path / "run.conf"
        config.write_text(entry + "\n")
        status, out, err = run_cli(capsys, command, "--config", str(config))
        assert status == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("entry", ["gamma=abc", "mode=exact", "qin=2", "shots=1.5"])
    def test_config_values_pass_the_flag_types(self, capsys, tmp_path, entry):
        config = tmp_path / "run.conf"
        config.write_text(entry + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["montecarlo", "--config", str(config)])
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        status, _, err = run_cli(
            capsys, "correlators", "--t", "0.3", "--config", "/nonexistent/file.conf"
        )
        assert status == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


# The JSON `parameters` object of every subcommand, keys in order, with default
# and with non-default flags; a frozen literal, part of the document format.
@pytest.mark.parametrize(
    "argv,parameters",
    [
        (["evolve"], [("j", 1.0), ("gamma", 0.0)]),
        (["evolve", "--j", "2", "--gamma", "0.5", "--grid", "0:1:3"], [("j", 2.0), ("gamma", 0.5)]),
        (["distance"], [("j", 1.0), ("gamma", 0.0)]),
        (["distance", "--j", "0.5", "--gamma", "0.25", "--grid", "0:1:3"],
         [("j", 0.5), ("gamma", 0.25)]),
        (["correlators"], [("j", 1.0), ("gamma", 0.0), ("t", 0.5235987755982988)]),
        (["correlators", "--j", "3", "--gamma", "1.5", "--t", "0.25"],
         [("j", 3.0), ("gamma", 1.5), ("t", 0.25)]),
        (["k3"], [("j", 1.0), ("gamma", 0.0)]),
        (["k3", "--j", "2", "--gamma", "1", "--grid", "0:0.5:3"], [("j", 2.0), ("gamma", 1.0)]),
        (["k3max"], [("j", 1.0)]),
        (["k3max", "--j", "2", "--gamma", "7", "--grid", "0.25:0.5:2", "--wide", "--tol", "1e-6"],
         [("j", 2.0)]),
        (["k3max", "--ep-report"], [("j", 1.0), ("eps", 0.01)]),
        (["k3max", "--ep-report", "--j", "2", "--ep-eps", "0.05"], [("j", 2.0), ("eps", 0.05)]),
        (["witness"], [("j", 1.0)]),
        (["witness", "--j", "2", "--gamma", "1", "--grid", "0:0.5:3"], [("j", 2.0)]),
        (["montecarlo"],
         [("j", 1.0), ("gamma", 0.0), ("shots", 10000), ("seed", 0), ("mode", "ideal")]),
        (["montecarlo", "--j", "2", "--gamma", "1", "--quantity", "conditional", "--qin", "1",
          "--tau", "0.5", "--shots", "50", "--seed", "9", "--mode", "dilated", "--bootstrap"],
         [("j", 2.0), ("gamma", 1.0), ("shots", 50), ("seed", 9), ("mode", "dilated")]),
        (["dilation-check"], [("j", 1.0), ("gamma", 0.0), ("tau", 0.7853981633974483)]),
        (["dilation-check", "--j", "2", "--gamma", "1", "--tau", "0.5"],
         [("j", 2.0), ("gamma", 1.0), ("tau", 0.5)]),
    ],
)
def test_json_parameters_are_frozen(capsys, argv, parameters):
    status, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    assert list(doc["parameters"].items()) == parameters


# Every subcommand's flags with generated values, from finite ones to the edges
# (negative, zero, tiny, huge and non-finite), split between the command line
# and a config file: whatever the input, main() ends in 0, 2 or 3 and never
# leaves an exception other than argparse's usage exit behind.
EDGE_NUMBERS = ["-1", "0", "1e-300", "1e300", "nan", "inf", "-inf"]
numbers = st.one_of(st.sampled_from(EDGE_NUMBERS), st.floats(-1.0, 4.0).map(repr))
counts = st.one_of(
    st.sampled_from(["-1", "0", str(2**63), str(10**21)]), st.integers(1, 200).map(str)
)
grids = st.builds("{}:{}:{}".format, numbers, numbers, st.integers(0, 4))
switches = st.sampled_from(["1", "0", "true", "false"])
COMMON_FLAGS = {"j": numbers, "gamma": numbers, "format": st.sampled_from(["csv", "json"])}
COMMAND_FLAGS = {
    "evolve": {"grid": grids},
    "distance": {"grid": grids},
    "correlators": {"t": numbers},
    "k3": {"grid": grids},
    "k3max": {
        "grid": grids, "t_hi": numbers, "ptb_t_hi": numbers, "tol": numbers,
        "ep_eps": numbers, "wide": switches, "ep_report": switches,
    },
    "witness": {"grid": grids},
    "montecarlo": {
        "quantity": st.sampled_from(["conditional", "k3", "witness"]),
        "qin": st.sampled_from(["-1", "1"]), "tau": numbers, "t": numbers,
        "shots": counts, "seed": counts, "mode": st.sampled_from(["ideal", "dilated"]),
        "bootstrap": switches,
    },
    "dilation-check": {"tau": numbers},
}


def _cli_flag(key, value):
    flag = "--" + key.replace("_", "-")
    if value in ("1", "0", "true", "false") and key in ("wide", "ep_report", "bootstrap"):
        return [flag] if value in ("1", "true") else []
    return [f"{flag}={value}"]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
@given(data=st.data())
def test_any_input_ends_in_a_documented_exit_code(command, data):
    flags = {**COMMON_FLAGS, **COMMAND_FLAGS[command]}
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5))
    in_file = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    argv, entries = [command], []
    for key, to_file in zip(chosen, in_file):
        value = data.draw(flags[key])
        if to_file:
            entries.append(f"{key}={value}")
        else:
            argv += _cli_flag(key, value)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if entries:
            config = Path(tmp) / "run.conf"
            config.write_text("\n".join(entries) + "\n")
            argv += ["--config", str(config)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse rejected a flag value
                status = exc.code
                assert status == 2
    assert status in (0, 2, 3), (argv, entries)
    if status == 0:
        assert out.getvalue() and "nan" not in out.getvalue().lower(), (argv, entries)
    else:
        assert err.getvalue().strip(), (argv, entries)
