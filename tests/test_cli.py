"""Tests for the command-line front end and its output formats."""

import json
import math
import os
import re
import shlex
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from readme_commands import readme_commands

from qubitsim import MESSAGES, DensityMatrix, PhotonState, TimeSeries
from qubitsim import cli, dynamics
from qubitsim.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def render_series_csv(series):
    return cli._render_csv(cli._series_columns(series))


class TestEmitCsv:
    """CSV rendering of a trajectory: header, then one row per sample."""

    def test_empty_series_is_header_only(self):
        series = TimeSeries(
            times=np.array([]), p_g=np.array([]), p_e=np.array([]),
            rho01=np.array([], dtype=complex),
        )
        out = render_series_csv(series)
        assert out == "t,p_g,p_e,re_rho01,im_rho01,abs_rho01\n"

    def test_ground_state_sample_row(self):
        series = TimeSeries(
            times=np.array([0.0]), p_g=np.array([1.0]), p_e=np.array([0.0]),
            rho01=np.array([0.0], dtype=complex),
        )
        out = render_series_csv(series)
        assert out.split("\n")[1] == (
            "0.00000000,1.00000000,0.00000000,0.00000000,0.00000000,0.00000000"
        )

    def test_nine_significant_digits(self):
        series = TimeSeries(
            times=np.array([2.0]), p_g=np.array([0.5]), p_e=np.array([0.5]),
            rho01=np.array([0.5 * np.exp(-1.0) + 0.0j]),
        )
        row = render_series_csv(series).split("\n")[1].split(",")
        assert row[0] == "2.00000000"
        assert row[5] == "0.183939721"


class TestDephasingCommand:
    ARGS = ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "10", "--dt", "0.001"]

    def test_headline_coherence_value(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "p_g", "p_e", "re_rho01", "im_rho01", "abs_rho01"]
        row = rows[2000]
        assert float(row[0]) == pytest.approx(2.0)
        assert float(row[5]) == pytest.approx(0.18394, abs=1e-5)

    def test_row_invariants(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows[:: len(rows) // 50]:
            p_g, p_e = float(row[1]), float(row[2])
            re, im, mag = float(row[3]), float(row[4]), float(row[5])
            assert abs(p_g + p_e - 1.0) < 1e-9
            assert abs(np.hypot(re, im) - mag) < 1e-9

    def test_custom_initial_state(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["dephasing", "--epsilon", "0", "--delta", "0.1", "--t-max", "1",
             "--dt", "0.01", "--rho01-init-re", "0.2", "--rho01-init-im", "0.1",
             "--p-e-init", "0.3"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == pytest.approx(0.3)
        assert float(rows[0][3]) == pytest.approx(0.2)
        assert float(rows[0][4]) == pytest.approx(0.1)

    def test_invalid_initial_state_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["dephasing", "--epsilon", "1", "--delta", "0.1", "--t-max", "1",
             "--dt", "0.01", "--rho01-init-re", "0.9"],
        )
        assert code == 2
        assert "error:" in err

    START_ARGS = ["dephasing", "--epsilon", "1", "--delta", "0.1", "--t-max", "1", "--dt", "0.01",
                  "--p-e-init", "0.3"]

    def test_typed_pure_state_is_shrunk_onto_the_bound(self, capsys):
        # 0.45825758^2 - 0.3 * 0.7 = 4.6e-9: the smallest eigenvalue misses
        # the library's -1e-9 but not the CLI's -1e-6.
        code, out, err = run_cli(
            capsys, self.START_ARGS + ["--rho01-init-re", "0.45825758", "--format", "json"]
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["meta"]["parameters"]["rho01_init_re"] == 0.45825758
        assert doc["data"]["re_rho01"][0] == pytest.approx(math.sqrt(0.21), abs=1e-15)
        assert doc["data"]["im_rho01"][0] == 0.0

    @pytest.mark.parametrize("extra, flag", [
        (["--rho01-init-re", "0.4583"], "--rho01-init-re and --rho01-init-im"),
        (["--rho01-init-re", "0.3", "--rho01-init-im", "0.35"], "--rho01-init-re and --rho01-init-im"),
        (["--p-e-init", "1.0000001", "--rho01-init-re", "0"], "--p-e-init"),
    ])
    def test_start_state_outside_input_tolerance_exits_2(self, capsys, extra, flag):
        code, _, err = run_cli(capsys, self.START_ARGS + extra)
        assert code == 2
        assert err.startswith(f"error: {flag}")

    @pytest.mark.parametrize("scale, expected", [(1 / 3, 0), (3.0, 2)])
    def test_typed_start_state_band_edge(self, capsys, scale, expected):
        # At the default p_e = 0.5 the smallest eigenvalue is 0.5 - |rho01|: it misses 0
        # by scale times 1e-6, the typed-input tolerance.
        args = self.START_ARGS[:-2] + ["--rho01-init-re", repr(0.5 + scale * 1e-6)]
        code, _, err = run_cli(capsys, args)
        assert code == expected, err
        assert err.startswith("error: --rho01-init-re") == (expected == 2)

    def test_valid_start_state_is_used_as_typed(self, capsys, monkeypatch):
        # 0.45825757^2 overshoots 0.21 by 4.6e-10, inside the library's tolerance.
        seen = []

        def recording_state(elements):
            seen.append(np.array(elements))
            return DensityMatrix(elements)

        monkeypatch.setattr(cli, "DensityMatrix", recording_state)
        assert run_cli(capsys, self.START_ARGS + ["--rho01-init-re", "0.45825757"])[0] == 0
        assert [m[0, 1] for m in seen] == [0.45825757]

    def test_step_guard_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["dephasing", "--epsilon", "1", "--delta", "0.1", "--t-max", "1", "--dt", "0.5"],
        )
        assert code == 2
        assert "error:" in err


class TestSuperdenseCommand:
    def test_noiseless_decode_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["superdense", "--message", "10", "--delta", "0", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["subcommand"] == "superdense"
        assert doc["data"]["decoded"] == "10"
        assert doc["data"]["probabilities"] == pytest.approx([0, 0, 1, 0], abs=1e-12)

    def test_noiseless_decode_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["superdense", "--message", "01", "--delta", "0"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["outcome", "probability"]
        probs = {row[0]: float(row[1]) for row in rows}
        assert probs["01"] == pytest.approx(1.0, abs=1e-12)

    def test_sweep_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["superdense", "--message", "00", "--delta", "0.25", "--t-max", "4",
             "--points", "5"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "success_00", "success_01", "success_10", "success_11"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
        success = [float(r[1]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(success, success[1:]))

    def test_sweep_at_an_overflowing_rate_starts_at_one(self, capsys):
        # 2 * delta overflows; at t = 0 the channel has not acted yet.
        code, out, err = run_cli(capsys, ["superdense", "--message", "00", "--delta", "1e308",
                                          "--t-max", "1", "--points", "3"])
        assert (code, err) == (0, "")
        rows = parse_csv(out)[1]
        assert rows[0] == ["0.00000000"] + ["1.00000000"] * 4
        assert [row[1:] for row in rows[1:]] == [["0.500000000"] * 4] * 2

    def test_sweep_flags_must_pair(self, capsys):
        code, _, err = run_cli(
            capsys, ["superdense", "--message", "00", "--delta", "0.1", "--t-max", "4"]
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("message", MESSAGES)
    def test_single_decode_matches_closed_form(self, capsys, message):
        partner = {"00": "01", "01": "00", "10": "11", "11": "10"}[message]
        for delta in (0.0, 0.05, 0.25, 1.0, 3.0):
            code, out, _ = run_cli(
                capsys, ["superdense", "--message", message, "--delta", str(delta),
                         "--format", "json"]
            )
            assert code == 0
            factor = np.exp(-2.0 * delta)  # one channel use lasts one time unit
            want = np.zeros(4)
            want[MESSAGES.index(message)] = 0.5 * (1.0 + factor)
            want[MESSAGES.index(partner)] = 0.5 * (1.0 - factor)
            got = np.array(json.loads(out)["data"]["probabilities"])
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_sweep_jobs_do_not_change_output(self, capsys):
        args = ["superdense", "--message", "11", "--delta", "0.25", "--t-max", "4",
                "--points", "9"]
        _, single, _ = run_cli(capsys, args)
        _, parallel, _ = run_cli(capsys, args + ["--jobs", "3"])
        assert single == parallel


class TestRamseyCommand:
    def test_first_row_fully_excited(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["ramsey", "--delta-split", "1", "--tau-max", "50.265", "--points", "512"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)
        assert len(rows) == 512

    def test_nyquist_violation_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["ramsey", "--delta-split", "100", "--tau-max", "10", "--points", "8"],
        )
        assert code == 2
        assert "error:" in err

    def test_dephasing_rate_damps_fringe(self, capsys):
        base = ["ramsey", "--delta-split", "1", "--tau-max", "12.566370614359172",
                "--points", "65"]
        _, bare, _ = run_cli(capsys, base)
        _, damped, _ = run_cli(capsys, base + ["--dephasing-rate", "0.2"])
        # Final crest (two full revolutions) sits at 1 without dephasing,
        # at (1 + e^{-2*0.2*4pi})/2 with it.
        assert float(parse_csv(bare)[1][-1][2]) == pytest.approx(1.0, abs=1e-9)
        expected = 0.5 * (1.0 + np.exp(-0.4 * 4.0 * np.pi))
        assert float(parse_csv(damped)[1][-1][2]) == pytest.approx(expected, abs=1e-6)

    def test_overflowing_dephasing_rate_runs(self, capsys):
        # 2 * rate overflows; the fringe is still fully excited at zero delay.
        code, out, err = run_cli(capsys, ["ramsey", "--delta-split", "1", "--tau-max", "10",
                                          "--points", "40", "--dephasing-rate", "1e308"])
        assert (code, err) == (0, "")
        rows = parse_csv(out)[1]
        assert rows[0][2] == "1.00000000"
        assert {row[2] for row in rows[1:]} == {"0.500000000"}


class TestInterferenceCommand:
    FLAT_ARGS = [
        "interference", "--k", "6.283185307179586", "--slit-spacing", "0.01",
        "--screen-distance", "1.0", "--a", "1", "--b", "0", "--phi", "0",
        "--x-min", "-100", "--x-max", "100", "--points", "51",
    ]

    def test_flat_profile_json(self, capsys):
        code, out, _ = run_cli(capsys, self.FLAT_ARGS + ["--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["data"]["intensity"] == pytest.approx([1.0] * 51)

    @pytest.mark.parametrize("points", ["1", "0", "-1"])
    def test_too_few_points_exit_2(self, capsys, points):
        args = list(self.FLAT_ARGS)
        args[args.index("--points") + 1] = points
        expected = f"error: --points must be at least 2, got {points}\n"
        assert run_cli(capsys, args) == (2, "", expected)

    def test_geometry_validation_exits_2(self, capsys):
        args = list(self.FLAT_ARGS)
        args[args.index("--slit-spacing") + 1] = "0.5"
        code, _, err = run_cli(capsys, args)
        assert code == 2
        assert "error:" in err

    def x_range_args(self, x_min, x_max):
        # "--flag=value", as argparse takes "-inf" or "-1e308" after a space for a flag.
        args = list(self.FLAT_ARGS)
        del args[args.index("--x-min"):args.index("--x-max") + 2]
        return args + [f"--x-min={x_min}", f"--x-max={x_max}"]

    @pytest.mark.parametrize("x_min, x_max", [
        ("0", "inf"), ("-inf", "0"), ("-inf", "inf"), ("0", "nan"), ("nan", "1"),
        ("-1e308", "1e308"),
    ])
    def test_x_range_must_be_finite(self, capsys, x_min, x_max):
        code, out, err = run_cli(capsys, self.x_range_args(x_min, x_max))
        assert (code, out) == (2, "")
        assert err.startswith("error: --x-max - --x-min must be finite, got ")

    def test_reversed_x_range_keeps_its_message(self, capsys):
        code, out, err = run_cli(capsys, self.x_range_args("1", "-1"))
        assert (code, out, err) == (2, "", "error: --x-max must exceed --x-min\n")

    def test_jobs_do_not_change_output(self, capsys):
        _, single, _ = run_cli(capsys, self.FLAT_ARGS)
        _, parallel, _ = run_cli(capsys, self.FLAT_ARGS + ["--jobs", "4"])
        assert single == parallel

    def amplitude_args(self, a, b):
        args = list(self.FLAT_ARGS) + ["--format", "json"]
        args[args.index("--a") + 1] = a
        args[args.index("--b") + 1] = b
        return args

    def test_typed_amplitudes_are_rescaled(self, capsys):
        # a^2 + b^2 = 0.9999999966, outside the library's 1e-12 but inside 1e-6.
        code, out, err = run_cli(capsys, self.amplitude_args("0.70710678", "0.70710678"))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["meta"]["parameters"]["a"] == 0.70710678
        assert doc["meta"]["parameters"]["b"] == 0.70710678
        assert max(doc["data"]["intensity"]) == pytest.approx(2.0, abs=1e-12)

    def test_amplitudes_outside_input_tolerance_exit_2(self, capsys):
        code, _, err = run_cli(capsys, self.amplitude_args("0.7071", "0.7071"))
        assert code == 2
        assert "a^2 + b^2" in err

    @pytest.mark.parametrize("scale, expected", [(1 / 3, 0), (3.0, 2)])
    def test_typed_amplitude_band_edge(self, capsys, scale, expected):
        # a^2 + b^2 misses 1 by scale times 1e-6, the typed-input tolerance.
        a = repr(math.sqrt((1.0 + scale * 1e-6) / 2.0))
        code, _, err = run_cli(capsys, self.amplitude_args(a, a))
        assert code == expected, err
        assert ("a^2 + b^2" in err) == (expected == 2)

    @pytest.mark.parametrize("flag, value", [
        ("--a", "1e300"), ("--b", "1e300"), ("--a", "1e308"), ("--b", "1e308"),
    ])
    def test_huge_amplitude_exits_2(self, capsys, flag, value):
        args = self.amplitude_args("0.6", "0.8")
        args[args.index(flag) + 1] = value
        code, out, err = run_cli(capsys, args)
        assert (code, out) == (2, "")
        assert err.startswith("error: amplitudes must lie in [0, 1]")

    @pytest.mark.parametrize("x_min, x_max", [("0", "1e20"), ("-1e20", "1")])
    def test_phase_overflow_exits_2(self, capsys, x_min, x_max):
        # k * L / R0 * x is 1e318 at |x| = 1e20, past the float range.
        args = self.x_range_args(x_min, x_max)
        args[args.index("--k") + 1] = "1e300"
        code, out, err = run_cli(capsys, args)
        assert (code, out) == (2, "")
        assert err == ("error: phase --k * --slit-spacing / --screen-distance * x overflows "
                       "at x = 1e+20 in [--x-min, --x-max]\n")

    def test_large_finite_phase_runs(self, capsys):
        args = self.x_range_args("0", "1")
        args[args.index("--k") + 1] = "1e300"
        code, out, err = run_cli(capsys, args)
        assert (code, err) == (0, "")
        assert "nan" not in out

    def test_normalized_amplitudes_are_used_as_typed(self, capsys, monkeypatch):
        seen = []

        def recording_state(a, b, phi):
            seen.append((a, b))
            return PhotonState(a, b, phi)

        monkeypatch.setattr(cli, "PhotonState", recording_state)
        assert run_cli(capsys, self.amplitude_args("0.6", "0.8"))[0] == 0
        assert seen == [(0.6, 0.8)]


class TestRabiCommand:
    def test_figure_of_merit_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["rabi", "--omega", "1", "--delta", "0.001", "--epsilon", "1",
             "--t-max", "1", "--dt", "0.01", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["data"]["figure_of_merit"] == 0.001
        assert len(doc["data"]["t"]) == 101


class TestDeterminismAndOutput:
    ARGS = ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "1", "--dt", "0.01"]

    def test_csv_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, self.ARGS)
        _, second, _ = run_cli(capsys, self.ARGS)
        assert first == second

    def test_json_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, self.ARGS + ["--format", "json"])
        _, second, _ = run_cli(capsys, self.ARGS + ["--format", "json"])
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, self.ARGS + ["--output", str(target)])
        assert code == 0
        assert out == ""
        _, stdout_text, _ = run_cli(capsys, self.ARGS)
        assert target.read_text() == stdout_text
        assert list(tmp_path.iterdir()) == [target]  # no leftover temp file

    def test_invalid_flags_leave_no_partial_file(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        bad = ["dephasing", "--epsilon", "1", "--delta", "-0.5", "--t-max", "1",
               "--dt", "0.01", "--output", str(target)]
        code, _, err = run_cli(capsys, bad)
        assert code == 2
        assert not target.exists()

    def test_missing_output_directory_exits_4(self, capsys, tmp_path):
        target = tmp_path / "no_such_dir" / "run.csv"
        code, _, err = run_cli(capsys, self.ARGS + ["--output", str(target)])
        assert code == 4
        assert "error:" in err

    @pytest.mark.parametrize("where, reason", [("missing", "No such file or directory"),
                                               ("directory", "Is a directory")])
    def test_failed_write_names_the_path_as_typed(self, capsys, tmp_path, monkeypatch, where,
                                                  reason):
        # The temp file's name is random, so naming it would make identical flags differ.
        monkeypatch.chdir(tmp_path)
        if where == "directory":
            os.mkdir("run.csv")
        typed = "no_such_dir/run.csv" if where == "missing" else "run.csv"
        first, second = (run_cli(capsys, self.ARGS + ["--output", typed]) for _ in range(2))
        assert first == second == (4, "", f"error: cannot write --output {typed}: {reason}\n")
        assert os.listdir() == (["run.csv"] if where == "directory" else [])

    def test_new_output_file_follows_the_umask(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        saved = os.umask(0o022)
        try:
            code, _, _ = run_cli(capsys, self.ARGS + ["--output", str(target)])
        finally:
            os.umask(saved)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_new_output_file_mode_needs_no_umask_call(self, capsys, tmp_path, monkeypatch):
        umask = os.umask(0)
        os.umask(umask)

        def refuse(*args):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        target = tmp_path / "run.csv"
        code, _, _ = run_cli(capsys, self.ARGS + ["--output", str(target)])
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    def test_overwritten_output_file_keeps_its_mode(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        code, _, _ = run_cli(capsys, self.ARGS + ["--output", str(target)])
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text().startswith("t,p_g,p_e,")

    def test_failed_write_leaves_no_temp_file(self, capsys, tmp_path, monkeypatch):
        # A directory cannot be replaced by the output file; a failing chmod
        # of the copy of an existing file's mode stops the write before the replace.
        target = tmp_path / "run.csv"
        target.mkdir()
        code, _, err = run_cli(capsys, self.ARGS + ["--output", str(target)])
        assert code == 4
        assert "error:" in err
        assert list(tmp_path.iterdir()) == [target] and not any(target.iterdir())

        def refuse(*args):
            raise PermissionError("chmod refused")

        other = tmp_path / "other.csv"
        other.write_text("old\n")
        monkeypatch.setattr(os, "chmod", refuse)
        code, _, err = run_cli(capsys, self.ARGS + ["--output", str(other)])
        assert code == 4
        assert "chmod refused" in err
        assert sorted(tmp_path.iterdir()) == [other, target]
        assert other.read_text() == "old\n"


class TestArgumentParsing:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["dephasing", "--epsilon", "1", "--delta", "0.1", "--t-max", "1",
                  "--dt", "0.01", "--frobnicate", "3"])
        assert excinfo.value.code == 2

    def test_bad_message_choice_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["superdense", "--message", "22", "--delta", "0"])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "qubitsim" in capsys.readouterr().out


def test_readme_lists_commands():
    assert len(readme_commands()) >= 7


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_exits_0(capsys, command):
    code, out, err = run_cli(capsys, shlex.split(command)[1:])
    assert code == 0, err
    assert out


def test_csv_output_builds_no_json_columns(capsys, monkeypatch):
    def fail(columns):
        raise AssertionError("JSON columns built for CSV output")

    monkeypatch.setattr(cli, "_columns_json", fail)
    code, _, err = run_cli(
        capsys, ["rabi", "--omega", "1", "--delta", "0.01", "--epsilon", "1", "--t-max", "1",
                 "--dt", "0.01"]
    )
    assert code == 0, err


class TestJsonParameters:
    """meta.parameters echoes every subcommand flag as parsed, in parser order."""

    @pytest.mark.parametrize("argv, keys", [
        (["interference", "--points", "51", "--x-max", "100", "--x-min", "-100", "--phi", "0",
          "--b", "0", "--a", "1", "--screen-distance", "1.0", "--slit-spacing", "0.01",
          "--k", "6.283185307179586"],
         ["k", "slit_spacing", "screen_distance", "a", "b", "phi", "x_min", "x_max", "points"]),
        (["ramsey", "--points", "512", "--tau-max", "50.265", "--delta-split", "1"],
         ["delta_split", "tau_max", "points", "dephasing_rate"]),
        (["ramsey", "--dephasing-rate", "0.1", "--delta-split", "1", "--tau-max", "50.265",
          "--points", "512"],
         ["delta_split", "tau_max", "points", "dephasing_rate"]),
        (["dephasing", "--dt", "0.01", "--t-max", "1", "--delta", "0.25", "--epsilon", "1"],
         ["epsilon", "delta", "t_max", "dt", "rho01_init_re", "rho01_init_im", "p_e_init"]),
        (["rabi", "--dt", "0.01", "--t-max", "1", "--epsilon", "1", "--delta", "0.001",
          "--omega", "1"],
         ["omega", "delta", "epsilon", "t_max", "dt"]),
        (["superdense", "--delta", "0.25", "--message", "10"],
         ["message", "delta", "transmission_time"]),
        (["superdense", "--points", "5", "--t-max", "4", "--delta", "0.25", "--message", "00"],
         ["message", "delta", "t_max", "points"]),
    ], ids=["interference", "ramsey", "ramsey-damped", "dephasing", "rabi",
            "superdense-single", "superdense-sweep"])
    def test_ordered_keys(self, capsys, tmp_path, argv, keys):
        target = tmp_path / "run.json"
        code, _, err = run_cli(
            capsys, argv + ["--jobs", "2", "--output", str(target), "--format", "json"]
        )
        assert code == 0, err
        assert list(json.loads(target.read_text())["meta"]["parameters"]) == keys

    def test_values_as_parsed_with_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys, ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "1",
                     "--dt", "0.01", "--rho01-init-re", "0.25", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["meta"]["parameters"] == {
            "epsilon": 1.0, "delta": 0.25, "t_max": 1.0, "dt": 0.01,
            "rho01_init_re": 0.25, "rho01_init_im": 0.0, "p_e_init": 0.5,
        }

    def test_single_decode_values(self, capsys):
        code, out, _ = run_cli(
            capsys, ["superdense", "--message", "10", "--delta", "0", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["meta"]["parameters"] == {
            "message": "10", "delta": 0.0, "transmission_time": 1.0,
        }


class TestNegativeZero:
    """-0.0 is written as 0.0 in both formats."""

    # Both initial coherence parts typed as -0.0 give re_rho01 = -0.0 at t = 0.
    ARGS = ["dephasing", "--epsilon", "0", "--delta", "0", "--t-max", "1", "--dt", "0.1",
            "--rho01-init-re", "-0.0", "--rho01-init-im", "-0.0"]

    def test_input_really_yields_negative_zero(self, monkeypatch, capsys):
        seen = []
        columns = cli._series_columns

        def spy(series):
            seen.append(series.rho01.real[0])
            return columns(series)

        monkeypatch.setattr(cli, "_series_columns", spy)
        assert run_cli(capsys, self.ARGS)[0] == 0
        assert seen[0] == 0.0 and math.copysign(1.0, seen[0]) == -1.0

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][header.index("re_rho01")] == "0.00000000"
        assert "-0.0" not in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        value = json.loads(out)["data"]["re_rho01"][0]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert "-0.0" not in json.dumps(json.loads(out)["data"])

    def test_renderers(self):
        columns = [("v", np.array([-0.0, 1.5]))]
        assert cli._render_csv(columns) == "v\n0.00000000\n1.50000000\n"
        assert cli._render_json(cli._columns_json(columns)) == '{\n  "v": [\n    0.0,\n    1.5\n  ]\n}\n'


@pytest.mark.parametrize("argv", [
    ["dephasing", "--epsilon", "nan", "--delta", "0.1", "--t-max", "0.1", "--dt", "0.01"],
    ["rabi", "--omega", "1", "--delta", "0.1", "--epsilon", "nan", "--t-max", "1",
     "--dt", "0.01"],
    ["dephasing", "--epsilon", "inf", "--delta", "0.1", "--t-max", "0.1", "--dt", "0.01"],
], ids=["dephasing-nan", "rabi-nan", "dephasing-inf"])
def test_non_finite_epsilon_exits_2_naming_it(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: epsilon ")


@pytest.mark.parametrize("argv", [
    ["dephasing", "--epsilon", "1", "--delta", "0.1", "--t-max", "1e308", "--dt", "1e-3"],
    ["dephasing", "--epsilon", "1", "--delta", "0.1", "--t-max", "1", "--dt", "1e-320"],
    ["rabi", "--omega", "1", "--delta", "0.1", "--epsilon", "1", "--t-max", "10",
     "--dt", "1e-300"],
    ["dephasing", "--epsilon", "1", "--delta", "0.1", "--t-max", "1e12", "--dt", "1e-3"],
], ids=["t-max-overflows", "dt-subnormal", "rabi-dt-tiny", "too-many-steps"])
def test_step_count_past_the_limit_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: t_max / dt = ")
    assert err.endswith(" exceeds the limit of 1000000000 steps\n")


# Floats json writes in unusual forms, and text it must escape.
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1e300, 1e-300, -1e-300]),
)
_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t/'), st.characters()), max_size=8)
_SCALARS = st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(), _TEXT)
_DOCUMENTS = st.recursive(
    st.one_of(_SCALARS, st.lists(_FLOATS, max_size=12)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_TEXT, children, max_size=4),
        # Non-string keys, which json converts to strings.
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()), children,
                        max_size=3),
    ),
    max_leaves=12,
)


@given(st.dictionaries(_TEXT, _DOCUMENTS, max_size=5))
def test_render_json_matches_json_dumps(document):
    assert cli._render_json(document) == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize("document", [
    {}, {"a": {}}, {"a": []}, {"a": [[]]}, {"a": [{}]}, {"a": [1.0, [2.0]]},
    {"a": [1.0, {"a": 1}]}, {"a": {"b": {"c": [-0.0, float("nan"), float("-inf")]}}},
    {"a": (1.0, 2.0)}, {"a": [(1.0,), 2.0]}, {1: [1.0, 2.0]}, [1.0, 2.0], 1.5, "x",
])
def test_render_json_edge_documents(document):
    assert cli._render_json(document) == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["interference", "--k", "6.2832", "--slit-spacing", "0.01", "--screen-distance", "1",
     "--a", "0.6", "--b", "0.8", "--phi", "0.3", "--x-min", "-50", "--x-max", "50",
     "--points", "21"],
    ["ramsey", "--delta-split", "1", "--tau-max", "10", "--points", "21",
     "--dephasing-rate", "0.1"],
    ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "1", "--dt", "0.01",
     "--rho01-init-re", "-0.0"],
    ["rabi", "--omega", "1", "--delta", "0.01", "--epsilon", "1", "--t-max", "1",
     "--dt", "0.01"],
    ["rabi", "--omega", "1", "--delta", "0", "--epsilon", "1", "--t-max", "1", "--dt", "0.01"],
    ["superdense", "--message", "10", "--delta", "0.25"],
    ["superdense", "--message", "01", "--delta", "0.25", "--t-max", "6", "--points", "11"],
], ids=["interference", "ramsey", "dephasing", "rabi", "rabi-delta-0", "superdense-single",
        "superdense-sweep"])
def test_main_json_is_json_dumps_layout(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("value", ["1e300", "1e308", "inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--rho01-init-re", "--rho01-init-im", "--p-e-init"])
def test_overflowing_start_state_exits_2_with_one_line(capsys, flag, value):
    argv = ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "1", "--dt", "0.01",
            f"{flag}={value}"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    # Exactly one line: the error, with no numpy warning before it.
    if value in ("inf", "-inf", "nan"):
        expected = re.escape(f"error: {flag} must be finite, got {value}")
    elif flag != "--p-e-init":
        expected = r"error: --rho01-init-re and --rho01-init-im exceed .* min eigenvalue -inf .*"
    else:
        expected = r"error: --p-e-init must lie in \[0, 1\], got 1e\+30[08]"
    assert re.fullmatch(expected + "\n", err)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_subnormal_rabi_drive_exits_2(capsys, fmt):
    argv = ["rabi", "--omega=1e-320", "--delta", "0.001", "--epsilon", "1", "--t-max", "3",
            "--dt", "0.01", "--format", fmt]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == ("error: drive amplitude 1e-320 is too small: delta / omega overflows "
                   "for dephasing rate 0.001\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_drift_exits_3_naming_the_step(capsys, monkeypatch, fmt):
    def drifting(rho0, h, channels, dt, n_steps):
        traj = np.tile(rho0.reshape(4), (n_steps + 1, 1))
        traj[7:, 0] += 1e-6  # the trace leaves its tolerance at step 7
        return traj

    monkeypatch.setattr(dynamics, "_integrate_static", drifting)
    argv = ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "1", "--dt", "0.01",
            "--format", fmt]
    assert run_cli(capsys, argv) == (3, "", "error: trace deviated by 1.000e-06 at step 7\n")


NUMPY_MEMORY_TEXT = ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                     "and data type float64")


@pytest.mark.parametrize("text, line", [
    (NUMPY_MEMORY_TEXT, NUMPY_MEMORY_TEXT), ("", "not enough memory for this run"),
], ids=["numpy", "empty"])
@pytest.mark.parametrize("argv, allocation", [
    (["ramsey", "--delta-split", "1e-9", "--tau-max", "1", "--points", "1000000000000"],
     "linspace"),
    (["superdense", "--message", "00", "--delta", "0.1", "--t-max", "1",
      "--points", "1000000000000"], "linspace"),
    (["interference", "--k", "1", "--slit-spacing", "0.01", "--screen-distance", "1",
      "--a", "1", "--b", "0", "--phi", "0", "--x-min", "-1", "--x-max", "1",
      "--points", "1000000000000"], "linspace"),
    (["dephasing", "--epsilon", "0.5", "--delta", "0.01", "--t-max", "1e8", "--dt", "0.1"],
     "empty"),
], ids=["ramsey", "superdense", "interference", "dephasing"])
def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, tmp_path, argv, allocation,
                                             text, line):
    # The allocation is refused before it is made: no test allocates for real.
    def refuse(*args, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr(np, allocation, refuse)
    target = tmp_path / "out.csv"
    assert run_cli(capsys, argv) == (2, "", f"error: {line}\n")
    assert run_cli(capsys, argv + ["--output", str(target)]) == (2, "", f"error: {line}\n")
    assert list(tmp_path.iterdir()) == []
