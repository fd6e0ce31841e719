"""Tests for the command-line front end and its output formats."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qubitsim import MESSAGES, PhotonState, TimeSeries
from qubitsim import cli
from qubitsim.cli import emit_csv, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEmitCsv:
    def test_empty_series_is_header_only(self, capsys):
        series = TimeSeries(
            times=np.array([]), p_g=np.array([]), p_e=np.array([]),
            rho01=np.array([], dtype=complex),
        )
        emit_csv(series)
        out = capsys.readouterr().out
        assert out == "t,p_g,p_e,re_rho01,im_rho01,abs_rho01\n"

    def test_ground_state_sample_row(self, capsys):
        series = TimeSeries(
            times=np.array([0.0]), p_g=np.array([1.0]), p_e=np.array([0.0]),
            rho01=np.array([0.0], dtype=complex),
        )
        emit_csv(series)
        out = capsys.readouterr().out
        assert out.split("\n")[1] == (
            "0.00000000,1.00000000,0.00000000,0.00000000,0.00000000,0.00000000"
        )

    def test_nine_significant_digits(self, capsys):
        series = TimeSeries(
            times=np.array([2.0]), p_g=np.array([0.5]), p_e=np.array([0.5]),
            rho01=np.array([0.5 * np.exp(-1.0) + 0.0j]),
        )
        emit_csv(series)
        row = capsys.readouterr().out.split("\n")[1].split(",")
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

    def test_geometry_validation_exits_2(self, capsys):
        args = list(self.FLAT_ARGS)
        args[args.index("--slit-spacing") + 1] = "0.5"
        code, _, err = run_cli(capsys, args)
        assert code == 2
        assert "error:" in err

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


def readme_commands():
    """Every `qubitsim ...` command in README.md, with and without its [...] flags."""
    text = README.read_text().replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line.startswith("qubitsim "):
            continue
        commands.append(re.sub(r"\s*\[[^\]]*\]", "", line))
        if "[" in line:
            commands.append(line.replace("[", "").replace("]", ""))
    return commands


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
