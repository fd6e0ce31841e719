"""Tests for the command-line front end and its output formats."""

import argparse
import ast
import errno
import io
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from readme_commands import README, readme_commands, readme_python

import qubitsim
from qubitsim import MESSAGES, DensityMatrix, PhotonState, TimeSeries, rabi_with_dephasing
from qubitsim import _csvcells, cli, dynamics
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

    @staticmethod
    def assert_cells_are_percent_text(values):
        # One value per row among cells of 0.25, so that no other cell sends its row
        # to %, in four columns, so that both separators occur.
        table = np.full((len(values), 4), 0.25)
        table[np.arange(len(values)), np.arange(len(values)) % 4] = values
        expected = "".join(",".join("%#.9g" % (v + 0.0) for v in row) + "\n"
                           for row in table.tolist())
        assert cli._render_csv([(f"c{k}", table[:, k]) for k in range(4)], header=False) == expected

    # Ties of the ninth digit, carries into the next power of ten, the ends of
    # fixed notation, zeros, subnormals, and exponents past the tables' range.
    EDGE_VALUES = [
        123456789.5, 9.9999999995, 9.999999995, 0.9999999995, 0.99999999949, 1.0000000005,
        9.9999999995e-5, *(np.nextafter(v, to) for v in (1e-4, 1e9, 1e100) for to in (0.0, np.inf)),
        1e-4, 1e9, 1e100, 0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
        1e300, -1e300, 1e-300, math.inf, -math.inf, math.nan,
        3.981485115e-17, 9.537490395e119,  # a * 10**(8 - e) rounds across the tie
    ]

    def test_edge_values_are_percent_text(self):
        self.assert_cells_are_percent_text(self.EDGE_VALUES)
        self.assert_cells_are_percent_text([-v for v in self.EDGE_VALUES])
        column = np.array([123456789.5, 9.9999999995, 9.999999995, -0.0])
        lines = cli._render_csv([("v", column)], header=False).split("\n")
        assert lines == ["123456790.", "10.0000000", "9.99999999", "0.00000000", ""]

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
    def test_wide_floats_are_percent_text(self, values):
        self.assert_cells_are_percent_text(values)

    # Ten significant digits ending in 5 put the double within an ulp of a tie of the ninth.
    @given(st.lists(st.floats(0.99999999, 1.00000001)
                    | st.builds(lambda digits, exp: float(f"{digits}5e{exp}"),
                                st.integers(10**8, 10**9 - 1), st.integers(-297, 280)),
                    min_size=1, max_size=64))
    def test_floats_near_one_and_near_ties_are_percent_text(self, values):
        self.assert_cells_are_percent_text(values)

    def test_only_near_ties_go_through_percent(self, monkeypatch):
        spliced = []
        joined = _csvcells._joined

        def spy(cells, rest, texts):
            spliced.append((rest.tolist(), texts))
            return joined(cells, rest, texts)

        monkeypatch.setattr(_csvcells, "_joined", spy)
        table = np.full((300, 2), 0.25)
        # Within 1e-5 of a tie of the ninth digit: scaled is 999999999.5 and 398148511.50000006.
        table[7, 1], table[9, 0] = 9.999999995, 3.981485115e-17
        lines = _csvcells.format_rows([table[:, 0], table[:, 1]]).split("\n")
        # The two cells alone, not the rest of their rows.
        assert spliced == [([15, 18], ["9.99999999", "3.98148511e-17"])]
        assert lines[7:10] == ["0.250000000,9.99999999", "0.250000000,0.250000000",
                               "3.98148511e-17,0.250000000"]
        spliced.clear()
        table[7, 1], table[8, 0], table[9, 0] = 9.9999999996, 999999999.7, 0.25  # carries, no tie
        lines = _csvcells.format_rows([table[:, 0], table[:, 1]]).split("\n")
        assert spliced == [([], [])]
        assert lines[7:9] == ["0.250000000,10.0000000", "1.00000000e+09,0.250000000"]

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_text_column_at_any_place(self, at):
        # 600 rows: two pieces of the numpy writer. Numbers of every kind share rows with text.
        rng = np.random.default_rng(27)
        numbers = [rng.normal(scale=10.0 ** rng.integers(-300, 300, 600)) for _ in range(2)]
        numbers[0][:6] = [-0.0, 9.999999995, math.nan, -math.inf, 1e-310, 0.0]
        numbers[1][:6] = [3.981485115e-17, -0.0, math.inf, 0.25, math.nan, 1e300]
        columns = [("a", numbers[0]), ("b", numbers[1])]
        columns.insert(at, ("text", [f"s{i}" for i in range(600)]))
        names = [name for name, _ in columns]
        expected = "".join(",".join("%s" % v if name == "text" else "%#.9g" % (v + 0.0)
                                    for name, v in zip(names, row)) + "\n"
                           for row in zip(*(values for _, values in columns)))
        assert cli._render_csv(columns) == ",".join(names) + "\n" + expected

    def test_negative_zero_beside_spliced_cells(self):
        # -0.0 is decided by numpy, next to a near-tie, NaN and inf, which are spliced.
        columns = [(name, np.array([v])) for name, v in
                   (("z", -0.0), ("tie", 9.999999995), ("nan", math.nan), ("inf", math.inf))]
        assert cli._render_csv(columns, header=False) == "0.00000000,9.99999999,nan,inf\n"


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

    def test_zero_coherence_is_written_as_zeros(self, capsys):
        # The CSV cell writer takes log10 of each cell; its exact zeros must not warn.
        zero = ["--rho01-init-re", "0", "--rho01-init-im", "0"]
        code, out, err = run_cli(capsys, self.ARGS + zero)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 10001
        assert all(row[3:] == ["0.00000000"] * 3 for row in rows)

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

    def test_snap_band_edge_is_no_multiple_of_two_to_the_minus_53(self):
        # Within 1e-12 of 1, a**2 + b**2 - 1.0 is exact (Sterbenz) and a multiple
        # of 2**-53. NORM_ATOL is not one, so `NORM_ATOL <` and `NORM_ATOL <=` at
        # the band's lower edge accept the same amplitudes.
        assert (Fraction(cli.NORM_ATOL) * 2**53).denominator != 1


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


    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_onto_a_fifo_writes_through_it(self, capsys, tmp_path):
        # Replacing the FIFO with a file would leave its reader waiting for ever.
        fifo = tmp_path / "run.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        result = run_cli(capsys, self.ARGS + ["--output", str(fifo)])
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert result == (0, "", "")
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        _, stdout_text, _ = run_cli(capsys, self.ARGS)
        assert received == [stdout_text.encode()]
        assert list(tmp_path.iterdir()) == [fifo]  # no leftover temp file

    def test_output_through_a_symlink_keeps_the_link(self, capsys, tmp_path, monkeypatch):
        # Replacing the link with a file would leave the file it names stale.
        monkeypatch.chdir(tmp_path)
        os.mkdir("data")
        real = tmp_path / "data" / "real.csv"
        real.write_text("old\n")
        real.chmod(0o640)
        os.symlink(os.path.join("data", "real.csv"), "link.csv")
        assert run_cli(capsys, self.ARGS + ["--output", "link.csv"]) == (0, "", "")
        assert os.readlink("link.csv") == os.path.join("data", "real.csv")
        _, stdout_text, _ = run_cli(capsys, self.ARGS)
        assert real.read_text() == stdout_text
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(os.listdir()) == ["data", "link.csv"]  # no leftover temp file
        assert os.listdir("data") == ["real.csv"]

    def test_chained_and_dangling_symlinks_stay_links(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkdir("data")
        os.symlink(os.path.join("data", "real.csv"), "dangling.csv")
        os.symlink("dangling.csv", "chain.csv")
        for fmt, typed in (("csv", "dangling.csv"), ("json", "chain.csv")):
            argv = self.ARGS + ["--format", fmt]
            assert run_cli(capsys, argv + ["--output", typed]) == (0, "", "")
            _, stdout_text, _ = run_cli(capsys, argv)
            assert (tmp_path / "data" / "real.csv").read_text() == stdout_text
            assert os.readlink("dangling.csv") == os.path.join("data", "real.csv")
            assert os.readlink("chain.csv") == "dangling.csv"
            assert sorted(os.listdir()) == ["chain.csv", "dangling.csv", "data"]
            assert os.listdir("data") == ["real.csv"]

    def test_output_with_a_trailing_separator_is_not_a_directory(self, capsys, tmp_path,
                                                                 monkeypatch):
        # Resolving this path would drop the separator and write a file named newname.
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, self.ARGS + ["--output", "newname/"]) == (
            4, "", "error: cannot write --output newname/: Not a directory\n")
        assert os.listdir() == []


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


def test_readme_python_gives_the_values_its_comments_state():
    # Each bare expression is evaluated in turn, as the interactive prompt shows it.
    values = []
    for block in readme_python():
        namespace = {}
        for statement in ast.parse(block).body:
            if isinstance(statement, ast.Expr):
                expression = compile(ast.Expression(statement.value), "README.md", "eval")
                values.append(eval(expression, namespace))
            else:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    # abs(series.rho01[2000]) and qs.dephasing_time(0.25).
    assert values == [pytest.approx(0.5 * math.exp(-1.0), rel=1e-9), 2.0]


def test_readme_points_limit_is_the_line_the_cli_prints(capsys):
    text = " ".join(README.read_text().split())
    line, count = re.search(r"`(error: --points must be at most \d+, got (\d+))`", text).groups()
    for command, label in [("interference", "--points"), ("ramsey", "n_points")]:
        argv = shlex.split(next(c for c in readme_commands() if c.split()[1] == command))[1:]
        argv[argv.index("--points") + 1] = count
        assert run_cli(capsys, argv) == (2, "", line.replace("--points", label) + "\n")


def script_env():
    """The environment for `python -m qubitsim.cli` on the tested package, warnings as errors."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONWARNINGS"] = "error"
    return env


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_exits_0(capsys, command):
    # Each of two calls in one process prints the script's bytes, with empty stderr.
    argv = shlex.split(command)[1:]
    script = subprocess.run([sys.executable, "-m", "qubitsim.cli", *argv], capture_output=True,
                            env=script_env(), timeout=120)
    assert (script.returncode, script.stderr) == (0, b"")
    assert script.stdout
    for _ in range(2):
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out.encode() == script.stdout


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
        assert cli._render_json({"meta": {}, "data": dict(columns)}) == (
            '{\n  "meta": {},\n  "data": {\n    "v": [\n      0.0,\n      1.5\n    ]\n  }\n}\n')


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
_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f/\u00e9\u2028\U0001f600'),
                          st.characters()), max_size=8)
_COLUMNS = st.lists(_FLOATS, max_size=20)


@given(
    meta=st.fixed_dictionaries({
        "subcommand": _TEXT,
        "parameters": st.dictionaries(_TEXT, st.one_of(_FLOATS, st.integers(), _TEXT),
                                      max_size=6),
        "version": _TEXT,
    }),
    data=st.dictionaries(_TEXT, st.one_of(_COLUMNS.map(np.array), _COLUMNS, _FLOATS, _TEXT),
                         max_size=6),
    block_rows=st.sampled_from([1, 2, 3, 4096]),
)
def test_render_json_is_json_dumps_of_the_run_shape(meta, data, block_rows):
    # A column's -0.0 is written as 0.0; everything else is echoed as json.dumps writes it.
    shown = {name: [0.0 if x == 0.0 else x for x in np.asarray(value, dtype=float).tolist()]
             if isinstance(value, (list, np.ndarray)) else value for name, value in data.items()}
    expected = json.dumps({"meta": meta, "data": shown}, indent=2) + "\n"
    document = {"meta": meta, "data": data}
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        assert cli._render_json(document) == expected
        pieces = cli._document_pieces(document)
        texts = list(iter(lambda: cli._render_json(document, pieces), ""))
    # One piece per block of each column, and one for the text after the last.
    columns = [value for value in data.values()
               if isinstance(value, (list, np.ndarray)) and len(value)]
    assert len(texts) == sum(-(-len(value) // block_rows) for value in columns) + 1
    assert "".join(texts) == expected


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
    # README's rabi command: re_rho01 is all zeros.
    ["rabi", "--omega", "1", "--delta", "0.001", "--epsilon", "1", "--t-max", "30",
     "--dt", "0.01"],
    # 61,501 rows whose coherences fall below 1e-6 after t = 35: numpy writes the
    # 4,096-row blocks, the encoder the cells outside numpy's band and the last 61 rows.
    ["dephasing", "--epsilon", "1", "--delta", "0.2", "--t-max", "61.5", "--dt", "0.001"],
    # Both sides of format_column's 500-float crossover, and a last block of one float.
    *(["superdense", "--message", "00", "--delta", "0.25", "--t-max", "6", "--points", n]
      for n in ("499", "500", "4097")),
], ids=["interference", "ramsey", "dephasing", "rabi", "rabi-delta-0", "superdense-single",
        "superdense-sweep", "rabi-readme", "dephasing-61501", "superdense-499",
        "superdense-500", "superdense-4097"])
def test_main_json_is_json_dumps_layout(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("command", [
    "superdense --message 00 --delta 0.25 --t-max 6 --points 2",
    "superdense --message 00 --delta 0.25 --t-max 6 --points 30",
    "dephasing --epsilon 0.5 --delta 0.25 --t-max 1 --dt 0.1",
    "ramsey --delta-split 1 --tau-max 1 --points 2",  # holds exact zeros
])
def test_small_csv_tables_are_their_json_floats(capsys, command):
    # Tables of a few cells go through the numpy cell writer too.
    (code, csv, err), (json_code, text, json_err) = (
        run_cli(capsys, shlex.split(command) + ["--format", fmt]) for fmt in ("csv", "json"))
    assert (code, err, json_code, json_err) == (0, "", 0, "")
    header, *rows = csv.splitlines()
    data = json.loads(text)["data"]
    names = header.split(",")
    assert [len(data[name]) for name in names] == [len(rows)] * len(names)
    assert rows == [",".join("%#.9g" % (data[name][i] + 0.0) for name in names)
                    for i in range(len(rows))]


def repr_column(values):
    """ITEM_SEPARATOR.join(map(repr, values)), with json's NaN and Infinity."""
    return _csvcells.ITEM_SEPARATOR.join(repr(v) if math.isfinite(v) else json.dumps(v)
                                         for v in values)


def numpy_column(values):
    """format_column's text of values, numpy writing every block that holds a cell in its band."""
    with mock.patch.object(_csvcells, "_NUMPY_FLOATS", 0):
        return _csvcells.format_column(np.array(values, dtype=float))


def in_band(values):
    """Cells that numpy writes in a block it takes: 1e-6 < |x| < 1e16, no power of two."""
    a = np.abs(np.asarray(values, dtype=float))
    return (a > 1e-6) & (a < 1e16) & (np.frexp(a)[0] != 0.5)


def spy_encoder(monkeypatch):
    """The lists of floats that _csvcells' C encoder writes from now on."""
    calls = []
    encoded = _csvcells._encoded

    def spy(values):
        calls.append(values.tolist())
        return encoded(values)

    monkeypatch.setattr(_csvcells, "_encoded", spy)
    return calls


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda bits: np.array([bits], np.uint64).view(np.float64)[0].item())
_LOG_UNIFORM = st.builds(lambda k, sign: sign * 10.0**k, st.floats(-8, 18),
                         st.sampled_from([1, -1]))
_DECIMALS = st.builds(round, st.floats(-1e4, 1e4), st.sampled_from([3, 6]))
_WHOLE = st.integers(-2**55, 2**55)
_CELLS = st.one_of(_BIT_PATTERNS, _LOG_UNIFORM, _DECIMALS, _WHOLE.map(float),
                   _WHOLE.map(lambda k: k / 4))
_GRIDS = st.builds(lambda dt, n: (dt * np.arange(n)).tolist(), st.floats(1e-4, 10),
                   st.integers(1, 300))


class TestJsonFloats:
    """_csvcells.format_column writes repr's text of each float, as the C encoder does."""

    @settings(max_examples=200)
    @given(st.lists(_CELLS, min_size=1, max_size=200) | _GRIDS)
    def test_cells_are_repr_text(self, values):
        assert numpy_column(values) == repr_column(values)

    # The band's ends; powers of ten, whose neighbours below log10 rounds up to
    # them; powers of two, which the encoder writes, and their neighbours; ties of
    # the 17th digit (0.5 units) and of the 16th (5 units), where both
    # neighbouring 16-digit candidates read back; and cells outside the band.
    POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-6, 17)])
    POWERS_OF_TWO = 2.0 ** np.arange(-25, 54)
    EDGE_VALUES = [
        *POWERS_OF_TEN, *np.nextafter(POWERS_OF_TEN, 0.0), *np.nextafter(POWERS_OF_TEN, np.inf),
        *np.nextafter(np.nextafter(POWERS_OF_TEN, 0.0), 0.0),
        *POWERS_OF_TWO, *np.nextafter(POWERS_OF_TWO, 0.0), *np.nextafter(POWERS_OF_TWO, np.inf),
        0.5, 9.5, 999.5, 1e15 + 0.5, 1e15 + 0.25, 1e15 + 0.75, 600000000000000.25,
        600000000000000.75, 0.1, 0.3, 1 / 3, 2 / 3, 9.999999999999999e15, 1.0000000000000002e-6,
        0.0, -0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
    ]

    def test_edge_values_are_repr_text(self):
        values = [float(v) for v in self.EDGE_VALUES]
        for column in (values, [-v for v in values], [0.25, *values], values[::-1]):
            assert numpy_column(column) == repr_column(column)
        assert numpy_column([600000000000000.25, 600000000000000.75, 0.1]).split(",\n      ") == [
            "600000000000000.2", "600000000000000.8", "0.1"]

    def test_only_cells_outside_the_band_take_the_fallback(self, monkeypatch):
        calls = spy_encoder(monkeypatch)
        column = np.array([0.1, 0.0, 2e-6, 1e-6, -3e-7, -0.0, 1.5e16, 4.0, 9e15, math.nan,
                           -math.inf, 0.0, 1e-300, 0.75])
        assert numpy_column(column) == repr_column(column.tolist())
        # Zeros, -0.0 and 0.75 are in numpy's hands; NaN equals no list item, so compare text.
        assert len(calls) == 1
        assert repr_column(calls[0]) == repr_column([1e-6, -3e-7, 1.5e16, 4.0, math.nan,
                                                     -math.inf, 1e-300])
        # A block with no cell in the band is the encoder's text alone.
        calls.clear()
        column = np.array([0.0, 0.5, 1e-7, 0.0])
        assert numpy_column(column) == repr_column(column.tolist())
        assert calls == [column.tolist()]

    @pytest.mark.parametrize("rows", [_csvcells._NUMPY_FLOATS - 1, _csvcells._NUMPY_FLOATS])
    def test_numpy_writes_blocks_of_numpy_floats_or_more(self, monkeypatch, rows):
        calls = spy_encoder(monkeypatch)
        columns = cli._series_columns(rabi_with_dephasing(1.0, 0.01, 1.0, (rows - 1) * 0.01, 0.01))
        assert len(columns[0][1]) == rows
        document = {"meta": {"subcommand": "rabi", "parameters": {}, "version": "0"},
                    "data": {**dict(columns), "figure_of_merit": 0.5}}
        shown = {name: value.tolist() if isinstance(value, np.ndarray) else value
                 for name, value in document["data"].items()}
        expected = json.dumps({"meta": document["meta"], "data": shown}, indent=2) + "\n"
        assert cli._render_json(document) == expected
        if rows < _csvcells._NUMPY_FLOATS:  # every block takes the encoder
            assert [len(call) for call in calls] == [rows] * len(columns)
        else:  # only cells outside numpy's band: all of re_rho01, which is zero
            assert calls and not any(in_band(call).any() for call in calls)
            assert sum(map(len, calls)) < rows * len(columns)

    def test_a_document_of_lists_is_written_by_numpy(self, monkeypatch):
        # The document perfbench/baseline.py times: _columns_json's columns of a run.
        calls = spy_encoder(monkeypatch)
        rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        series = dynamics.evolve_lindblad(rho0, dynamics.QubitHamiltonian(epsilon=1.0),
                                          (dynamics.LindbladChannel.pure_dephasing(0.05),),
                                          6.0, 0.01)
        assert len(series.times) > _csvcells._NUMPY_FLOATS
        document = {"meta": {}, "data": cli._columns_json(cli._series_columns(series))}
        lists = {name: value.tolist() for name, value in document["data"].items()}
        assert cli._render_json(document) == json.dumps({"meta": {}, "data": lists},
                                                        indent=2) + "\n"
        # numpy writes every in-band cell; p_g and p_e, all 0.5, take the encoder whole.
        assert not any(in_band(call).any() for call in calls)
        assert sum(map(len, calls)) < sum(map(len, lists.values()))


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
        start = [rho0[0, 0].real, rho0[0, 1].real, rho0[0, 1].imag, rho0[1, 1].real]
        traj = np.tile(start, (n_steps + 1, 1))
        traj[7:, 0] += 1e-6  # the trace leaves its tolerance at step 7
        return traj

    monkeypatch.setattr(dynamics, "_integrate_static", drifting)
    argv = ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "1", "--dt", "0.01",
            "--format", fmt]
    assert run_cli(capsys, argv) == (
        3, "", "error: trace deviated by 1.000e-06 at step 7 (t = 0.07)\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_channel_phase_leaves_the_run_alone(capsys, monkeypatch, fmt):
    # e^{i phi} sqrt(delta) sigma_z is the same channel as sqrt(delta) sigma_z;
    # a generator that left the conjugate off a factor would break Hermiticity.
    argv = ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "1", "--dt", "0.01",
            "--rho01-init-re", "0.3", "--rho01-init-im", "0.3", "--format", fmt]
    code, plain, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    pure_dephasing = dynamics.LindbladChannel.pure_dephasing.__func__
    monkeypatch.setattr(dynamics.LindbladChannel, "pure_dephasing", classmethod(
        lambda cls, delta: cls(np.exp(0.25j * np.pi) * pure_dephasing(cls, delta).operator)))
    code, phased, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    numbers = [np.array(re.findall(r"-?\d\.\d+(?:e[-+]\d+)?", text), dtype=float)
               for text in (plain, phased)]
    assert numbers[0].size > 400 and numbers[0].shape == numbers[1].shape
    assert np.max(np.abs(numbers[0] - numbers[1])) <= 1e-15


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_step_map_hermiticity_breach_exits_3_at_step_1(capsys, monkeypatch, fmt):
    rk4_step_map = dynamics._rk4_step_map
    monkeypatch.setattr(dynamics, "_rk4_step_map",
                        lambda *args: rk4_step_map(*args) + 1e-7j * np.eye(4))
    argv = ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "1", "--dt", "0.01",
            "--format", fmt]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: hermiticity deviated by 1\.000e-07 at step 1 \(t = 0\.01\)\n",
                        err)


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


TABLE_NAMES = ("t", "p_g", "p_e", "re_rho01", "im_rho01", "abs_rho01")


def prebuilt_table(n_rows):
    rng = np.random.default_rng(n_rows)
    return [(name, rng.standard_normal(n_rows) * 10.0 ** rng.integers(-6, 6, n_rows))
            for name in TABLE_NAMES]


def run_table(columns, fmt, output=None):
    """cli.run on a pre-built table, as a dephasing run with no echoed parameters."""
    args = argparse.Namespace(command="dephasing", handler=lambda args: (columns, dict(columns)),
                              format=fmt, output=output, jobs=1)
    return cli.run(args)


def one_shot_text(columns, fmt):
    """The whole artifact, rendered at once with no block in sight."""
    lists = [(name, values.tolist()) for name, values in columns]
    if fmt == "json":
        document = {"meta": {"subcommand": "dephasing", "parameters": {},
                             "version": qubitsim.__version__},
                    "data": dict(lists)}
        return json.dumps(document, indent=2) + "\n"
    row = ",".join(["%#.9g"] * len(lists))
    lines = [",".join(TABLE_NAMES)] + [row % cell for cell in zip(*(v for _, v in lists))]
    return "\n".join(lines) + "\n"


class TestStreamedOutput:
    """Output goes out a block of rows at a time, byte-identical to one-shot rendering."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 8193])
    def test_block_edges(self, capsys, tmp_path, fmt, n_rows):
        assert cli.BLOCK_ROWS == 4096
        columns = prebuilt_table(n_rows)
        target = tmp_path / f"run.{fmt}"
        assert run_table(columns, fmt, str(target)) == 0
        assert run_table(columns, fmt) == 0
        expected = one_shot_text(columns, fmt)
        assert target.read_bytes() == expected.encode()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_table_peak_memory(self, tmp_path, fmt):
        # Rendered whole, 1e5 rows peaked at 30.7 (CSV) and 48.4 MiB (JSON) of allocations.
        columns = prebuilt_table(100_000)
        tracemalloc.start()
        try:
            assert run_table(columns, fmt, str(tmp_path / "run.out")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_write_holds_at_most_one_block(self, monkeypatch, tmp_path, fmt):
        texts = []
        deliver = cli._deliver

        def spy(text, stream):
            texts.append(text)
            deliver(text, stream)

        monkeypatch.setattr(cli, "_deliver", spy)
        for n_rows in (100, 10_000):
            texts.clear()
            assert run_table(prebuilt_table(n_rows), fmt, str(tmp_path / "run.out")) == 0
            per_write = [text.count("\n") for text in texts]
            if fmt == "csv":
                assert len(texts) == -(-n_rows // cli.BLOCK_ROWS)
                assert max(per_write) <= cli.BLOCK_ROWS + 1  # and the header
            else:
                # One write per block of each column, and one for the text after the last.
                assert len(texts) == len(TABLE_NAMES) * -(-n_rows // cli.BLOCK_ROWS) + 1
                assert max(per_write) <= cli.BLOCK_ROWS + 20  # and the meta lines

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", readme_commands())
    def test_stdout_equals_output_file(self, capsys, tmp_path, command, fmt):
        argv = shlex.split(command)[1:] + ["--format", fmt]
        target = tmp_path / "run.out"
        assert run_cli(capsys, argv + ["--output", str(target)]) == (0, "", "")
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert target.read_bytes() == out.encode()

    def test_failed_later_block_leaves_the_target_untouched(self, capsys, tmp_path, monkeypatch):
        # 10,001 rows make three CSV blocks; the second write fails.
        argv = ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "10", "--dt", "0.001"]
        target = tmp_path / "run.csv"
        target.write_text("old\n")
        calls = []
        deliver = cli._deliver

        def fail_second(text, stream):
            calls.append(text)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            deliver(text, stream)

        monkeypatch.setattr(cli, "_deliver", fail_second)
        assert run_cli(capsys, argv + ["--output", str(target)]) == (
            4, "", f"error: cannot write --output {target}: {os.strerror(errno.ENOSPC)}\n")
        assert len(calls) == 2
        assert list(tmp_path.iterdir()) == [target] and target.read_text() == "old\n"


class TestOneProcess:
    """main() builds its parser once per process and carries nothing from one call to the next."""

    SHOT = ["superdense", "--message", "10", "--delta", "0.1", "--format", "json"]
    SWEEP = ["superdense", "--message", "10", "--delta", "0.1", "--t-max", "1", "--points", "3",
             "--format", "json"]
    # (COLUMNS, argv); usage and help text depend on the width at the time of the call.
    MIXED = [
        ("80", SHOT),
        ("80", SWEEP),
        ("40", ["ramsey", "--delta-split", "1", "--tau-max", "5", "--points", "4", "--frobnicate"]),
        ("40", ["ramsey", "--delta-split", "1", "--points", "4"]),
        ("120", ["superdense", "--message", "22", "--delta", "0"]),
        ("80", ["--version"]),
        ("40", ["--help"]),
        ("40", ["ramsey", "--help"]),
        ("120", ["--help"]),
        ("120", ["ramsey", "--help"]),
        ("80", SHOT[:-2]),
        ("80", ["ramsey", "--delta-split", "1", "--tau-max", "5", "--points", "4",
                "--dephasing-rate", "0.1", "--format", "json"]),
        ("80", SWEEP),
    ]

    @staticmethod
    def outcomes(capsys, monkeypatch, steps):
        results = []
        for columns, argv in steps:
            monkeypatch.setenv("COLUMNS", columns)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_mixed_calls_match_fresh_parsers(self, capsys, monkeypatch):
        cached = [self.outcomes(capsys, monkeypatch, self.MIXED) for _ in range(2)]
        monkeypatch.setattr(cli, "build_parser", lambda: cli._parser.__wrapped__())
        fresh = self.outcomes(capsys, monkeypatch, self.MIXED)
        assert cached[0] == fresh
        assert cached[1] == fresh

        shot, sweep = (json.loads(out) for _, out, _ in fresh[:2])
        assert shot["meta"]["parameters"]["transmission_time"] == 1.0
        assert "transmission_time" not in sweep["meta"]["parameters"]
        assert fresh[-1] == fresh[1]
        for code, out, err in fresh[2:5]:
            assert (code, out) == ("SystemExit(2)", "")
            assert err.startswith("usage: qubitsim ") and err.count("error:") == 1
        assert fresh[5] == ("SystemExit(0)", f"qubitsim {qubitsim.__version__}\n", "")
        narrow, narrow_sub, wide, wide_sub = (out for _, out, _ in fresh[6:10])
        assert narrow != wide and narrow_sub != wide_sub
        description = "Two-level and two-qubit coherence experiments in natural units (hbar = 1)."
        assert description in wide and description not in narrow

    def test_parser_is_built_once(self, capsys, monkeypatch):
        argv = shlex.split("superdense --message 00 --delta 0.25 --t-max 6 --points 61")
        first = run_cli(capsys, argv)
        assert first[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert [run_cli(capsys, argv) for _ in range(20)] == [first] * 20
        assert built == []
        cli._parser.__wrapped__()  # the spy sees a build: 7 parsers
        assert len(built) == 7

    def test_build_parser_hands_out_copies(self, capsys):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser() not in (first, second)

        def refuse(*args, **kwargs):
            raise AssertionError("an attribute of one copy reached another")

        first.parse_args = refuse
        assert "parse_args" not in vars(cli.build_parser())
        assert "parse_args" not in vars(cli._parser())
        assert run_cli(capsys, ["superdense", "--message", "01", "--delta", "0"])[0] == 0
        assert second.parse_args(["ramsey", "--delta-split", "1", "--tau-max", "1",
                                  "--points", "2"]).points == 2


class ShortStdout(io.StringIO):
    """A stdout whose second write fails as a full disk does."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)


class TestStdoutWriteFailure:
    """A failed write to stdout exits 4 with one line that names stdout."""

    DEPHASING = ["dephasing", "--epsilon", "1", "--delta", "0.25", "--t-max", "10", "--dt", "0.001"]

    def test_full_disk_names_stdout(self, capsys, monkeypatch):
        # 10,001 rows make three CSV blocks; the second write fails.
        stdout = ShortStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(self.DEPHASING)
        monkeypatch.undo()
        assert (code, capsys.readouterr().err) == (
            4, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")
        assert stdout.writes == 2
        assert stdout.getvalue().startswith("t,p_g,p_e,") and stdout.getvalue().count("\n") == 4097

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv, read", [
        (["superdense", "--message", "10", "--delta", "0"], 0),  # short: buffered, fails at flush
        (DEPHASING, 100),  # as `| head -c 100`: fails while the pipe is full
    ])
    def test_reader_leaving_early_names_stdout(self, argv, read, unbuffered):
        env = script_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "qubitsim.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (4, b"error: cannot write stdout: Broken pipe\n")
