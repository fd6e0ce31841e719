"""The CLI error contract, over every float flag of every subcommand.

For any argv that argparse accepts, main() either returns 0 with empty
stderr and only finite numbers in its output, or returns 2, 3 or 4 with
empty stdout and exactly one "error:" line. No exception escapes it, and it
raises no warning (the test settings make warnings errors).
"""

import argparse
import contextlib
import io
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubitsim.cli import build_parser, main

# A small valid run of each subcommand; one flag at a time is varied from it.
BASES = {
    "interference": ["--k", "6.2832", "--slit-spacing", "0.01", "--screen-distance", "1",
                     "--a", "0.6", "--b", "0.8", "--phi", "0", "--x-min", "-250",
                     "--x-max", "250", "--points", "11"],
    "ramsey": ["--delta-split", "1", "--tau-max", "10", "--points", "16", "--dephasing-rate", "0.1"],
    "dephasing": ["--epsilon", "1", "--delta", "0.25", "--t-max", "1", "--dt", "0.01"],
    "rabi": ["--omega", "1", "--delta", "0.001", "--epsilon", "1", "--t-max", "3", "--dt", "0.01"],
    "superdense": ["--message", "00", "--delta", "0.25", "--t-max", "6", "--points", "11"],
}

EDGE_VALUES = ("0", "-0.0", "1e-320", "1e-300", "1e300", "1e308", "inf", "-inf", "nan", "-1")


def _float_flags():
    """(subcommand, flag) for every float-typed option the parser defines."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, parser in subparsers.choices.items()
            for action in parser._actions if action.type is float]


FLOAT_FLAGS = _float_flags()


def _argv(command, flag, value, fmt):
    base = BASES[command]
    if flag in base:
        i = base.index(flag)
        base = base[:i] + base[i + 2:]
    # --flag=value, so that a negative value is not read as a flag.
    return [command, *base, f"{flag}={value}", "--format", fmt]


def _reject_constant(name):
    raise AssertionError(f"JSON output holds {name}")


def _assert_finite_output(out, fmt):
    if fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
        return
    lines = out.splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            if name != "outcome":
                assert math.isfinite(float(cell)), f"{name} = {cell}"


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        _assert_finite_output(out, argv[-1])
    else:
        assert code in (2, 3, 4)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


def test_every_subcommand_has_float_flags():
    assert {command for command, _ in FLOAT_FLAGS} == set(BASES)


@pytest.mark.parametrize("command", BASES)
def test_bases_run(capsys, command):
    assert main([command, *BASES[command]]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", EDGE_VALUES)
@pytest.mark.parametrize("command, flag", FLOAT_FLAGS, ids=[" ".join(f) for f in FLOAT_FLAGS])
def test_edge_values_keep_the_contract(command, flag, value):
    for fmt in ("csv", "json"):
        assert_contract(_argv(command, flag, value, fmt))


@settings(max_examples=100)
@given(
    case=st.sampled_from(FLOAT_FLAGS),
    value=st.floats(-100.0, 100.0),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_ordinary_values_keep_the_contract(case, value, fmt):
    command, flag = case
    assume(flag != "--dt" or not 0.0 < value < 1e-3)  # keeps every run under 1e4 steps
    assert_contract(_argv(command, flag, repr(value), fmt))
