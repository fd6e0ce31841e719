"""The benchmark tracer's hold on the program: the names it wraps and the values it counts.

perfbench/tracing.py swaps qubitsim functions for timing wrappers by name.
It counts rendered bytes as len() of the string a renderer returns,
delivered bytes as len() of the first argument of _deliver, and integration
steps from the trajectory _integrate_static returns; it also wraps
parse_args on the parser that build_parser() returns. A rename or a changed
signature would show in the benchmark only as an absent layer or a zero
count, so this test runs the README commands and one driven evolution under
the tracer, as the benchmark does, and checks what it recorded.
"""

import importlib.util
import shlex
import sys
from pathlib import Path

from readme_commands import readme_commands

from qubitsim import (
    DensityMatrix,
    DriveMode,
    LindbladChannel,
    QubitHamiltonian,
    cli,
    evolve_lindblad,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Wrapped functions that no longer exist; their layers record nothing.
DEAD = {"qubitsim.cli._map_chunks", "qubitsim.dynamics._step_propagator",
        "qubitsim.dynamics._integrate_stepwise"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def qubitsim_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "qubitsim" or name.startswith("qubitsim.")}


def bindings(modules):
    """Every attribute of every qubitsim module, and the one wrapped method."""
    bound = {(name, key): value for name, module in modules.items()
             for key, value in vars(module).items()}
    bound["DensityMatrix.__init__"] = DensityMatrix.__dict__["__init__"]
    return bound


def test_tracer_finds_every_live_layer_and_counts_its_work(capsys):
    tracing = load_tracing()
    modules = qubitsim_modules()
    before = bindings(modules)
    commands = [shlex.split(command)[1:] for command in readme_commands()]
    driven = QubitHamiltonian(epsilon=1.0, omega_rabi=0.5, omega0=1.0,
                              drive_mode=DriveMode.FULL_COSINE)
    rho0 = DensityMatrix([[1.0, 0.0], [0.0, 0.0]])

    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        codes = [tracer.op(lambda argv=argv: cli.main(argv)) for argv in commands]
        tracer.op(lambda: evolve_lindblad(rho0, driven, [LindbladChannel.pure_dephasing(0.1)],
                                          1.0, 0.01))
    finally:
        tracer.uninstall()
    capsys.readouterr()

    after = bindings(modules)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert codes == [0] * len(commands)
    assert set(tracer.absent) <= DEAD
    summary = tracer.summary()
    calls, counts = summary["calls"], summary["counts"]
    assert calls[tracing.OP] == len(commands) + 1
    live = {layer for layer, module, attribute in tracing.WRAPPED
            if f"{module}.{attribute}" not in tracer.absent}
    assert {layer for layer in live if calls[layer] == 0} == set()
    # build_parser() and parse_args on the parser it returned, once per command.
    assert calls["cli.parse"] == 2 * len(commands)
    assert counts["cli.render_bytes"] == counts["cli.deliver_bytes"] > 0
    assert counts["dynamics.steps"] > 0
