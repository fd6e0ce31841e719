"""The one domain rule for scalar arguments, held at every entry point that uses it.

Each entry point takes one physical scalar that must be finite, finite and
positive, or finite and non-negative. Every value outside its domain raises
the entry point's exception with the message "{label} must be {domain},
got {value}".
"""

import argparse

import numpy as np
import pytest

from qubitsim import (
    DensityMatrix,
    DomainError,
    DriveMode,
    GeometryError,
    InvalidStateError,
    LindbladChannel,
    PhotonState,
    QubitHamiltonian,
    RamseyConfig,
    SlitGeometry,
    StepSizeError,
    cli,
    dephasing_time,
    evolve_lindblad,
    figure_of_merit,
    pure_dephasing_analytic,
    superdense_channel_sweep,
    superdense_success_probability,
)
from qubitsim.errors import _check_domain

FINITE, POSITIVE, NON_NEGATIVE = "finite", "finite and positive", "finite and non-negative"

OUTSIDE = {
    FINITE: [np.nan, np.inf, -np.inf],
    NON_NEGATIVE: [np.nan, np.inf, -np.inf, -1.0],
    POSITIVE: [np.nan, np.inf, -np.inf, -1.0, 0.0],
}

MIXED = DensityMatrix(np.eye(2) / 2)
STATIC = QubitHamiltonian(epsilon=1.0)


def hamiltonian(name):
    def make(value):
        settings = dict(epsilon=1.0, omega_rabi=1.0, omega0=1.0,
                        drive_mode=DriveMode.FULL_COSINE)
        return QubitHamiltonian(**{**settings, name: value})
    return make


def dephasing_start(flag):
    def make(value):
        values = dict(p_e_init=0.5, rho01_init_re=0.0, rho01_init_im=0.0)
        return cli._dephasing_start(argparse.Namespace(**{**values, flag: value}))
    return make


# (entry point, call with the bad value, label, domain, exception)
ENTRIES = [
    ("QubitHamiltonian.epsilon", hamiltonian("epsilon"), "epsilon", NON_NEGATIVE, ValueError),
    ("QubitHamiltonian.omega_rabi", hamiltonian("omega_rabi"), "omega_rabi", NON_NEGATIVE,
     ValueError),
    ("QubitHamiltonian.omega0", hamiltonian("omega0"), "omega0", NON_NEGATIVE, ValueError),
    ("LindbladChannel.pure_dephasing", LindbladChannel.pure_dephasing, "dephasing rate",
     NON_NEGATIVE, DomainError),
    ("evolve_lindblad.t_max", lambda v: evolve_lindblad(MIXED, STATIC, (), v, 0.01), "t_max",
     POSITIVE, StepSizeError),
    ("evolve_lindblad.dt", lambda v: evolve_lindblad(MIXED, STATIC, (), 1.0, v), "dt",
     POSITIVE, StepSizeError),
    ("pure_dephasing_analytic.delta", lambda v: pure_dephasing_analytic(MIXED, 1.0, v, 1.0),
     "dephasing rate", NON_NEGATIVE, DomainError),
    ("pure_dephasing_analytic.t", lambda v: pure_dephasing_analytic(MIXED, 1.0, 0.1, v), "t",
     NON_NEGATIVE, DomainError),
    ("dephasing_time", dephasing_time, "dephasing rate", POSITIVE, DomainError),
    ("RamseyConfig.tau_max", lambda v: RamseyConfig(1.0, v, 16), "tau_max", POSITIVE,
     ValueError),
    ("RamseyConfig.delta_split", lambda v: RamseyConfig(v, 1.0, 16), "delta_split", FINITE,
     ValueError),
    ("RamseyConfig.dephasing_rate", lambda v: RamseyConfig(1.0, 1.0, 16, v), "dephasing_rate",
     NON_NEGATIVE, ValueError),
    ("figure_of_merit.omega", lambda v: figure_of_merit(0.1, v), "drive amplitude", POSITIVE,
     DomainError),
    ("figure_of_merit.delta", lambda v: figure_of_merit(v, 1.0), "dephasing rate",
     NON_NEGATIVE, DomainError),
    ("superdense_success_probability.delta",
     lambda v: superdense_success_probability("00", v, 1.0), "dephasing rate", NON_NEGATIVE,
     DomainError),
    ("superdense_success_probability.t",
     lambda v: superdense_success_probability("00", 0.1, v), "channel duration", NON_NEGATIVE,
     DomainError),
    ("superdense_channel_sweep.delta", lambda v: superdense_channel_sweep(v, 1.0, 4),
     "dephasing rate", NON_NEGATIVE, DomainError),
    ("superdense_channel_sweep.t_max", lambda v: superdense_channel_sweep(0.1, v, 4), "t_max",
     POSITIVE, DomainError),
    ("SlitGeometry.k", lambda v: SlitGeometry(v, 0.01, 1.0), "wavenumber", POSITIVE,
     GeometryError),
    ("SlitGeometry.slit_spacing", lambda v: SlitGeometry(1.0, v, 1.0), "slit spacing",
     POSITIVE, GeometryError),
    ("SlitGeometry.screen_distance", lambda v: SlitGeometry(1.0, 0.01, v), "screen distance",
     POSITIVE, GeometryError),
    ("PhotonState.phi", lambda v: PhotonState(1.0, 0.0, v), "relative phase", FINITE,
     InvalidStateError),
    ("--p-e-init", dephasing_start("p_e_init"), "--p-e-init", FINITE, DomainError),
    ("--rho01-init-re", dephasing_start("rho01_init_re"), "--rho01-init-re", FINITE,
     DomainError),
    ("--rho01-init-im", dephasing_start("rho01_init_im"), "--rho01-init-im", FINITE,
     DomainError),
]

CASES = [pytest.param(call, label, domain, error, value, id=f"{name}-{value}")
         for name, call, label, domain, error in ENTRIES for value in OUTSIDE[domain]]


@pytest.mark.parametrize("call, label, domain, error, value", CASES)
def test_value_outside_the_domain_gets_the_one_message(call, label, domain, error, value):
    with pytest.raises(error) as excinfo:
        call(value)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == f"{label} must be {domain}, got {value}"


def test_an_array_names_its_first_value_outside():
    with pytest.raises(DomainError) as excinfo:
        _check_domain(np.array([0.0, 1.0, -2.0, np.nan]), "channel duration", NON_NEGATIVE)
    assert str(excinfo.value) == "channel duration must be finite and non-negative, got -2.0"
