"""The package's export set, written out once here so that a dropped import fails."""

import qubitsim

EXPORTS = {
    "__version__",
    # qubitsim.qstate
    "BlochAngles", "DensityMatrix", "Ket", "bloch_from_ket", "coherence", "density_from_ket",
    "ket_from_bloch", "min_eigenvalue", "partial_trace_env", "populations", "purity",
    "reduced_with_overlap", "tensor",
    # qubitsim.interference
    "PhotonState", "SlitGeometry", "classical_intensity", "fringe_visibility",
    "quantum_intensity",
    # qubitsim.dynamics
    "SIGMA_X", "SIGMA_Z", "DriveMode", "LindbladChannel", "QubitHamiltonian", "TimeSeries",
    "dephasing_time", "evolve_closed", "evolve_lindblad", "hamiltonian_at",
    "pure_dephasing_analytic",
    # qubitsim.protocols
    "BELL_BASIS", "MESSAGES", "RamseyConfig", "SuperdenseSweep", "damp_first_qubit_coherence",
    "figure_of_merit", "fringe_frequency", "rabi_with_dephasing", "ramsey_population",
    "ramsey_scan", "superdense_channel_sweep", "superdense_decode", "superdense_encode",
    "superdense_success_probability",
    # qubitsim.errors
    "DimensionError", "DomainError", "GeometryError", "InvalidOverlapError",
    "InvalidStateError", "NumericalInstabilityError", "QubitSimError", "SamplingError",
    "StepSizeError",
}


def test_export_set_is_pinned():
    assert len(EXPORTS) == 53
    assert set(qubitsim.__all__) == EXPORTS


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qubitsim import *", namespace)
    assert EXPORTS <= namespace.keys()
    assert all(namespace[name] is getattr(qubitsim, name) for name in EXPORTS)
