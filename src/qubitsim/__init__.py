"""Coherence and decoherence toolkit for two-level and two-qubit systems.

Covers double-slit interference profiles, Bloch-sphere state algebra,
closed and Markovian open-system evolution with a pure-dephasing channel,
Ramsey and Rabi experiments, and the superdense coding protocol. Natural
units throughout: hbar = 1, energies are angular frequencies, rates are
inverse time.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .dynamics import (
    SIGMA_X,
    SIGMA_Z,
    DriveMode,
    LindbladChannel,
    QubitHamiltonian,
    TimeSeries,
    dephasing_time,
    evolve_closed,
    evolve_lindblad,
    hamiltonian_at,
    pure_dephasing_analytic,
)
from .errors import (
    DimensionError,
    DomainError,
    GeometryError,
    InvalidOverlapError,
    InvalidStateError,
    NumericalInstabilityError,
    QubitSimError,
    SamplingError,
    StepSizeError,
)
from .interference import (
    PhotonState,
    SlitGeometry,
    classical_intensity,
    fringe_visibility,
    quantum_intensity,
)
from .protocols import (
    BELL_BASIS,
    MESSAGES,
    RamseyConfig,
    SuperdenseSweep,
    damp_first_qubit_coherence,
    figure_of_merit,
    fringe_frequency,
    rabi_with_dephasing,
    ramsey_population,
    ramsey_scan,
    superdense_channel_sweep,
    superdense_decode,
    superdense_encode,
    superdense_success_probability,
)
from .qstate import (
    BlochAngles,
    DensityMatrix,
    Ket,
    bloch_from_ket,
    coherence,
    density_from_ket,
    ket_from_bloch,
    min_eigenvalue,
    partial_trace_env,
    populations,
    purity,
    reduced_with_overlap,
    tensor,
)

# The import block above is the export list: every public name it binds.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
