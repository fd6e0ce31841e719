"""Complex state algebra for one- and two-qubit systems.

States live in the computational basis |0>, |1> for a single qubit and
|00>, |01>, |10>, |11> for two qubits, with the first tensor factor the
system and the second the environment. |g> maps to index 0 and |e> to
index 1. Kets and density matrices wrap dense, read-only numpy arrays;
every function here is pure, so values can be shared freely.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidOverlapError, InvalidStateError

# Every tolerance in the package, by the kind of value it judges. States handed to
# the library: norm, trace, hermiticity and |overlap| <= 1 hold to rounding, as does
# a unit-scale zero (a Bloch pole, a flat fringe record); eigensolvers get slack.
NORM_ATOL = 1e-12
EIGENVALUE_ATOL = 1e-9
# States typed on the command line: a few digits miss the bounds above, so the
# CLI snaps a state that misses by up to this onto the nearest state.
TYPED_ATOL = 1e-6
# Values the program computed, checked on every trajectory sample: positivity is
# monitored, not projected back. Sample steps agree to SPACING_RTOL * max(1, dt),
# plus SPACING_ULPS ulp of the largest |t|, by which rounding t0 + k dt moves them.
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-9
POSITIVITY_FLOOR = -1e-8
SPACING_RTOL = 1e-9
SPACING_ULPS = 4

_SUPPORTED_DIMS = (2, 4)
_TWO_PI = 2.0 * np.pi


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BlochAngles:
    """Point on the Bloch sphere: polar angle theta, azimuthal angle phi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi < _TWO_PI):
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


class _State:
    """Read-only numpy data of a one- or two-qubit state: amplitudes or a matrix."""

    __slots__ = ("_data",)

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def n_qubits(self) -> int:
        return 1 if self.dim == 2 else 2

    def __repr__(self):
        return f"{type(self).__name__}({np.array2string(self._data, separator=', ')})"


class Ket(_State):
    """Normalized complex amplitude vector for one or two qubits."""

    __slots__ = ()

    def __init__(self, amplitudes):
        arr = np.array(amplitudes, dtype=complex)
        if max(arr.shape, default=1) < arr.size:  # more than one axis longer than 1
            raise DimensionError(f"ket amplitudes must form a vector, got shape {arr.shape}")
        arr = arr.reshape(-1)
        if arr.size not in _SUPPORTED_DIMS:
            raise DimensionError(f"ket length must be 2 or 4, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise InvalidStateError("ket amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise InvalidStateError(f"ket is not normalized: sum |a_i|^2 = {norm_sq!r}")
        self._data = _readonly(arr)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._data


class DensityMatrix(_State):
    """Hermitian, unit-trace, positive-semidefinite state operator."""

    __slots__ = ()

    def __init__(self, elements):
        mat = np.array(elements, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"density matrix must be square, got shape {mat.shape}")
        if mat.shape[0] not in _SUPPORTED_DIMS:
            raise DimensionError(
                f"density matrix dimension must be 2 or 4, got {mat.shape[0]}"
            )
        if not np.all(np.isfinite(mat)):
            raise InvalidStateError("density matrix entries must be finite")
        herm_err = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_err > NORM_ATOL:
            raise InvalidStateError(f"density matrix is not Hermitian (max deviation {herm_err:.3e})")
        trace_err = abs(complex(np.trace(mat)) - 1.0)
        if trace_err > NORM_ATOL:
            raise InvalidStateError(f"density matrix trace differs from 1 by {trace_err:.3e}")
        lam_min = min_eigenvalue(mat)
        if lam_min < -EIGENVALUE_ATOL:
            raise InvalidStateError(
                f"density matrix is not positive semidefinite (min eigenvalue {lam_min:.3e})"
            )
        self._data = _readonly(mat)

    @property
    def matrix(self) -> np.ndarray:
        return self._data


def min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Uses the closed-form root for 2x2 matrices and numpy's iterative
    Hermitian solver above that.
    """
    m = np.asarray(matrix)
    if m.shape == (2, 2):
        return float(_min_eigenvalue_2x2(m))
    return float(np.linalg.eigvalsh(m)[0])


def _min_eigenvalue_2x2(m: np.ndarray) -> np.ndarray:
    """Closed-form smallest eigenvalue of each hermitized 2x2 matrix in m[..., 2, 2]."""
    a = m[..., 0, 0].real
    b = m[..., 1, 1].real
    offdiag = 0.5 * (m[..., 0, 1] + np.conj(m[..., 1, 0]))
    return 0.5 * (a + b) - np.sqrt(0.25 * (a - b) ** 2 + np.abs(offdiag) ** 2)


def _as_density(rho) -> DensityMatrix:
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


def ket_from_bloch(angles: BlochAngles) -> Ket:
    """Ket cos(theta/2)|g> + sin(theta/2) e^{i phi}|e> for the given angles."""
    half = 0.5 * angles.theta
    return Ket([np.cos(half), np.sin(half) * np.exp(1j * angles.phi)])


def bloch_from_ket(psi: Ket) -> BlochAngles:
    """Bloch angles of a single-qubit ket, ignoring global phase.

    The global phase is fixed by rotating the |g> amplitude onto the real
    non-negative axis. At the poles phi is reported as 0 by convention.
    """
    if psi.dim != 2:
        raise DimensionError(f"bloch_from_ket expects a single qubit, got dim {psi.dim}")
    a, b = psi.amplitudes
    theta = 2.0 * np.arctan2(abs(b), abs(a))
    if abs(a) <= NORM_ATOL or abs(b) <= NORM_ATOL:
        phi = 0.0
    else:
        phi = float((np.angle(b) - np.angle(a)) % _TWO_PI)
        if phi >= _TWO_PI:
            phi = 0.0
    return BlochAngles(float(theta), phi)


def density_from_ket(psi: Ket) -> DensityMatrix:
    """Pure-state density operator |psi><psi|."""
    amps = psi.amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()))


def populations(rho) -> np.ndarray:
    """Diagonal of the density matrix: basis-state measurement probabilities."""
    return np.real(np.diag(_as_density(rho).matrix)).copy()


def coherence(rho, i: int, j: int) -> complex:
    """Off-diagonal element rho[i, j], the i-j phase relationship."""
    mat = _as_density(rho).matrix
    dim = mat.shape[0]
    if not (0 <= i < dim and 0 <= j < dim):
        raise IndexError(f"indices ({i}, {j}) out of range for dimension {dim}")
    if i == j:
        raise IndexError("coherence requires two distinct indices; the diagonal holds populations")
    return complex(mat[i, j])


def tensor(a, b):
    """Kronecker product of two single-qubit states, system factor first.

    Both arguments must be Kets or both DensityMatrix instances; the result
    is the corresponding two-qubit object.
    """
    if not (isinstance(a, _State) and type(b) is type(a)):
        raise TypeError("tensor expects two Kets or two DensityMatrix operands")
    if a.dim != 2 or b.dim != 2:
        raise DimensionError("tensor supports single-qubit factors only (result capped at dim 4)")
    return type(a)(np.kron(a._data, b._data))


def partial_trace_env(rho) -> DensityMatrix:
    """Reduced system state after tracing out the environment factor.

    With the environment as the second tensor factor,
    rho_s[i, j] = sum_k rho[2i + k, 2j + k].
    """
    rho = _as_density(rho)
    if rho.dim != 4:
        raise DimensionError(f"partial_trace_env expects a two-qubit state, got dim {rho.dim}")
    blocks = rho.matrix.reshape(2, 2, 2, 2)
    return DensityMatrix(np.einsum("ikjk->ij", blocks))


def reduced_with_overlap(c_g0: complex, c_e1: complex, overlap: complex) -> DensityMatrix:
    """Reduced system state for the branch state c_g0|g,xi0> + c_e1|e,xi1>.

    The environment enters only through the overlap s = <xi0|xi1>, which
    scales the surviving coherence:

        [[|c_g0|^2,            c_g0 conj(c_e1) conj(s)],
         [conj(c_g0) c_e1 s,   |c_e1|^2               ]]

    s = 0 (orthogonal environment branches) destroys the coherences
    completely; |s| = 1 leaves a pure state.
    """
    c0 = complex(c_g0)
    c1 = complex(c_e1)
    s = complex(overlap)
    try:
        norm_sq = abs(c0) ** 2 + abs(c1) ** 2
    except OverflowError:  # a Python float power raises where numpy would give inf
        norm_sq = np.inf
    # Both tests ask whether the value is within tolerance, so that NaN fails them.
    if not abs(norm_sq - 1.0) <= NORM_ATOL:
        raise InvalidStateError(f"branch amplitudes are not normalized: |c_g0|^2 + |c_e1|^2 = {norm_sq!r}")
    if not abs(s) <= 1.0 + NORM_ATOL:
        raise InvalidOverlapError(f"environment overlap magnitude {abs(s)!r} exceeds 1")
    return DensityMatrix(
        [
            [abs(c0) ** 2, c0 * np.conj(c1) * np.conj(s)],
            [np.conj(c0) * c1 * s, abs(c1) ** 2],
        ]
    )


def purity(rho) -> float:
    """tr(rho^2): 1 for pure states, down to 1/dim for the maximally mixed state."""
    mat = _as_density(rho).matrix
    return float(np.real(np.trace(mat @ mat)))
