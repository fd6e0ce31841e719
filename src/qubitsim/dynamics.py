"""Closed- and open-system time evolution for a single qubit.

Works in natural units: hbar = 1, energies are angular frequencies, rates
are inverse time. The closed-system generator is d(rho)/dt = -i[H(t), rho];
collapse channels add the dissipator sum_k (L_k rho L_k^dag
- (1/2){L_k^dag L_k, rho}).

With H = (epsilon/2) sigma_z and the basis convention |g> = (1, 0)^T, the
upper coherence accrues the phase e^{-i epsilon t}; under the pure-dephasing
channel sqrt(delta) sigma_z it also decays as e^{-2 delta t} while the
populations stay fixed.

Trajectories are integrated with the classical fixed-step 4th-order scheme
on vec(rho), where the generator is a 4x4 matrix L(t). Because the equation
is linear, each step is a 4x4 map M[k] built from the generators at the
start, middle and end of the step. The integrator advances a block of steps
at a time: it forms the running products Q[j] = M[j] @ ... @ M[0] of the
block's maps and writes all the block's samples with one batched product of
Q with the sample before the block. A time-independent generator has one map
P for every step, so one block of powers P^1 .. P^B serves every block. The
cosine drive splits as L(t) = L0 + cos(omega0 t) L1; its maps are built a
batch of blocks at a time, and the running products of a batch's blocks are
formed in lockstep.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalInstabilityError, StepSizeError
from .qstate import DensityMatrix, _as_density, _min_eigenvalue_2x2, _readonly

SIGMA_X = _readonly(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))

# Tolerances monitored on every trajectory sample. Positivity is monitored,
# not enforced: a breach aborts instead of silently projecting back.
TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-9
POSITIVITY_FLOOR = -1e-8

_STEP_RESOLUTION = 0.1  # dt * (fastest angular frequency or rate) must stay below this

# The integrator advances a block of steps per batched product. Blocks are
# at most this many steps long; their running step-map products are held
# in memory at once.
_MAP_BLOCK = 256
# Driven step maps are built _MAP_BLOCK * _BATCH_BLOCKS (4096) at a time,
# so memory stays bounded for long runs.
_BATCH_BLOCKS = 16


def _check_dephasing_rate(delta: float):
    if not (np.isfinite(delta) and delta >= 0):
        raise DomainError(f"dephasing rate must be non-negative, got {delta}")


class DriveMode(enum.Enum):
    NONE = "none"
    FULL_COSINE = "full_cosine"
    ROTATING_WAVE = "rotating_wave"


@dataclass(frozen=True)
class QubitHamiltonian:
    """Static splitting (epsilon/2) sigma_z plus an optional sigma_x drive.

    omega_rabi is the drive amplitude, omega0 its carrier frequency. In
    ROTATING_WAVE mode the evolution runs in the frame rotating at omega0,
    where the counter-rotating drive term is dropped and the generator is
    time independent.
    """

    epsilon: float
    omega_rabi: float = 0.0
    omega0: float = 0.0
    drive_mode: DriveMode = DriveMode.NONE

    def __post_init__(self):
        for name in ("epsilon", "omega_rabi", "omega0"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.drive_mode is DriveMode.NONE and self.omega_rabi != 0.0:
            raise ValueError("drive_mode NONE requires omega_rabi = 0")

    @property
    def detuning(self) -> float:
        """Rotating-frame detuning omega0 - epsilon."""
        return self.omega0 - self.epsilon

    @property
    def frequency_scale(self) -> float:
        return max(self.epsilon, self.omega_rabi, self.omega0)


@dataclass(frozen=True, eq=False)
class LindbladChannel:
    """One collapse operator with its rate already folded in (sqrt(rate) * base operator)."""

    operator: np.ndarray

    def __post_init__(self):
        op = np.array(self.operator, dtype=complex)
        if op.shape != (2, 2):
            raise ValueError(f"channel operator must be 2x2, got shape {op.shape}")
        if not np.all(np.isfinite(op)):
            raise ValueError("channel operator entries must be finite")
        object.__setattr__(self, "operator", _readonly(op))

    @classmethod
    def pure_dephasing(cls, delta: float) -> "LindbladChannel":
        """Channel sqrt(delta) sigma_z: random splitting fluctuations at rate delta."""
        _check_dephasing_rate(delta)
        return cls(np.sqrt(delta) * SIGMA_Z)

    @property
    def rate(self) -> float:
        """Largest eigenvalue of L^dag L; sets the fastest decay this channel drives."""
        return float(np.linalg.eigvalsh(self.operator.conj().T @ self.operator)[-1])


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled qubit trajectory: populations and the 0-1 coherence."""

    times: np.ndarray
    p_g: np.ndarray
    p_e: np.ndarray
    rho01: np.ndarray

    def __post_init__(self):
        times = _readonly(np.asarray(self.times, dtype=float))
        p_g = _readonly(np.asarray(self.p_g, dtype=float))
        p_e = _readonly(np.asarray(self.p_e, dtype=float))
        rho01 = _readonly(np.asarray(self.rho01, dtype=complex))
        n = times.size
        if not (p_g.size == p_e.size == rho01.size == n):
            raise ValueError("all trajectory columns must have the same length")
        if n >= 2:
            # Both tests ask whether the grid is within tolerance, so that a
            # NaN time, which compares False with everything, fails them.
            steps = np.diff(times)
            dt = steps[0]
            if not dt > 0:
                raise ValueError("sample times must be strictly increasing")
            if not np.max(np.abs(steps - dt)) <= 1e-9 * max(1.0, abs(dt)):
                raise ValueError("sample times must be uniformly spaced")
        for name, value in (("p_g", p_g), ("p_e", p_e), ("rho01", rho01)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} values must be finite")
        for name, value in (("times", times), ("p_g", p_g), ("p_e", p_e), ("rho01", rho01)):
            object.__setattr__(self, name, value)

    @property
    def t0(self) -> float:
        return float(self.times[0]) if self.times.size else 0.0

    @property
    def dt(self):
        if self.times.size < 2:
            return None
        return float(self.times[1] - self.times[0])

    def __len__(self):
        return self.times.size


def hamiltonian_at(h: QubitHamiltonian, t: float) -> np.ndarray:
    """Hamiltonian matrix at time t for the configured drive mode."""
    static = 0.5 * h.epsilon * SIGMA_Z
    if h.drive_mode is DriveMode.NONE:
        return static
    if h.drive_mode is DriveMode.FULL_COSINE:
        return static + h.omega_rabi * np.cos(h.omega0 * t) * SIGMA_X
    half_detuning = 0.5 * h.detuning
    half_rabi = 0.5 * h.omega_rabi
    return np.array(
        [[-half_detuning, half_rabi], [half_rabi, half_detuning]], dtype=complex
    )


def _check_step(h: QubitHamiltonian, channels, t_max: float, dt: float):
    if not (np.isfinite(t_max) and t_max > 0):
        raise StepSizeError(f"t_max must be positive, got {t_max}")
    if not (np.isfinite(dt) and dt > 0):
        raise StepSizeError(f"dt must be positive, got {dt}")
    if dt > t_max / 10:
        raise StepSizeError(f"dt = {dt} exceeds t_max/10 = {t_max / 10}")
    if dt * h.frequency_scale >= _STEP_RESOLUTION:
        raise StepSizeError(
            f"dt * max(epsilon, omega_rabi, omega0) = {dt * h.frequency_scale} "
            f"must stay below {_STEP_RESOLUTION}"
        )
    for ch in channels:
        if dt * ch.rate >= _STEP_RESOLUTION:
            raise StepSizeError(
                f"dt * channel rate = {dt * ch.rate} must stay below {_STEP_RESOLUTION}"
            )


def _superoperator(h_matrix: np.ndarray, channels) -> np.ndarray:
    """Generator acting on row-major vec(rho): vec(A rho B) = (A kron B^T) vec(rho)."""
    eye = np.eye(2, dtype=complex)
    gen = -1j * (np.kron(h_matrix, eye) - np.kron(eye, h_matrix.T))
    for ch in channels:
        op = ch.operator
        op_sq = op.conj().T @ op
        gen += np.kron(op, op.conj()) - 0.5 * (np.kron(op_sq, eye) + np.kron(eye, op_sq.T))
    return gen


def _rk4_step_map(l_start, l_mid, l_end, dt: float) -> np.ndarray:
    """One classical RK4 step of d vec(rho)/dt = L(t) vec(rho) as a 4x4 map.

    l_start, l_mid and l_end are the generators at t, t + dt/2 and t + dt;
    leading axes broadcast, giving one map per step.
    """
    eye = np.eye(4, dtype=complex)
    k1 = l_start
    k2 = l_mid @ (eye + 0.5 * dt * k1)
    k3 = l_mid @ (eye + 0.5 * dt * k2)
    k4 = l_end @ (eye + dt * k3)
    return eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _block_length(n_steps: int) -> int:
    """Steps per block for a run of n_steps: about sqrt(n_steps), at most _MAP_BLOCK.

    Forming a block's products takes one Python-level product per step of
    the block and applying them one per block, so sqrt(n_steps) makes the
    fewest calls; the cap bounds the memory of one block.
    """
    return min(_MAP_BLOCK, math.isqrt(n_steps - 1) + 1)


def _running_products(maps: np.ndarray) -> np.ndarray:
    """Q[j] = M[j] @ ... @ M[0] along the first axis of maps; later axes batch.

    One sequential product per j. A doubling scan would need fewer products,
    but it puts the rounding error of its longest product into every block
    alike, and over 1e5 steps that error adds up to more than 1e-12.
    """
    prods = np.empty(maps.shape, dtype=complex)
    prods[0] = maps[0]
    for j in range(1, maps.shape[0]):
        np.matmul(maps[j], prods[j - 1], out=prods[j])
    return prods


def _block_products(h: QubitHamiltonian, channels, dt: float, n_steps: int):
    """Iterator over (first step, running step-map products of its block).

    The products of the last block may run past n_steps; the caller uses
    only the rows it needs.
    """
    if h.drive_mode is not DriveMode.FULL_COSINE:
        gen = _superoperator(hamiltonian_at(h, 0.0), channels)
        step = _rk4_step_map(gen, gen, gen, dt)
        block = _block_length(n_steps)
        powers = _running_products(np.broadcast_to(step, (block, 4, 4)))
        for first in range(0, n_steps, block):
            yield first, powers
        return
    static = _superoperator(0.5 * h.epsilon * SIGMA_Z, channels)
    drive = _superoperator(h.omega_rabi * SIGMA_X, ())
    batch = _MAP_BLOCK * _BATCH_BLOCKS
    for start in range(0, n_steps, batch):
        n = min(batch, n_steps - start)
        block = _block_length(n)
        n_blocks = -(-n // block)
        # Step start + b * block + j sits at [j, b]: the lockstep products
        # of all blocks of the batch read one contiguous slice per j.
        t = dt * (start + block * np.arange(n_blocks) + np.arange(block)[:, None])
        gens = [static + np.cos(h.omega0 * at)[..., None, None] * drive
                for at in (t, t + 0.5 * dt, t + dt)]
        prods = _running_products(_rk4_step_map(*gens, dt))
        for b in range(n_blocks):
            yield start + b * block, prods[:, b]


def _integrate_static(rho0: np.ndarray, h: QubitHamiltonian, channels, dt: float, n_steps: int):
    """Trajectory of vec(rho0) under the step maps of every drive mode, one row per sample.

    Each block of rows is one product of the block's running step maps,
    stacked into a (4 m) x 4 matrix, with the row before the block; numpy
    does that faster than m separate 4x4 products. The name predates the
    driven case; tests and the benchmark tracer reach the integrator by it.
    """
    out = np.empty((n_steps + 1, 4), dtype=complex)
    out[0] = rho0.reshape(4)
    for first, prods in _block_products(h, channels, dt, n_steps):
        last = min(first + prods.shape[0], n_steps)
        np.matmul(prods[: last - first].reshape(-1, 4), out[first],
                  out=out[first + 1 : last + 1].reshape(-1))
    return out


def _series_from_trajectory(traj: np.ndarray, dt: float) -> TimeSeries:
    """Validate every sample against the trajectory tolerances, then record it.

    Each test asks whether a sample is within tolerance, so that a NaN
    sample, which compares False with everything, fails it at its step.
    """
    trace_err = np.abs(traj[:, 0] + traj[:, 3] - 1.0)
    ok = trace_err <= TRACE_TOL
    if not ok.all():
        idx = int(np.argmin(ok))
        raise NumericalInstabilityError(
            f"trace deviated by {trace_err[idx]:.3e} at step {idx}"
        )
    herm_err = np.maximum(
        np.abs(traj[:, 1] - np.conj(traj[:, 2])),
        2.0 * np.maximum(np.abs(traj[:, 0].imag), np.abs(traj[:, 3].imag)),
    )
    ok = herm_err <= HERMITICITY_TOL
    if not ok.all():
        idx = int(np.argmin(ok))
        raise NumericalInstabilityError(
            f"hermiticity deviated by {herm_err[idx]:.3e} at step {idx}"
        )
    lam_min = _min_eigenvalue_2x2(traj.reshape(-1, 2, 2))
    ok = lam_min >= POSITIVITY_FLOOR
    if not ok.all():
        idx = int(np.argmin(ok))
        raise NumericalInstabilityError(
            f"positivity breached (min eigenvalue {lam_min[idx]:.3e}) at step {idx}"
        )
    times = dt * np.arange(traj.shape[0])
    return TimeSeries(
        times=times, p_g=traj[:, 0].real, p_e=traj[:, 3].real, rho01=traj[:, 1].copy()
    )


def evolve_lindblad(rho0, h: QubitHamiltonian, channels, t_max: float, dt: float) -> TimeSeries:
    """Integrate the master-equation trajectory of rho0 on a fixed grid.

    Parameters
    ----------
    rho0 : DensityMatrix or array_like
        Initial 2x2 state.
    h : QubitHamiltonian
        Coherent part of the generator.
    channels : sequence of LindbladChannel
        Collapse operators; empty means closed evolution.
    t_max, dt : float
        Final time and fixed step. dt must not exceed t_max/10 and must
        resolve the fastest frequency and channel rate (product below 0.1).

    Returns
    -------
    TimeSeries
        Samples at 0, dt, 2*dt, ..., with t_max rounded to a whole number
        of steps. Every sample is checked for trace, hermiticity, and
        positivity; a breach raises NumericalInstabilityError.
    """
    rho0 = _as_density(rho0)
    if rho0.dim != 2:
        raise DimensionError("time evolution supports single-qubit states only")
    channels = tuple(channels)
    _check_step(h, channels, t_max, dt)
    n_steps = int(round(t_max / dt))
    traj = _integrate_static(rho0.matrix, h, channels, dt, n_steps)
    return _series_from_trajectory(traj, dt)


def evolve_closed(rho0, h: QubitHamiltonian, t_max: float, dt: float) -> TimeSeries:
    """Closed-system trajectory: the commutator generator with no channels."""
    return evolve_lindblad(rho0, h, (), t_max, dt)


def pure_dephasing_analytic(rho0, epsilon: float, delta: float, t: float) -> DensityMatrix:
    """Exact state after pure dephasing: populations fixed, coherences damped.

    rho01(t) = e^{-2 delta t} e^{-i epsilon t} rho01(0); the opposite corner
    follows by conjugation. Serves as the closed-form oracle for
    evolve_lindblad with the sqrt(delta) sigma_z channel.
    """
    _check_dephasing_rate(delta)
    mat = _as_density(rho0).matrix
    factor = np.exp(-2.0 * delta * t) * np.exp(-1j * epsilon * t)
    upper = mat[0, 1] * factor
    return DensityMatrix(
        [[mat[0, 0], upper], [np.conj(upper), mat[1, 1]]]
    )


def dephasing_time(delta: float) -> float:
    """Coherence 1/e-decay time T2 = 1/(2*delta) of the pure-dephasing channel."""
    if not (np.isfinite(delta) and delta > 0):
        raise DomainError(f"dephasing rate must be positive, got {delta}")
    return 1.0 / (2.0 * delta)
