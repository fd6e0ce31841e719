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
on vec(rho), where the generator is a 4x4 matrix L(t). Every drive mode has
H(t) = H0 + cos(omega0 t) H1, so L(t) = L0 + cos(omega0 t) L1. Because the
equation is linear, each step is a 4x4 map M[k] built from the generators at
the start, middle and end of the step. The integrator advances a block of
steps at a time: it forms the running products Q[j] = M[j] @ ... @ M[0] of
the block's maps and writes all the block's samples with one batched product
of Q with the sample before the block. Whenever the drive generator L1
vanishes, one map P serves every step, so one block of powers P^1 .. P^B
serves every block. Otherwise the maps are built a batch of steps at a
time, and the running products of a batch's blocks are formed in lockstep.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, DomainError, NumericalInstabilityError, StepSizeError,
                     _check_domain)
from .qstate import (
    HERMITICITY_TOL,
    POSITIVITY_FLOOR,
    SPACING_RTOL,
    SPACING_ULPS,
    TRACE_TOL,
    DensityMatrix,
    _as_density,
    _min_eigenvalue_2x2,
    _readonly,
)

SIGMA_X = _readonly(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))

_STEP_RESOLUTION = 0.1  # dt * (fastest angular frequency or rate) must stay below this
# The trajectory alone takes 64 bytes (four complex entries) per step, so a
# run of this many steps already needs 64 GB.
_MAX_STEPS = 10**9

# Driven step maps are built this many at a time, so memory stays bounded
# for long runs.
_DRIVEN_BATCH = 4096


def _coherence_decay(delta, t):
    """Factor e^{-2 delta t} that pure dephasing at rate delta puts on a coherence by time t.

    delta * t comes first, so t = 0 gives 1 for any finite delta; past the float range, 0.
    """
    with np.errstate(over="ignore"):
        return np.exp(-2.0 * (delta * t))


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
        object.__setattr__(self, "drive_mode", DriveMode(self.drive_mode))
        for name in ("epsilon", "omega_rabi", "omega0"):
            _check_domain(getattr(self, name), name, "finite and non-negative", ValueError)
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
        _check_domain(delta, "dephasing rate", "finite and non-negative")
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
        # Read-only views: no samples are copied, and the caller's arrays stay writeable.
        for name, dtype in (("times", float), ("p_g", float), ("p_e", float), ("rho01", complex)):
            view = _readonly(np.asarray(getattr(self, name), dtype=dtype).view())
            object.__setattr__(self, name, view)
        n = self.times.size
        if not (self.p_g.size == self.p_e.size == self.rho01.size == n):
            raise ValueError("all trajectory columns must have the same length")
        if n >= 2:
            # Both tests ask whether the grid is within tolerance, so that a
            # NaN time, which compares False with everything, fails them.
            steps = np.diff(self.times)
            dt = steps[0]
            if not dt > 0:
                raise ValueError("sample times must be strictly increasing")
            rounding = SPACING_ULPS * np.spacing(max(abs(self.times[0]), abs(self.times[-1])))
            if not np.max(np.abs(steps - dt)) <= SPACING_RTOL * max(1.0, abs(dt)) + rounding:
                raise ValueError("sample times must be uniformly spaced")
        for name in ("p_g", "p_e", "rho01"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} values must be finite")

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


def _hamiltonian_parts(h: QubitHamiltonian):
    """(H0, H1) with H(t) = H0 + cos(omega0 t) H1; H1 is zero unless the mode is FULL_COSINE.

    NONE has omega_rabi = 0; ROTATING_WAVE has its drive in H0, in the rotating frame.
    """
    if h.drive_mode is DriveMode.ROTATING_WAVE:
        return 0.5 * (h.omega_rabi * SIGMA_X - h.detuning * SIGMA_Z), 0.0 * SIGMA_X
    return 0.5 * h.epsilon * SIGMA_Z, h.omega_rabi * SIGMA_X


def hamiltonian_at(h: QubitHamiltonian, t: float) -> np.ndarray:
    """Hamiltonian matrix at time t for the configured drive mode; t must be finite."""
    _check_domain(t, "t")
    static, drive = _hamiltonian_parts(h)
    return static + np.cos(h.omega0 * t) * drive


def _check_step(h: QubitHamiltonian, channels, t_max: float, dt: float) -> int:
    """Step count round(t_max / dt) of a run; raises StepSizeError if a step rule fails."""
    for name, value in (("t_max", t_max), ("dt", dt)):
        _check_domain(value, name, "finite and positive", StepSizeError)
    if dt > t_max / 10:
        raise StepSizeError(f"dt = {dt} exceeds t_max/10 = {t_max / 10}")
    scales = [("max(epsilon, omega_rabi, omega0)", h.frequency_scale)]
    for label, rate in scales + [("channel rate", ch.rate) for ch in channels]:
        if dt * rate >= _STEP_RESOLUTION:
            raise StepSizeError(f"dt * {label} = {dt * rate} must stay below {_STEP_RESOLUTION}")
    ratio = float(t_max) / float(dt)  # a Python float overflows to inf; a numpy scalar warns
    if ratio > _MAX_STEPS:
        raise StepSizeError(f"t_max / dt = {ratio} exceeds the limit of {_MAX_STEPS} steps")
    return int(round(ratio))


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
    """Steps per block for a run of n_steps: about sqrt(n_steps).

    Forming a block's products takes one Python-level product per step of
    the block and applying them one per block, so sqrt(n_steps) makes the
    fewest calls.
    """
    return math.isqrt(n_steps - 1) + 1


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


def _integrate_static(rho0: np.ndarray, h: QubitHamiltonian, channels, dt: float, n_steps: int):
    """Trajectory of vec(rho0) under the step maps of every drive mode, one row per sample.

    Each block of rows is one product of the block's running step maps,
    stacked into a (4 m) x 4 matrix, with the row before the block; numpy
    does that faster than m separate 4x4 products. The name predates the
    driven case; tests and the benchmark tracer reach the integrator by it.
    """
    out = np.empty((n_steps + 1, 4), dtype=complex)
    out[0] = rho0.reshape(4)

    def advance(first, prods):
        # The last block's products may run past n_steps; only the rows needed are used.
        last = min(first + prods.shape[0], n_steps)
        np.matmul(prods[: last - first].reshape(-1, 4), out[first],
                  out=out[first + 1 : last + 1].reshape(-1))

    h_static, h_drive = _hamiltonian_parts(h)
    static = _superoperator(h_static, channels)
    drive = _superoperator(h_drive, ())
    if not drive.any():
        step = _rk4_step_map(static, static, static, dt)
        powers = _running_products(np.broadcast_to(step, (_block_length(n_steps), 4, 4)))
        for first in range(0, n_steps, powers.shape[0]):
            advance(first, powers)
        return out
    for start in range(0, n_steps, _DRIVEN_BATCH):
        n = min(_DRIVEN_BATCH, n_steps - start)
        block = _block_length(n)
        n_blocks = -(-n // block)
        # Step start + b * block + j sits at [j, b]: the lockstep products
        # of all blocks of the batch read one contiguous slice per j.
        t = dt * (start + block * np.arange(n_blocks) + np.arange(block)[:, None])
        gens = [static + np.cos(h.omega0 * at)[..., None, None] * drive
                for at in (t, t + 0.5 * dt, t + dt)]
        prods = _running_products(_rk4_step_map(*gens, dt))
        for b in range(n_blocks):
            advance(start + b * block, prods[:, b])
    return out


def _raise_at_first_breach(ok: np.ndarray, measure: np.ndarray, message: str):
    """Raise at the first step where ok is False, formatting message with its measure.

    ok asks whether a sample is within tolerance, so that a NaN sample, which
    compares False with everything, fails at its step.
    """
    if not ok.all():
        idx = int(np.argmin(ok))
        raise NumericalInstabilityError(f"{message.format(measure[idx])} at step {idx}")


def _series_from_trajectory(traj: np.ndarray, dt: float) -> TimeSeries:
    """Validate every sample against the trajectory tolerances, then record it."""
    trace_err = np.abs(traj[:, 0] + traj[:, 3] - 1.0)
    _raise_at_first_breach(trace_err <= TRACE_TOL, trace_err, "trace deviated by {:.3e}")
    herm_err = np.maximum(
        np.abs(traj[:, 1] - np.conj(traj[:, 2])),
        2.0 * np.maximum(np.abs(traj[:, 0].imag), np.abs(traj[:, 3].imag)),
    )
    _raise_at_first_breach(herm_err <= HERMITICITY_TOL, herm_err, "hermiticity deviated by {:.3e}")
    lam_min = _min_eigenvalue_2x2(traj.reshape(-1, 2, 2))
    _raise_at_first_breach(lam_min >= POSITIVITY_FLOOR, lam_min,
                           "positivity breached (min eigenvalue {:.3e})")
    del trace_err, herm_err, lam_min  # freed first, so the copies below add nothing to the peak
    times = dt * np.arange(traj.shape[0])
    # Copies, so the record does not keep the whole trajectory array alive.
    return TimeSeries(times=times, p_g=traj[:, 0].real.copy(), p_e=traj[:, 3].real.copy(),
                      rho01=traj[:, 1].copy())


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
        resolve the fastest frequency and channel rate (product below 0.1),
        and t_max/dt must not exceed 10**9 steps.

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
    n_steps = _check_step(h, channels, t_max, dt)
    traj = _integrate_static(rho0.matrix, h, channels, dt, n_steps)
    return _series_from_trajectory(traj, dt)


def evolve_closed(rho0, h: QubitHamiltonian, t_max: float, dt: float) -> TimeSeries:
    """Closed-system trajectory: the commutator generator with no channels."""
    return evolve_lindblad(rho0, h, (), t_max, dt)


def pure_dephasing_analytic(rho0, epsilon: float, delta: float, t: float) -> DensityMatrix:
    """Exact state after pure dephasing: populations fixed, coherences damped.

    rho01(t) = e^{-2 delta t} e^{-i epsilon t} rho01(0); the opposite corner
    follows by conjugation; t must be finite and non-negative. The closed-form
    oracle for evolve_lindblad with the sqrt(delta) sigma_z channel.
    """
    _check_domain(delta, "dephasing rate", "finite and non-negative")
    _check_domain(t, "t", "finite and non-negative")
    if not math.isfinite(float(epsilon) * float(t)):  # a NaN or infinite epsilon fails too
        raise DomainError(f"epsilon * t must be finite, got epsilon {epsilon} at t = {t}")
    mat = _as_density(rho0).matrix
    factor = _coherence_decay(delta, t) * np.exp(-1j * epsilon * t)
    upper = mat[0, 1] * factor
    return DensityMatrix([[mat[0, 0], upper], [np.conj(upper), mat[1, 1]]])


def dephasing_time(delta: float) -> float:
    """Coherence 1/e-decay time T2 = 1/(2*delta) of the pure-dephasing channel."""
    _check_domain(delta, "dephasing rate", "finite and positive")
    t2 = 0.5 / float(delta)  # a Python float overflows to inf; a numpy scalar warns
    if not math.isfinite(t2):
        raise DomainError(f"dephasing rate {delta} is too small: T2 = 1/(2 delta) overflows")
    return t2
