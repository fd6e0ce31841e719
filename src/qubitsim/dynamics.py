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
on vec(rho), where every drive mode's generator is a 4x4 matrix L(t) = L0 +
c(t) L1 with c(t) = cos(omega0 t). Each step's map M[k] preserves
Hermiticity, so it runs in float64 on (rho00, Re rho01, Im rho01, rho11).
Whenever L1 vanishes, one map P serves every step: P^1 .. P^B and the block
starts, found the same way one level up, write 64 blocks per product.
Otherwise M[k] is 12 node maps, built once per run, weighted by Lagrange
weights in c at the start, middle and end of the step, and the running
products Q[j] = M[j] @ ... @ M[0] of a block of maps write its samples in
one product with the sample before it.
"""

import enum
import itertools
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
    _min_eigenvalue_rows,
    _readonly,
)

SIGMA_X = _readonly(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Z = _readonly(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))

_STEP_RESOLUTION = 0.1  # dt * (fastest angular frequency or rate) must stay below this
# A run takes 40 bytes per step, four float64 trajectory entries that its series
# views and the time, so a run of this many steps already needs 40 GB.
_MAX_STEPS = 10**9

# Driven step maps are built this many at a time, so memory stays bounded
# for long runs.
_DRIVEN_BATCH = 4096

# Trajectory samples are checked this many at a time.
_CHECK_ROWS = 4096

# A block whose trace s = rho00 + rho11 lies within half of TRACE_TOL of 1 and
# whose determinant rho00 rho11 - |rho01|^2 is at least half of POSITIVITY_FLOOR
# passes both checks (Sylvester's criterion, with margin): its smallest
# eigenvalue s/2 - sqrt(s^2/4 - det) is at least min(0, det / s), so at least
# -5.0000000025e-9, 5e-9 inside the floor. The two bounds keep rho00 and rho11
# within about [-5e-9, 1 + 5e-9] and |rho01| near 1/2 at most, so rounding moves
# these figures by about 1e-16.
_SCREEN_TRACE_LOW = 1.0 - 0.5 * TRACE_TOL
_SCREEN_TRACE_HIGH = 1.0 + 0.5 * TRACE_TOL
_SCREEN_MINUS_DET = -0.5 * POSITIVITY_FLOOR

# T takes row-major vec(rho) to (rho00, Re rho01, Im rho01, rho11); _FROM_REAL is T^-1.
_TO_REAL = _readonly(np.array([[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0], [0, 0, 0, 1]]))
_FROM_REAL = _readonly(np.array([[1, 0, 0, 0], [0, 1, 1j, 0], [0, 1, -1j, 0], [0, 0, 0, 1]]))


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
        delta = _check_domain(delta, "dephasing rate", "finite and non-negative")
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
            # Every step is tested for > 0: below dt of about 1e-9 the
            # spacing allowance exceeds dt, and a step back would pass it.
            steps = np.diff(self.times)
            dt = steps[0]
            if not steps.min() > 0:
                raise ValueError("sample times must be strictly increasing")
            rounding = SPACING_ULPS * np.spacing(max(abs(self.times[0]), abs(self.times[-1])))
            if not np.max(np.abs(steps - dt)) <= SPACING_RTOL * max(1.0, abs(dt)) + rounding:
                raise ValueError("sample times must be uniformly spaced")
        for name in ("p_g", "p_e", "rho01"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} values must be finite")

    @classmethod
    def _checked(cls, times, p_g, p_e, rho01) -> "TimeSeries":
        """Record of columns that their maker has already checked, without __post_init__'s scan.

        For evolve_lindblad's record: its times are k * dt, so uniform and increasing,
        and no NaN or inf sample passes the trace and positivity checks. The arrays must
        have the column dtypes and equal lengths. They are made read-only in place and
        held, not copied, so the caller must own them; a column that views the checked
        rows needs those rows made read-only first.
        """
        series = object.__new__(cls)
        for name, column in (("times", times), ("p_g", p_g), ("p_e", p_e), ("rho01", rho01)):
            object.__setattr__(series, name, _readonly(column))
        return series

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
    """Hamiltonian matrix at time t; t and, for FULL_COSINE, omega0 * t must be finite."""
    _check_domain(t, "t")
    static, drive = _hamiltonian_parts(h)
    if h.drive_mode is not DriveMode.FULL_COSINE:
        return static
    _check_domain(float(h.omega0) * float(t), "omega0 * t")  # a numpy scalar would warn
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two 2x2 matrices: the same single products, without its set-up."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _superoperator(h_matrix: np.ndarray, channels) -> np.ndarray:
    """Generator acting on row-major vec(rho): vec(A rho B) = (A kron B^T) vec(rho)."""
    eye = np.eye(2, dtype=complex)
    gen = -1j * (_kron(h_matrix, eye) - _kron(eye, h_matrix.T))
    for ch in channels:
        op = ch.operator
        op_sq = op.conj().T @ op
        gen += _kron(op, op.conj()) - 0.5 * (_kron(op_sq, eye) + _kron(eye, op_sq.T))
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


def _step_maps_at_nodes(static: np.ndarray, drive: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step maps (12, 4, 4) of static + c drive at c_s, c_e in {-1, 1} and c_m in {-1, 0, 1}.

    A step's map has degree 1 in its start and end cosines c_s, c_e and degree 2 in its
    middle one c_m, so it is these 12 maps weighted by _node_weights(c_s, c_m, c_e).
    """
    nodes = np.meshgrid([-1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, 1.0], indexing="ij")
    c_s, c_m, c_e = (c.reshape(12, 1, 1) for c in nodes)
    return _rk4_step_map(static + c_s * drive, static + c_m * drive, static + c_e * drive, dt)


def _node_weights(c_s, c_m, c_e) -> np.ndarray:
    """Lagrange weights (n, 12) of the node maps at n steps' cosines; sum |w| <= 1.25 on [-1, 1].

    Column 6 i + 2 j + k is (w_s[i] w_m[j]) w_e[k], each factor a length-n array,
    so every product runs along n and writes its column in place.
    """
    w_s, w_e = ((0.5 * (1.0 - c), 0.5 * (1.0 + c)) for c in (c_s, c_e))
    w_m = (0.5 * c_m * (c_m - 1.0), 1.0 - c_m * c_m, 0.5 * c_m * (c_m + 1.0))
    out = np.empty((len(c_s), 12))
    for col, (s, m) in enumerate(itertools.product(w_s, w_m)):
        sm = s * m
        np.multiply(sm, w_e[0], out=out[:, 2 * col])
        np.multiply(sm, w_e[1], out=out[:, 2 * col + 1])
    return out


def _block_length(n_steps: int) -> int:
    """Steps per block for a run of n_steps: about sqrt(n_steps), at most 255.

    Forming a block's products takes one Python-level product per step of
    the block, and a driven batch applies them one product per block, so
    sqrt(n_steps) makes the fewest calls. Shorter blocks would save a static
    run calls (see _orbit), but at n_steps^(1/3) steps they part from single
    steps by more than 1e-12 over 1e5 steps. From 256 steps, numpy's bundled
    OpenBLAS wakes a second thread to apply a driven block, which spins on
    after the run; its first wake-up has stalled a fresh process for about 1 s.
    """
    return min(math.isqrt(n_steps - 1) + 1, 255)


def _running_products(maps: np.ndarray) -> np.ndarray:
    """Q[j] = M[j] @ ... @ M[0] along the first axis of maps; later axes batch.

    One sequential product per j. A doubling scan would need fewer products,
    but it puts the rounding error of its longest product into every block
    alike, and over 1e5 steps that error adds up to more than 1e-12.
    """
    prods = np.empty(maps.shape)
    prods[0] = maps[0]
    for j in range(1, maps.shape[0]):
        np.matmul(maps[j], prods[j - 1], out=prods[j])
    return prods


def _real_step_maps(maps: np.ndarray, dt: float) -> np.ndarray:
    """T M T^-1 of step maps M (..., 4, 4); an imaginary residue past tolerance fails at step 1."""
    maps = _TO_REAL @ maps @ _FROM_REAL
    residue = np.abs(maps.imag).max()
    if not residue <= HERMITICITY_TOL:
        raise NumericalInstabilityError(
            f"hermiticity deviated by {residue:.3e} at step 1 (t = {float(dt)!r})")
    return maps.real


def _orbit(step: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill rows 1 .. n of out (n + 1, 4) with step^k @ out[0], and return out.

    Baby steps P^1 .. P^B of P = step, B = _block_length(n), are running
    products; giant steps, the block starts (P^B)^k @ out[0], are the orbit
    of P^B one level up (M. S. Paterson and L. J. Stockmeyer, SIAM J.
    Comput. 2, 60 (1973)). 64 starts times the 4 x 4B powers write 64 full
    blocks in one product; 129 starts of 255-step blocks would wake a
    second OpenBLAS thread, as a driven block of 256 steps does.
    """
    n = out.shape[0] - 1
    if n == 0:
        return out
    block = _block_length(n)
    powers = _running_products(np.broadcast_to(step, (block, 4, 4)))
    full, rest = divmod(n, block)
    starts = np.empty((full + (rest > 0), 4))
    starts[0] = out[0]
    _orbit(powers[-1], starts)
    blocks, cols = out[1 : 1 + full * block].reshape(full, 4 * block), powers.reshape(-1, 4).T
    for c in range(0, full, 64):
        np.matmul(starts[c : min(c + 64, full)], cols, out=blocks[c : c + 64])
    if rest:
        np.matmul(starts[full:], cols[:, : 4 * rest], out=out[1 + full * block :].reshape(1, -1))
    return out


def _integrate_static(rho0: np.ndarray, h: QubitHamiltonian, channels, dt: float, n_steps: int):
    """Trajectory (n_steps + 1, 4) of rho0 as rows (rho00, Re rho01, Im rho01, rho11).

    A static run is the _orbit of its one step map. A driven run's blocks
    are each one product of the block's running step maps, stacked into a
    (4 m) x 4 matrix, with the row before the block; numpy does that faster
    than m separate 4x4 products. The name predates the driven case; tests
    and the benchmark tracer reach the integrator by it.
    """
    out = np.empty((n_steps + 1, 4))
    out[0] = rho0[0, 0].real, rho0[0, 1].real, rho0[0, 1].imag, rho0[1, 1].real
    h_static, h_drive = _hamiltonian_parts(h)
    static, drive = _superoperator(h_static, channels), _superoperator(h_drive, ())
    if not drive.any():
        return _orbit(_real_step_maps(_rk4_step_map(static, static, static, dt), dt), out)
    node_rows = _real_step_maps(_step_maps_at_nodes(static, drive, dt), dt).reshape(12, 16)
    for start in range(0, n_steps, _DRIVEN_BATCH):
        n = min(_DRIVEN_BATCH, n_steps - start)
        block = _block_length(n)
        n_blocks = -(-n // block)
        # Step start + b * block + j sits at [j, b]: the lockstep products
        # of all blocks of the batch read one contiguous slice per j.
        t = dt * (start + block * np.arange(n_blocks) + np.arange(block)[:, None]).reshape(-1)
        # One product per j, of n_blocks <= 64 rows: small enough that BLAS
        # starts no threads (see _block_length).
        rows = _node_weights(*(np.cos(h.omega0 * at) for at in (t, t + 0.5 * dt, t + dt)))
        maps = rows.reshape(block, n_blocks, 12) @ node_rows
        prods = _running_products(maps.reshape(block, n_blocks, 4, 4))
        for b in range(n_blocks):
            # The last block's products may run past n_steps; only the rows needed are used.
            first = start + b * block
            last = min(first + block, n_steps)
            np.matmul(prods[: last - first, b].reshape(-1, 4), out[first],
                      out=out[first + 1 : last + 1].reshape(-1))
    return out


def _checks(rows: np.ndarray):
    """(ok, measure, message) of the trace and positivity checks, in that order.

    Each measure is computed only when its check is reached. ok asks whether a sample is
    within tolerance, so that a NaN sample, which compares False with everything, fails.
    """
    trace_err = np.abs(rows[:, 0] + rows[:, 3] - 1.0)
    yield trace_err <= TRACE_TOL, trace_err, "trace deviated by {:.3e}"
    lam_min = _min_eigenvalue_rows(rows)
    yield lam_min >= POSITIVITY_FLOOR, lam_min, "positivity breached (min eigenvalue {:.3e})"


def _passes_screen(rows: np.ndarray) -> bool:
    """True if every row is sure to pass _checks, by the trace range and determinant bound above.

    False says nothing: _checks judges such a block. A NaN or inf makes a
    comparison False. The determinant waits for the trace, as _checks'
    eigenvalues do, so the screen warns of an overflow only where they would.
    """
    s = rows[:, 0] + rows[:, 3]
    if not (_SCREEN_TRACE_LOW <= s.min() and s.max() <= _SCREEN_TRACE_HIGH):
        return False
    a, x, y, b = rows.T
    minus_det = x * x
    minus_det += y * y
    minus_det -= a * b
    return bool(minus_det.max() <= _SCREEN_MINUS_DET)


def _series_from_trajectory(traj: np.ndarray, dt: float) -> TimeSeries:
    """Validate every sample of a trajectory from _integrate_static, then record it.

    The checks run a block of _CHECK_ROWS rows at a time. _passes_screen
    decides a healthy block from its trace range and largest minus
    determinant; _checks judges every other block, and a block with a
    breach sends the search to the whole trajectory, so the first check to
    fail is reported at its first failing step. The record views the
    checked rows: the trajectory is made read-only, and its columns are
    the series' p_g, rho01 and p_e.
    """
    n = traj.shape[0]
    for first in range(0, n, _CHECK_ROWS):
        rows = traj[first : first + _CHECK_ROWS]
        if _passes_screen(rows) or all(ok.all() for ok, _, _ in _checks(rows)):
            continue
        for ok, measure, message in _checks(traj):
            if not ok.all():
                idx = int(np.argmin(ok))
                raise NumericalInstabilityError(
                    f"{message.format(measure[idx])} at step {idx} (t = {idx * float(dt)!r})")
    # k < 2**53 converts to float exactly, so this is bitwise dt * np.arange(n)
    # without its int64 temporary.
    times = np.arange(n, dtype=float)
    times *= dt
    _readonly(traj)
    return TimeSeries._checked(times, traj[:, 0], traj[:, 3], traj[:, 1:3].view(complex)[:, 0])


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
        of steps. Every sample is checked for trace and positivity, and the
        step map for hermiticity; a breach raises NumericalInstabilityError.
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
