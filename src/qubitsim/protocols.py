"""Experiment-level compositions: Ramsey fringes, damped Rabi drive, superdense coding.

Ramsey pulses are ideal instantaneous pi/2 rotations about the Bloch y axis,
with the convention |g> -> (|g> + |e>)/sqrt(2). Between pulses the state
precesses freely at the level splitting; an optional pure-dephasing rate
damps the acquired coherence as e^{-2 delta tau}, which multiplies the
fringe contrast by the same factor:

    P_e(tau) = (1 + e^{-2 delta tau} cos(Delta tau)) / 2

Superdense coding shares the (|00> + |11>)/sqrt(2) pair, encodes two bits by
a local operation on the first (sender's) qubit, and decodes by projecting
onto the four entangled basis states. Transmission noise is modeled as pure
dephasing of the sender's qubit alone.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    SIGMA_X,
    SIGMA_Z,
    DriveMode,
    LindbladChannel,
    QubitHamiltonian,
    TimeSeries,
    _coherence_decay,
    evolve_lindblad,
)
from .errors import DomainError, SamplingError, _check_domain
from .qstate import NORM_ATOL, DensityMatrix, Ket, _as_density, _readonly, density_from_ket

MESSAGES = ("00", "01", "10", "11")

_IDENTITY = np.eye(2, dtype=complex)
_ENCODING_OPS = (_IDENTITY, SIGMA_Z, SIGMA_X, SIGMA_Z @ SIGMA_X)  # in MESSAGES order


def _check_points(n_points, error):
    if not isinstance(n_points, (int, np.integer)):
        raise error(f"n_points must be an integer, got {n_points!r}")
    if n_points < 2:
        raise error(f"n_points must be at least 2, got {n_points}")


@dataclass(frozen=True)
class RamseyConfig:
    """Two-pulse interferometry scan settings.

    delta_split is the level splitting (angular frequency), tau_max the
    longest free-evolution delay, n_points the scan length. dephasing_rate
    adds pure dephasing during the delay.
    """

    delta_split: float
    tau_max: float
    n_points: int
    dephasing_rate: float = 0.0

    def __post_init__(self):
        _check_domain(self.tau_max, "tau_max", "finite and positive", ValueError)
        _check_points(self.n_points, ValueError)
        _check_domain(self.delta_split, "delta_split", error=ValueError)
        _check_domain(self.dephasing_rate, "dephasing_rate", "finite and non-negative", ValueError)

    @property
    def tau_step(self) -> float:
        return self.tau_max / (self.n_points - 1)


def ramsey_population(cfg: RamseyConfig, tau: float) -> float:
    """Excited-state probability after the pi/2 -- delay -- pi/2 sequence.

    Closed form (1 + e^{-2 delta tau} cos(Delta tau))/2: back-to-back pulses
    (tau = 0) compose to a pi pulse ending in |e>; a full equatorial
    revolution (Delta tau = 2 pi) also returns P_e = 1, a half revolution
    (Delta tau = pi) returns P_e = 0.
    """
    if not (0.0 <= tau <= cfg.tau_max):
        raise DomainError(f"tau = {tau} outside [0, {cfg.tau_max}]")
    return float(_ramsey_fringe(cfg, tau)[0])


def _ramsey_fringe(cfg: RamseyConfig, taus):
    """P_e and the post-sequence coherence rho01 at delays taus, from one composed rotation."""
    contrast = _coherence_decay(cfg.dephasing_rate, taus)
    p_e = 0.5 * (1.0 + contrast * np.cos(cfg.delta_split * taus))
    return p_e, -0.5j * contrast * np.sin(cfg.delta_split * taus)


def ramsey_scan(cfg: RamseyConfig) -> TimeSeries:
    """Fringe scan P_e(tau) on the uniform delay grid of cfg.

    The grid must resolve the splitting: delta_split below the Nyquist
    angular frequency pi / tau_step.
    """
    nyquist = np.pi / cfg.tau_step
    if abs(cfg.delta_split) >= nyquist:
        raise SamplingError(
            f"splitting {cfg.delta_split} at or above the Nyquist angular frequency "
            f"{nyquist} of the scan grid; add points or shorten tau_max"
        )
    taus = np.linspace(0.0, cfg.tau_max, cfg.n_points)
    p_e, rho01 = _ramsey_fringe(cfg, taus)
    return TimeSeries(times=taus, p_g=1.0 - p_e, p_e=p_e, rho01=rho01)


def fringe_frequency(series: TimeSeries) -> float:
    """Dominant angular frequency of the P_e record, by zero-padded FFT peak.

    Returns 0.0 for a flat record. The peak bin is refined by parabolic
    interpolation of the neighboring magnitudes.
    """
    n = len(series)
    if n < 4:
        raise SamplingError("need at least 4 uniform samples to estimate a frequency")
    values = series.p_e - np.mean(series.p_e)
    n_fft = 8 * n
    spectrum = np.abs(np.fft.rfft(values, n=n_fft))
    peak = int(np.argmax(spectrum[1:])) + 1
    if spectrum[peak] < NORM_ATOL * n:
        return 0.0
    offset = 0.0
    if 1 <= peak < spectrum.size - 1:
        left, mid, right = spectrum[peak - 1 : peak + 2]
        denom = left - 2.0 * mid + right
        if denom != 0.0:
            offset = 0.5 * (left - right) / denom
    return float(2.0 * np.pi * (peak + offset) / (n_fft * series.dt))


def rabi_with_dephasing(omega: float, delta: float, epsilon: float,
                        t_max: float, dt: float) -> TimeSeries:
    """Resonantly driven qubit under pure dephasing, from the ground state.

    Runs the rotating-frame master equation with drive amplitude omega and
    channel sqrt(delta) sigma_z. For delta = 0 the populations follow
    sin^2(omega t / 2); increasing delta damps the oscillation envelope and
    pushes the populations toward 1/2.
    """
    h = QubitHamiltonian(
        epsilon=epsilon,
        omega_rabi=omega,
        omega0=epsilon,
        drive_mode=DriveMode.ROTATING_WAVE,
    )
    channel = LindbladChannel.pure_dephasing(delta)
    ground = DensityMatrix([[1.0, 0.0], [0.0, 0.0]])
    return evolve_lindblad(ground, h, (channel,), t_max, dt)


def figure_of_merit(delta: float, omega: float) -> float:
    """Gate-to-decoherence timescale ratio delta/omega; smaller is better."""
    _check_domain(omega, "drive amplitude", "finite and positive")
    _check_domain(delta, "dephasing rate", "finite and non-negative")
    merit = float(delta) / float(omega)  # a Python float overflows to inf; a numpy scalar warns
    if not np.isfinite(merit):
        raise DomainError(f"drive amplitude {omega} is too small: delta / omega overflows "
                          f"for dephasing rate {delta}")
    return merit


def _message_index(message) -> int:
    """Position of message in MESSAGES; any other value raises DomainError."""
    if message not in MESSAGES:
        raise DomainError(f"message must be one of {MESSAGES}, got {message!r}")
    return MESSAGES.index(message)


def superdense_encode(message: str) -> Ket:
    """Two-qubit state carrying the message, made by a local operation.

    Starting from the shared pair (|00> + |11>)/sqrt(2), the sender applies
    to her qubit: identity for 00, sigma_z for 01, sigma_x for 10, and
    sigma_z sigma_x for 11. The four outputs are pairwise orthogonal.
    """
    shared = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return Ket(np.kron(_ENCODING_OPS[_message_index(message)], _IDENTITY) @ shared)


# Entangled two-qubit basis, ordered to match MESSAGES: the four encoded states.
BELL_BASIS = tuple(superdense_encode(m) for m in MESSAGES)


def superdense_decode(rho):
    """Joint projective measurement in the entangled basis.

    Returns (message, probabilities) where probabilities[i] = <b_i|rho|b_i>
    over the basis in MESSAGES order and message is the most likely outcome
    (ties broken by basis order).
    """
    mat = _as_density(rho).matrix
    if mat.shape[0] != 4:
        raise DomainError("superdense decoding requires a two-qubit state")
    probs = np.array(
        [float(np.real(np.vdot(b.amplitudes, mat @ b.amplitudes))) for b in BELL_BASIS]
    )
    return MESSAGES[int(np.argmax(probs))], probs


def damp_first_qubit_coherence(rho, factor: float) -> DensityMatrix:
    """Scale every coherence between differing first-qubit indices by factor.

    This is the pure-dephasing channel acting on the first qubit only,
    with e^{-2 delta t} already evaluated to the given factor in [0, 1].
    """
    if not (np.isfinite(factor) and 0.0 <= factor <= 1.0):
        raise DomainError(f"damping factor must lie in [0, 1], got {factor}")
    mat = _as_density(rho).matrix
    if mat.shape[0] != 4:
        raise DomainError("first-qubit damping requires a two-qubit state")
    first_bit = np.arange(4) >> 1
    mask = np.where(first_bit[:, None] == first_bit[None, :], 1.0, factor)
    return DensityMatrix(mat * mask)


# Decode of each encoded state, intact and with its sender-side coherence gone:
# row i is message i in MESSAGES order. Every superdense probability lies between.
_PURE = tuple(map(density_from_ket, BELL_BASIS))
_INTACT = _readonly(np.array([superdense_decode(rho)[1] for rho in _PURE]))
_DEPHASED = _readonly(np.array([superdense_decode(damp_first_qubit_coherence(rho, 0.0))[1]
                                for rho in _PURE]))


@dataclass(frozen=True, eq=False)
class SuperdenseSweep:
    """Decode success probability per message over a grid of channel durations."""

    times: np.ndarray
    success: dict

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))


def _superdense_probabilities(delta: float, times) -> np.ndarray:
    """Decode probabilities indexed [duration in times, sent message, outcome]; MESSAGES order.

    Decoding is linear in rho and the channel scales the sender-side
    coherences by f = e^{-2 delta t}, so every row is p(0) + f (p(1) - p(0)),
    with p(f) the decode of the encoded state damped by f.
    """
    _check_domain(delta, "dephasing rate", "finite and non-negative")
    times = np.asarray(times, dtype=float)
    _check_domain(times, "channel duration", "finite and non-negative")
    probs = _coherence_decay(delta, times)[:, None, None] * (_INTACT - _DEPHASED)
    probs += _DEPHASED  # in place, so a long sweep holds one array at a time
    return probs


def superdense_success_probability(message: str, delta: float, t: float) -> float:
    """Probability that the message survives dephasing of the sender's qubit for time t."""
    probs = _superdense_probabilities(delta, [t])
    i = _message_index(message)
    return float(probs[0, i, i])


def superdense_channel_sweep(delta: float, t_max: float, n_points: int) -> SuperdenseSweep:
    """Sweep of decode success against channel duration for all four messages.

    Success starts at 1 and falls toward 1/2 as the dephasing factor decays:
    each encoded state becomes indistinguishable from its partner of equal
    populations once the sender-side coherence is gone.
    """
    _check_domain(t_max, "t_max", "finite and positive")
    _check_points(n_points, DomainError)
    times = np.linspace(0.0, t_max, n_points)
    probs = _superdense_probabilities(delta, times)
    # Copies, so the sweep does not keep the whole probability array alive.
    success = {msg: probs[:, i, i].copy() for i, msg in enumerate(MESSAGES)}
    return SuperdenseSweep(times=times, success=success)
