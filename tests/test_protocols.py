"""Tests for the Ramsey, Rabi, and superdense coding experiments."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitsim import (
    BELL_BASIS,
    MESSAGES,
    DensityMatrix,
    DomainError,
    Ket,
    RamseyConfig,
    SamplingError,
    TimeSeries,
    damp_first_qubit_coherence,
    density_from_ket,
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
from qubitsim import protocols
from qubitsim.cli import main
from qubitsim.dynamics import (
    LindbladChannel,
    QubitHamiltonian,
    evolve_lindblad,
    pure_dephasing_analytic,
)
from qubitsim.protocols import _superdense_probabilities

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Independent composition of the pulse sequence: pi/2 rotation about y,
# free phase accumulation on |e>, optional coherence damping, second pulse.
ROT_Y_HALF_PI = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def composed_ramsey_state(delta_split, tau, dephasing_rate=0.0):
    free = np.diag([1.0, np.exp(1j * delta_split * tau)])
    after_first = ROT_Y_HALF_PI @ np.array([1.0, 0.0], dtype=complex)
    rho = np.outer(after_first, after_first.conj())
    rho = free @ rho @ free.conj().T
    damping = np.exp(-2.0 * dephasing_rate * tau)
    rho[0, 1] *= damping
    rho[1, 0] *= damping
    return ROT_Y_HALF_PI @ rho @ ROT_Y_HALF_PI.conj().T


class TestRamseyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RamseyConfig(delta_split=1.0, tau_max=0.0, n_points=10)
        with pytest.raises(ValueError):
            RamseyConfig(delta_split=1.0, tau_max=1.0, n_points=1)
        with pytest.raises(ValueError):
            RamseyConfig(delta_split=1.0, tau_max=1.0, n_points=10, dephasing_rate=-0.1)

    @pytest.mark.parametrize("n_points", [np.nan, 2.5, 40.0, np.float64(40.0), "40"],
                             ids=["nan", "2.5", "40.0", "float64-40", "str-40"])
    def test_rejects_point_counts_that_are_not_integers(self, n_points):
        with pytest.raises(ValueError, match="^n_points must be an integer, got "):
            RamseyConfig(delta_split=1.0, tau_max=10.0, n_points=n_points)

    # np.linspace refuses 2**60 - 64 and above with an error that names no argument.
    @pytest.mark.parametrize("n_points", [sys.maxsize // 16 + 1, 2**60 - 64, 2**60 - 1,
                                          np.uint64(2**63), 2**64])
    def test_rejects_point_counts_past_the_largest_float64_array(self, n_points):
        match = f"^n_points must be at most {sys.maxsize // 16}, got {n_points}$"
        with pytest.raises(ValueError, match=match):
            RamseyConfig(delta_split=1.0, tau_max=10.0, n_points=n_points)

    def test_accepts_numpy_integer_point_counts(self):
        cfg = RamseyConfig(delta_split=1.0, tau_max=10.0, n_points=np.int64(40))
        plain = RamseyConfig(delta_split=1.0, tau_max=10.0, n_points=40)
        assert ramsey_scan(cfg).p_e.tobytes() == ramsey_scan(plain).p_e.tobytes()


class TestRamseyPopulation:
    CFG = RamseyConfig(delta_split=1.0, tau_max=100.0, n_points=11)

    def test_zero_delay_gives_excited(self):
        # Back-to-back pi/2 pulses compose to a pi pulse.
        assert ramsey_population(self.CFG, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_full_revolution_gives_excited(self):
        assert ramsey_population(self.CFG, 2.0 * np.pi) == pytest.approx(1.0, abs=1e-12)

    def test_half_revolution_gives_ground(self):
        assert ramsey_population(self.CFG, np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_delay(self):
        with pytest.raises(DomainError):
            ramsey_population(self.CFG, -0.5)
        with pytest.raises(DomainError):
            ramsey_population(self.CFG, 101.0)

    def test_overflowing_phase_is_named(self):
        cfg = RamseyConfig(1e300, 1e300, 2)
        with pytest.raises(DomainError) as excinfo:
            ramsey_population(cfg, 1e300)
        assert str(excinfo.value) == "delta_split * tau must be finite, got inf"
        # A delay whose phase stays finite keeps the closed form.
        tau = 1e8
        assert ramsey_population(cfg, tau) == 0.5 * (1.0 + np.cos(1e300 * tau))

    def test_matches_composed_rotations(self):
        cfg = RamseyConfig(delta_split=1.7, tau_max=20.0, n_points=11)
        for tau in np.linspace(0.0, 20.0, 57):
            rho = composed_ramsey_state(cfg.delta_split, tau)
            assert ramsey_population(cfg, tau) == pytest.approx(rho[1, 1].real, abs=1e-12)

    def test_matches_composed_rotations_with_dephasing(self):
        cfg = RamseyConfig(delta_split=1.1, tau_max=10.0, n_points=11, dephasing_rate=0.2)
        for tau in np.linspace(0.0, 10.0, 31):
            rho = composed_ramsey_state(cfg.delta_split, tau, dephasing_rate=0.2)
            assert ramsey_population(cfg, tau) == pytest.approx(rho[1, 1].real, abs=1e-12)


def reference_fringe_frequency(series):
    """The documented estimator, from a direct DFT: 8n-point zero padding, the DC
    bin excluded, and the vertex (l - r) / 2(l - 2m + r) of the parabola through
    the peak bin and its neighbours."""
    n = len(series)
    n_fft = 8 * n
    bins = np.arange(n_fft // 2 + 1)
    # The exact integer j t mod 8n keeps every phase accurate to rounding.
    turns = np.outer(bins, np.arange(n)) % n_fft
    values = series.p_e - np.mean(series.p_e)
    spectrum = np.abs(np.exp(-2j * np.pi * turns / n_fft) @ values)
    peak = 1 + int(np.argmax(spectrum[1:]))
    left, mid, right = spectrum[peak - 1:peak + 2]
    vertex = peak + 0.5 * (left - right) / (left - 2.0 * mid + right)
    return 2.0 * np.pi * vertex / (n_fft * series.dt)


class TestRamseyScan:
    def test_first_sample_is_excited(self):
        cfg = RamseyConfig(delta_split=1.0, tau_max=50.265, n_points=512)
        series = ramsey_scan(cfg)
        assert series.p_e[0] == pytest.approx(1.0, abs=1e-12)

    def test_scan_matches_pointwise_population(self):
        cfg = RamseyConfig(delta_split=2.0, tau_max=10.0, n_points=64, dephasing_rate=0.1)
        series = ramsey_scan(cfg)
        for i in (0, 7, 31, 63):
            assert series.p_e[i] == pytest.approx(
                ramsey_population(cfg, series.times[i]), abs=1e-12
            )

    def test_scan_states_match_composed_rotations(self):
        cfg = RamseyConfig(delta_split=1.3, tau_max=12.0, n_points=41, dephasing_rate=0.05)
        series = ramsey_scan(cfg)
        for i in (0, 5, 17, 40):
            rho = composed_ramsey_state(cfg.delta_split, series.times[i], 0.05)
            assert series.rho01[i] == pytest.approx(rho[0, 1], abs=1e-12)
            assert series.p_g[i] == pytest.approx(rho[0, 0].real, abs=1e-12)

    def test_extracted_frequency(self):
        cfg = RamseyConfig(delta_split=1.0, tau_max=16.0 * np.pi, n_points=512)
        freq = fringe_frequency(ramsey_scan(cfg))
        assert freq == pytest.approx(1.0, rel=0.01)

    def test_extracted_frequency_scales(self):
        cfg = RamseyConfig(delta_split=2.0, tau_max=16.0 * np.pi, n_points=512)
        freq = fringe_frequency(ramsey_scan(cfg))
        assert freq == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize("delta_split, tau_max, n_points, dephasing_rate", [
        (1.0, 40.0, 400, 0.0),
        (2.0, 50.0, 512, 0.0),
        (0.37, 60.0, 300, 0.02),
        (5.0, 10.0, 101, 0.1),
    ])
    def test_estimate_follows_the_documented_method(self, delta_split, tau_max, n_points,
                                                    dephasing_rate):
        cfg = RamseyConfig(delta_split=delta_split, tau_max=tau_max, n_points=n_points,
                           dephasing_rate=dephasing_rate)
        series = ramsey_scan(cfg)
        assert fringe_frequency(series) == pytest.approx(reference_fringe_frequency(series),
                                                         abs=1e-12)

    def test_zero_splitting_is_flat(self):
        cfg = RamseyConfig(delta_split=0.0, tau_max=10.0, n_points=64)
        series = ramsey_scan(cfg)
        assert np.allclose(series.p_e, 1.0)
        assert fringe_frequency(series) == 0.0

    @pytest.mark.parametrize("scale, flat", [(1 / 3, True), (3.0, False)])
    def test_flat_record_tolerance_edge(self, scale, flat):
        # A fringe of amplitude A peaks near A n / 2 in the spectrum, and a peak
        # below 1e-12 n counts as flat; 1e-12 is written out, not imported, so
        # that a changed value in the qstate table fails here.
        n = 256
        taus = 0.25 * np.arange(n)
        p_e = 0.5 + 2.0 * scale * 1e-12 * np.cos(taus)
        series = TimeSeries(times=taus, p_g=1.0 - p_e, p_e=p_e, rho01=np.zeros(n))
        assert fringe_frequency(series) == (0.0 if flat else pytest.approx(1.0, rel=0.01))

    @pytest.mark.parametrize("n", [2, 3])
    def test_frequency_needs_four_samples(self, n):
        series = TimeSeries(times=np.arange(n), p_g=np.full(n, 0.5), p_e=np.full(n, 0.5),
                            rho01=np.zeros(n))
        with pytest.raises(SamplingError) as excinfo:
            fringe_frequency(series)
        assert str(excinfo.value) == "need at least 4 uniform samples to estimate a frequency"

    def test_nyquist_guard(self):
        cfg = RamseyConfig(delta_split=100.0, tau_max=10.0, n_points=16)
        with pytest.raises(SamplingError):
            ramsey_scan(cfg)

    def test_nyquist_edge(self):
        # With 2 points over tau_max = 1 the Nyquist angular frequency is pi itself.
        with pytest.raises(SamplingError):
            ramsey_scan(RamseyConfig(delta_split=np.pi, tau_max=1.0, n_points=2))
        assert len(ramsey_scan(RamseyConfig(np.nextafter(np.pi, 0.0), 1.0, 2))) == 2

    def test_contrast_decays_at_twice_the_rate(self):
        rate, splitting = 0.1, 2.0
        cfg = RamseyConfig(
            delta_split=splitting, tau_max=16.0 * np.pi, n_points=1025, dephasing_rate=rate
        )
        series = ramsey_scan(cfg)
        # Sample the fringe envelope at the cosine crests and fit its log-slope.
        crests = np.array([k * 2.0 * np.pi / splitting for k in range(1, 6)])
        contrast = np.array(
            [2.0 * ramsey_population(cfg, tau) - 1.0 for tau in crests]
        )
        slope = np.polyfit(crests, np.log(contrast), 1)[0]
        assert slope == pytest.approx(-2.0 * rate, rel=0.02)
        assert np.max(series.p_e) <= 1.0 + 1e-12


@given(
    delta_split=st.floats(0.0, 5.0),
    dephasing_rate=st.floats(0.0, 2.0),
    tau_max=st.floats(0.5, 10.0),
    step_fraction=st.floats(0.01, 0.99),
)
def test_scan_matches_pulses_around_the_dynamics(delta_split, dephasing_rate, tau_max,
                                                 step_fraction):
    # The sequence run for real: a pi/2 y-rotation of |g>, free evolution
    # under H = (delta_split/2) sigma_z and dephasing from the integrator,
    # then the second rotation, sample by sample.
    dt = step_fraction * min(tau_max / 10.0, 0.1 / max(delta_split, dephasing_rate, 1e-300))
    first = ROT_Y_HALF_PI @ np.diag([1.0, 0.0]) @ ROT_Y_HALF_PI.T
    free = evolve_lindblad(DensityMatrix(first), QubitHamiltonian(epsilon=delta_split),
                           [LindbladChannel.pure_dephasing(dephasing_rate)], tau_max, dt)
    rho = np.array([[free.p_g, free.rho01], [free.rho01.conj(), free.p_e]]).transpose(2, 0, 1)
    final = ROT_Y_HALF_PI @ rho @ ROT_Y_HALF_PI.T
    scan = ramsey_scan(RamseyConfig(delta_split, free.times[-1], len(free), dephasing_rate))
    # The free coherence, 1/2 at the start, is off by at most |z|^5/120 e^|z|
    # of it per RK4 step (z = (2 rate + i split) dt, as in the dephasing
    # oracle), and the second pulse moves that error into p_e and rho01 at
    # most one for one. The pulses and the closed form round a few ulps.
    z = abs(complex(2.0 * dephasing_rate, delta_split)) * dt
    local = 0.5 * z**5 / 120.0 * np.exp(z) + 8.0 * np.finfo(float).eps
    for k in np.linspace(0, len(free) - 1, 9).astype(int):
        assert abs(final[k, 1, 1].real - scan.p_e[k]) <= (k + 1) * local
        assert abs(final[k, 0, 1] - scan.rho01[k]) <= (k + 1) * local


class TestRabiWithDephasing:
    def test_undamped_limit(self):
        series = rabi_with_dephasing(omega=1.0, delta=0.0, epsilon=1.0, t_max=4 * np.pi, dt=0.01)
        expected = np.sin(0.5 * series.times) ** 2
        assert np.max(np.abs(series.p_e - expected)) < 1e-8

    def test_oscillation_period(self):
        omega = 1.0
        series = rabi_with_dephasing(omega=omega, delta=0.05, epsilon=1.0, t_max=6 * np.pi, dt=0.005)
        peaks = np.flatnonzero(
            (series.p_e[1:-1] > series.p_e[:-2]) & (series.p_e[1:-1] > series.p_e[2:])
        ) + 1
        assert len(peaks) >= 2
        period = series.times[peaks[1]] - series.times[peaks[0]]
        assert period == pytest.approx(2.0 * np.pi / omega, rel=0.02)

    def test_successive_maxima_decay(self):
        series = rabi_with_dephasing(omega=1.0, delta=0.05, epsilon=1.0, t_max=8 * np.pi, dt=0.005)
        peaks = np.flatnonzero(
            (series.p_e[1:-1] > series.p_e[:-2]) & (series.p_e[1:-1] > series.p_e[2:])
        ) + 1
        maxima = series.p_e[peaks]
        assert len(maxima) >= 3
        assert np.all(np.diff(maxima) < 0.0)

    def test_overdamped_relaxation(self):
        series = rabi_with_dephasing(omega=1.0, delta=10.0, epsilon=1.0, t_max=100.0, dt=0.005)
        assert np.all(np.diff(series.p_e) >= -1e-12)
        assert series.p_e[-1] == pytest.approx(0.5, abs=0.01)

    def test_stronger_dephasing_lowers_first_peak(self):
        peak_heights = []
        for delta in (0.0, 0.1, 0.5):
            series = rabi_with_dephasing(omega=1.0, delta=delta, epsilon=1.0,
                                         t_max=2 * np.pi, dt=0.01)
            peak_heights.append(series.p_e.max())
        assert peak_heights[0] > peak_heights[1] > peak_heights[2]


class TestFigureOfMerit:
    def test_picosecond_control_nanosecond_decoherence(self):
        # Drive at 1 per ps against dephasing at 10^-3 per ps.
        assert figure_of_merit(1e-3, 1.0) == pytest.approx(1e-3)

    def test_no_decoherence(self):
        assert figure_of_merit(0.0, 2.0) == 0.0

    def test_unit_ratio(self):
        assert figure_of_merit(1.0, 1.0) == 1.0

    def test_scale_invariance(self):
        # Power-of-two scales keep both products exact, so the quotient is
        # bit-identical; arbitrary scales agree to rounding.
        for scale in (0.5, 2.0, 1024.0):
            assert figure_of_merit(scale * 0.2, scale * 1.7) == figure_of_merit(0.2, 1.7)
        for scale in (0.1, 3.0, 1e6):
            assert figure_of_merit(scale * 0.2, scale * 1.7) == pytest.approx(
                figure_of_merit(0.2, 1.7), rel=1e-15
            )

    def test_rejects_nonpositive_drive(self):
        with pytest.raises(DomainError):
            figure_of_merit(0.1, 0.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            figure_of_merit(-0.1, 1.0)

    @pytest.mark.parametrize("omega", [1e-320, np.float64(1e-320), 5e-324])
    def test_overflowing_ratio_raises_naming_the_drive(self, omega):
        with pytest.raises(DomainError, match="^drive amplitude .* is too small"):
            figure_of_merit(1e-3, omega)

    @pytest.mark.parametrize("omega", [5e-324, 1e-300, 1.0, 1e308])
    def test_no_decoherence_at_any_drive(self, omega):
        assert figure_of_merit(0.0, omega) == 0.0


@pytest.mark.parametrize("delta", [-0.1, np.nan, np.inf])
@pytest.mark.parametrize("entry", [
    LindbladChannel.pure_dephasing,
    lambda delta: pure_dephasing_analytic(DensityMatrix(np.eye(2) / 2), 1.0, delta, 1.0),
    lambda delta: figure_of_merit(delta, 1.0),
    lambda delta: _superdense_probabilities(delta, [1.0]),
], ids=["pure_dephasing", "pure_dephasing_analytic", "figure_of_merit", "superdense"])
def test_every_dephasing_rate_entry_gives_one_message(entry, delta):
    with pytest.raises(DomainError) as excinfo:
        entry(delta)
    assert str(excinfo.value) == f"dephasing rate must be finite and non-negative, got {delta}"


class TestSuperdenseEncoding:
    EXPECTED = {
        "00": np.array([1, 0, 0, 1]) / np.sqrt(2),
        "01": np.array([1, 0, 0, -1]) / np.sqrt(2),
        "10": np.array([0, 1, 1, 0]) / np.sqrt(2),
        "11": np.array([0, 1, -1, 0]) / np.sqrt(2),
    }

    @pytest.mark.parametrize("message", MESSAGES)
    def test_encodes_to_expected_state(self, message):
        encoded = superdense_encode(message)
        overlap = abs(np.vdot(self.EXPECTED[message], encoded.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_bell_basis_is_the_four_encoded_states(self):
        for message, basis_state in zip(MESSAGES, BELL_BASIS):
            literal = self.EXPECTED[message]
            assert np.array_equal(basis_state.amplitudes, literal)
            # Bitwise, signed zeros included: the same amplitudes as the literal vectors give.
            assert basis_state.amplitudes.tobytes() == Ket(literal).amplitudes.tobytes()
            assert superdense_encode(message).amplitudes.tobytes() == (
                basis_state.amplitudes.tobytes()
            )

    def test_bell_basis_orthonormal(self):
        gram = np.array(
            [[np.vdot(a.amplitudes, b.amplitudes) for b in BELL_BASIS] for a in BELL_BASIS]
        )
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_encoded_states_pairwise_orthogonal(self):
        encoded = [superdense_encode(m).amplitudes for m in MESSAGES]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.vdot(encoded[i], encoded[j])) < 1e-12

    def test_rejects_bad_message(self):
        with pytest.raises(DomainError) as excinfo:
            superdense_encode("2")
        assert str(excinfo.value) == "message must be one of ('00', '01', '10', '11'), got '2'"


class TestSuperdenseDecoding:
    @pytest.mark.parametrize("message", MESSAGES)
    def test_noiseless_round_trip(self, message):
        decoded, probs = superdense_decode(density_from_ket(superdense_encode(message)))
        assert decoded == message
        assert probs[MESSAGES.index(message)] == pytest.approx(1.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_uniform(self):
        decoded, probs = superdense_decode(DensityMatrix(np.eye(4) / 4.0))
        assert np.allclose(probs, 0.25, atol=1e-12)
        assert decoded == "00"  # tie broken by fixed basis order

    def test_damped_bell_state_outcome(self):
        # Brute-force check: after halving the sender-side coherence of the
        # encoded 00 state, only the corner entries of rho change, and the
        # projections onto (|00> +/- |11>)/sqrt(2) become (1 +/- 0.5)/2.
        rho = density_from_ket(superdense_encode("00")).matrix.copy()
        rho[0, 3] *= 0.5
        rho[3, 0] *= 0.5
        expected = np.array(
            [np.real(np.vdot(b, rho @ b)) for b in (
                np.array([1, 0, 0, 1]) / np.sqrt(2),
                np.array([1, 0, 0, -1]) / np.sqrt(2),
                np.array([0, 1, 1, 0]) / np.sqrt(2),
                np.array([0, 1, -1, 0]) / np.sqrt(2),
            )]
        )
        assert np.allclose(expected, [0.75, 0.25, 0.0, 0.0], atol=1e-12)

        damped = damp_first_qubit_coherence(density_from_ket(superdense_encode("00")), 0.5)
        decoded, probs = superdense_decode(damped)
        assert decoded == "00"
        assert np.max(np.abs(probs - expected)) < 1e-12

    def test_damping_factor_validation(self):
        rho = density_from_ket(superdense_encode("00"))
        with pytest.raises(DomainError):
            damp_first_qubit_coherence(rho, 1.5)

    @pytest.mark.parametrize("call, message", [
        (superdense_decode, "superdense decoding requires a two-qubit state"),
        (lambda rho: damp_first_qubit_coherence(rho, 0.5),
         "first-qubit damping requires a two-qubit state"),
    ], ids=["decode", "damp"])
    def test_one_qubit_state_is_rejected(self, call, message):
        with pytest.raises(DomainError) as excinfo:
            call(DensityMatrix(np.eye(2) / 2.0))
        assert str(excinfo.value) == message

    def test_damping_identity(self):
        rho = density_from_ket(superdense_encode("01"))
        assert np.allclose(damp_first_qubit_coherence(rho, 1.0).matrix, rho.matrix)

    def test_damping_acts_on_first_qubit_only(self):
        # |+> on the receiver's qubit alone: its coherence must survive.
        psi = Ket([INV_SQRT2, INV_SQRT2])
        joint = density_from_ket(
            Ket(np.kron(np.array([1.0, 0.0]), psi.amplitudes))
        )
        damped = damp_first_qubit_coherence(joint, 0.0)
        assert damped.matrix[0, 1] == pytest.approx(0.5)


class TestDecodeTable:
    """The intact and dephased decode matrices behind every superdense probability."""

    def test_rows_are_the_decodes_of_the_encoded_states(self):
        assert protocols._INTACT.shape == protocols._DEPHASED.shape == (len(MESSAGES), 4)
        for message, intact, dephased in zip(MESSAGES, protocols._INTACT, protocols._DEPHASED):
            encoded = density_from_ket(superdense_encode(message))
            damped = damp_first_qubit_coherence(encoded, 0.0)
            # Bitwise: the derived rows differ from 0.5 and 1.0 in the last bit.
            assert intact.tobytes() == superdense_decode(encoded)[1].tobytes()
            assert dephased.tobytes() == superdense_decode(damped)[1].tobytes()
            assert not (intact.flags.writeable or dephased.flags.writeable)

    @pytest.mark.parametrize("message", MESSAGES)
    def test_probabilities_are_bitwise_the_decode_line(self, message):
        # Closed-form rows such as (1 + f) / 2 would change the last bit, and JSON output.
        encoded = density_from_ket(superdense_encode(message))
        intact = superdense_decode(encoded)[1]
        dephased = superdense_decode(damp_first_qubit_coherence(encoded, 0.0))[1]
        times = np.linspace(0.0, 6.0, 25)
        want = dephased + np.exp(-2.0 * (0.25 * times))[:, None] * (intact - dephased)
        got = _superdense_probabilities(0.25, times)[:, MESSAGES.index(message)]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("run", [
        lambda: main(["superdense", "--message", "11", "--delta", "0.25"]) == 0,
        lambda: main(["superdense", "--message", "01", "--delta", "0.25", "--t-max", "6",
                      "--points", "61", "--format", "json"]) == 0,
        lambda: superdense_channel_sweep(0.25, 6.0, 61).times.size == 61,
        lambda: 0.5 < superdense_success_probability("10", 0.25, 1.0) < 1.0,
    ], ids=["cli-single", "cli-sweep", "sweep", "success-probability"])
    def test_calls_build_no_state(self, monkeypatch, capsys, run):
        def refuse(*args, **kwargs):
            raise AssertionError("a superdense call redid the state algebra")

        for name in ("superdense_encode", "superdense_decode", "damp_first_qubit_coherence",
                     "density_from_ket"):
            monkeypatch.setattr(protocols, name, refuse)
        monkeypatch.setattr(Ket, "__init__", refuse)
        monkeypatch.setattr(DensityMatrix, "__init__", refuse)
        assert run()

    def test_sweep_checks_the_rate_and_computes_the_decay_once(self, monkeypatch):
        labels, decays = [], []
        check, decay = protocols._check_domain, protocols._coherence_decay

        def check_spy(value, label, *args):
            labels.append(label)
            return check(value, label, *args)

        def decay_spy(*args):
            decays.append(args)
            return decay(*args)

        monkeypatch.setattr(protocols, "_check_domain", check_spy)
        monkeypatch.setattr(protocols, "_coherence_decay", decay_spy)
        superdense_channel_sweep(0.25, 6.0, 61)
        assert labels.count("dephasing rate") == 1
        assert len(decays) == 1

    def test_checks_run_delta_then_durations_then_message(self):
        message = "dephasing rate must be finite and non-negative, got -1.0"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            superdense_success_probability("2", -1.0, -1.0)
        message = "channel duration must be finite and non-negative, got -1.0"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            superdense_success_probability("2", 0.1, -1.0)

    @pytest.mark.parametrize("message", ["2", ["00"], None, {"00": 1}])
    def test_unknown_message_gets_the_encoder_message(self, message):
        # An unhashable message is tested against the tuple, so it raises no TypeError.
        for call in (lambda: superdense_success_probability(message, 0.1, 1.0),
                     lambda: superdense_encode(message)):
            with pytest.raises(DomainError) as excinfo:
                call()
            assert str(excinfo.value) == (
                f"message must be one of ('00', '01', '10', '11'), got {message!r}"
            )


class TestSuperdenseSweep:
    def test_success_starts_at_one(self):
        sweep = superdense_channel_sweep(delta=0.25, t_max=4.0, n_points=9)
        for msg in MESSAGES:
            assert sweep.success[msg][0] == pytest.approx(1.0, abs=1e-12)

    def test_success_decreases_toward_half(self):
        sweep = superdense_channel_sweep(delta=0.5, t_max=20.0, n_points=41)
        for msg in MESSAGES:
            values = sweep.success[msg]
            assert np.all(np.diff(values) <= 1e-12)
            assert values[-1] == pytest.approx(0.5, abs=1e-6)

    def test_half_damping_gives_three_quarters(self):
        # e^{-2 delta t} = 0.5 at t = ln 2 / (2 delta).
        delta = 0.25
        t_half = np.log(2.0) / (2.0 * delta)
        assert superdense_success_probability("00", delta, t_half) == pytest.approx(0.75, abs=1e-12)
        sweep = superdense_channel_sweep(delta=delta, t_max=t_half, n_points=2)
        for msg in MESSAGES:
            assert sweep.success[msg][-1] == pytest.approx(0.75, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            superdense_channel_sweep(delta=-0.1, t_max=1.0, n_points=4)
        with pytest.raises(DomainError):
            superdense_channel_sweep(delta=0.1, t_max=0.0, n_points=4)
        with pytest.raises(DomainError):
            superdense_channel_sweep(delta=0.1, t_max=1.0, n_points=1)

    @pytest.mark.parametrize("n_points", [np.nan, 2.5, 40.0, np.float64(40.0)],
                             ids=["nan", "2.5", "40.0", "float64-40"])
    def test_rejects_point_counts_that_are_not_integers(self, n_points):
        with pytest.raises(DomainError, match="^n_points must be an integer, got "):
            superdense_channel_sweep(0.1, 1.0, n_points)

    # np.linspace refuses 2**60 - 64 and above with an error that names no argument.
    @pytest.mark.parametrize("n_points", [sys.maxsize // 16 + 1, 2**60 - 64, 2**60 - 1,
                                          np.uint64(2**63), 2**64])
    def test_rejects_point_counts_past_the_largest_float64_array(self, n_points):
        match = f"^n_points must be at most {sys.maxsize // 16}, got {n_points}$"
        with pytest.raises(DomainError, match=match):
            superdense_channel_sweep(0.1, 1.0, n_points)

    @given(st.floats(0.0, 1e3), st.floats(1e-6, 1e3), st.integers(2, 200))
    def test_columns_are_the_diagonals_of_the_decode_table(self, delta, t_max, n_points):
        sweep = superdense_channel_sweep(delta, t_max, n_points)
        probs = _superdense_probabilities(delta, sweep.times)
        for i, msg in enumerate(MESSAGES):
            assert sweep.success[msg].tobytes() == probs[:, i, i].tobytes()

    def test_long_sweep_forms_no_table_of_all_outcomes(self):
        # 1e6 points: the result is 38.1 MiB; the (n, 4, 4) decode table alone would be 122 MiB.
        tracemalloc.start()
        try:
            superdense_channel_sweep(0.25, 6.0, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * 2**20

    def test_columns_hold_no_larger_array(self):
        sweep = superdense_channel_sweep(0.25, 6.0, 61)
        for name, column in [("times", sweep.times), *sweep.success.items()]:
            root = column
            while root.base is not None:
                root = root.base
            assert column.flags.c_contiguous and root.nbytes == column.nbytes, name

    def test_accepts_numpy_integer_point_counts(self):
        sweep = superdense_channel_sweep(0.1, 1.0, np.int32(7))
        plain = superdense_channel_sweep(0.1, 1.0, 7)
        for msg in MESSAGES:
            assert sweep.success[msg].tobytes() == plain.success[msg].tobytes()


# Closed form over a grid of rates and channel durations. First-qubit
# dephasing turns each encoded Bell state into a mixture with its partner
# of equal populations: (1 + e^{-2 delta t})/2 for the sent message,
# (1 - e^{-2 delta t})/2 for the partner, 0 for the other two.
PARTNER = {"00": "01", "01": "00", "10": "11", "11": "10"}
SUPERDENSE_RATES = (0.0, 0.05, 0.25, 1.0, 3.0)
SUPERDENSE_TIMES = np.linspace(0.0, 6.0, 25)


def superdense_closed_form(message, delta, times):
    factor = np.exp(-2.0 * delta * np.asarray(times, dtype=float))
    want = np.zeros((factor.size, 4))
    want[:, MESSAGES.index(message)] = 0.5 * (1.0 + factor)
    want[:, MESSAGES.index(PARTNER[message])] = 0.5 * (1.0 - factor)
    return want


class TestSuperdenseClosedForm:
    @pytest.mark.parametrize("message", MESSAGES)
    def test_all_outcomes(self, message):
        for delta in SUPERDENSE_RATES:
            got = _superdense_probabilities(delta, SUPERDENSE_TIMES)[:, MESSAGES.index(message)]
            want = superdense_closed_form(message, delta, SUPERDENSE_TIMES)
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("message", MESSAGES)
    def test_success_probability(self, message):
        i = MESSAGES.index(message)
        for delta in SUPERDENSE_RATES:
            want = superdense_closed_form(message, delta, SUPERDENSE_TIMES)[:, i]
            got = [superdense_success_probability(message, delta, t) for t in SUPERDENSE_TIMES]
            assert np.max(np.abs(np.array(got) - want)) <= 1e-15

    def test_channel_sweep(self):
        for delta in SUPERDENSE_RATES:
            sweep = superdense_channel_sweep(delta, SUPERDENSE_TIMES[-1], SUPERDENSE_TIMES.size)
            for i, message in enumerate(MESSAGES):
                want = superdense_closed_form(message, delta, sweep.times)[:, i]
                assert np.max(np.abs(sweep.success[message] - want)) <= 1e-15

    def test_rejects_bad_duration(self):
        for t in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError, match="channel duration"):
                superdense_success_probability("00", 0.1, t)


# A dephasing rate so large that 2 * delta overflows: the coherence factor
# e^{-2 delta t} is still exactly 1 at t = 0, as at zero rate, and 0 at any t > 0.
HUGE_RATE = 1e308


class TestDephasingFactorAtExtremeRates:
    def test_ramsey_population_at_zero_delay(self):
        cfg = RamseyConfig(delta_split=1.0, tau_max=10.0, n_points=40, dephasing_rate=HUGE_RATE)
        assert ramsey_population(cfg, 0.0) == 1.0
        assert ramsey_population(cfg, np.pi) == 0.5

    def test_ramsey_scan_at_zero_delay(self):
        cfg = RamseyConfig(delta_split=1.0, tau_max=10.0, n_points=40, dephasing_rate=HUGE_RATE)
        series = ramsey_scan(cfg)
        assert series.p_e[0] == 1.0
        assert np.all(series.p_e[1:] == 0.5)
        assert np.all(series.rho01 == 0.0)

    def test_superdense_at_zero_duration(self):
        intact = superdense_channel_sweep(0.0, 1.0, 3)
        sweep = superdense_channel_sweep(HUGE_RATE, 1.0, 3)
        for msg in MESSAGES:
            noiseless = superdense_success_probability(msg, 0.0, 0.0)
            assert superdense_success_probability(msg, HUGE_RATE, 0.0) == noiseless
            assert sweep.success[msg][0] == intact.success[msg][0]
            assert sweep.success[msg][1:] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_pure_dephasing_analytic_at_zero_time(self):
        rho0 = density_from_ket(Ket([INV_SQRT2, INV_SQRT2]))
        assert np.array_equal(pure_dephasing_analytic(rho0, 1.0, HUGE_RATE, 0.0).matrix,
                              rho0.matrix)
        damped = pure_dephasing_analytic(rho0, 1.0, HUGE_RATE, 1.0).matrix
        assert np.array_equal(damped, np.diag(np.diag(rho0.matrix)))


@given(
    delta_split=st.floats(-3.0, 3.0),
    dephasing_rate=st.floats(0.0, 2.0),
    tau_max=st.floats(0.1, 20.0),
    n_points=st.integers(64, 300),
)
def test_population_matches_the_scan_on_its_grid(delta_split, dephasing_rate, tau_max, n_points):
    cfg = RamseyConfig(delta_split, tau_max, n_points, dephasing_rate)
    series = ramsey_scan(cfg)
    for tau, p_e in zip(series.times, series.p_e):
        assert abs(ramsey_population(cfg, float(tau)) - p_e) <= 1e-15
