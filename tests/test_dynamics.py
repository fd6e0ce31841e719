"""Tests for closed and open single-qubit evolution."""

import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from qubitsim import dynamics
from qubitsim import (
    SIGMA_X,
    SIGMA_Z,
    BlochAngles,
    DensityMatrix,
    DimensionError,
    DomainError,
    DriveMode,
    Ket,
    LindbladChannel,
    NumericalInstabilityError,
    QubitHamiltonian,
    StepSizeError,
    TimeSeries,
    density_from_ket,
    dephasing_time,
    evolve_closed,
    evolve_lindblad,
    hamiltonian_at,
    ket_from_bloch,
    pure_dephasing_analytic,
    reduced_with_overlap,
)
from qubitsim.dynamics import _integrate_static, _series_from_trajectory

INV_SQRT2 = 1.0 / np.sqrt(2.0)
EQUAL_SUPERPOSITION = density_from_ket(Ket([INV_SQRT2, INV_SQRT2]))


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def analytic_series(rho0, epsilon, delta, times):
    """Columns (rho00, rho01, rho10, rho11) of the exact dephasing solution."""
    mat = rho0.matrix
    factor = np.exp(-2.0 * delta * times) * np.exp(-1j * epsilon * times)
    return np.stack(
        [
            np.full_like(times, mat[0, 0].real, dtype=complex),
            mat[0, 1] * factor,
            mat[1, 0] * np.conj(factor),
            np.full_like(times, mat[1, 1].real, dtype=complex),
        ],
        axis=1,
    )


class TestPauliMatrices:
    def test_squares_to_identity(self):
        assert np.allclose(SIGMA_X @ SIGMA_X, np.eye(2))
        assert np.allclose(SIGMA_Z @ SIGMA_Z, np.eye(2))

    def test_explicit_forms(self):
        assert np.allclose(SIGMA_Z, [[1, 0], [0, -1]])
        assert np.allclose(SIGMA_X, [[0, 1], [1, 0]])


class TestQubitHamiltonian:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            QubitHamiltonian(epsilon=-1.0)
        with pytest.raises(ValueError):
            QubitHamiltonian(epsilon=1.0, omega_rabi=-0.5, drive_mode=DriveMode.FULL_COSINE)

    @pytest.mark.parametrize("field", ["epsilon", "omega_rabi", "omega0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_frequencies_must_be_finite_and_non_negative(self, field, value):
        kwargs = {"epsilon": 1.0, "omega_rabi": 0.5, "omega0": 1.0,
                  "drive_mode": DriveMode.FULL_COSINE, field: value}
        with pytest.raises(ValueError, match=field):
            QubitHamiltonian(**kwargs)

    def test_no_drive_means_no_rabi(self):
        with pytest.raises(ValueError):
            QubitHamiltonian(epsilon=1.0, omega_rabi=0.5, drive_mode=DriveMode.NONE)

    @pytest.mark.parametrize("mode", list(DriveMode))
    def test_string_modes_run_as_the_enum(self, mode):
        def run(drive_mode):
            h = QubitHamiltonian(epsilon=2.0, omega_rabi=0.0 if mode is DriveMode.NONE else 1.2,
                                 omega0=2.3, drive_mode=drive_mode)
            return _integrate_static(EQUAL_SUPERPOSITION.matrix, h,
                                     [LindbladChannel.pure_dephasing(0.2)], 0.01, 300)

        assert QubitHamiltonian(epsilon=1.0, omega0=1.0, drive_mode=mode.value).drive_mode is mode
        assert run(mode.value).tobytes() == run(mode).tobytes()

    def test_string_none_means_no_rabi(self):
        with pytest.raises(ValueError, match="drive_mode NONE requires omega_rabi = 0"):
            QubitHamiltonian(epsilon=1.0, omega_rabi=0.5, omega0=1.0, drive_mode="none")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="bogus"):
            QubitHamiltonian(epsilon=1.0, omega_rabi=0.5, omega0=1.0, drive_mode="bogus")

    def test_static_matrix(self):
        h = hamiltonian_at(QubitHamiltonian(epsilon=2.0), t=123.4)
        assert np.allclose(h, [[1.0, 0.0], [0.0, -1.0]])

    def test_full_cosine_at_zero(self):
        config = QubitHamiltonian(
            epsilon=2.0, omega_rabi=1.0, omega0=2.0, drive_mode=DriveMode.FULL_COSINE
        )
        assert np.allclose(hamiltonian_at(config, 0.0), [[1.0, 1.0], [1.0, -1.0]])

    def test_full_cosine_quarter_period(self):
        config = QubitHamiltonian(
            epsilon=2.0, omega_rabi=1.0, omega0=2.0, drive_mode=DriveMode.FULL_COSINE
        )
        h = hamiltonian_at(config, np.pi / 4)
        assert abs(h[0, 1]) < 1e-15

    def test_rotating_wave_matrix(self):
        config = QubitHamiltonian(
            epsilon=2.0, omega_rabi=1.0, omega0=2.5, drive_mode=DriveMode.ROTATING_WAVE
        )
        assert np.allclose(hamiltonian_at(config, 0.0), [[-0.25, 0.5], [0.5, 0.25]])

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 12.0, -4.2])
    def test_matrices_exactly(self, t):
        def h(mode, omega_rabi=1.5):
            return QubitHamiltonian(epsilon=2.0, omega_rabi=omega_rabi, omega0=2.5,
                                    drive_mode=mode)

        drive = 1.5 * np.cos(2.5 * t)
        expected = [
            (h(DriveMode.NONE, 0.0), [[1.0, 0.0], [0.0, -1.0]]),
            (h(DriveMode.FULL_COSINE, 0.0), [[1.0, 0.0], [0.0, -1.0]]),
            (h(DriveMode.FULL_COSINE), [[1.0, drive], [drive, -1.0]]),
            # Rotating frame: detuning omega0 - epsilon = 0.5.
            (h(DriveMode.ROTATING_WAVE), [[-0.25, 0.75], [0.75, 0.25]]),
        ]
        for config, matrix in expected:
            got = hamiltonian_at(config, t)
            assert got.dtype == complex
            assert np.array_equal(got, np.array(matrix, dtype=complex))

    @pytest.mark.parametrize("mode", list(DriveMode))
    def test_overflowing_phase(self, mode):
        # omega0 * t overflows at t = 1e10 and not at t = 1e8. Only FULL_COSINE's
        # matrix depends on t; the others do not read the phase.
        config = QubitHamiltonian(epsilon=1.0, omega_rabi=0.0 if mode is DriveMode.NONE else 1.5,
                                  omega0=1e300, drive_mode=mode)
        static, drive = dynamics._hamiltonian_parts(config)
        assert np.array_equal(hamiltonian_at(config, 1e8), static + np.cos(1e308) * drive)
        if mode is DriveMode.FULL_COSINE:
            with pytest.raises(DomainError) as excinfo:
                hamiltonian_at(config, 1e10)
            assert str(excinfo.value) == "omega0 * t must be finite, got inf"
        else:
            assert np.array_equal(hamiltonian_at(config, 1e10), static)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("mode", list(DriveMode))
    def test_non_finite_time_is_named(self, mode, t):
        # A static drive term is cos(0 * t) * 0, which is NaN at t = inf.
        config = QubitHamiltonian(epsilon=2.0, omega_rabi=0.0 if mode is DriveMode.NONE else 1.5,
                                  omega0=2.5, drive_mode=mode)
        with pytest.raises(DomainError) as excinfo:
            hamiltonian_at(config, t)
        assert str(excinfo.value) == f"t must be finite, got {t}"


class TestLindbladChannel:
    def test_pure_dephasing_operator(self):
        ch = LindbladChannel.pure_dephasing(0.25)
        assert np.allclose(ch.operator, 0.5 * np.array([[1, 0], [0, -1]]))

    def test_rate_recovers_delta(self):
        assert LindbladChannel.pure_dephasing(0.3).rate == pytest.approx(0.3)

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            LindbladChannel.pure_dephasing(-0.1)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            LindbladChannel(np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="^channel operator entries must be finite$"):
            LindbladChannel([[0.0, bad], [0.0, 0.0]])


class TestStepGuards:
    def test_dt_vs_t_max(self):
        with pytest.raises(StepSizeError) as excinfo:
            evolve_closed(EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=1.0), 1.0, 0.2)
        assert str(excinfo.value) == "dt = 0.2 exceeds t_max/10 = 0.1"

    def test_dt_vs_frequency(self):
        with pytest.raises(StepSizeError) as excinfo:
            evolve_closed(EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=50.0), 10.0, 0.01)
        assert str(excinfo.value) == (
            "dt * max(epsilon, omega_rabi, omega0) = 0.5 must stay below 0.1"
        )

    def test_dt_vs_channel_rate(self):
        channel = LindbladChannel.pure_dephasing(20.0)
        with pytest.raises(StepSizeError) as excinfo:
            evolve_lindblad(EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=1.0), [channel], 10.0, 0.01)
        # The rate is the top eigenvalue of L^dag L, 20 to within an ulp.
        assert str(excinfo.value) == "dt * channel rate = 0.20000000000000004 must stay below 0.1"

    def test_amplitude_damping_rate_is_the_top_eigenvalue(self):
        # L = sqrt(5) |g><e| gives L^dag L = 5 |e><e|: eigenvalues 0 and 5, and the guard takes 5.
        channel = LindbladChannel(np.sqrt(5.0) * np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(StepSizeError, match=r"^dt \* channel rate = 0\.25\d* must stay below 0\.1$"):
            evolve_lindblad(EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=1.0), [channel], 10.0, 0.05)

    def test_dt_of_exactly_a_tenth_of_t_max_is_accepted(self):
        h = QubitHamiltonian(epsilon=0.5)
        assert len(evolve_closed(EQUAL_SUPERPOSITION, h, 1.0, 0.1)) == 11
        dt = np.nextafter(0.1, 1.0)
        with pytest.raises(StepSizeError) as excinfo:
            evolve_closed(EQUAL_SUPERPOSITION, h, 1.0, dt)
        assert str(excinfo.value) == f"dt = {dt} exceeds t_max/10 = 0.1"

    def test_nonpositive_dt(self):
        with pytest.raises(StepSizeError) as excinfo:
            evolve_closed(EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=1.0), 10.0, 0.0)
        assert str(excinfo.value) == "dt must be finite and positive, got 0.0"

    @pytest.mark.parametrize("h, channels, t_max, dt, message", [
        (QubitHamiltonian(epsilon=1.0), [], -1.0, 0.01,
         "t_max must be finite and positive, got -1.0"),
        (QubitHamiltonian(epsilon=1.0), [], np.nan, 0.01,
         "t_max must be finite and positive, got nan"),
        (QubitHamiltonian(epsilon=1.0), [], 10.0, np.inf,
         "dt must be finite and positive, got inf"),
        # The frequency scale is checked before any channel, and channels in order.
        (QubitHamiltonian(epsilon=1.0, omega_rabi=2.0, omega0=4.0,
                          drive_mode=DriveMode.FULL_COSINE),
         [LindbladChannel(2.0 * SIGMA_Z)], 10.0, 0.05,
         "dt * max(epsilon, omega_rabi, omega0) = 0.2 must stay below 0.1"),
        (QubitHamiltonian(epsilon=1.0),
         [LindbladChannel(0.5 * SIGMA_Z), LindbladChannel(2.0 * SIGMA_Z)],
         10.0, 0.05, "dt * channel rate = 0.2 must stay below 0.1"),
        # Step counts past the limit are refused before the trajectory is allocated.
        (QubitHamiltonian(epsilon=1.0), [], 1e308, 1e-3,
         "t_max / dt = inf exceeds the limit of 1000000000 steps"),
        (QubitHamiltonian(epsilon=1.0), [], 1.0, 1e-320,
         "t_max / dt = inf exceeds the limit of 1000000000 steps"),
        (QubitHamiltonian(epsilon=1.0), [], 1e12, 1e-3,
         "t_max / dt = 1000000000000000.0 exceeds the limit of 1000000000 steps"),
    ])
    def test_exact_messages(self, h, channels, t_max, dt, message):
        with pytest.raises(StepSizeError) as excinfo:
            evolve_lindblad(EQUAL_SUPERPOSITION, h, channels, t_max, dt)
        assert str(excinfo.value) == message

    def test_step_limit_admits_the_limit_itself(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 100)
        h = QubitHamiltonian(epsilon=1.0)
        assert len(evolve_closed(EQUAL_SUPERPOSITION, h, 1.0, 0.01)) == 101
        with pytest.raises(StepSizeError, match="^t_max / dt = 102.* exceeds the limit of 100 steps$"):
            evolve_closed(EQUAL_SUPERPOSITION, h, 1.02, 0.01)

    def test_numpy_scalar_step_count_overflows_without_warning(self):
        # numpy scalars warn on overflow, where Python floats give inf; warnings are errors here.
        with pytest.raises(StepSizeError) as excinfo:
            evolve_closed(EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=1.0),
                          np.float64(1e308), np.float64(1e-3))
        assert str(excinfo.value) == "t_max / dt = inf exceeds the limit of 1000000000 steps"


class TestClosedEvolution:
    def test_eigenstate_is_stationary(self):
        ground = DensityMatrix([[1.0, 0.0], [0.0, 0.0]])
        series = evolve_closed(ground, QubitHamiltonian(epsilon=1.0), 5.0, 0.01)
        assert np.max(np.abs(series.p_g - 1.0)) < 1e-12
        assert np.max(np.abs(series.rho01)) < 1e-12

    def test_diagonal_mixture_is_stationary(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        series = evolve_closed(rho, QubitHamiltonian(epsilon=1.3), 5.0, 0.01)
        assert np.max(np.abs(series.p_g - 0.3)) < 1e-12
        assert np.max(np.abs(series.p_e - 0.7)) < 1e-12

    def test_free_precession_phase(self):
        # With H = (epsilon/2) sigma_z the upper coherence rotates as
        # e^{-i epsilon t} (the |e> amplitude gains the phase, its conjugate
        # lands in rho01); populations stay put.
        splitting = 1.0
        series = evolve_closed(
            EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=splitting), 5.0, 0.01
        )
        expected = 0.5 * np.exp(-1j * splitting * series.times)
        assert np.max(np.abs(series.rho01 - expected)) < 1e-9
        assert np.max(np.abs(series.p_e - 0.5)) < 1e-12

    def test_resonant_rabi_rotating_frame(self):
        omega = 1.0
        h = QubitHamiltonian(
            epsilon=1.0, omega_rabi=omega, omega0=1.0, drive_mode=DriveMode.ROTATING_WAVE
        )
        ground = DensityMatrix([[1.0, 0.0], [0.0, 0.0]])
        series = evolve_closed(ground, h, 4.0 * np.pi, 0.01)
        expected = np.sin(0.5 * omega * series.times) ** 2
        assert np.max(np.abs(series.p_e - expected)) < 1e-8

    def test_full_cosine_matches_rotating_frame_when_fast(self):
        # Counter-rotating corrections scale with omega_rabi / omega0.
        omega, carrier = 0.5, 50.0
        h = QubitHamiltonian(
            epsilon=carrier, omega_rabi=omega, omega0=carrier, drive_mode=DriveMode.FULL_COSINE
        )
        ground = DensityMatrix([[1.0, 0.0], [0.0, 0.0]])
        series = evolve_closed(ground, h, 2.0 * np.pi / omega, 0.0015)
        expected = np.sin(0.5 * omega * series.times) ** 2
        assert np.max(np.abs(series.p_e - expected)) < 0.03

    def test_purity_conserved(self):
        series = evolve_closed(EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=1.0), 100.0, 0.02)
        trajectory_purity = series.p_g**2 + series.p_e**2 + 2.0 * np.abs(series.rho01) ** 2
        assert np.max(np.abs(trajectory_purity - 1.0)) < 1e-8


class TestLindbladEvolution:
    def test_rejects_two_qubit_state(self):
        with pytest.raises(DimensionError, match="^time evolution supports single-qubit states"):
            evolve_lindblad(np.eye(4) / 4.0, QubitHamiltonian(epsilon=1.0), (), 1.0, 0.01)

    def test_no_channels_reduces_to_closed(self):
        h = QubitHamiltonian(epsilon=1.0)
        open_series = evolve_lindblad(EQUAL_SUPERPOSITION, h, [], 5.0, 0.01)
        closed_series = evolve_closed(EQUAL_SUPERPOSITION, h, 5.0, 0.01)
        assert np.max(np.abs(open_series.rho01 - closed_series.rho01)) < 1e-12
        assert np.max(np.abs(open_series.p_e - closed_series.p_e)) < 1e-12

    def test_dephasing_headline_numbers(self):
        channel = LindbladChannel.pure_dephasing(0.25)
        series = evolve_lindblad(
            EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=1.0), [channel], 10.0, 1e-3
        )
        idx = int(round(2.0 / 1e-3))
        assert series.times[idx] == pytest.approx(2.0)
        assert abs(series.rho01[idx]) == pytest.approx(0.5 * np.exp(-1.0), abs=1e-9)
        assert series.p_g[idx] == pytest.approx(0.5, abs=1e-9)
        assert series.p_e[idx] == pytest.approx(0.5, abs=1e-9)

    def test_diagonal_states_frozen(self):
        channel = LindbladChannel.pure_dephasing(0.4)
        rho = DensityMatrix(np.diag([0.2, 0.8]))
        series = evolve_lindblad(rho, QubitHamiltonian(epsilon=1.0), [channel], 5.0, 0.01)
        assert np.max(np.abs(series.p_g - 0.2)) < 1e-12
        assert np.max(np.abs(series.rho01)) < 1e-15

    def test_matches_analytic_oracle_random(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(25):
            rho0 = random_density(rng)
            epsilon = rng.uniform(0.0, 5.0)
            delta = rng.uniform(0.0, 1.0)
            series = evolve_lindblad(
                rho0,
                QubitHamiltonian(epsilon=epsilon),
                [LindbladChannel.pure_dephasing(delta)],
                10.0,
                1e-3,
            )
            exact = analytic_series(rho0, epsilon, delta, series.times)
            err = max(
                np.max(np.abs(series.p_g - exact[:, 0].real)),
                np.max(np.abs(series.rho01 - exact[:, 1])),
                np.max(np.abs(series.p_e - exact[:, 3].real)),
            )
            worst = max(worst, err)
        assert worst < 1e-6

    def test_coherence_magnitude_never_grows(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            rho0 = random_density(rng)
            series = evolve_lindblad(
                rho0,
                QubitHamiltonian(epsilon=rng.uniform(0, 3)),
                [LindbladChannel.pure_dephasing(rng.uniform(0.05, 1.0))],
                5.0,
                1e-3,
            )
            magnitudes = np.abs(series.rho01)
            assert np.all(np.diff(magnitudes) <= 1e-12)

    def test_fourth_order_convergence(self):
        rho0 = EQUAL_SUPERPOSITION
        epsilon, delta = 1.8, 0.5
        h = QubitHamiltonian(epsilon=epsilon)
        channel = LindbladChannel.pure_dephasing(delta)

        def max_error(dt):
            series = evolve_lindblad(rho0, h, [channel], 5.0, dt)
            exact = analytic_series(rho0, epsilon, delta, series.times)
            return np.max(np.abs(series.rho01 - exact[:, 1]))

        coarse, fine = max_error(0.05), max_error(0.025)
        assert coarse / fine >= 12.0

    def test_full_cosine_with_dephasing_matches_static_path_weak_drive(self):
        # Cross-check the driven and static step maps on the same problem: a
        # very weak off-resonant drive barely perturbs the pure-dephasing decay.
        channel = LindbladChannel.pure_dephasing(0.2)
        driven = QubitHamiltonian(
            epsilon=1.0, omega_rabi=1e-6, omega0=3.0, drive_mode=DriveMode.FULL_COSINE
        )
        undriven = QubitHamiltonian(epsilon=1.0)
        a = evolve_lindblad(EQUAL_SUPERPOSITION, driven, [channel], 2.0, 0.01)
        b = evolve_lindblad(EQUAL_SUPERPOSITION, undriven, [channel], 2.0, 0.01)
        assert np.max(np.abs(a.rho01 - b.rho01)) < 1e-5
        assert np.max(np.abs(a.p_e - b.p_e)) < 1e-5


def reference_static(rho0, h, channels, dt, n_steps):
    """Frozen copy of the earlier static integrator: a degree-4 Taylor propagator."""
    scaled = frozen_kron_superoperator(hamiltonian_at(h, 0.0), channels) * dt
    prop = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in (1, 2, 3, 4):
        term = term @ scaled / k
        prop = prop + term
    vec = rho0.reshape(4).astype(complex)
    out = np.empty((n_steps + 1, 4), dtype=complex)
    out[0] = vec
    for k in range(1, n_steps + 1):
        vec = prop @ vec
        out[k] = vec
    return out


def reference_stepwise(rho0, h, channels, dt, n_steps):
    """Frozen copy of the earlier time-dependent integrator: four 2x2 RK4 stages per step."""
    channel_terms = []
    for ch in channels:
        op = ch.operator
        channel_terms.append((op, op.conj().T, op.conj().T @ op))

    def rhs(t, rho):
        h_t = hamiltonian_at(h, t)
        out = -1j * (h_t @ rho - rho @ h_t)
        for op, op_dag, op_sq in channel_terms:
            out += op @ rho @ op_dag - 0.5 * (op_sq @ rho + rho @ op_sq)
        return out

    rho = rho0.astype(complex)
    out = np.empty((n_steps + 1, 4), dtype=complex)
    out[0] = rho.reshape(4)
    half = 0.5 * dt
    for k in range(n_steps):
        t = k * dt
        k1 = rhs(t, rho)
        k2 = rhs(t + half, rho + half * k1)
        k3 = rhs(t + half, rho + half * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = rho.reshape(4)
    return out


def reference_step_map_loop(rho0, h, channels, dt, n_steps):
    """Frozen copy of the earlier step-map integrator: one 4x4 matvec per step."""
    if h.drive_mode is DriveMode.FULL_COSINE:
        static = dynamics._superoperator(0.5 * h.epsilon * SIGMA_Z, channels)
        drive = dynamics._superoperator(h.omega_rabi * SIGMA_X, ())
        t = dt * np.arange(n_steps)
        gens = [static + np.cos(h.omega0 * at)[:, None, None] * drive
                for at in (t, t + 0.5 * dt, t + dt)]
        maps = dynamics._rk4_step_map(*gens, dt)
    else:
        gen = dynamics._superoperator(hamiltonian_at(h, 0.0), channels)
        maps = itertools.repeat(dynamics._rk4_step_map(gen, gen, gen, dt), n_steps)
    vec = rho0.reshape(4).astype(complex)
    out = np.empty((n_steps + 1, 4), dtype=complex)
    out[0] = vec
    for k, step in enumerate(maps, 1):
        vec = step @ vec
        out[k] = vec
    return out


def as_vec(traj):
    """Samples (rho00, Re rho01, Im rho01, rho11) of a trajectory as rows of vec(rho)."""
    assert traj.dtype == float and traj.shape[1:] == (4,)
    rho01 = traj[:, 1] + 1j * traj[:, 2]
    return np.stack([traj[:, 0], rho01, rho01.conj(), traj[:, 3]], axis=1)


SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.T.copy()


def random_channels(rng):
    """Amplitude damping, pure dephasing and a random operator, each with rate at most 2."""
    generic = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    generic *= np.sqrt(rng.uniform(0.1, 2.0)) / np.linalg.norm(generic, 2)
    return [
        LindbladChannel(np.sqrt(rng.uniform(0.0, 2.0)) * SIGMA_MINUS),
        LindbladChannel.pure_dephasing(rng.uniform(0.0, 2.0)),
        LindbladChannel(generic),
    ]


class TestStepMapIntegrator:
    """The one step-map loop against frozen copies of the two loops it replaced."""

    DT = 0.01  # with every frequency and rate below 5, dt stays inside the step guard

    def test_static_generators_match_taylor_loop(self):
        rng = np.random.default_rng(11)
        modes = (DriveMode.NONE, DriveMode.ROTATING_WAVE, DriveMode.FULL_COSINE)
        for trial in range(9):
            mode = modes[trial % 3]
            h = QubitHamiltonian(
                epsilon=rng.uniform(0.0, 5.0),
                omega_rabi=rng.uniform(0.0, 3.0) if mode is DriveMode.ROTATING_WAVE else 0.0,
                omega0=rng.uniform(0.0, 5.0),
                drive_mode=mode,
            )
            all_channels = random_channels(rng)
            channels = [all_channels[i] for i in range(3) if rng.random() < 0.6]
            rho0 = random_density(rng).matrix
            got = as_vec(_integrate_static(rho0, h, channels, self.DT, 3000))
            want = reference_static(rho0, h, channels, self.DT, 3000)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_cosine_drive_matches_stage_loop(self):
        rng = np.random.default_rng(12)
        for trial in range(4):
            h = QubitHamiltonian(
                epsilon=rng.uniform(0.0, 5.0),
                omega_rabi=rng.uniform(0.1, 3.0),
                omega0=rng.uniform(0.0, 5.0),
                drive_mode=DriveMode.FULL_COSINE,
            )
            channels = random_channels(rng)[: trial % 4]
            rho0 = random_density(rng).matrix
            got = as_vec(_integrate_static(rho0, h, channels, self.DT, 600))
            want = reference_stepwise(rho0, h, channels, self.DT, 600)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_zero_drive_cosine_is_the_static_run(self):
        # With omega_rabi = 0 the drive generator vanishes, so FULL_COSINE
        # takes the same path as NONE, bit for bit. Past one batch of driven
        # maps (4,096 steps) the two paths would block the steps differently.
        rng = np.random.default_rng(16)
        for trial in range(3):
            epsilon, omega0 = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
            channels = random_channels(rng)[: trial + 1]
            rho0 = random_density(rng).matrix
            runs = [
                _integrate_static(rho0, QubitHamiltonian(epsilon=epsilon, omega0=omega0,
                                                         drive_mode=mode),
                                  channels, self.DT, 5000)
                for mode in (DriveMode.FULL_COSINE, DriveMode.NONE)
            ]
            assert runs[0].tobytes() == runs[1].tobytes()

    def test_cosine_drive_crosses_map_blocks(self):
        # Blocks of 8 steps over 50 steps: a partial last block and a clock
        # that must carry across block boundaries.
        assert dynamics._block_length(50) == 8
        h = QubitHamiltonian(
            epsilon=2.0, omega_rabi=1.5, omega0=2.5, drive_mode=DriveMode.FULL_COSINE
        )
        channels = [LindbladChannel.pure_dephasing(0.3)]
        rho0 = EQUAL_SUPERPOSITION.matrix
        got = as_vec(_integrate_static(rho0, h, channels, self.DT, 50))
        want = reference_stepwise(rho0, h, channels, self.DT, 50)
        assert np.max(np.abs(got - want)) <= 1e-12


# 30 examples keep the frozen stage loop under 1 s of the suite. A failure is
# reported as drawn, unshrunk: shrinking through the stage loop took minutes.
@settings(max_examples=30, phases=[Phase.explicit, Phase.generate])
@given(
    # dt times each of epsilon, omega_rabi and omega0: inside the step guard of 0.1.
    scaled=st.tuples(*[st.floats(0.0, 0.099)] * 3),
    dt=st.floats(1e-3, 0.04),  # with channel rates up to 2, inside the guard too
    n_steps=st.integers(10, 300),
    n_channels=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_cosine_drive_runs_match_stage_loop(scaled, dt, n_steps, n_channels, seed):
    epsilon, omega_rabi, omega0 = (x / dt for x in scaled)
    h = QubitHamiltonian(epsilon=epsilon, omega_rabi=omega_rabi, omega0=omega0,
                         drive_mode=DriveMode.FULL_COSINE)
    rng = np.random.default_rng(seed)
    channels = random_channels(rng)[:n_channels]
    assert dynamics._check_step(h, channels, n_steps * dt, dt) == n_steps
    rho0 = random_density(rng).matrix
    got = as_vec(_integrate_static(rho0, h, channels, dt, n_steps))
    assert np.max(np.abs(got - reference_stepwise(rho0, h, channels, dt, n_steps))) <= 1e-12


class TestBlockedIntegrator:
    """Block propagation against the frozen per-step loop it replaced."""

    @pytest.mark.parametrize("mode, channels, n_steps", [
        # A random generic channel, amplitude damping at a finite
        # temperature and no channel, over as many steps as the longest
        # library runs.
        (DriveMode.NONE, "generic", 60000),
        (DriveMode.ROTATING_WAVE, "thermal", 100000),
        (DriveMode.ROTATING_WAVE, "none", 100000),
    ])
    def test_long_static_runs(self, mode, channels, n_steps):
        rng = np.random.default_rng(13)
        epsilon, dt = rng.uniform(0.5, 3.0), 0.02
        h = QubitHamiltonian(
            epsilon=epsilon,
            omega_rabi=rng.uniform(0.3, 1.5) if mode is DriveMode.ROTATING_WAVE else 0.0,
            omega0=epsilon,
            drive_mode=mode,
        )
        rate = 1.0 / (n_steps * dt)  # about one decay time per run
        if channels == "generic":
            op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            chans = [LindbladChannel(np.sqrt(rate) * op / np.linalg.norm(op, 2))]
        elif channels == "thermal":
            chans = [LindbladChannel(np.sqrt(rate) * SIGMA_MINUS),
                     LindbladChannel(np.sqrt(0.3 * rate) * SIGMA_PLUS)]
        else:
            chans = []
        rho0 = random_density(rng).matrix
        got = as_vec(_integrate_static(rho0, h, chans, dt, n_steps))
        want = reference_step_map_loop(rho0, h, chans, dt, n_steps)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("root, n_steps, mode", [
        # Next to the squares 8^2 and 16^2, where the block length steps up
        # from the root: blocks that fill the run exactly, and a short last one.
        *((root, n, mode) for root, n in [(8, 63), (8, 64), (8, 65), (16, 255), (16, 256),
                                          (16, 257)] for mode in DriveMode),
        # The shortest runs: one block of one or two steps, and a short last block.
        *((1, n, mode) for n in (1, 2, 3) for mode in DriveMode),
        # Static runs at the 64 starts of one product: 64 full blocks, 64 and a
        # short last one, 65 (a second product of one start) and 129 (three).
        *((root, n, DriveMode.NONE) for root, n in [(64, 4096), (64, 4161), (65, 4225),
                                                      (129, 16641)]),
        # Past 255^2 a static run's blocks stay at the cap of 255 steps, and
        # its block starts recurse four levels (254, 15, 3 and 1 steps); a
        # driven run's blocks hold at most 64 steps, the root of its batch.
        *((255, n, mode) for n in (65025, 65026)
          for mode in (DriveMode.NONE, DriveMode.ROTATING_WAVE)),
    ])
    def test_runs_next_to_the_block_cap(self, root, n_steps, mode):
        assert dynamics._block_length(n_steps) == min(root + (n_steps > root * root), 255)
        rng = np.random.default_rng(14)
        h = QubitHamiltonian(
            epsilon=2.0,
            omega_rabi=0.0 if mode is DriveMode.NONE else 1.2,
            omega0=2.3,
            drive_mode=mode,
        )
        channels = random_channels(rng)
        rho0 = random_density(rng).matrix
        # Long runs span 3 time units: over hundreds, the two loops' rounding
        # differs by more than 1e-12 on these strong channels.
        dt = min(0.01, 3.0 / n_steps)
        got = as_vec(_integrate_static(rho0, h, channels, dt, n_steps))
        want = reference_step_map_loop(rho0, h, channels, dt, n_steps)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_block_length_is_capped(self):
        # The length rises with n: every n past the cap's edge, then powers of two to the limit.
        steps = [*range(1, 2**16 + 1), *(2**k for k in range(17, 30)), dynamics._MAX_STEPS]
        assert max(dynamics._block_length(n) for n in steps) == 255

    def test_cosine_drive_crosses_map_batches(self, monkeypatch):
        # Batches of 80 maps: three full batches in blocks of 9 steps and a
        # last one of 10 steps in blocks of 4.
        monkeypatch.setattr(dynamics, "_DRIVEN_BATCH", 80)
        rng = np.random.default_rng(15)
        h = QubitHamiltonian(
            epsilon=2.0, omega_rabi=1.5, omega0=2.5, drive_mode=DriveMode.FULL_COSINE
        )
        channels = random_channels(rng)
        rho0 = random_density(rng).matrix
        got = as_vec(_integrate_static(rho0, h, channels, 0.01, 250))
        assert np.max(np.abs(got - reference_step_map_loop(rho0, h, channels, 0.01, 250))) <= 1e-12
        assert np.max(np.abs(got - reference_stepwise(rho0, h, channels, 0.01, 250))) <= 1e-12

    def test_long_cosine_drive_crosses_two_batch_edges(self):
        assert 2 * dynamics._DRIVEN_BATCH < 10000 < 3 * dynamics._DRIVEN_BATCH
        rng = np.random.default_rng(16)
        h = QubitHamiltonian(
            epsilon=1.5, omega_rabi=0.8, omega0=1.9, drive_mode=DriveMode.FULL_COSINE
        )
        channels = random_channels(rng)
        rho0 = random_density(rng).matrix
        got = as_vec(_integrate_static(rho0, h, channels, 0.01, 10000))
        want = reference_step_map_loop(rho0, h, channels, 0.01, 10000)
        assert np.max(np.abs(got - want)) <= 1e-12


# 30 static runs of 1e5 steps and 3 of 1e6 in a fresh interpreter, and the CPU
# ticks (utime + stime) that every thread but the main one gained over them.
BLAS_WAKE_SCRIPT = """
import os
import time

import qubitsim as qs


def worker_ticks():
    # Read once they stop rising: OpenBLAS threads spin for a while after they start or work.
    ticks, last = None, -1
    while ticks != last:
        time.sleep(0.05)
        ticks, last = 0, ticks
        for tid in os.listdir("/proc/self/task"):
            if int(tid) != os.getpid():
                with open(f"/proc/self/task/{tid}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
                ticks += int(fields[11]) + int(fields[12])
    return ticks


before = worker_ticks()
h = qs.QubitHamiltonian(epsilon=1.0)
channels = [qs.LindbladChannel.pure_dephasing(1e-3)]
for n_steps in [10**5] * 30 + [10**6] * 3:
    qs.evolve_lindblad([[0.6, 0.3], [0.3, 0.4]], h, channels, 0.01 * n_steps, 0.01)
print(worker_ticks() - before)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads /proc/self/task")
def test_static_runs_wake_no_blas_thread():
    # A product too large for one thread wakes a second OpenBLAS thread, which
    # spins on after the run (see dynamics._block_length). The thread-count
    # variables are dropped so that the default thread pool is the one tested.
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(dynamics.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", BLAS_WAKE_SCRIPT], capture_output=True,
                         text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 5


def frozen_kron_superoperator(h_matrix, channels):
    """Frozen copy of the earlier _superoperator, built from np.kron."""
    eye = np.eye(2, dtype=complex)
    gen = -1j * (np.kron(h_matrix, eye) - np.kron(eye, h_matrix.T))
    for ch in channels:
        op = ch.operator
        op_sq = op.conj().T @ op
        gen += np.kron(op, op.conj()) - 0.5 * (np.kron(op_sq, eye) + np.kron(eye, op_sq.T))
    return gen


MATRICES_2X2 = st.lists(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
).map(lambda entries: np.array(entries, dtype=complex).reshape(2, 2))


@given(h_matrix=MATRICES_2X2, operators=st.lists(MATRICES_2X2, max_size=3))
def test_superoperator_is_bitwise_the_kron_form(h_matrix, operators):
    channels = [LindbladChannel(op) for op in operators]
    got = dynamics._superoperator(h_matrix, channels)
    assert got.tobytes() == frozen_kron_superoperator(h_matrix, channels).tobytes()


class TestStepMapsAtNodes:
    """The RK4 step map of L0 + c L1 as Lagrange weights of its 12 maps at node cosines."""

    @staticmethod
    def generators(rng):
        l0, l1 = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2))
        return l0, l1, rng.uniform(1e-3, 0.1)

    def test_weighted_node_maps_are_the_step_map(self):
        nodes = list(itertools.product((-1.0, 1.0), (-1.0, 0.0, 1.0), (-1.0, 1.0)))
        rng = np.random.default_rng(17)
        for _ in range(200):
            l0, l1, dt = self.generators(rng)
            maps = dynamics._step_maps_at_nodes(l0, l1, dt)
            assert maps.shape == (12, 4, 4)
            cosines = rng.uniform(-1.0, 1.0, size=3)
            got = np.tensordot(dynamics._node_weights(*cosines[:, None]), maps, 1)[0]
            want = dynamics._rk4_step_map(*(l0 + c * l1 for c in cosines), dt)
            assert np.max(np.abs(got - want)) <= 1e-14
        # At each node the weights pick that node's map alone.
        weights = dynamics._node_weights(*np.array(nodes).T)
        picked = np.argmax(weights, axis=1)
        assert sorted(picked) == list(range(12))
        assert np.array_equal(weights, np.eye(12)[picked])  # -0.0 equals 0.0
        for node, i in zip(nodes, picked):
            want = dynamics._rk4_step_map(*(l0 + c * l1 for c in node), dt)
            assert np.max(np.abs(maps[i] - want)) <= 1e-14

    @staticmethod
    def stacked_node_weights(c_s, c_m, c_e):
        """The weights as one broadcast product (w_s w_m) w_e of stacked factors."""
        w_s, w_e = (np.stack([0.5 * (1.0 - c), 0.5 * (1.0 + c)], axis=-1) for c in (c_s, c_e))
        w_m = np.stack([0.5 * c_m * (c_m - 1.0), 1.0 - c_m * c_m, 0.5 * c_m * (c_m + 1.0)],
                       axis=-1)
        product = w_s[:, :, None, None] * w_m[:, None, :, None] * w_e[:, None, None, :]
        return product.reshape(-1, 12)

    @pytest.mark.parametrize("n", [1, 12, 255, 2200])
    def test_node_weights_are_bitwise_the_stacked_product(self, n):
        rng = np.random.default_rng(n)
        cosines = rng.uniform(-1.0, 1.0, size=(3, n))
        # Every third cosine is a node value, where weights are exactly 0 or 1.
        cosines[:, ::3] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=cosines[:, ::3].shape)
        got = dynamics._node_weights(*cosines)
        assert got.shape == (n, 12) and got.flags.c_contiguous
        assert got.tobytes() == self.stacked_node_weights(*cosines).tobytes()

    @pytest.mark.parametrize("mode", [DriveMode.NONE, DriveMode.FULL_COSINE])
    def test_zero_drive_builds_the_static_map_alone(self, monkeypatch, mode):
        calls = []
        rk4_step_map = dynamics._rk4_step_map

        def spy(*args):
            calls.append((args, rk4_step_map(*args)))
            return calls[-1][1]

        monkeypatch.setattr(dynamics, "_rk4_step_map", spy)
        rng = np.random.default_rng(18)
        channels = random_channels(rng)
        h = QubitHamiltonian(epsilon=1.3, omega0=2.1, drive_mode=mode)
        dynamics._integrate_static(random_density(rng).matrix, h, channels, 0.01, 300)
        static = dynamics._superoperator(0.5 * h.epsilon * SIGMA_Z, channels)
        [(args, step)] = calls
        assert [gen.tobytes() for gen in args[:3]] == [static.tobytes()] * 3
        assert args[3] == 0.01
        assert step.tobytes() == rk4_step_map(static, static, static, 0.01).tobytes()


@given(
    epsilon=st.floats(0.0, 5.0),
    delta=st.floats(0.0, 2.0),
    p_e=st.floats(0.0, 1.0),
    radius=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * np.pi),
    t_max=st.floats(0.5, 10.0),
    step_fraction=st.floats(0.01, 0.99),
)
def test_dephasing_matches_closed_form(epsilon, delta, p_e, radius, phase, t_max, step_fraction):
    coherence = radius * np.sqrt(p_e * (1.0 - p_e)) * np.exp(1j * phase)
    rho0 = DensityMatrix([[1.0 - p_e, coherence], [np.conj(coherence), p_e]])
    # dt inside the step guard: at most t_max/10, and dt times the splitting
    # and the channel rate delta below _STEP_RESOLUTION.
    dt = step_fraction * min(t_max / 10.0, dynamics._STEP_RESOLUTION / max(epsilon, delta, 1e-300))
    series = evolve_lindblad(
        rho0, QubitHamiltonian(epsilon=epsilon), [LindbladChannel.pure_dephasing(delta)],
        t_max, dt,
    )
    # Each RK4 step multiplies rho01 by R(z) = sum_{m<=4} z^m/m! with
    # z = -(2 delta + i epsilon) dt, where the exact factor is e^z. The
    # Taylor remainder bounds |e^z - R(z)| by |z|^5/120 e^|z|, and with
    # |R(z)|, |e^z| <= 1 (Re z <= 0, |z| inside the RK4 stability region)
    # the error after k steps is at most k times that. A few ulps per step
    # allow for rounding.
    z = abs(complex(2.0 * delta, epsilon)) * dt
    local = abs(coherence) * z**5 / 120.0 * np.exp(z) + 8.0 * np.finfo(float).eps
    for k in np.linspace(0, len(series) - 1, 9).astype(int):
        exact = pure_dephasing_analytic(rho0, epsilon, delta, series.times[k]).matrix
        bound = k * local
        assert abs(series.rho01[k] - exact[0, 1]) <= bound
        assert abs(series.p_e[k] - exact[1, 1].real) <= bound
        assert abs(series.p_g[k] - exact[0, 0].real) <= bound


@given(
    epsilon=st.floats(0.0, 3.0),
    delta=st.floats(0.0, 1.0),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
    t_max=st.floats(0.5, 5.0),
    step_fraction=st.floats(0.25, 0.99),
)
def test_dephasing_matches_environment_overlap(epsilon, delta, theta, phi, t_max, step_fraction):
    # The paper's two descriptions of decoherence: a master equation for the
    # qubit alone, and a qubit entangled with an environment whose branch
    # states overlap by s. For the pure state c_g|g> + c_e|e> under the
    # channel sqrt(delta) sigma_z, they agree at s = e^{(i epsilon - 2 delta) t}:
    # |s| = e^{-2 delta t} is the decay and arg s the free precession.
    psi = ket_from_bloch(BlochAngles(theta, phi))
    c_g, c_e = psi.amplitudes
    dt = step_fraction * min(t_max / 10.0, dynamics._STEP_RESOLUTION / max(epsilon, delta, 1e-300))
    series = evolve_lindblad(
        density_from_ket(psi), QubitHamiltonian(epsilon=epsilon),
        [LindbladChannel.pure_dephasing(delta)], t_max, dt,
    )
    # The RK4 bound of test_dephasing_matches_closed_form, checked at every
    # sample; one more step's worth allows for the two ways of squaring the
    # amplitudes into the start state.
    z = abs(complex(2.0 * delta, epsilon)) * dt
    local = abs(c_g * c_e) * z**5 / 120.0 * np.exp(z) + 8.0 * np.finfo(float).eps
    for k, t in enumerate(series.times):
        overlap = np.exp(complex(-2.0 * delta, epsilon) * t)
        exact = reduced_with_overlap(c_g, c_e, overlap).matrix
        bound = (k + 1) * local
        assert abs(series.rho01[k] - exact[0, 1]) <= bound
        assert abs(series.p_e[k] - exact[1, 1].real) <= bound
        assert abs(series.p_g[k] - exact[0, 0].real) <= bound


@given(
    epsilon=st.floats(0.0, 5.0),
    gamma=st.floats(0.0, 2.0),
    delta=st.floats(0.0, 2.0),
    p_e=st.floats(0.0, 1.0),
    radius=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * np.pi),
    t_max=st.floats(0.5, 10.0),
    step_fraction=st.floats(0.01, 0.99),
)
def test_amplitude_damping_matches_closed_form(epsilon, gamma, delta, p_e, radius, phase,
                                               t_max, step_fraction):
    coherence = radius * np.sqrt(p_e * (1.0 - p_e)) * np.exp(1j * phase)
    rho0 = DensityMatrix([[1.0 - p_e, coherence], [np.conj(coherence), p_e]])
    channels = [LindbladChannel(np.sqrt(gamma) * SIGMA_MINUS),
                LindbladChannel.pure_dephasing(delta)]
    # dt inside the step guard: both channel rates, gamma and delta, count.
    scale = max(epsilon, gamma, delta, 1e-300)
    dt = step_fraction * min(t_max / 10.0, dynamics._STEP_RESOLUTION / scale)
    series = evolve_lindblad(rho0, QubitHamiltonian(epsilon=epsilon), channels, t_max, dt)
    # p_e and rho01 each evolve on their own, at the generator eigenvalues
    # -gamma and -(gamma/2 + 2 delta) - i epsilon. As in the dephasing test,
    # each RK4 step is off from e^z by at most |z|^5/120 e^|z| of the
    # starting value, so after k steps by k times that; p_g = 1 - p_e shares
    # the error of p_e. A few ulps per step allow for rounding.
    eps = np.finfo(float).eps
    z_pop = gamma * dt
    z_coh = abs(complex(0.5 * gamma + 2.0 * delta, epsilon)) * dt
    local_pop = p_e * z_pop**5 / 120.0 * np.exp(z_pop) + 8.0 * eps
    local_coh = abs(coherence) * z_coh**5 / 120.0 * np.exp(z_coh) + 8.0 * eps
    for k in np.linspace(0, len(series) - 1, 9).astype(int):
        t = series.times[k]
        exact_p_e = p_e * np.exp(-gamma * t)
        exact_rho01 = (coherence * np.exp(-(0.5 * gamma + 2.0 * delta) * t)
                       * np.exp(-1j * epsilon * t))
        assert abs(series.p_e[k] - exact_p_e) <= k * local_pop
        assert abs(series.p_g[k] - (1.0 - exact_p_e)) <= k * local_pop
        assert abs(series.rho01[k] - exact_rho01) <= k * local_coh


def master_equation(epsilon, omega_rabi, omega0, operators):
    """Right-hand side of the 2x2 master equation under a cosine drive, on flattened rho."""
    s_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    s_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def rhs(t, y):
        rho = y.reshape(2, 2)
        h = 0.5 * epsilon * s_z + omega_rabi * np.cos(omega0 * t) * s_x
        out = -1j * (h @ rho - rho @ h)
        for op in operators:
            op_dag = op.conj().T
            out = out + op @ rho @ op_dag - 0.5 * (op_dag @ op @ rho + rho @ op_dag @ op)
        return out.reshape(4)

    return rhs


@pytest.mark.parametrize("operators", [
    (),
    (np.sqrt(0.3) * SIGMA_MINUS, np.sqrt(0.2) * np.array([[1.0, 0.0], [0.0, -1.0]])),
])
def test_full_cosine_matches_scipy(operators):
    # An independent integrator on the master equation written out above:
    # DOP853 at tolerances far below the RK4 error, so the difference is the
    # RK4 error, and halving dt must cut it about 16-fold.
    epsilon, omega_rabi, omega0, t_max = 2.0, 1.0, 2.0, 3.0
    rho0 = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, 0.3]])
    h = QubitHamiltonian(epsilon=epsilon, omega_rabi=omega_rabi, omega0=omega0,
                         drive_mode=DriveMode.FULL_COSINE)
    channels = [LindbladChannel(op) for op in operators]
    rhs = master_equation(epsilon, omega_rabi, omega0, operators)

    def error(dt):
        series = evolve_lindblad(rho0, h, channels, t_max, dt)
        ref = solve_ivp(rhs, (0.0, series.times[-1]), rho0.reshape(4).astype(complex),
                        method="DOP853", t_eval=series.times, rtol=1e-12, atol=1e-13)
        assert ref.success
        got = np.stack([series.p_g, series.rho01, series.rho01.conj(), series.p_e])
        return np.max(np.abs(got - ref.y))

    coarse, fine = error(0.01), error(0.005)
    assert fine <= 1e-9
    assert coarse / fine >= 12.0


class TestTrajectoryMonitoring:
    def test_trace_breach_detected(self):
        bad = np.array([[0.6, 0.0, 0.0, 0.6]])
        with pytest.raises(NumericalInstabilityError) as excinfo:
            _series_from_trajectory(bad, 0.1)
        assert str(excinfo.value) == "trace deviated by 2.000e-01 at step 0 (t = 0.0)"

    def test_positivity_breach_detected(self):
        bad = np.array([[0.5, 0.6, 0.0, 0.5]])
        with pytest.raises(NumericalInstabilityError) as excinfo:
            _series_from_trajectory(bad, 0.1)
        assert str(excinfo.value) == ("positivity breached (min eigenvalue -1.000e-01) "
                                      "at step 0 (t = 0.0)")

    def test_time_of_a_breach_prints_as_a_float(self):
        # A numpy dt prints like a Python float, not as np.float64(...).
        traj = np.tile(np.array([0.5, 0.25, 0.0, 0.5]), (5, 1))
        traj[3, 0] = 0.6
        with pytest.raises(NumericalInstabilityError, match=r" at step 3 \(t = 0\.75\)$"):
            _series_from_trajectory(traj, np.float64(0.25))

    def test_later_measures_wait_for_earlier_checks(self, monkeypatch):
        # A trace breach is reported before the eigenvalues are computed.
        def refuse(rows):
            raise AssertionError("eigenvalues computed after a failed check")

        monkeypatch.setattr(dynamics, "_min_eigenvalue_rows", refuse)
        with pytest.raises(NumericalInstabilityError, match="^trace "):
            _series_from_trajectory(np.array([[0.6, 0.0, 0.0, 0.6]]), 0.1)

    @pytest.mark.parametrize("entries, check", [
        ((np.nan, 0.0, 0.0, 0.5), "trace"),
        ((0.5, 0.0, 0.0, -np.inf), "trace"),
        # A coherence that is not finite leaves the trace alone and fails positivity.
        ((0.5, np.nan, 0.0, 0.5), "positivity"),
        ((0.5, 0.1, np.nan, 0.5), "positivity"),
        ((0.5, np.inf, 0.0, 0.5), "positivity"),
    ])
    def test_one_nan_row_fails_at_its_step(self, entries, check):
        traj = np.tile(np.array([0.5, 0.25, 0.0, 0.5]), (10, 1))
        traj[6] = entries
        at = r"at step 6 \(t = 0\.6000000000000001\)"
        with pytest.raises(NumericalInstabilityError, match=f"^{check} .* {at}$"):
            _series_from_trajectory(traj, 0.1)

    def test_nan_minimum_eigenvalue_fails_positivity(self, monkeypatch):
        # Step 3 misses the trace by 0.7e-9: the checks accept it and the screen
        # does not, so the block goes to the checks and their eigenvalues.
        traj = np.tile(np.array([0.5, 0.25, 0.0, 0.5]), (4, 1))
        traj[3, 0] += 0.7e-9
        assert reference_check(traj) is None and not dynamics._passes_screen(traj)
        lam = np.array([0.25, 0.25, np.nan, 0.25])
        monkeypatch.setattr(dynamics, "_min_eigenvalue_rows", lambda rows: lam)
        with pytest.raises(NumericalInstabilityError,
                           match=r"^positivity .* at step 2 \(t = 0\.2\)$"):
            _series_from_trajectory(traj, 0.1)

    # A miss of a third of a tolerance passes and one of 1.5 or three times it
    # fails. The tolerances are written out, not imported, so that a changed
    # value in the qstate table fails here.
    @pytest.mark.parametrize("scale, within", [(1 / 3, True), (1.5, False), (3.0, False)])
    @pytest.mark.parametrize("tolerance, sample, check", [
        (1e-9, lambda m: [0.5 + m, 0.0, 0.0, 0.5], "trace"),
        (1e-8, lambda m: [1.0 + m, 0.0, 0.0, -m], "positivity"),
    ], ids=["trace", "positivity"])
    def test_tolerance_edges(self, tolerance, sample, check, scale, within):
        traj = np.array([[0.5, 0.25, 0.0, 0.5], sample(scale * tolerance)])
        if within:
            assert len(_series_from_trajectory(traj, 0.1)) == 2
        else:
            with pytest.raises(NumericalInstabilityError,
                               match=fr"^{check} .* at step 1 \(t = 0\.1\)$"):
                _series_from_trajectory(traj, 0.1)

    def test_full_cosine_rejects_nan_carrier(self):
        with pytest.raises(ValueError, match="omega0"):
            evolve_lindblad(
                EQUAL_SUPERPOSITION,
                QubitHamiltonian(epsilon=1.0, omega_rabi=0.1, omega0=np.nan,
                                 drive_mode=DriveMode.FULL_COSINE),
                (), 1.0, 0.01,
            )


def map_with_residue(residue, row, col):
    """Map on vec(rho) whose image on the four reals is 1 + i residue at [row, col]."""
    on_reals = np.eye(4, dtype=complex)
    on_reals[row, col] += 1j * residue
    return dynamics._FROM_REAL @ on_reals @ dynamics._TO_REAL


class TestStepMapHermiticity:
    """A real row holds only Hermitian samples; the step map is checked for Hermiticity instead."""

    def test_breach_names_the_first_step_the_map_writes(self):
        with pytest.raises(NumericalInstabilityError) as excinfo:
            dynamics._real_step_maps(map_with_residue(0.2, 1, 2), 0.1)
        assert str(excinfo.value) == "hermiticity deviated by 2.000e-01 at step 1 (t = 0.1)"

    # The tolerance is written out, not imported, so that a changed value in
    # the qstate table fails here.
    @pytest.mark.parametrize("scale, within", [(1 / 3, True), (1.5, False), (3.0, False)])
    @pytest.mark.parametrize("row, col", [(0, 0), (1, 2), (3, 1)])
    def test_tolerance_edges(self, row, col, scale, within):
        maps = np.stack([np.eye(4), map_with_residue(scale * 1e-9, row, col)])
        if within:
            real = dynamics._real_step_maps(maps, np.float64(0.1))
            assert real.dtype == float
            assert np.array_equal(real, np.broadcast_to(np.eye(4), (2, 4, 4)))
        else:
            with pytest.raises(NumericalInstabilityError,
                               match=r"^hermiticity .* at step 1 \(t = 0\.1\)$"):
                dynamics._real_step_maps(maps, np.float64(0.1))

    @pytest.mark.parametrize("mode", [DriveMode.NONE, DriveMode.FULL_COSINE])
    def test_step_map_that_breaks_hermiticity_fails_the_run(self, monkeypatch, mode):
        rk4_step_map = dynamics._rk4_step_map
        monkeypatch.setattr(dynamics, "_rk4_step_map",
                            lambda *args: rk4_step_map(*args) + 1e-7j * np.eye(4))
        h = QubitHamiltonian(epsilon=1.0, omega_rabi=0.0 if mode is DriveMode.NONE else 0.5,
                             omega0=1.0, drive_mode=mode)
        with pytest.raises(NumericalInstabilityError,
                           match=r"^hermiticity deviated by 1\.000e-07 at step 1 \(t = 0\.01\)$"):
            evolve_lindblad(EQUAL_SUPERPOSITION, h, [LindbladChannel.pure_dephasing(0.1)],
                            1.0, 0.01)

    def test_channel_phase_drops_out(self):
        # L and e^{i phi} L give one dissipator, L rho L^dag; a generator that
        # left the conjugate off either factor would break Hermiticity here.
        h = QubitHamiltonian(epsilon=1.0)
        rng = np.random.default_rng(19)
        for channel in random_channels(rng):
            phased = LindbladChannel(np.exp(0.25j * np.pi) * channel.operator)
            a, b = (evolve_lindblad(EQUAL_SUPERPOSITION, h, [ch], 2.0, 0.01)
                    for ch in (channel, phased))
            assert np.max(np.abs(a.rho01 - b.rho01)) <= 1e-14
            assert np.max(np.abs(a.p_e - b.p_e)) <= 1e-14


@settings(max_examples=50)
@given(h_matrix=MATRICES_2X2, seed=st.integers(0, 2**32 - 1))
def test_superoperator_preserves_hermiticity(h_matrix, seed):
    # T L T^-1 is real for every Hermitian H and every set of channels.
    h_matrix = 0.5 * (h_matrix + h_matrix.conj().T)
    channels = random_channels(np.random.default_rng(seed))
    gen = dynamics._TO_REAL @ dynamics._superoperator(h_matrix, channels) @ dynamics._FROM_REAL
    scale = np.abs(gen).max()
    assert np.abs(gen.imag).max() <= 4 * np.finfo(float).eps * scale


def reference_check(traj):
    """Whole-array check of real rows: the message it raises, or None."""
    a, x, y, b = traj.T
    trace_err = np.abs(a + b - 1.0)
    lam_min = 0.5 * (a + b) - np.sqrt(0.25 * (a - b) ** 2 + np.abs(x + 1j * y) ** 2)
    for ok, measure, message in (
        (trace_err <= 1e-9, trace_err, "trace deviated by {:.3e}"),
        (lam_min >= -1e-8, lam_min, "positivity breached (min eigenvalue {:.3e})"),
    ):
        if not ok.all():
            idx = int(np.argmin(ok))
            return f"{message.format(measure[idx])} at step {idx}"
    return None


BREACHES = {
    "trace": [0.6, 0.0, 0.0, 0.6],
    # Below the trace range, next to healthy rows of trace 1: the screen judges
    # a block by its lowest and highest trace.
    "low-trace": [0.5 - 2e-9, 0.25, 0.0, 0.5],
    "positivity": [0.5, 0.6, 0.0, 0.5],
    "nan": [np.nan, 0.0, 0.0, 0.5],
    "nan-coherence": [0.5, 0.0, np.nan, 0.5],
}


class TestBlockedCheck:
    """The check runs over blocks of _CHECK_ROWS rows and reports what the whole-array one did."""

    ROWS = dynamics._CHECK_ROWS
    N = 2 * ROWS + 5  # two full blocks and a short last one

    @staticmethod
    def healthy(n):
        return np.tile(np.array([0.5, 0.25, 0.0, 0.5]), (n, 1))

    def message(self, traj):
        with pytest.raises(NumericalInstabilityError) as excinfo:
            _series_from_trajectory(traj, 0.1)
        return str(excinfo.value)

    @pytest.mark.parametrize("kind", list(BREACHES))
    @pytest.mark.parametrize("step", [0, ROWS - 1, ROWS, 2 * ROWS - 1, 2 * ROWS, N - 1])
    def test_breach_next_to_block_edges(self, kind, step):
        traj = self.healthy(self.N)
        traj[step] = BREACHES[kind]
        want = reference_check(traj)
        assert want.endswith(f" at step {step}")
        assert self.message(traj) == f"{want} (t = {step * 0.1!r})"

    def test_trace_breach_in_a_later_block_is_reported_first(self):
        traj = self.healthy(self.N)
        traj[3] = BREACHES["nan-coherence"]
        traj[self.ROWS + 7] = BREACHES["positivity"]
        step = 2 * self.ROWS + 2
        traj[step] = BREACHES["trace"]
        assert self.message(traj) == f"{reference_check(traj)} (t = {step * 0.1!r})"
        assert self.message(traj).startswith(f"trace deviated by 2.000e-01 at step {step} (t = ")

    def test_nan_in_the_short_last_block_fails_at_its_step(self):
        traj = self.healthy(self.N)
        step = self.N - 3
        traj[step, 2] = np.nan
        want = f"positivity breached (min eigenvalue nan) at step {step} (t = {step * 0.1!r})"
        assert self.message(traj) == want

    def test_healthy_trajectory_is_checked_once_a_block_at_a_time(self, monkeypatch):
        blocks = []
        screen = dynamics._passes_screen

        def spy(rows):
            blocks.append(rows.shape[0])
            return screen(rows)

        def refuse(rows):
            raise AssertionError("eigenvalues computed for a healthy trajectory")

        monkeypatch.setattr(dynamics, "_passes_screen", spy)
        monkeypatch.setattr(dynamics, "_min_eigenvalue_rows", refuse)
        traj = self.healthy(self.N)
        assert len(_series_from_trajectory(traj, 0.1)) == self.N
        assert blocks == [self.ROWS, self.ROWS, 5]
        assert reference_check(traj) is None


def state_row(trace_err, det, theta, phi):
    """Row (rho00, Re rho01, Im rho01, rho11) of trace 1 + trace_err and determinant det.

    Its eigenvalues lam_min and s - lam_min are turned by theta, its coherence by phi.
    """
    s = 1.0 + trace_err
    lam_min = 0.5 * s - np.sqrt(0.25 * s * s - det)
    lam_max = s - lam_min
    c, sn = np.cos(theta), np.sin(theta)
    r = (lam_max - lam_min) * c * sn
    return np.array([lam_min * c * c + lam_max * sn * sn, r * np.cos(phi), r * np.sin(phi),
                     lam_min * sn * sn + lam_max * c * c])


def screen_sweep():
    """About 20,000 rows of trace error in [-2, 2] 1e-9 and determinant in [-2, 2] 1e-8."""
    rng = np.random.default_rng(41)
    grid = itertools.product(np.linspace(-2.0, 2.0, 81) * 1e-9, np.linspace(-2.0, 2.0, 81) * 1e-8)
    return np.array([state_row(e, d, *rng.uniform(0.0, 2 * np.pi, size=2))
                     for e, d in grid for _ in range(3)])


def odd_rows():
    """Rows of a state that carry one NaN, +-inf or +-1e200 entry."""
    rows = []
    for col, value in itertools.product(range(4), (np.nan, np.inf, -np.inf, 1e200, -1e200)):
        row = np.array([0.5, 0.25, 0.1, 0.5])
        row[col] = value
        rows.append(row)
    return np.array(rows)


# Rows that miss the screen's bounds and pass the checks: a trace error of 0.7e-9,
# or a determinant of -7e-9, whose smallest eigenvalue is about -7e-9.
BAND = [state_row(0.7e-9, 0.1, 0.3, 0.2), state_row(-0.7e-9, 0.0, 0.4, 1.0),
        state_row(0.0, -7e-9, 0.5, 2.0), state_row(0.3e-9, -7e-9, 1.2, 4.0)]


class TestBlockScreen:
    """_passes_screen only says yes: every block it passes, the checks pass too."""

    ROWS = dynamics._CHECK_ROWS
    N = 2 * ROWS + 5

    def test_a_row_the_screen_passes_passes_the_checks(self):
        rows = screen_sweep()
        passed = np.array([dynamics._passes_screen(row[None]) for row in rows])
        for row in rows[passed]:
            assert reference_check(row[None]) is None
        refused = rows[~passed]
        accepted = [reference_check(row[None]) is None for row in refused]
        # The sweep holds rows of each verdict, and the band between them.
        assert 3_000 < passed.sum() < 10_000
        assert 1_000 < sum(accepted) < len(refused)
        # Well inside both bounds the screen passes every row.
        a, x, y, b = rows.T
        inside = (np.abs(a + b - 1.0) <= 0.45e-9) & (a * b - x * x - y * y >= -0.45e-8)
        assert inside.sum() > 1_000 and passed[inside].all()
        with np.errstate(all="ignore"):
            assert not any(dynamics._passes_screen(row[None]) for row in odd_rows())

    def test_injected_rows_give_the_reference_message(self):
        rng = np.random.default_rng(43)
        pool = np.concatenate([screen_sweep(), odd_rows(), BAND])
        for _ in range(60):
            traj = np.tile(np.array([0.5, 0.25, 0.0, 0.5]), (self.N, 1))
            steps = rng.choice(self.N, size=rng.integers(1, 6), replace=False)
            traj[steps] = pool[rng.choice(pool.shape[0], size=steps.size)]
            with np.errstate(all="ignore"):
                want = reference_check(traj)
                if want is None:
                    assert len(_series_from_trajectory(traj, 0.1)) == self.N
                    continue
                with pytest.raises(NumericalInstabilityError) as excinfo:
                    _series_from_trajectory(traj, 0.1)
            step = int(want.rsplit(" ", 1)[1])
            assert str(excinfo.value) == f"{want} (t = {step * 0.1!r})"

    def test_rows_in_the_band_are_checked_a_block_at_a_time(self, monkeypatch):
        blocks = []
        checks = dynamics._checks

        def spy(rows):
            blocks.append(rows.shape[0])
            return checks(rows)

        monkeypatch.setattr(dynamics, "_checks", spy)
        traj = np.array([BAND[k % len(BAND)] for k in range(self.N)])
        assert not any(dynamics._passes_screen(row[None]) for row in traj)
        assert reference_check(traj) is None
        assert len(_series_from_trajectory(traj, 0.1)) == self.N
        assert blocks == [self.ROWS, self.ROWS, 5]

    @pytest.mark.parametrize("row", list(odd_rows()) + [[np.inf, 1.0, 0.0, -np.inf],
                                                        [np.inf, np.inf, 0.0, 0.5],
                                                        [1e200, 1e200, 0.0, 1e200]],
                             ids=repr)
    def test_screen_warns_only_where_the_checks_warn(self, row):
        block = np.array([[0.5, 0.25, 0.0, 0.5], row])

        def warned(judge):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                judge(block)
            return [str(w.message) for w in caught]

        screen = warned(dynamics._passes_screen)
        checks = warned(lambda rows: all(ok.all() for ok, _, _ in dynamics._checks(rows)))
        assert set(screen) <= set(checks)


class TestAnalyticDephasing:
    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(73)
        rho0 = random_density(rng)
        out = pure_dephasing_analytic(rho0, 2.0, 0.3, 0.0)
        assert np.allclose(out.matrix, rho0.matrix, atol=1e-15)

    def test_zero_rate_is_unitary(self):
        rho = pure_dephasing_analytic(EQUAL_SUPERPOSITION, 1.5, 0.0, 3.0)
        assert abs(rho.matrix[0, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_headline_value(self):
        rho = pure_dephasing_analytic(EQUAL_SUPERPOSITION, 1.0, 0.25, 2.0)
        assert rho.matrix[0, 1] == pytest.approx(0.5 * np.exp(-1.0) * np.exp(-2j), abs=1e-15)

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            pure_dephasing_analytic(EQUAL_SUPERPOSITION, 1.0, -0.1, 1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_times_that_are_not_finite_and_non_negative(self, t):
        # At delta = 0 a negative t would still give a valid state.
        with pytest.raises(DomainError, match=f"^t must be finite and non-negative, got {t}$"):
            pure_dephasing_analytic(EQUAL_SUPERPOSITION, 1.0, 0.0, t)

    @pytest.mark.parametrize("epsilon, t", [(np.nan, 0.1), (np.inf, 0.0), (-np.inf, 1.0),
                                            (1e308, 1e10), (np.float64(1e308), np.float64(1e10))])
    def test_rejects_a_phase_epsilon_t_that_is_not_finite(self, epsilon, t):
        # Warnings are errors in this suite, so an overflow in exp or in the product fails too.
        message = f"epsilon * t must be finite, got epsilon {epsilon} at t = {t}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            pure_dephasing_analytic(EQUAL_SUPERPOSITION, epsilon, 0.1, t)


class TestCoherenceDecay:
    """The one dephasing factor e^{-2 delta t} that every closed form uses."""

    def test_zero_time_is_one_at_any_finite_rate(self):
        for delta in (0.0, 1.0, 1e308, np.finfo(float).max):
            assert dynamics._coherence_decay(delta, 0.0) == 1.0
            assert dynamics._coherence_decay(np.float64(delta), np.zeros(3)).tolist() == [1.0] * 3

    def test_product_past_the_float_range_is_zero_without_warning(self):
        # Warnings are errors in this suite, so an overflow warning fails the test.
        assert dynamics._coherence_decay(np.float64(1e308), np.float64(10.0)) == 0.0
        assert dynamics._coherence_decay(1e308, np.array([0.0, 1e-308, 1.0])).tolist() == [
            1.0, pytest.approx(np.exp(-2.0), rel=1e-15), 0.0
        ]

    def test_bitwise_equal_to_the_plain_formula(self):
        rng = np.random.default_rng(8)
        delta = 10.0 ** rng.uniform(-6, 2, 200)
        t = rng.uniform(0.0, 50.0, 200)
        assert dynamics._coherence_decay(delta, t).tobytes() == np.exp(-2.0 * delta * t).tobytes()


class TestDephasingTime:
    def test_values(self):
        assert dephasing_time(0.5) == pytest.approx(1.0)
        assert dephasing_time(0.25) == pytest.approx(2.0)
        # 500 in inverse nanoseconds: picosecond-scale coherence.
        assert dephasing_time(500.0) == pytest.approx(0.001)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            dephasing_time(0.0)

    @pytest.mark.parametrize("delta", [5e-324, 1e-320, np.float64(1e-320)])
    def test_overflowing_time_raises_naming_the_rate(self, delta):
        with pytest.raises(DomainError, match=f"^dephasing rate {delta} is too small"):
            dephasing_time(delta)

    def test_largest_rate_gives_a_positive_time(self):
        assert dephasing_time(1e308) == 0.5 / 1e308 > 0.0


class TestEvolutionRecord:
    """evolve_lindblad records the trajectory's own columns: the series views the checked rows."""

    DT = 0.01
    STATIC = (QubitHamiltonian(epsilon=1.0), (LindbladChannel.pure_dephasing(0.1),))
    DRIVEN = (QubitHamiltonian(epsilon=1.0, omega_rabi=0.5, omega0=1.0,
                               drive_mode=DriveMode.FULL_COSINE),
              (LindbladChannel.pure_dephasing(0.02),))
    # Pure dephasing with amplitude damping, which moves the populations too.
    DAMPED = (LindbladChannel.pure_dephasing(0.02),
              LindbladChannel(np.sqrt(0.05) * np.array([[0.0, 1.0], [0.0, 0.0]])))

    # A coherence with an imaginary part, so rho10 is not rho01.
    RHO0 = random_density(np.random.default_rng(29))

    def run(self, generator, n_steps):
        return evolve_lindblad(self.RHO0, *generator, n_steps * self.DT, self.DT)

    @pytest.mark.parametrize("rows, generator", [
        *(pytest.param(rows, generator, id=f"{rows}-{kind}")
          for kind, generator in (("static", STATIC), ("full_cosine", DRIVEN))
          for rows in (4095, 4096, 4097, 8193)),
        # 10,000 driven steps cross two _DRIVEN_BATCH edges; 100,000 static steps.
        pytest.param(10_001, (DRIVEN[0], DAMPED), id="10001-full_cosine-damped"),
        pytest.param(100_001, (STATIC[0], DAMPED), id="100001-static-damped"),
    ])
    def test_columns_are_the_trajectory_columns_bitwise(self, rows, generator):
        series = self.run(generator, rows - 1)
        traj = _integrate_static(self.RHO0.matrix, *generator, self.DT, rows - 1)
        assert len(series) == rows
        assert series.times.tobytes() == (self.DT * np.arange(rows)).tobytes()
        assert series.p_g.tobytes() == traj[:, 0].tobytes()
        assert series.p_e.tobytes() == traj[:, 3].tobytes()
        assert series.rho01.tobytes() == traj[:, 1:3].tobytes()

    def test_record_is_not_scanned_again(self, monkeypatch):
        calls = []
        post_init = TimeSeries.__post_init__

        def spy(series):
            calls.append(len(series.times))
            post_init(series)

        monkeypatch.setattr(TimeSeries, "__post_init__", spy)
        TimeSeries(times=[0.0, 1.0], p_g=[1.0, 1.0], p_e=[0.0, 0.0], rho01=[0.0, 0.0])
        assert calls == [2]
        assert len(self.run(self.STATIC, 5000)) == 5001
        assert len(self.run(self.DRIVEN, 5000)) == 5001
        assert calls == [2]

    def test_peak_memory_is_the_trajectory_and_the_record(self):
        # 32 bytes a sample for the trajectory's four float64 entries, which the
        # columns view, and 8 for the times; block-sized temporaries of the check
        # fit in the 256 KiB.
        n_steps = 400_000
        self.run(self.STATIC, 10)
        tracemalloc.start()
        try:
            self.run(self.STATIC, n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * (n_steps + 1) + 256 * 2**10


class TestTimeSeries:
    def test_evolution_columns_view_one_read_only_trajectory(self):
        # 10,001 rows: two blocks of _CHECK_ROWS and a short one.
        n = 10_001
        series = evolve_lindblad(EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=1.0),
                                 [LindbladChannel.pure_dephasing(0.1)], 100.0, 0.01)
        roots = []
        for name in ("p_g", "p_e", "rho01"):
            column = root = getattr(series, name)
            while root.base is not None:
                root = root.base
            assert not column.flags.writeable and not root.flags.writeable, name
            roots.append(root)
        root = roots[0]
        assert roots[1] is root and roots[2] is root
        # The record still holds nothing larger than its data: four float64 a sample.
        assert root.shape == (n, 4) and root.dtype == np.float64
        assert root.flags.c_contiguous and root.nbytes == 32 * n
        times = series.times
        assert times.flags.owndata and not times.flags.writeable
        assert times.shape == (n,) and times.nbytes == 8 * n

    def test_requires_uniform_grid(self):
        with pytest.raises(ValueError):
            TimeSeries(
                times=np.array([0.0, 0.1, 0.3]),
                p_g=np.zeros(3),
                p_e=np.ones(3),
                rho01=np.zeros(3, dtype=complex),
            )

    @pytest.mark.parametrize("times", [
        [0.0, np.nan, 2.0], [0.0, 1.0, np.nan], [np.nan, 1.0, 2.0],
    ])
    def test_rejects_nan_times(self, times):
        with pytest.raises(ValueError, match="sample times"):
            TimeSeries(
                times=np.array(times),
                p_g=np.zeros(3),
                p_e=np.ones(3),
                rho01=np.zeros(3, dtype=complex),
            )

    @pytest.mark.parametrize("times", [[0.0, 1e-12, 0.0], [0.0, 5e-10, 0.0, 5e-10]])
    def test_rejects_steps_back_within_the_spacing_allowance(self, times):
        # Each step back is within 1e-9 * max(1, dt) of the first step.
        n = len(times)
        with pytest.raises(ValueError, match="^sample times must be strictly increasing$"):
            TimeSeries(times=np.array(times), p_g=np.zeros(n), p_e=np.ones(n),
                       rho01=np.zeros(n, dtype=complex))

    @pytest.mark.parametrize("column, bad", [
        ("p_g", np.nan), ("p_g", np.inf), ("p_e", -np.inf), ("p_e", np.nan),
        ("rho01", complex(0.0, np.nan)), ("rho01", complex(np.inf, 0.0)),
    ])
    def test_rejects_non_finite_values(self, column, bad):
        values = {
            "p_g": np.full(3, 0.5), "p_e": np.full(3, 0.5), "rho01": np.zeros(3, dtype=complex),
        }
        values[column][1] = bad
        with pytest.raises(ValueError, match=f"^{column} values must be finite"):
            TimeSeries(times=np.array([0.0, 1.0, 2.0]), **values)

    @pytest.mark.parametrize("scale, within", [(1 / 3, True), (3.0, False)])
    @pytest.mark.parametrize("dt", [0.1, 10.0])
    def test_spacing_tolerance_edge(self, dt, scale, within):
        # Steps may differ from the first by 1e-9 * max(1, dt), written out so
        # that a changed value in the qstate table fails here.
        times = np.array([0.0, dt, 2.0 * dt + scale * 1e-9 * max(1.0, dt)])
        columns = {"p_g": np.full(3, 0.5), "p_e": np.full(3, 0.5), "rho01": np.zeros(3)}
        if within:
            assert TimeSeries(times=times, **columns).dt == dt
        else:
            with pytest.raises(ValueError, match="^sample times must be uniformly spaced$"):
                TimeSeries(times=times, **columns)

    def test_uniform_grid_far_from_zero(self):
        # Rounding 9e6 + 0.9 k moves a step by one ulp of 9e6 (1.86e-9), past 1e-9 * max(1, dt).
        times = 9e6 + 0.9 * np.arange(1000)
        zeros = np.zeros(1000)
        assert TimeSeries(times=times, p_g=zeros, p_e=zeros, rho01=zeros).dt == pytest.approx(0.9)

    @pytest.mark.parametrize("ulps, within", [(1, True), (12, False)])
    def test_spacing_rounding_allowance_edge(self, ulps, within):
        # Far from t = 0 the steps may also differ by 4 ulp of the largest |t|, held here
        # at about 1/3 and 3 times that and written out, so that a changed value in the
        # qstate table fails. At 2**33 one ulp is 2**-19, so the 1e-9 part hardly counts.
        t0 = 2.0**33
        times = np.array([t0, t0 + 1.0, t0 + 2.0 + ulps * np.spacing(t0)])
        columns = {"p_g": np.full(3, 0.5), "p_e": np.full(3, 0.5), "rho01": np.zeros(3)}
        if within:
            assert TimeSeries(times=times, **columns).dt == 1.0
        else:
            with pytest.raises(ValueError, match="^sample times must be uniformly spaced$"):
                TimeSeries(times=times, **columns)

    def test_columns_take_their_dtypes(self):
        series = TimeSeries(times=[0, 1, 2], p_g=[1, 1, 1], p_e=[0, 0, 0], rho01=[0, 0, 0])
        assert [series.times.dtype, series.p_g.dtype, series.p_e.dtype, series.rho01.dtype] == [
            np.dtype(float), np.dtype(float), np.dtype(float), np.dtype(complex)
        ]

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError, match="^all trajectory columns must have the same length$"):
            TimeSeries(
                times=np.array([0.0, 0.1]),
                p_g=np.zeros(3),
                p_e=np.ones(3),
                rho01=np.zeros(3, dtype=complex),
            )

    def test_leaves_the_callers_arrays_writeable(self):
        columns = {
            "times": np.array([0.0, 1.0, 2.0]), "p_g": np.full(3, 0.5),
            "p_e": np.full(3, 0.5), "rho01": np.zeros(3, dtype=complex),
        }
        series = TimeSeries(**columns)
        for name, array in columns.items():
            assert array.flags.writeable
            assert not getattr(series, name).flags.writeable
            assert np.shares_memory(getattr(series, name), array)
        columns["times"][0] = 5.0

    def test_grid_properties(self):
        series = evolve_closed(EQUAL_SUPERPOSITION, QubitHamiltonian(epsilon=0.5), 1.0, 0.1)
        assert len(series) == 11
        assert series.t0 == 0.0
        assert series.dt == pytest.approx(0.1)


@given(
    omega=st.floats(0.01, 5.0),
    epsilon=st.floats(0.0, 5.0),
    t_max=st.floats(0.5, 20.0),
    step_fraction=st.floats(0.01, 0.99),
)
def test_undamped_rabi_matches_closed_form(omega, epsilon, t_max, step_fraction):
    # On resonance (omega0 = epsilon) the rotating-frame generator is
    # (omega/2) sigma_x, which carries |g> to p_e(t) = sin^2(omega t / 2).
    h = QubitHamiltonian(epsilon=epsilon, omega_rabi=omega, omega0=epsilon,
                         drive_mode=DriveMode.ROTATING_WAVE)
    dt = step_fraction * min(t_max / 10.0, dynamics._STEP_RESOLUTION / max(epsilon, omega))
    ground = DensityMatrix([[1.0, 0.0], [0.0, 0.0]])
    series = evolve_lindblad(ground, h, [], t_max, dt)
    # p_e = (1 - Re w)/2, where w = e^{i omega t} is the Bloch z - i y pair,
    # the component at the generator eigenvalue z = i omega dt. Each RK4
    # step multiplies w by R(z) = sum_{m<=4} z^m/m! for the exact e^z, with
    # |e^z - R(z)| <= |z|^5/120 e^|z| and |R(z)| <= 1 on the imaginary axis
    # inside the stability region, so after k steps p_e is off by at most
    # k/2 times that. A few ulps per step allow for rounding.
    z = omega * dt
    local = 0.5 * z**5 / 120.0 * np.exp(z) + 8.0 * np.finfo(float).eps
    for k in np.linspace(0, len(series) - 1, 9).astype(int):
        exact = np.sin(0.5 * omega * series.times[k]) ** 2
        assert abs(series.p_e[k] - exact) <= k * local
