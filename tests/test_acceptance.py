"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines on the terminal.
"""

import time

import numpy as np
import pytest

from qubitsim import (
    DensityMatrix,
    Ket,
    LindbladChannel,
    PhotonState,
    QubitHamiltonian,
    RamseyConfig,
    SlitGeometry,
    classical_intensity,
    damp_first_qubit_coherence,
    density_from_ket,
    dephasing_time,
    evolve_lindblad,
    figure_of_merit,
    fringe_frequency,
    hamiltonian_at,
    partial_trace_env,
    quantum_intensity,
    rabi_with_dephasing,
    ramsey_population,
    ramsey_scan,
    superdense_decode,
    superdense_encode,
    tensor,
)
from qubitsim.dynamics import (_FROM_REAL, _TO_REAL, _integrate_static, _rk4_step_map,
                               _superoperator)
from qubitsim.protocols import MESSAGES

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def report(number, name, ok, detail):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def dephasing_draw(rng):
    return random_density(rng), rng.uniform(0.0, 5.0), rng.uniform(0.0, 1.0)


def test_criterion_1_pure_dephasing_oracle_match():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        rho0, epsilon, delta = dephasing_draw(rng)
        series = evolve_lindblad(
            rho0,
            QubitHamiltonian(epsilon=epsilon),
            [LindbladChannel.pure_dephasing(delta)],
            10.0,
            1e-3,
        )
        factor = np.exp(-2.0 * delta * series.times) * np.exp(-1j * epsilon * series.times)
        err = max(
            np.max(np.abs(series.p_g - rho0.matrix[0, 0].real)),
            np.max(np.abs(series.p_e - rho0.matrix[1, 1].real)),
            np.max(np.abs(series.rho01 - rho0.matrix[0, 1] * factor)),
        )
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 20.0
    report(1, "pure-dephasing oracle match", ok,
           f"max error {worst:.3e} over 200 draws in {elapsed:.1f} s")


def test_criterion_2_t2_recovery():
    delta = 0.25
    series = evolve_lindblad(
        density_from_ket(Ket([INV_SQRT2, INV_SQRT2])),
        QubitHamiltonian(epsilon=1.0),
        [LindbladChannel.pure_dephasing(delta)],
        10.0,
        1e-3,
    )
    slope = np.polyfit(series.times, np.log(np.abs(series.rho01)), 1)[0]
    fitted_rate = -slope
    t2 = 1.0 / fitted_rate
    ok = abs(fitted_rate - 0.5) <= 0.005 * 0.5 and abs(t2 - dephasing_time(delta)) <= 0.01
    report(2, "T2 recovery", ok, f"fitted decay rate {fitted_rate:.6f}, T2 {t2:.6f}")


def test_criterion_3_ramsey_frequency():
    cfg = RamseyConfig(delta_split=1.0, tau_max=16.0 * np.pi, n_points=512)
    freq = fringe_frequency(ramsey_scan(cfg))
    ok = abs(freq - 1.0) <= 0.01
    report(3, "Ramsey fringe frequency", ok, f"extracted {freq:.6f} for splitting 1.0")


def test_criterion_4_ramsey_checkpoints():
    cfg = RamseyConfig(delta_split=1.0, tau_max=10.0, n_points=16)
    full_revolution = ramsey_population(cfg, 2.0 * np.pi)
    half_revolution = ramsey_population(cfg, np.pi)
    err = max(abs(full_revolution - 1.0), abs(half_revolution))
    ok = err < 1e-12
    report(4, "Ramsey checkpoints", ok,
           f"P_e(2pi) = {full_revolution!r}, P_e(pi) = {half_revolution!r}")


def test_criterion_5_superdense_coding():
    encoded = [superdense_encode(m).amplitudes for m in MESSAGES]
    gram_err = max(
        abs(np.vdot(encoded[i], encoded[j]))
        for i in range(4)
        for j in range(4)
        if i != j
    )

    decode_err = 0.0
    for m in MESSAGES:
        decoded, probs = superdense_decode(density_from_ket(superdense_encode(m)))
        assert decoded == m
        decode_err = max(decode_err, abs(probs[MESSAGES.index(m)] - 1.0))

    # Brute-force oracle over the raw 4x4 algebra, independent of the
    # library decode path: damp the sender-side coherences elementwise and
    # project onto literal basis vectors.
    bell = [
        np.array([1, 0, 0, 1]) / np.sqrt(2),
        np.array([1, 0, 0, -1]) / np.sqrt(2),
        np.array([0, 1, 1, 0]) / np.sqrt(2),
        np.array([0, 1, -1, 0]) / np.sqrt(2),
    ]
    first_bit = np.arange(4) >> 1
    mask = np.where(first_bit[:, None] == first_bit[None, :], 1.0, 0.5)
    damped_err = 0.0
    for idx, m in enumerate(MESSAGES):
        raw = np.outer(encoded[idx], encoded[idx].conj()) * mask
        oracle = np.array([np.real(np.vdot(b, raw @ b)) for b in bell])
        damped = damp_first_qubit_coherence(density_from_ket(superdense_encode(m)), 0.5)
        _, probs = superdense_decode(damped)
        damped_err = max(damped_err, np.max(np.abs(probs - oracle)))
        damped_err = max(damped_err, abs(probs[idx] - 0.75))

    ok = gram_err < 1e-12 and decode_err <= 1e-12 and damped_err <= 1e-9
    report(5, "superdense coding", ok,
           f"gram {gram_err:.2e}, noiseless {decode_err:.2e}, damped-vs-oracle {damped_err:.2e}")


def test_criterion_6_interference_consistency():
    geom = SlitGeometry(k=2.0 * np.pi, slit_spacing=0.01, screen_distance=1.0)
    x = np.linspace(-250.0, 250.0, 1000)
    balanced = PhotonState(a=INV_SQRT2, b=INV_SQRT2)
    quantum = quantum_intensity(balanced, geom.phase_difference(x))
    classical = classical_intensity(geom, x)
    ratio = quantum_intensity(balanced, 0.0) / classical_intensity(geom, 0.0)
    proportionality_err = np.max(np.abs(quantum - ratio * classical))

    flat = quantum_intensity(PhotonState(a=1.0, b=0.0), geom.phase_difference(x))
    flat_err = np.max(np.abs(flat - 1.0))

    # A pi phase moves the maxima onto the former dark fringes.
    shifted = PhotonState(a=INV_SQRT2, b=INV_SQRT2, phi=np.pi)
    half_period = np.pi * geom.screen_distance / (geom.k * geom.slit_spacing)
    shift_err = max(
        abs(quantum_intensity(shifted, geom.phase_difference(half_period)) - 2.0),
        abs(quantum_intensity(shifted, geom.phase_difference(0.0))),
    )

    ok = proportionality_err < 1e-12 and flat_err == 0.0 and shift_err < 1e-12
    report(6, "interference consistency", ok,
           f"proportionality {proportionality_err:.2e}, flat {flat_err:.2e}, shift {shift_err:.2e}")


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(7777)

    # Randomized trajectories, measured on the raw integrator output. Its rows
    # hold Hermitian samples alone, so hermiticity is measured on the step
    # map: the imaginary residue that the real integrator drops.
    trace_err = herm_err = 0.0
    eig_min = np.inf
    for _ in range(30):
        rho0, epsilon, delta = dephasing_draw(rng)
        h = QubitHamiltonian(epsilon=epsilon)
        channels = (LindbladChannel.pure_dephasing(delta),)
        evolve_lindblad(rho0, h, channels, 5.0, 1e-3)  # monitor must stay quiet
        traj = _integrate_static(rho0.matrix, h, channels, 1e-3, 5000)
        p_g, re01, im01, p_e = traj.T
        trace_err = max(trace_err, np.max(np.abs(p_g + p_e - 1.0)))
        gen = _superoperator(hamiltonian_at(h, 0.0), channels)
        step = _TO_REAL @ _rk4_step_map(gen, gen, gen, 1e-3) @ _FROM_REAL
        herm_err = max(herm_err, np.max(np.abs(step.imag)))
        lam = 0.5 * (p_g + p_e) - np.sqrt(0.25 * (p_g - p_e) ** 2 + re01**2 + im01**2)
        eig_min = min(eig_min, float(np.min(lam)))

    # Partial-trace and tensor-product property suites on random states.
    def random_density4(rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        return DensityMatrix(rho / np.trace(rho))

    product_err = reduce_trace_err = 0.0
    for _ in range(1000):
        rho_s = random_density(rng)
        rho_env = random_density(rng)
        recovered = partial_trace_env(tensor(rho_s, rho_env))
        product_err = max(product_err, np.max(np.abs(recovered.matrix - rho_s.matrix)))
        reduced = partial_trace_env(random_density4(rng))
        reduce_trace_err = max(
            reduce_trace_err, abs(np.trace(reduced.matrix) - 1.0)
        )

    ok = (
        trace_err < 1e-9
        and herm_err < 1e-9
        and eig_min > -1e-8
        and product_err < 1e-12
        and reduce_trace_err < 1e-12
    )
    report(7, "structural invariants", ok,
           f"trace {trace_err:.2e}, herm {herm_err:.2e}, min eig {eig_min:.2e}, "
           f"product {product_err:.2e}, reduced trace {reduce_trace_err:.2e}")


def test_criterion_8_figure_of_merit():
    # Picosecond-scale control against nanosecond-scale decoherence.
    anchor = figure_of_merit(1e-3, 1.0)
    anchor_ok = anchor == pytest.approx(1e-3, rel=1e-12)

    omega = 1.0
    contrasts = []
    for ratio in np.logspace(-4.0, 0.0, 9):
        series = rabi_with_dephasing(
            omega=omega, delta=ratio * omega, epsilon=1.0,
            t_max=2.0 * np.pi / omega, dt=0.005,
        )
        contrasts.append(float(series.p_e.max() - series.p_e.min()))
    monotone = all(a > b for a, b in zip(contrasts, contrasts[1:]))

    ok = anchor_ok and monotone
    report(8, "figure of merit", ok,
           f"anchor {anchor:.4e}, contrast {contrasts[0]:.4f} -> {contrasts[-1]:.4f} "
           f"monotone={monotone}")


def test_criterion_9_integrator_order():
    rho0 = density_from_ket(Ket([INV_SQRT2, INV_SQRT2]))
    epsilon, delta = 1.8, 0.5
    h = QubitHamiltonian(epsilon=epsilon)
    channel = LindbladChannel.pure_dephasing(delta)

    def oracle_error(dt):
        series = evolve_lindblad(rho0, h, [channel], 5.0, dt)
        factor = np.exp(-2.0 * delta * series.times) * np.exp(-1j * epsilon * series.times)
        return float(np.max(np.abs(series.rho01 - rho0.matrix[0, 1] * factor)))

    coarse = oracle_error(0.05)
    fine = oracle_error(0.025)
    ratio = coarse / fine
    ok = ratio >= 12.0
    report(9, "integrator order", ok,
           f"error {coarse:.3e} -> {fine:.3e}, ratio {ratio:.1f}")
