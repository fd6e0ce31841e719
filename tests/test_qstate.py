"""Tests for the one- and two-qubit state algebra."""

import re

import numpy as np
import pytest

from qubitsim import (
    BlochAngles,
    DensityMatrix,
    DimensionError,
    InvalidOverlapError,
    InvalidStateError,
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
from qubitsim.qstate import _min_eigenvalue_rows

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_ket(rng, dim=2):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(amps / np.linalg.norm(amps))


def random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


class TestKetValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            Ket([1.0, 1.0])

    def test_rejects_odd_length(self):
        with pytest.raises(DimensionError):
            Ket([1.0, 0.0, 0.0])

    def test_rejects_three_qubits(self):
        amps = np.zeros(8)
        amps[0] = 1.0
        with pytest.raises(DimensionError):
            Ket(amps)

    def test_rejects_nan(self):
        with pytest.raises(InvalidStateError):
            Ket([np.nan, 0.0])

    def test_rejects_a_matrix(self):
        with pytest.raises(DimensionError) as excinfo:
            Ket([[1, 0], [0, 0]])
        assert str(excinfo.value) == "ket amplitudes must form a vector, got shape (2, 2)"

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (4, 1), (1, 4), (1, 1, 4)])
    def test_column_and_row_vectors_build_the_flat_ket(self, shape):
        amps = np.zeros(shape)
        amps.flat[-1] = 1.0
        psi = Ket(amps)
        assert psi.dim == amps.size
        assert psi.amplitudes.tobytes() == Ket(amps.reshape(-1)).amplitudes.tobytes()

    def test_amplitudes_read_only(self):
        psi = Ket([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix([[0.6, 0.0], [0.0, 0.6]])

    def test_rejects_negative_eigenvalue(self):
        # Hermitian with unit trace but eigenvalues 1.5 and -0.5.
        with pytest.raises(InvalidStateError):
            DensityMatrix([[0.5, 1.0], [1.0, 0.5]])

    @pytest.mark.parametrize("elements", [np.zeros((2, 4)), [0.5, 0.5], np.zeros((2, 2, 2))],
                             ids=["2x4", "vector", "3-axis"])
    def test_rejects_non_square(self, elements):
        with pytest.raises(DimensionError, match="^density matrix must be square, got shape"):
            DensityMatrix(elements)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.eye(3) / 3.0)

    def test_accepts_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        assert rho.n_qubits == 2


class TestBlochAngles:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            BlochAngles(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochAngles(0.5, 2.0 * np.pi)

    def test_north_pole(self):
        psi = ket_from_bloch(BlochAngles(0.0, 1.0))
        assert np.allclose(psi.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_south_pole(self):
        psi = ket_from_bloch(BlochAngles(np.pi, 0.0))
        assert np.allclose(psi.amplitudes, [0.0, 1.0], atol=1e-15)

    def test_equator_with_phase(self):
        psi = ket_from_bloch(BlochAngles(np.pi / 2, np.pi / 2))
        assert np.allclose(psi.amplitudes, [INV_SQRT2, 1j * INV_SQRT2], atol=1e-15)

    def test_inverse_ground(self):
        assert bloch_from_ket(Ket([1.0, 0.0])) == BlochAngles(0.0, 0.0)

    def test_inverse_equator(self):
        angles = bloch_from_ket(Ket([INV_SQRT2, INV_SQRT2]))
        assert angles.theta == pytest.approx(np.pi / 2, abs=1e-12)
        assert angles.phi == pytest.approx(0.0, abs=1e-12)

    def test_inverse_negative_phase(self):
        # cos(theta/2) = 1/sqrt(2) fixes theta = pi/2; the amplitude ratio
        # carries arg(-i) = -pi/2, reported as 3*pi/2 in [0, 2*pi).
        angles = bloch_from_ket(Ket([INV_SQRT2, -1j * INV_SQRT2]))
        assert angles.theta == pytest.approx(np.pi / 2, abs=1e-12)
        assert angles.phi == pytest.approx(3.0 * np.pi / 2, abs=1e-12)

    def test_requires_single_qubit(self):
        with pytest.raises(DimensionError):
            bloch_from_ket(Ket([1.0, 0.0, 0.0, 0.0]))

    def test_round_trip_random_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi = rng.uniform(0.0, 2.0 * np.pi - 1e-6)
            back = bloch_from_ket(ket_from_bloch(BlochAngles(theta, phi)))
            assert back.theta == pytest.approx(theta, abs=1e-9)
            assert back.phi == pytest.approx(phi, abs=1e-9)

    def test_round_trip_global_phase(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            psi = random_ket(rng)
            back = ket_from_bloch(bloch_from_ket(psi))
            overlap = abs(np.vdot(back.amplitudes, psi.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-10)


class TestDensityFromKet:
    def test_ground_projector(self):
        rho = density_from_ket(Ket([1.0, 0.0]))
        assert np.allclose(rho.matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_equal_superposition(self):
        rho = density_from_ket(Ket([INV_SQRT2, INV_SQRT2]))
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_bell_corners(self):
        rho = density_from_ket(Ket([INV_SQRT2, 0.0, 0.0, INV_SQRT2]))
        expected = np.zeros((4, 4))
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 0.5
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_pure_states_have_unit_purity(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4):
            for _ in range(100):
                rho = density_from_ket(random_ket(rng, dim))
                assert purity(rho) == pytest.approx(1.0, abs=1e-10)


class TestPopulationsAndCoherence:
    def test_populations_ground(self):
        assert np.allclose(populations(DensityMatrix([[1, 0], [0, 0]])), [1.0, 0.0])

    def test_populations_equal_superposition(self):
        rho = density_from_ket(Ket([INV_SQRT2, INV_SQRT2]))
        assert np.allclose(populations(rho), [0.5, 0.5])

    def test_populations_read_off_diagonal(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert np.allclose(populations(rho), [0.3, 0.7])

    def test_populations_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pops = populations(random_density(rng, 4))
            assert pops.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(pops >= -1e-9)

    def test_coherence_equal_superposition(self):
        rho = density_from_ket(Ket([INV_SQRT2, INV_SQRT2]))
        assert coherence(rho, 0, 1) == pytest.approx(0.5)

    def test_coherence_ground(self):
        assert coherence(DensityMatrix([[1, 0], [0, 0]]), 0, 1) == 0.0

    def test_coherence_carries_phase(self):
        # a * conj(b) = (1/2) e^{-i pi/4} for b = e^{i pi/4}/sqrt(2).
        rho = density_from_ket(Ket([INV_SQRT2, np.exp(1j * np.pi / 4) * INV_SQRT2]))
        assert coherence(rho, 0, 1) == pytest.approx(0.5 * np.exp(-1j * np.pi / 4))

    def test_coherence_rejects_diagonal(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(IndexError):
            coherence(rho, 1, 1)

    def test_coherence_rejects_out_of_range(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(IndexError):
            coherence(rho, 0, 2)


class TestTensor:
    def test_ground_with_env_zero(self):
        out = tensor(Ket([1.0, 0.0]), Ket([1.0, 0.0]))
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_excited_with_env_one(self):
        out = tensor(Ket([0.0, 1.0]), Ket([0.0, 1.0]))
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    def test_superposition_with_env_zero(self):
        out = tensor(Ket([INV_SQRT2, INV_SQRT2]), Ket([1.0, 0.0]))
        assert np.allclose(out.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0])

    def test_density_matrices(self):
        rho = tensor(DensityMatrix([[1, 0], [0, 0]]), DensityMatrix(np.eye(2) / 2))
        assert np.allclose(rho.matrix, np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_rejects_two_qubit_factor(self):
        bell = Ket([INV_SQRT2, 0.0, 0.0, INV_SQRT2])
        with pytest.raises(DimensionError):
            tensor(bell, Ket([1.0, 0.0]))

    def test_rejects_mixed_kinds(self):
        with pytest.raises(TypeError):
            tensor(Ket([1.0, 0.0]), DensityMatrix([[1, 0], [0, 0]]))

    def test_two_kets_exactly(self):
        out = tensor(Ket([0.6, 0.8j]), Ket([INV_SQRT2, -INV_SQRT2]))
        assert type(out) is Ket
        assert np.array_equal(out.amplitudes, np.kron([0.6, 0.8j], [INV_SQRT2, -INV_SQRT2]))

    def test_two_density_matrices_exactly(self):
        a = [[0.75, 0.25j], [-0.25j, 0.25]]
        b = [[0.5, 0.5], [0.5, 0.5]]
        out = tensor(DensityMatrix(a), DensityMatrix(b))
        assert type(out) is DensityMatrix
        assert np.array_equal(out.matrix, np.kron(np.array(a, dtype=complex), b))

    def test_rejects_two_qubit_density_factor(self):
        with pytest.raises(DimensionError, match=r"^tensor supports single-qubit factors only "
                                                 r"\(result capped at dim 4\)$"):
            tensor(DensityMatrix(np.eye(4) / 4), DensityMatrix(np.eye(2) / 2))

    def test_rejects_plain_arrays_with_message(self):
        with pytest.raises(TypeError) as excinfo:
            tensor(np.eye(2), np.eye(2))
        assert str(excinfo.value) == "tensor expects two Kets or two DensityMatrix operands"


class TestStateMembers:
    """repr, dim and n_qubits of both state types."""

    @pytest.mark.parametrize("state, text, dim, n_qubits", [
        (Ket([1.0, 0.0]), "Ket([1.+0.j, 0.+0.j])", 2, 1),
        (Ket([0.6, 0.8j]), "Ket([0.6+0.j , 0. +0.8j])", 2, 1),
        (Ket([INV_SQRT2, 0.0, 0.0, INV_SQRT2]),
         "Ket([0.70710678+0.j, 0.        +0.j, 0.        +0.j, 0.70710678+0.j])", 4, 2),
        (DensityMatrix([[0.75, 0.25j], [-0.25j, 0.25]]),
         "DensityMatrix([[ 0.75+0.j  ,  0.  +0.25j],\n [-0.  -0.25j,  0.25+0.j  ]])", 2, 1),
        (DensityMatrix(np.eye(4) / 4),
         "DensityMatrix([[0.25+0.j, 0.  +0.j, 0.  +0.j, 0.  +0.j],\n"
         " [0.  +0.j, 0.25+0.j, 0.  +0.j, 0.  +0.j],\n"
         " [0.  +0.j, 0.  +0.j, 0.25+0.j, 0.  +0.j],\n"
         " [0.  +0.j, 0.  +0.j, 0.  +0.j, 0.25+0.j]])", 4, 2),
    ])
    def test_repr_dim_and_qubits(self, state, text, dim, n_qubits):
        assert repr(state) == text
        assert state.dim == dim
        assert state.n_qubits == n_qubits


class TestPartialTrace:
    def test_branch_state_loses_coherence(self):
        c_g0, c_e1 = np.sqrt(0.3), np.sqrt(0.7)
        psi = Ket([c_g0, 0.0, 0.0, c_e1])
        reduced = partial_trace_env(density_from_ket(psi))
        assert np.allclose(reduced.matrix, np.diag([0.3, 0.7]), atol=1e-12)

    def test_product_state_recovers_system(self):
        psi = Ket([0.6, 0.8j])
        joint = tensor(psi, Ket([1.0, 0.0]))
        reduced = partial_trace_env(density_from_ket(joint))
        assert np.allclose(reduced.matrix, density_from_ket(psi).matrix, atol=1e-12)

    def test_bell_state_maximally_mixed(self):
        rho = density_from_ket(Ket([INV_SQRT2, 0.0, 0.0, INV_SQRT2]))
        reduced = partial_trace_env(rho)
        assert np.allclose(reduced.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            rho = random_density(rng, 4)
            reduced = partial_trace_env(rho)
            assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_product_property_random(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            rho_s = random_density(rng, 2)
            rho_env = random_density(rng, 2)
            reduced = partial_trace_env(tensor(rho_s, rho_env))
            assert np.max(np.abs(reduced.matrix - rho_s.matrix)) < 1e-12

    def test_rejects_single_qubit(self):
        with pytest.raises(DimensionError):
            partial_trace_env(DensityMatrix(np.eye(2) / 2.0))

    def test_rejects_invalid_array(self):
        bad = np.eye(4)  # trace 4
        with pytest.raises(InvalidStateError):
            partial_trace_env(bad)


class TestReducedWithOverlap:
    def test_orthogonal_environment_kills_coherence(self):
        rho = reduced_with_overlap(np.sqrt(0.3), np.sqrt(0.7), 0.0)
        assert np.allclose(rho.matrix, np.diag([0.3, 0.7]), atol=1e-15)

    def test_identical_environment_keeps_purity(self):
        rho = reduced_with_overlap(INV_SQRT2, INV_SQRT2, 1.0)
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap(self):
        rho = reduced_with_overlap(INV_SQRT2, INV_SQRT2, 0.5)
        assert rho.matrix[0, 1] == pytest.approx(0.25)
        assert rho.matrix[1, 0] == pytest.approx(0.25)

    def test_complex_overlap_conjugation(self):
        s = 0.3 + 0.4j
        rho = reduced_with_overlap(INV_SQRT2, INV_SQRT2, s)
        assert rho.matrix[1, 0] == pytest.approx(0.5 * s)
        assert rho.matrix[0, 1] == pytest.approx(0.5 * np.conj(s))

    def test_matches_explicit_partial_trace_at_zero_overlap(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            c_g0, c_e1 = raw / np.linalg.norm(raw)
            joint = Ket([c_g0, 0.0, 0.0, c_e1])
            via_trace = partial_trace_env(density_from_ket(joint))
            via_overlap = reduced_with_overlap(c_g0, c_e1, 0.0)
            assert np.max(np.abs(via_trace.matrix - via_overlap.matrix)) < 1e-12

    def test_rejects_overlap_above_one(self):
        with pytest.raises(InvalidOverlapError):
            reduced_with_overlap(INV_SQRT2, INV_SQRT2, 1.0 + 1e-6)

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(InvalidStateError):
            reduced_with_overlap(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("c_g0, c_e1", [(np.nan, INV_SQRT2), (INV_SQRT2, complex(0, np.nan))])
    def test_nan_amplitude_is_named(self, c_g0, c_e1):
        with pytest.raises(InvalidStateError, match="^branch amplitudes are not normalized"):
            reduced_with_overlap(c_g0, c_e1, 0.5)

    @pytest.mark.parametrize("c_g0, c_e1", [(1e200, 0.0), (0.0, 1e200)])
    def test_overflowing_amplitude_is_named(self, c_g0, c_e1):
        message = "branch amplitudes are not normalized: |c_g0|^2 + |c_e1|^2 = inf"
        with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
            reduced_with_overlap(c_g0, c_e1, 0.5)

    @pytest.mark.parametrize("overlap", [np.nan, complex(0.5, np.nan)])
    def test_nan_overlap_is_named(self, overlap):
        with pytest.raises(InvalidOverlapError, match="^environment overlap magnitude nan"):
            reduced_with_overlap(INV_SQRT2, INV_SQRT2, overlap)


class TestPurity:
    def test_pure_superposition(self):
        rho = density_from_ket(Ket([INV_SQRT2, INV_SQRT2]))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert purity(DensityMatrix(np.eye(2) / 2.0)) == pytest.approx(0.5)

    def test_diagonal_mixture(self):
        # 0.3^2 + 0.7^2
        assert purity(DensityMatrix(np.diag([0.3, 0.7]))) == pytest.approx(0.58)

    def test_bounds_random(self):
        rng = np.random.default_rng(41)
        for dim in (2, 4):
            for _ in range(100):
                p = purity(random_density(rng, dim))
                assert 1.0 / dim - 1e-9 <= p <= 1.0 + 1e-9


class TestMinEigenvalue:
    def test_closed_form_matches_solver(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            herm = a + a.conj().T
            assert min_eigenvalue(herm) == pytest.approx(
                np.linalg.eigvalsh(herm)[0], abs=1e-10
            )

    def test_stacked_closed_form_matches_solver(self):
        rng = np.random.default_rng(52)
        a = rng.normal(size=(3, 50, 2, 2)) + 1j * rng.normal(size=(3, 50, 2, 2))
        herm = a + np.conj(np.swapaxes(a, -1, -2))
        rows = np.stack([herm[..., 0, 0].real, herm[..., 0, 1].real, herm[..., 0, 1].imag,
                         herm[..., 1, 1].real], axis=-1)
        lam = _min_eigenvalue_rows(rows.reshape(-1, 4)).reshape(3, 50)
        assert np.allclose(lam, np.linalg.eigvalsh(herm)[..., 0], atol=1e-10)
        assert lam[1, 7] == min_eigenvalue(herm[1, 7])

    @pytest.mark.parametrize("coherence, dtype", [
        (1e308, float), (1e308, complex), (-1e308, complex), (1e308j, complex),
    ])
    def test_overflowing_coherence_gives_minus_infinity(self, coherence, dtype):
        # Hermitized as a complex number, a real coherence would be inf + nan j
        # and the root NaN, which no "below the floor" test rejects.
        m = np.array([[0.5, coherence], [np.conj(coherence), 0.5]], dtype=dtype)
        with np.errstate(all="ignore"):
            assert min_eigenvalue(m) == -np.inf


# A miss of a third of a tolerance is accepted and one of three times it is
# rejected. The tolerances are written out, not imported, so that a changed
# value in the qstate table fails here.
@pytest.mark.parametrize("scale, within", [(1 / 3, True), (3.0, False)])
@pytest.mark.parametrize("tolerance, build, error, message", [
    (1e-12, lambda m: Ket([np.sqrt(1.0 + m), 0.0]), InvalidStateError, "ket is not normalized"),
    (1e-12, lambda m: DensityMatrix([[0.5 + m, 0.0], [0.0, 0.5]]), InvalidStateError,
     "density matrix trace"),
    (1e-12, lambda m: DensityMatrix([[0.5, 0.5 + m], [0.5, 0.5]]), InvalidStateError,
     "density matrix is not Hermitian"),
    (1e-9, lambda m: DensityMatrix([[1.0 + m, 0.0], [0.0, -m]]), InvalidStateError,
     "density matrix is not positive semidefinite"),
    (1e-12, lambda m: reduced_with_overlap(np.sqrt(1.0 + m), 0.0, 0.0), InvalidStateError,
     "branch amplitudes are not normalized"),
    (1e-12, lambda m: reduced_with_overlap(INV_SQRT2, INV_SQRT2, 1.0 + m), InvalidOverlapError,
     "environment overlap magnitude"),
], ids=["ket-norm", "density-trace", "density-hermiticity", "density-eigenvalue",
        "branch-norm", "overlap-magnitude"])
def test_state_tolerance_edges(tolerance, build, error, message, scale, within):
    if within:
        build(scale * tolerance)
    else:
        with pytest.raises(error, match=f"^{message}"):
            build(scale * tolerance)


@pytest.mark.parametrize("scale, within", [(1 / 3, True), (3.0, False)])
def test_bloch_pole_tolerance_edge(scale, within):
    # An amplitude within 1e-12 of zero puts the ket on a pole, where phi is 0.
    b = scale * 1e-12
    phi = bloch_from_ket(Ket([np.sqrt(1.0 - b * b), 1j * b])).phi
    assert phi == (0.0 if within else pytest.approx(np.pi / 2))


def test_hermiticity_deviation_at_the_tolerance_is_accepted():
    # The deviation |1e-12 - 0| is exactly the tolerance, which the bound includes.
    rho = DensityMatrix([[0.5, 1e-12], [0.0, 0.5]])
    assert rho.matrix[0, 1] == 1e-12


def test_phase_difference_of_a_full_turn_is_reported_as_zero():
    # (angle b - angle a) mod 2 pi rounds to exactly 2 pi here, outside [0, 2 pi).
    psi = Ket([INV_SQRT2, INV_SQRT2 * np.exp(-1e-17j)])
    a, b = psi.amplitudes
    assert (np.angle(b) - np.angle(a)) % (2.0 * np.pi) == 2.0 * np.pi
    assert bloch_from_ket(psi).phi == 0.0
