"""Tests for the double-slit intensity profiles."""

import numpy as np
import pytest

from qubitsim import (
    GeometryError,
    InvalidStateError,
    PhotonState,
    SlitGeometry,
    classical_intensity,
    fringe_visibility,
    quantum_intensity,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
GEOM = SlitGeometry(k=2.0 * np.pi, slit_spacing=0.01, screen_distance=1.0)


class TestGeometryValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0.0, slit_spacing=0.01, screen_distance=1.0),
            dict(k=1.0, slit_spacing=-0.01, screen_distance=1.0),
            dict(k=1.0, slit_spacing=0.01, screen_distance=0.0),
            dict(k=1.0, slit_spacing=0.2, screen_distance=1.0),  # not far-field
        ],
    )
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(GeometryError):
            SlitGeometry(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(k=np.nan, slit_spacing=np.nan, screen_distance=np.nan),
         "wavenumber must be finite and positive, got nan"),
        (dict(k=1.0, slit_spacing=0.0, screen_distance=-1.0),
         "slit spacing must be finite and positive, got 0.0"),
        (dict(k=1.0, slit_spacing=0.01, screen_distance=np.inf),
         "screen distance must be finite and positive, got inf"),
    ])
    def test_names_the_first_bad_length(self, kwargs, message):
        with pytest.raises(GeometryError) as excinfo:
            SlitGeometry(**kwargs)
        assert str(excinfo.value) == message


class TestPhotonStateValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            PhotonState(a=1.0, b=1.0)

    @pytest.mark.parametrize("scale, within", [(1 / 3, True), (3.0, False)])
    def test_norm_tolerance_edge(self, scale, within):
        # a^2 + b^2 misses 1 by scale times 1e-12, written out, not imported,
        # so that a changed value in the qstate table fails here.
        a = np.sqrt(0.36 + scale * 1e-12)
        if within:
            PhotonState(a=a, b=0.8)
        else:
            with pytest.raises(InvalidStateError, match="^path amplitudes are not normalized"):
                PhotonState(a=a, b=0.8)

    def test_rejects_out_of_range_amplitude(self):
        with pytest.raises(InvalidStateError):
            PhotonState(a=1.2, b=0.0)

    def test_rejects_nonfinite_phase(self):
        with pytest.raises(InvalidStateError):
            PhotonState(a=1.0, b=0.0, phi=np.inf)


class TestClassicalIntensity:
    def test_central_maximum(self):
        assert classical_intensity(GEOM, 0.0) == pytest.approx(4.0)

    def test_first_dark_fringe(self):
        # 1 + cos(u) = 0 at u = pi, i.e. x = pi * R0 / (k L).
        x_dark = np.pi * GEOM.screen_distance / (GEOM.k * GEOM.slit_spacing)
        assert classical_intensity(GEOM, x_dark) == pytest.approx(0.0, abs=1e-12)

    def test_fringe_period(self):
        x_period = 2.0 * np.pi * GEOM.screen_distance / (GEOM.k * GEOM.slit_spacing)
        assert classical_intensity(GEOM, x_period) == pytest.approx(4.0)


class TestQuantumIntensity:
    def test_balanced_reproduces_classical_scale(self):
        state = PhotonState(a=INV_SQRT2, b=INV_SQRT2)
        assert quantum_intensity(state, 0.0) == pytest.approx(2.0)

    def test_which_path_is_flat(self):
        state = PhotonState(a=1.0, b=0.0)
        u = np.linspace(-10, 10, 101)
        assert np.allclose(quantum_intensity(state, u), 1.0)

    def test_phase_shifts_pattern(self):
        state = PhotonState(a=INV_SQRT2, b=INV_SQRT2, phi=np.pi)
        assert quantum_intensity(state, np.pi) == pytest.approx(2.0)
        assert quantum_intensity(state, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_proportional_to_classical(self):
        state = PhotonState(a=INV_SQRT2, b=INV_SQRT2)
        x = np.linspace(-250.0, 250.0, 1000)
        quantum = quantum_intensity(state, GEOM.phase_difference(x))
        classical = classical_intensity(GEOM, x)
        ratio = quantum_intensity(state, 0.0) / classical_intensity(GEOM, 0.0)
        assert np.max(np.abs(quantum - ratio * classical)) < 1e-12

    def test_never_negative(self):
        rng = np.random.default_rng(61)
        u = np.linspace(-20, 20, 400)
        for _ in range(50):
            a = rng.uniform(0.0, 1.0)
            state = PhotonState(a=a, b=np.sqrt(1.0 - a * a), phi=rng.uniform(0, 2 * np.pi))
            assert np.all(quantum_intensity(state, u) >= 0.0)

    def test_mean_over_period_is_one(self):
        state = PhotonState(a=0.8, b=0.6, phi=0.3)
        u = np.linspace(0.0, 2.0 * np.pi, 20001)
        mean = np.trapezoid(quantum_intensity(state, u), u) / (2.0 * np.pi)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_phase_shift_translates_pattern_exactly(self):
        # Dyadic values keep the cosine arguments bitwise identical.
        shift = 0.5
        for u in (0.0, 0.25, 0.75, 1.5):
            shifted = quantum_intensity(PhotonState(0.6, 0.8, phi=0.25 + shift), u + shift)
            original = quantum_intensity(PhotonState(0.6, 0.8, phi=0.25), u)
            assert shifted == original


class TestFringeVisibility:
    def test_full_contrast(self):
        assert fringe_visibility(PhotonState(INV_SQRT2, INV_SQRT2)) == pytest.approx(1.0)

    def test_no_superposition(self):
        assert fringe_visibility(PhotonState(1.0, 0.0)) == 0.0

    def test_unbalanced(self):
        # 2 * sqrt(0.9) * sqrt(0.1) = 2 * sqrt(0.09)
        state = PhotonState(np.sqrt(0.9), np.sqrt(0.1))
        assert fringe_visibility(state) == pytest.approx(0.6)

    def test_matches_pattern_extremes(self):
        rng = np.random.default_rng(62)
        u = np.linspace(0.0, 2.0 * np.pi, 100001)
        for _ in range(10):
            a = rng.uniform(0.1, 0.9)
            state = PhotonState(a=a, b=np.sqrt(1.0 - a * a))
            pattern = quantum_intensity(state, u)
            i_max, i_min = pattern.max(), pattern.min()
            observed = (i_max - i_min) / (i_max + i_min)
            assert observed == pytest.approx(fringe_visibility(state), abs=1e-6)
