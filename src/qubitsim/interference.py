"""Double-slit screen intensities: classical two-beam and single-photon forms.

Intensities are dimensionless, normalized so a single beam or path gives 1.
The far-field phase difference between the two paths at screen position x is
u = k*L*x/R0, so the two-beam pattern is 2*(1 + cos u) = 4*cos^2(u/2) with
fringe period 2*pi*R0/(k*L) in x.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InvalidStateError, _check_domain
from .qstate import NORM_ATOL


@dataclass(frozen=True)
class SlitGeometry:
    """Far-field double-slit arrangement.

    k is the wavenumber (rad per length), slit_spacing the separation of the
    slits, screen_distance the slit-to-screen distance. The small-angle
    mapping requires slit_spacing much smaller than screen_distance,
    enforced as a ratio below 0.1.
    """

    k: float
    slit_spacing: float
    screen_distance: float

    def __post_init__(self):
        for label, value in (("wavenumber", self.k), ("slit spacing", self.slit_spacing),
                             ("screen distance", self.screen_distance)):
            _check_domain(value, label, "finite and positive", GeometryError)
        if self.slit_spacing / self.screen_distance >= 0.1:
            raise GeometryError(
                "far-field approximation requires slit_spacing / screen_distance < 0.1, "
                f"got {self.slit_spacing / self.screen_distance}"
            )

    def phase_difference(self, x):
        """Path phase difference u = k * L * x / R0 at screen position x."""
        return self.k * self.slit_spacing / self.screen_distance * x


@dataclass(frozen=True)
class PhotonState:
    """Single photon split over the two paths: real amplitudes a, b and a relative phase."""

    a: float
    b: float
    phi: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0 and 0.0 <= self.b <= 1.0):
            raise InvalidStateError(f"amplitudes must lie in [0, 1], got a={self.a}, b={self.b}")
        norm_sq = self.a**2 + self.b**2
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise InvalidStateError(f"path amplitudes are not normalized: a^2 + b^2 = {norm_sq!r}")
        _check_domain(self.phi, "relative phase", error=InvalidStateError)


def classical_intensity(geom: SlitGeometry, x):
    """Two-beam intensity 2*(1 + cos(k*L*x/R0)); maximum 4 at the central fringe."""
    return 2.0 * (1.0 + np.cos(geom.phase_difference(x)))


def quantum_intensity(state: PhotonState, u):
    """Single-photon intensity 1 + 2ab*cos(u - phi) at path phase difference u.

    For a = b = 1/sqrt(2) and phi = 0 this is proportional to the classical
    two-beam pattern; if either amplitude vanishes the profile is flat.
    """
    return 1.0 + 2.0 * state.a * state.b * np.cos(u - state.phi)


def fringe_visibility(state: PhotonState) -> float:
    """Pattern contrast (I_max - I_min) / (I_max + I_min) = 2ab, in [0, 1]."""
    return 2.0 * state.a * state.b
