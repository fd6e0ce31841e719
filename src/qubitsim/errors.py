"""Exception types shared across the package, and the domain rule for scalar arguments."""

import sys

import numpy as np


class QubitSimError(Exception):
    """Base class for every error raised by qubitsim."""


class DimensionError(QubitSimError):
    """State or operator size outside the supported 2x2 / 4x4 range."""


class InvalidStateError(QubitSimError):
    """Vector or matrix violates a state invariant (norm, hermiticity, trace, positivity)."""


class InvalidOverlapError(QubitSimError):
    """Environment-overlap magnitude exceeds 1."""


class GeometryError(QubitSimError):
    """Slit geometry outside its far-field validity range."""


class StepSizeError(QubitSimError):
    """Integration step too coarse for the requested evolution."""


class NumericalInstabilityError(QubitSimError):
    """A trajectory sample breached trace, hermiticity, or positivity bounds."""


class DomainError(QubitSimError):
    """Scalar argument outside the function's domain."""


class SamplingError(QubitSimError):
    """Sampling grid too coarse to resolve the requested oscillation."""


# Each domain, keyed by the text its error message gives, as a test of a finite value.
_DOMAINS = {
    "finite": lambda value: True,
    "finite and positive": lambda value: value > 0,
    "finite and non-negative": lambda value: value >= 0,
}


def _check_domain(value, label, domain="finite", error=DomainError):
    """Return value if it lies in domain, else raise error(f"{label} must be {domain}, got {v}").

    NaN, +-inf and complex numbers lie in no domain, nor does an int past the float
    range; one inside is returned as its float. For an array, v is its first entry outside.
    """
    if isinstance(value, (int, float)):  # Python scalars skip numpy, which refuses big ints
        inside = np.array(abs(value) <= sys.float_info.max and _DOMAINS[domain](value))
    elif np.iscomplexobj(value):  # numpy would order it, and Python would raise TypeError
        inside = np.zeros(np.shape(value), dtype=bool)
    else:
        inside = np.isfinite(value) & _DOMAINS[domain](value)
    if not inside.all():
        bad = value[~inside][0] if np.ndim(value) else value
        raise error(f"{label} must be {domain}, got {bad}")
    return float(value) if isinstance(value, int) else value
