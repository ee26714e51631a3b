"""Ray-optics model of an unbalanced Michelson time-bin analyzer.

Closed-form expressions for the angle-dependent path difference, the
lateral offset between the two output rays, the output fringe
visibility, the interferometer phase, and the ABCD ray-transfer matrix
of the relay-lens system that symmetrizes the two arms.  The phase
sensitivity to the angle of incidence has no closed form here: callers
take it as a central difference of :func:`path_difference`.

Width convention: ``sigma`` in :class:`InterferometerGeometry` is the
width parameter of the fringe formulas, where the incoming beam envelope
is E(r) = a*exp(-r^2/sigma^2).  Numerically this sigma equals the 1/e^2
intensity radius of the beam, which is twice the standard deviation of
the intensity profile (the convention used by :mod:`waveoptics` fields).
Use :func:`sigma_from_intensity_std` / :func:`intensity_std_from_sigma`
to convert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import finite_in

ALPHA_LIMIT = math.pi / 4


class AngleDomainError(ValueError):
    """Angle of incidence outside the validity domain of the ray model."""


@dataclass(frozen=True)
class InterferometerGeometry:
    """Parameters of the unbalanced Michelson analyzer.

    delta_l0: path difference 2*(L1 - L2) at normal incidence [m]
    sigma: Gaussian beam width parameter of the fringe formulas [m]
    v0: system visibility at zero angle, in [0, 1]
    wavelength: optical wavelength [m]
    focal_length: focal length of the relay lenses [m]
    """

    delta_l0: float
    sigma: float
    v0: float
    wavelength: float
    focal_length: float

    def __post_init__(self):
        for name in ("delta_l0", "sigma", "wavelength", "focal_length"):
            finite_in(name, getattr(self, name), 0, open_lo=True)
        finite_in("v0", self.v0, 0, 1)


class PhaseResult(NamedTuple):
    unwrapped: float
    wrapped: float


def sigma_from_intensity_std(intensity_std):
    """Fringe-formula sigma (1/e^2 intensity radius) from the intensity std."""
    return 2.0 * np.asarray(intensity_std, dtype=float)


def intensity_std_from_sigma(sigma):
    """Intensity standard deviation from the fringe-formula sigma."""
    return 0.5 * np.asarray(sigma, dtype=float)


def _check_alpha(alpha):
    alpha = np.asarray(alpha, dtype=float)
    bad = ~(np.abs(alpha) < ALPHA_LIMIT)
    if bad.any():
        raise AngleDomainError(
            f"|alpha| must be < pi/4 rad for the ray model, got {alpha[bad][0]}"
        )
    return alpha


def lateral_offset(geom: InterferometerGeometry, alpha):
    """Lateral offset between the short-arm and long-arm output rays [m].

    delta(alpha) = delta_l0 * tan(alpha) / (1 + tan(alpha)).
    """
    alpha = _check_alpha(alpha)
    t = np.tan(alpha)
    return geom.delta_l0 * t / (1.0 + t)


def path_difference(geom: InterferometerGeometry, alpha):
    """Angle-dependent optical path difference between the two arms [m]."""
    alpha = _check_alpha(alpha)
    t = np.tan(alpha)
    c, s = np.cos(alpha), np.sin(alpha)
    bracket = 1.0 / c + (1.0 - t) / (c + s)
    delta = geom.delta_l0 * t / (1.0 + t)
    return 0.5 * geom.delta_l0 * bracket + delta * np.tan(alpha - math.pi / 4)


def visibility(geom: InterferometerGeometry, alpha):
    """Angle-dependent fringe visibility V(alpha), in [0, 1].

    V(alpha) = v0 * exp(-(delta_l0 tan(alpha) / (sqrt(2) sigma (1+tan(alpha))))^2)
    """
    return geom.v0 * _envelope(geom, alpha)


def _envelope(geom: InterferometerGeometry, alpha):
    """The visibility over v0, exp(-arg^2), for every v0 including 0."""
    alpha = _check_alpha(alpha)
    t = np.tan(alpha)
    # An offset that dwarfs sigma sends arg, or its square, past the float
    # range: the envelope's limit there is 0, which exp(-inf) gives.
    with np.errstate(over="ignore", divide="ignore"):
        arg = geom.delta_l0 * t / (math.sqrt(2.0) * geom.sigma * (1.0 + t))
        return np.exp(-(arg**2))


def phase(geom: InterferometerGeometry, alpha) -> PhaseResult:
    """Interferometer phase 2*pi*path_difference/wavelength at ``alpha``.

    Returns the unwrapped phase together with its wrapped value in
    (-pi, pi].  Only phase differences are physically meaningful; the
    wrapped value is convenient for fringe prediction.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u = 2.0 * math.pi * path_difference(geom, alpha) / geom.wavelength
    if not np.isfinite(u).all():
        raise ValueError(
            f"delta_l0 and wavelength must be such that the phase stays finite, "
            f"got delta_l0 {geom.delta_l0} m and wavelength {geom.wavelength} m"
        )
    w = math.pi - np.mod(math.pi - u, 2.0 * math.pi)
    if np.ndim(u) == 0:
        return PhaseResult(float(u), float(w))
    return PhaseResult(u, w)


def free_space(d):
    """ABCD matrix of free-space propagation over distance d."""
    return np.array([[1.0, float(d)], [0.0, 1.0]])


def thin_lens(f):
    """ABCD matrix of a thin lens with focal length f."""
    finite_in("f", f)
    if f == 0:
        raise ValueError(f"f must be nonzero, got {f}")
    return np.array([[1.0, 0.0], [-1.0 / float(f), 1.0]])


def relay_single_pass(focal_length):
    """One pass through the relay: FS(f) L(f) FS(2f) L(f) FS(f).

    The element sequence is palindromic, so the matrix product reads the
    same in optical order and in printed order.  A single pass equals
    minus the identity; the round trip (squared) is the identity.
    """
    f = float(finite_in("focal_length", focal_length, 0, open_lo=True))
    if not math.isfinite(2 * f) or not math.isfinite(1 / f):
        raise ValueError(
            f"focal_length must be such that 2f and 1/f are finite, got {f}"
        )
    m = free_space(f) @ thin_lens(f) @ free_space(2 * f) @ thin_lens(f) @ free_space(f)
    return m


def relay_matrix(focal_length):
    """Round-trip ABCD matrix of the relay system; equals the identity."""
    m = relay_single_pass(focal_length)
    return m @ m
