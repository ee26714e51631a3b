"""Hybrid polarization/time-bin states, noise channel, and visibilities.

The reference entangled state pairs horizontal polarization with the
early time bin, (|H,E> + |V,L>)/sqrt(2), and every construction in this
package follows that pairing.  Visibilities are measured on the lossy
analyzer's 2x3 space, v_z with ``measurement.visibility_pairs`` and v_xy
from Alice's I, sigma_x and sigma_y: a 2x2 state is measured through its
embedding ``embed_2x3(rho, 1.0)``, by default under the lossless POVM
``bob_povm(AnalyzerEfficiencies(1, 1))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import finite_in
from .measurement import (
    AnalyzerEfficiencies,
    bob_povm,
    visibility_pairs,
)
from .quantum import (
    DensityMatrix,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    tensor,
)


class ZeroDenominatorError(ValueError):
    """A coincidence denominator vanished: raised by :func:`visibility_z`
    and by the :mod:`~timebin_analyzer.chsh` estimates."""


class FitDegenerateError(ValueError):
    """The phase grid is refused, or the fringe offset is not positive."""


@dataclass(frozen=True)
class DepolarizationParams:
    """Pauli-channel probabilities p_x, p_y, p_z acting on one qubit."""

    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        for name in ("p_x", "p_y", "p_z"):
            finite_in(name, getattr(self, name), 0, 1)
        finite_in("p_x + p_y + p_z", self.p_x + self.p_y + self.p_z, hi=1 + 1e-12)

    @classmethod
    def unbiased(cls, p_xy, p_z):
        """Channel with equal x and y flip probabilities."""
        return cls(p_x=p_xy, p_y=p_xy, p_z=p_z)


class ZVisibilityResult(NamedTuple):
    v_plus: float
    v_minus: float
    v_z: float


class XYVisibilityResult(NamedTuple):
    v_xy: float
    fitted_phase: float


def hybrid_bell_state() -> DensityMatrix:
    """Pure state (|H,E> + |V,L>)/sqrt(2) as a 4x4 density matrix."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0 / math.sqrt(2.0)  # |H,E>
    psi[3] = 1.0 / math.sqrt(2.0)  # |V,L>
    return DensityMatrix(np.outer(psi, psi.conj()), dim_a=2, dim_b=2)


def embed_2x3(rho22: DensityMatrix, arrival_prob: float) -> DensityMatrix:
    """Embed a 2x2-qubit state into 2x3 with a no-photon dimension for Bob.

    The result is block diagonal: with probability ``arrival_prob`` the
    photon arrives and the qubit block carries the input state, otherwise
    Bob holds vacuum and Alice keeps her reduced state.
    """
    finite_in("arrival_prob", arrival_prob, 0, 1)
    if (rho22.dim_a, rho22.dim_b) != (2, 2):
        raise ValueError("embed_2x3 expects a 2x2-qubit input state")
    out = np.zeros((6, 6), dtype=complex)
    # Bob index mapping: qubit {E, L} -> lossy {none, E, L} positions 1, 2.
    v = out.reshape(2, 3, 2, 3)
    v[:, 1:, :, 1:] = arrival_prob * rho22.matrix.reshape(2, 2, 2, 2)
    v[:, 0, :, 0] += (1.0 - arrival_prob) * rho22.alice_marginal()
    return DensityMatrix(out, dim_a=2, dim_b=3)


def depolarize(rho: DensityMatrix, params: DepolarizationParams) -> DensityMatrix:
    """Asymmetric Pauli depolarization of the time-bin (second) qubit.

    rho_out = (1 - sum p_j) rho + sum_j p_j (1 x sigma_j) rho (1 x sigma_j).
    """
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise ValueError("depolarize expects a 2x2-qubit state")
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    probs = (params.p_x, params.p_y, params.p_z)
    out = (1.0 - sum(probs)) * rho.matrix
    for p, sigma in zip(probs, paulis):
        k = tensor(IDENTITY_2, sigma)
        out = out + p * (k @ rho.matrix @ k)
    return DensityMatrix(out, dim_a=2, dim_b=2)


def as_2x3(rho: DensityMatrix) -> DensityMatrix:
    """``rho`` on the analyzer's 2x3 space: a 2x2 state is embedded with
    the photon always arriving, a 2x3 state is returned as it is, and any
    other shape is refused."""
    if (rho.dim_a, rho.dim_b) == (2, 2):
        return embed_2x3(rho, 1.0)
    if (rho.dim_a, rho.dim_b) != (2, 3):
        raise ValueError(f"expected a 2x2 or 2x3 state, got {rho.dim_a}x{rho.dim_b}")
    return rho


_LOSSLESS = AnalyzerEfficiencies(1.0, 1.0)
# Alice's I/2, sigma_x/2 and sigma_y/2: the offset and the two quadratures
# of the equatorial fringe.
_ALICE_EQUATORIAL = 0.5 * np.stack([IDENTITY_2, PAULI_X, PAULI_Y])


def visibility_z(rho: DensityMatrix, bob=None) -> ZVisibilityResult:
    """Conditional visibilities in the computational basis and their average.

    v_plus conditions on Bob's early bin, v_minus on his late bin:
    v_plus = (N_HE - N_VE) / (N_HE + N_VE) and analogously for v_minus
    with the roles of H and V swapped.  ``bob`` is the Bob POVM, lossless
    by default.
    """
    rho = as_2x3(rho)
    plus, minus = visibility_pairs(bob_povm(_LOSSLESS) if bob is None else bob)
    n_plus, n_minus = rho.expectation(np.stack([plus[:2], minus[:2]]))
    denom = n_plus + n_minus
    if np.any(denom <= 0):
        raise ZeroDenominatorError(
            f"coincidence denominators vanished (early {denom[0]}, late {denom[1]})"
        )
    v_plus, v_minus = map(float, (n_plus - n_minus) / denom)
    return ZVisibilityResult(v_plus, v_minus, 0.5 * (v_plus + v_minus))


def visibility_xy(rho: DensityMatrix, phase_grid, bob_x=None) -> XYVisibilityResult:
    """Superposition-basis visibility of the fringe as Alice's phase is scanned.

    With Alice along (cos phi, sin phi, 0), each branch's coincidence rate
    with Bob's middle-bin element is exactly d +- (c cos phi + s sin phi),
    where d, c and s are the expectations of I/2, sigma_x/2 and sigma_y/2
    tensored with ``bob_x``.  So the visibility is hypot(c, s)/d in both
    branches and the fringe phase is atan2(s, c), in (-pi, pi].  The grid
    is only checked: it must be finite and span at least 2*pi with at
    least 8 points, and the result does not depend on it.
    """
    phases = np.asarray(phase_grid, dtype=float)
    # Python floats: inf - inf is NaN without a numpy RuntimeWarning.
    span = float(phases.max()) - float(phases.min()) if phases.size else 0.0
    if phases.size < 8 or not 2.0 * math.pi - 1e-9 <= span < math.inf:
        raise FitDegenerateError(
            "phase_grid must be finite and span at least 2*pi with at least "
            f"8 points, got {phases.size} points spanning {span}"
        )
    rho = as_2x3(rho)
    if bob_x is None:
        bob_x = bob_povm(_LOSSLESS)["X"]
    d, c, s = map(float, rho.expectation(tensor(_ALICE_EQUATORIAL, bob_x)))
    if d <= 0:
        raise FitDegenerateError("fitted offset is not positive")
    phi0 = math.atan2(s, c)
    if phi0 == -math.pi:
        phi0 = math.pi
    return XYVisibilityResult(math.hypot(c, s) / d, phi0)
