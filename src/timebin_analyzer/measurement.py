"""Measurement operators for the polarization and time-bin analyzers.

Alice measures the polarization qubit with ideal projective elements
(I +/- n.sigma)/2 along a Bloch vector n, e.g. H/V along z.  Bob's time-bin
analyzer is lossy and has a single output port, so his measurement is a
POVM on the 3-dimensional space {no photon, E, L}: early-bin, late-bin
and middle-bin (superposition) detection plus a no-click element that
absorbs all losses.

The 1/4 prefactors of the analyzer elements (two balanced splittings)
are kept as printed even though they rescale all coincidence rates
uniformly; visibility ratios are insensitive to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import finite_in
from .quantum import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, min_eigenvalue, tensor


@dataclass(frozen=True)
class AnalyzerEfficiencies:
    """Transmission efficiencies of the analyzer's long and short paths."""

    eta_l: float
    eta_s: float

    def __post_init__(self):
        finite_in("eta_l", self.eta_l, 0, 1)
        finite_in("eta_s", self.eta_s, 0, 1)


def alice_projectors(bloch):
    """Alice's projectors (I + n.sigma)/2, (I - n.sigma)/2 for a unit Bloch
    vector n = ``bloch``, or two (..., 2, 2) stacks for a stack (..., 3).
    A norm off 1 by more than 1e-12, NaN included, is refused."""
    n = np.asarray(bloch, dtype=float)
    if n.shape[-1:] != (3,):
        raise ValueError(f"bloch must have a last axis of 3, got shape {n.shape}")
    x, y, z = (n[..., None, None, k] for k in range(3))
    norm = np.hypot(np.hypot(x, y), z)  # no overflow below the float range
    off = ~(np.abs(norm - 1.0) <= 1e-12)
    if off.any():
        raise ValueError(f"bloch must be unit vectors, got norm {norm[off][0]}")
    sigma = x * PAULI_X + y * PAULI_Y + z * PAULI_Z
    return 0.5 * (IDENTITY_2 + sigma), 0.5 * (IDENTITY_2 - sigma)


def bob_povm(eff: AnalyzerEfficiencies, relative_phase=0.0):
    """Lossy time-bin POVM {E, L, X, none} in the basis {no photon, E, L}.

    The middle-bin element X interferes the early component transmitted
    through the long path with the late component through the short
    path; its early/late relative phase defaults to zero and can be set
    for sensitivity studies.
    """
    finite_in("relative_phase", relative_phase)
    eta_l, eta_s = eff.eta_l, eff.eta_s
    # Two roots: the root of eta_l * eta_s is 0 once the product underflows.
    cross = np.sqrt(eta_l) * np.sqrt(eta_s) * np.exp(1j * relative_phase)
    elements = np.zeros((3, 3, 3), dtype=complex)
    m_e, m_l, m_x = elements
    m_e[1, 1] = m_x[2, 2] = eta_s
    m_l[2, 2] = m_x[1, 1] = eta_l
    m_x[1, 2], m_x[2, 1] = cross, np.conj(cross)
    m_e, m_l, m_x = 0.25 * elements
    m_none = np.eye(3, dtype=complex) - m_e - m_l - m_x
    return {"E": m_e, "L": m_l, "X": m_x, "none": m_none}


# Alice's plus | minus elements of v_z+, v_z- and v_xy: H | V, V | H, D | A.
_ALICE_PLUS, _ALICE_MINUS = alice_projectors([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]])


def visibility_pairs(bob):
    """Coincidence operators (plus, minus) of the three visibilities.

    Each is a (3, 6, 6) stack in the order v_z+ (H x E | V x E), v_z-
    (V x L | H x L) and v_xy (D x X | A x X), with E, L and X taken from
    the Bob POVM ``bob``.  A visibility is (N_plus - N_minus) / (N_plus +
    N_minus) of the two coincidence rates.
    """
    bobs = np.stack([bob["E"], bob["L"], bob["X"]])
    return tensor(_ALICE_PLUS, bobs), tensor(_ALICE_MINUS, bobs)


@dataclass
class PovmDiagnostics:
    """Verdict of :func:`validate_povm`, with each failed check described."""

    ok: bool
    failures: list

    def __str__(self):
        if self.ok:
            return "POVM valid"
        return "POVM invalid: " + "; ".join(self.failures)


def validate_povm(elements, tol=1e-12):
    """Check positivity, boundedness by identity, and completeness.

    ``elements`` is a mapping of labels to operators.  Returns a
    :class:`PovmDiagnostics`; ``ok`` is False when any element has an
    eigenvalue below ``-tol``, exceeds the identity by more than ``tol``,
    or the elements do not sum to the identity within ``tol``.
    """
    labels = list(elements)
    dim = np.asarray(elements[labels[0]]).shape[0]
    eye = np.eye(dim, dtype=complex)

    failures = []
    total = np.zeros((dim, dim), dtype=complex)
    for label in labels:
        m = np.asarray(elements[label], dtype=complex)
        lo = min_eigenvalue(m)
        hi = min_eigenvalue(eye - m)
        if lo < -tol:
            failures.append(f"element {label} not PSD (min eigenvalue {lo:.3e})")
        if hi < -tol:
            failures.append(
                f"element {label} exceeds identity (margin {hi:.3e})"
            )
        total += m
    residual = float(np.max(np.abs(total - eye)))
    if residual > tol:
        failures.append(f"elements do not sum to identity (residual {residual:.3e})")
    return PovmDiagnostics(ok=not failures, failures=failures)
