"""Entanglement verification from measured visibilities.

Decides whether any 2x3 state with a positive partial transpose is
consistent with the measured computational- and superposition-basis
visibilities under the lossy analyzer measurements.  If no such state
exists (the program is infeasible), the measured state must be
entangled; the (v_z, v_xy) boundary of the feasible region is the
classical bound that measured visibilities must exceed.

The visibility constraints are homogeneous ratios, so they cannot fix
the scale of the detected sector: a state with all its weight in the
no-photon dimension satisfies every ratio vacuously.  The constraint
set therefore pins the detected-sector mass (default 2/3, the value
carried by the maximally mixed 2x3 state), which fixes the scale
without affecting verdicts; the certified feasible/infeasible answer is
independent of that mass for any value in (0, 1).

One program: maximize t subject to rho >= t*I and rho^Gamma >= t*I
over the affine subspace of all Hermitian 6x6 matrices that meet the
five constraints, held in the real coordinates of
:func:`~timebin_analyzer.quantum.vec_hermitian`.  One solver: the
objective min(lambda_min(rho), lambda_min(rho^Gamma)) is concave; a
supergradient ascent stage is followed by a smoothed (soft-min)
continuation refined with L-BFGS.  The margin t* decides the verdict:
infeasible when t* < -tol.  For 2x3 the PPT test is exact, so an
infeasible program certifies entanglement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .measurement import AnalyzerEfficiencies, alice_povm, bob_povm
from .quantum import (
    DensityMatrix,
    min_eigenvalue,
    partial_transpose,
    tensor,
    unvec_hermitian,
    vec_hermitian,
)

DEFAULT_QUBIT_MASS = 2.0 / 3.0
DEFAULT_TOL = 1e-7

# Projector onto Bob's detected (one-photon) subspace, in {none, E, L}.
_QUBIT_SECTOR = np.kron(np.eye(2), np.diag([0.0, 1.0, 1.0])).astype(complex)


class NonConvergenceError(RuntimeError):
    """The feasibility solver could not certify a verdict."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ConstraintSet:
    """Affine constraints Tr(rho C_k) = b_k of the feasibility program."""

    operators: list
    targets: list
    labels: list
    eff: AnalyzerEfficiencies
    v_z: float
    v_xy: float
    qubit_mass: float

    def residuals(self, rho):
        return {
            label: float(np.trace(rho @ op).real - b)
            for label, op, b in zip(self.labels, self.operators, self.targets)
        }


@dataclass
class FeasibilityReport:
    """Outcome of one feasibility instance."""

    feasible: bool
    margin: float
    iterations: int
    residuals: dict
    witness: np.ndarray | None
    converged: bool

    @property
    def verdict(self) -> str:
        return "FEASIBLE" if self.feasible else "INFEASIBLE"


def build_constraints(
    v_z, v_xy, eff: AnalyzerEfficiencies, qubit_mass=DEFAULT_QUBIT_MASS
) -> ConstraintSet:
    """Constraint set from measured visibilities and analyzer efficiencies.

    The three visibility constraints are the homogeneous forms
    Tr[rho (D_k - v S_k)] = 0 with D/S the coincidence difference/sum
    operators, both z-conditionals sharing v_z.  Trace one and the
    detected-sector mass complete the set.
    """
    for name, v in (("v_z", v_z), ("v_xy", v_xy)):
        if not -1.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [-1, 1], got {v}")
    if not 0.0 < qubit_mass <= 1.0:
        raise ValueError(f"qubit_mass must be in (0, 1], got {qubit_mass}")
    alice = alice_povm()
    bob = bob_povm(eff)

    def coincidence(pair_plus, pair_minus, v):
        d = tensor(*pair_plus) - tensor(*pair_minus)
        s = tensor(*pair_plus) + tensor(*pair_minus)
        return d - v * s

    operators = [
        np.eye(6, dtype=complex),
        coincidence((alice["H"], bob["E"]), (alice["V"], bob["E"]), v_z),
        coincidence((alice["V"], bob["L"]), (alice["H"], bob["L"]), v_z),
        coincidence((alice["D"], bob["X"]), (alice["A"], bob["X"]), v_xy),
        _QUBIT_SECTOR,
    ]
    targets = [1.0, 0.0, 0.0, 0.0, float(qubit_mass)]
    labels = ["trace", "vis_plus_z", "vis_minus_z", "vis_xy", "qubit_mass"]

    rank = np.linalg.matrix_rank(vec_hermitian(np.array(operators)), tol=1e-10)
    if rank < len(operators):
        warnings.warn(
            f"constraints are rank deficient (rank {rank} of {len(operators)}); "
            "the analyzer efficiencies may be degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
    return ConstraintSet(
        operators=operators,
        targets=targets,
        labels=labels,
        eff=eff,
        v_z=float(v_z),
        v_xy=float(v_xy),
        qubit_mass=float(qubit_mass),
    )


class _Subspace:
    """Affine subspace {x0 + N z} of Hermitian coordinates (see
    :func:`~timebin_analyzer.quantum.vec_hermitian`)."""

    def __init__(self, cs: ConstraintSet):
        rows = vec_hermitian(np.array(cs.operators))
        b = np.asarray(cs.targets, dtype=float)
        self.x0, *_ = np.linalg.lstsq(rows, b, rcond=None)
        if np.max(np.abs(rows @ self.x0 - b)) > 1e-9:
            raise NonConvergenceError(
                "constraints are inconsistent",
                {"residual": float(np.max(np.abs(rows @ self.x0 - b)))},
            )
        u, s, vt = np.linalg.svd(rows)
        rank = int(np.sum(s > 1e-12 * s[0]))
        self.null = vt[rank:].T  # columns span the nullspace
        self.dim = self.null.shape[1]

    def rho(self, z):
        return unvec_hermitian(self.x0 + self.null @ z)

    def project_gradient(self, g_matrix):
        return self.null.T @ vec_hermitian(g_matrix)


def _margin(rho):
    return min(min_eigenvalue(rho), min_eigenvalue(partial_transpose(rho)))


def _soft_min_value_grad(rho, mu):
    """Smoothed minimum over the eigenvalues of rho and rho^Gamma.

    Returns (value, gradient matrix) where the gradient is with respect
    to rho in the Frobenius pairing.
    """
    w1, v1 = np.linalg.eigh(rho)
    w2, v2 = np.linalg.eigh(partial_transpose(rho))
    lam = np.concatenate([w1, w2])
    shift = lam.min()
    weights = np.exp(-(lam - shift) / mu)
    total = weights.sum()
    value = shift - mu * math.log(total)
    weights /= total
    n1 = w1.size
    g1 = (v1 * weights[:n1]) @ v1.conj().T
    g2 = (v2 * weights[n1:]) @ v2.conj().T
    return value, g1 + partial_transpose(g2)


def sdp_feasible(
    cs: ConstraintSet, tol=DEFAULT_TOL, max_iter=20000
) -> FeasibilityReport:
    """Decide whether a PSD state with PSD partial transpose satisfies ``cs``.

    Maximizes t subject to rho >= t*I and rho^Gamma >= t*I over the
    affine constraint subspace; the verdict is feasible iff the optimal
    margin t* >= -tol.  Deterministic for fixed inputs.  Raises
    :class:`NonConvergenceError` when the iteration budget is exhausted
    before the margin stabilizes.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    # scipy is imported here, not at module level, so that the CLI
    # subcommands that never solve do not pay for loading it.
    from scipy.optimize import minimize

    sub = _Subspace(cs)
    evals = 0

    # Stage 1: supergradient ascent on the exact nonsmooth margin.
    z = np.zeros(sub.dim)
    best_z, best_margin = z.copy(), _margin(sub.rho(z))
    step0 = 0.5
    for k in range(200):
        rho = sub.rho(z)
        w1, v1 = np.linalg.eigh(rho)
        w2, v2 = np.linalg.eigh(partial_transpose(rho))
        evals += 1
        m = min(w1[0], w2[0])
        if m > best_margin:
            best_margin, best_z = m, z.copy()
        if w1[0] <= w2[0]:
            g = np.outer(v1[:, 0], v1[:, 0].conj())
        else:
            g = partial_transpose(np.outer(v2[:, 0], v2[:, 0].conj()))
        gz = sub.project_gradient(g)
        norm = np.linalg.norm(gz)
        if norm < 1e-14:
            break
        z = z + step0 / math.sqrt(k + 1.0) * gz / norm

    # Stage 2: soft-min continuation refined with L-BFGS.  The soft-min
    # underestimates the exact margin by at most mu*ln(12), so the last
    # two stages agree within ~2.5e-8 once the maximizer has stabilized.
    z = best_z
    mu_schedule = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-9]
    history = []
    for mu in mu_schedule:
        def negative(zv):
            value, grad_rho = _soft_min_value_grad(sub.rho(zv), mu)
            return -value, -sub.project_gradient(grad_rho)

        res = minimize(
            negative,
            z,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 400, "ftol": 1e-16, "gtol": 1e-12},
        )
        evals += res.nfev
        z = res.x
        history.append(_margin(sub.rho(z)))
        if evals > max_iter:
            raise NonConvergenceError(
                f"margin solver exhausted {evals} evaluations",
                {"history": history, "mu": mu},
            )

    margin = _margin(sub.rho(z))
    if margin < best_margin:
        z, margin = best_z, best_margin
    converged = len(history) >= 2 and abs(history[-1] - history[-2]) < 5e-8
    if not converged and abs(margin) <= tol:
        raise NonConvergenceError(
            "margin did not stabilize inside the indeterminate band",
            {"history": history, "margin": margin},
        )

    rho = sub.rho(z)
    feasible = margin >= -tol
    report = FeasibilityReport(
        feasible=feasible,
        margin=float(margin),
        iterations=evals,
        residuals={
            **cs.residuals(rho),
            "min_eig": min_eigenvalue(rho),
            "min_eig_pt": min_eigenvalue(partial_transpose(rho)),
        },
        witness=rho if feasible else None,
        converged=converged,
    )
    return report


@dataclass
class BoundaryPoint:
    """One point of the classical boundary: threshold in v_xy at fixed v_z."""

    v_z: float
    threshold: float
    margin: float
    iterations: int
    bracketed: bool


def boundary_scan(
    v_z_values,
    eff: AnalyzerEfficiencies,
    tol=DEFAULT_TOL,
    resolution=1e-3,
    qubit_mass=DEFAULT_QUBIT_MASS,
) -> list:
    """Smallest infeasible v_xy for each v_z, by bisection to ``resolution``.

    Visibilities at or above the threshold certify entanglement.  When
    even v_xy = 1 is consistent with a PPT state the point is reported
    unbracketed with an infinite threshold.
    """
    if not 0 < resolution < math.inf:
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    points = []
    for v_z in v_z_values:
        report_lo = sdp_feasible(
            build_constraints(v_z, 0.0, eff, qubit_mass), tol=tol
        )
        if not report_lo.feasible:
            raise NonConvergenceError(
                f"v_xy = 0 must be feasible at v_z = {v_z}; margin "
                f"{report_lo.margin}"
            )
        iterations = report_lo.iterations
        report_hi = sdp_feasible(build_constraints(v_z, 1.0, eff, qubit_mass), tol=tol)
        iterations += report_hi.iterations
        if report_hi.feasible:
            points.append(
                BoundaryPoint(float(v_z), math.inf, report_hi.margin, iterations, False)
            )
            continue
        lo, hi = 0.0, 1.0
        margin_hi = report_hi.margin
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            report = sdp_feasible(build_constraints(v_z, mid, eff, qubit_mass), tol=tol)
            iterations += report.iterations
            if report.feasible:
                lo = mid
            else:
                hi = mid
                margin_hi = report.margin
        points.append(BoundaryPoint(float(v_z), hi, margin_hi, iterations, True))
    return points


def ppt_oracle(rho: DensityMatrix) -> bool:
    """True iff the state has a negative partial transpose (is entangled).

    Valid as an entanglement test exactly for 2x2 and 2x3 systems.
    """
    rho.validate()
    return min_eigenvalue(rho.partial_transpose()) < -1e-10


def boundary_to_rows(points):
    """Rows (v_z, v_xy_threshold, margin, iterations) for CSV export."""
    header = ["v_z", "v_xy_threshold", "margin", "iterations"]
    rows = [[p.v_z, p.threshold, p.margin, p.iterations] for p in points]
    return header, rows
