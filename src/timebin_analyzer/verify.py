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

One program: maximize t subject to rho - t*I > 0 and rho^Gamma - t*I > 0
over the real symmetric 6x6 matrices that meet the five constraints, in
the coordinates of :func:`~timebin_analyzer.quantum.vec_symmetric`.  The
operators are real, so the conjugate of a feasible state is feasible with
the same t; the barrier is conjugation-invariant and strictly convex, so
its central points are real (Gatermann & Parrilo, J. Pure Appl. Algebra
192, 2004).  One solver: log-det
barrier path-following (Nesterov & Nemirovskii 1994; Vandenberghe &
Boyd, SIAM Rev. 38, 1996).  From a strictly feasible start, damped
Newton steps minimize -t/mu - log det(rho - t*I) - log det(rho^Gamma -
t*I) for a decreasing sequence of barrier weights mu, each Newton system
solved by Cholesky.  The path ends at mu_end = 50^-5 = 3.2e-9, the first
stage with 12*mu <= 1e-7 and the last at which the Newton matrix stays
positive definite in double precision (at the next stage, mu = 6.4e-11,
Cholesky fails on it in most solves).

The margin min(lambda_min(rho), lambda_min(rho^Gamma)) at the returned
point decides the verdict: infeasible when it is < -tol.  Soundness: the
returned point is strictly inside both cones, so margin > t, and near
the central path t >= t* - 12*mu_end = t* - 3.84e-8, t* the optimum.  A
PPT state meeting the constraints has t* >= 0, so for tol >= 3.84e-8 an
infeasible verdict proves that no such state exists; for a smaller tol
the band that verdict is proved for is 3.84e-8, not tol.  For 2x3 the
PPT test is exact, so an infeasible program certifies entanglement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import finite_in
from .measurement import AnalyzerEfficiencies, alice_povm, bob_povm
from .quantum import (
    DensityMatrix,
    min_eigenvalue,
    partial_transpose,
    tensor,
    unvec_symmetric,
    vec_symmetric,
)

DEFAULT_QUBIT_MASS = 2.0 / 3.0
DEFAULT_TOL = 1e-7
# Smallest boundary_scan step; on a finer grid, points in [0.5, 1) collide.
MIN_RESOLUTION = 2.0**-53

# Projector onto Bob's detected (one-photon) subspace, in {none, E, L}.
_QUBIT_SECTOR = np.kron(np.eye(2), np.diag([0.0, 1.0, 1.0]))


class NonConvergenceError(RuntimeError):
    """The feasibility solver could not certify a verdict."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ConstraintSet:
    """Affine constraints Tr(rho C_k) = b_k of the feasibility program, with
    their least-squares solution ``x0`` in real symmetric coordinates and the
    ``singular_values`` of the constraint rows, both found on construction."""

    operators: list
    targets: list
    labels: list
    eff: AnalyzerEfficiencies
    v_z: float
    v_xy: float
    qubit_mass: float

    def __post_init__(self):
        rows = vec_symmetric(np.array(self.operators))
        b = np.asarray(self.targets, dtype=float)
        self.x0, _, _, self.singular_values = np.linalg.lstsq(rows, b, rcond=None)
        residual = float(np.max(np.abs(rows @ self.x0 - b)))
        if residual > 1e-9:
            raise NonConvergenceError(
                "constraints are inconsistent", {"residual": residual}
            )

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
    finite_in("v_z", v_z, -1, 1)
    finite_in("v_xy", v_xy, -1, 1)
    finite_in("qubit_mass", qubit_mass, 0, 1, open_lo=True)
    alice = alice_povm()
    bob = bob_povm(eff)

    def coincidence(pair_plus, pair_minus, v):
        d = tensor(*pair_plus) - tensor(*pair_minus)
        s = tensor(*pair_plus) + tensor(*pair_minus)
        return d - v * s

    operators = [
        np.eye(6),
        coincidence((alice["H"], bob["E"]), (alice["V"], bob["E"]), v_z),
        coincidence((alice["V"], bob["L"]), (alice["H"], bob["L"]), v_z),
        coincidence((alice["D"], bob["X"]), (alice["A"], bob["X"]), v_xy),
        _QUBIT_SECTOR,
    ]
    targets = [1.0, 0.0, 0.0, 0.0, float(qubit_mass)]
    labels = ["trace", "vis_plus_z", "vis_minus_z", "vis_xy", "qubit_mass"]
    cs = ConstraintSet(
        operators=operators,
        targets=targets,
        labels=labels,
        eff=eff,
        v_z=float(v_z),
        v_xy=float(v_xy),
        qubit_mass=float(qubit_mass),
    )
    rank = int(np.sum(cs.singular_values > 1e-10))
    if rank < len(operators):
        warnings.warn(
            f"constraints are rank deficient (rank {rank} of {len(operators)}); "
            "the analyzer efficiencies may be degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
    return cs


# Path-following schedule.  Each centring takes damped Newton steps on
# -t/mu - log det F1 - log det F2 until the squared Newton decrement is
# at most _DECREMENT_TOL; then mu is divided by _MU_FACTOR.  On the
# central path the optimum exceeds t by at most 12*mu (the order of the
# two 6x6 blocks times mu), so the path ends at the first mu with
# 12*mu <= _GAP_TARGET: mu = 50^-5 = 3.2e-9.  The end is fixed, not tied
# to tol, because double precision sets it: down to mu = 3.2e-9 every
# Newton matrix of 200 random solves (efficiencies in [0.3, 1]), 85
# boundary scans and the 64 points v_xy = k/1024 at v_z = 1 factored,
# while at the next stage, mu = 6.4e-11, Cholesky fails in about three
# solves of four (149 of the 200).
_MU_FACTOR = 50.0
_GAP_TARGET = 1e-7
_DECREMENT_TOL = 1e-2
_NEWTON_BUDGET = 500
_ARMIJO = 0.25
_MIN_STEP = 2.0**-40


def _newton_direction(hess, rhs):
    """Solution x of hess @ x = rhs and the squared decrement rhs @ x.

    Solved by Cholesky alone.  The Hessian grows like 1/mu^2 along the
    active eigenvectors, and the path ends (``_GAP_TARGET``) at the last
    stage where it stays positive definite in double precision, so a
    failed factorization raises :class:`numpy.linalg.LinAlgError`.
    """
    chol = np.linalg.cholesky(hess)
    y = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, y), float(y @ y)


def _log_det_derivatives(c):
    """Gradient and Hessian of -log det F_1 - log det F_2 in w, from
    c[b, k] = F_b^-1 A_bk for the blocks b and coordinates k.

    grad_k = -sum_b Tr c[b, k] and hess_kl = sum_b Tr(c[b, k] c[b, l]),
    the latter as one (K, 72) x (72, K) product.
    """
    k = c.shape[1]
    grad = -c.diagonal(axis1=2, axis2=3).sum(-1).sum(axis=0)
    left = c.transpose(1, 0, 2, 3).reshape(k, 72)
    right = c.transpose(0, 3, 2, 1).reshape(72, k)
    return grad, (left @ right).T


def sdp_feasible(cs: ConstraintSet, tol=DEFAULT_TOL) -> FeasibilityReport:
    """Decide whether a PSD state with PSD partial transpose satisfies ``cs``.

    Maximizes t subject to F1 = rho(z) - t*I > 0 and F2 = rho(z)^Gamma
    - t*I > 0 over the affine constraint subspace, by log-det barrier
    path-following in w = (z, t); the verdict is feasible iff the margin
    min(lambda_min(rho), lambda_min(rho^Gamma)) at the returned point is
    >= -tol.  Deterministic for fixed inputs.  Raises
    :class:`NonConvergenceError` when the Newton-step budget runs out, a
    line search stalls or a Newton system fails to factor.
    """
    finite_in("tol", tol, 0, open_lo=True)
    # The null basis (2.7 kB) is not kept on cs: callers hold many constraint sets.
    _, s, vt = np.linalg.svd(vec_symmetric(np.array(cs.operators)))
    rank = int(np.sum(s > 1e-12 * s[0]))
    null = vt[rank:].T  # columns span the nullspace
    # F_b(w) = f0[b] + sum_k w_k a[b, k] for the blocks b = rho, rho^Gamma.
    basis = np.concatenate([unvec_symmetric(null.T), -np.eye(6)[None]])
    a = np.stack([basis, [partial_transpose(m) for m in basis]])
    a_flat = a.transpose(1, 0, 2, 3).reshape(len(basis), 72)
    x0 = unvec_symmetric(cs.x0)
    f0 = np.stack([x0, partial_transpose(x0)])

    def factor(w):
        """Cholesky factors of both blocks, or None outside the cone."""
        try:
            return np.linalg.cholesky(f0 + np.dot(w[None], a_flat).reshape(2, 6, 6))
        except np.linalg.LinAlgError:
            return None

    def objective(w, chol):
        log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum()
        return -w[-1] / mu - log_det

    w = np.zeros(null.shape[1] + 1)
    w[-1] = min(min_eigenvalue(f) for f in f0) - 1.0
    chol = factor(w)
    mu = 1.0
    steps = 0
    while True:
        inv = np.linalg.inv(chol)
        f_inv = inv.transpose(0, 2, 1) @ inv
        grad, hess = _log_det_derivatives(f_inv[:, None] @ a)
        grad[-1] -= 1.0 / mu
        try:
            step, decrement = _newton_direction(hess, -grad)
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                "barrier Newton system is not positive definite",
                {"mu": mu, "t": float(w[-1]), "steps": steps},
            ) from None
        if decrement <= _DECREMENT_TOL:
            if 12 * mu <= _GAP_TARGET:
                break
            mu /= _MU_FACTOR
            continue
        if steps == _NEWTON_BUDGET:
            raise NonConvergenceError(
                f"barrier solver exhausted {steps} Newton steps",
                {"mu": mu, "decrement": decrement, "t": float(w[-1])},
            )
        value, s = objective(w, chol), 1.0
        while True:
            trial = w + s * step
            chol_trial = factor(trial)
            if chol_trial is not None and (
                objective(trial, chol_trial) <= value - _ARMIJO * s * decrement
            ):
                break
            s *= 0.5
            if s < _MIN_STEP:
                raise NonConvergenceError(
                    "barrier line search stalled",
                    {"mu": mu, "decrement": decrement, "t": float(w[-1])},
                )
        w, chol = trial, chol_trial
        steps += 1

    rho = unvec_symmetric(cs.x0 + null @ w[:-1])
    min_eig, min_eig_pt = min_eigenvalue(rho), min_eigenvalue(partial_transpose(rho))
    margin = min(min_eig, min_eig_pt)
    feasible = margin >= -tol
    return FeasibilityReport(
        feasible=feasible,
        margin=margin,
        iterations=steps,
        residuals={**cs.residuals(rho), "min_eig": min_eig, "min_eig_pt": min_eig_pt},
        witness=rho if feasible else None,
    )


@dataclass
class BoundaryPoint:
    """One point of the classical boundary: threshold in v_xy at fixed v_z.

    ``margin`` is the solver margin at ``threshold``; ``iterations`` is
    the number of Newton steps summed over every solve the scan made.
    """

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
    """Smallest infeasible v_xy on a dyadic grid, for each v_z.

    The grid step is 2^-m, the largest power of two not above
    ``resolution`` (at least ``MIN_RESOLUTION`` = 2^-53).  The threshold
    is the grid point k/2^m with (k-1)/2^m feasible and k/2^m infeasible
    (margin < -tol): where the verdict changes once along the grid, the
    point bisection of [0, 1] reaches, found with fewer solves.  Each step
    rounds to the grid the regula falsi estimate of the zero of
    margin + tol, with the Illinois rule (halve the value kept at an end
    that two steps in a row left in place), and takes the midpoint
    instead when the bracket is more than eight times as wide as
    bisection's after as many steps.  Visibilities at or above the
    threshold certify entanglement.  When even v_xy = 1 is consistent
    with a PPT state the point is reported unbracketed with an infinite
    threshold.
    """
    finite_in("resolution", resolution, MIN_RESOLUTION)
    n = 1
    while 1.0 / n > resolution:
        n *= 2
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
        # Grid indices: lo is feasible and hi infeasible throughout.
        lo, hi = 0, n
        f_lo, f_hi = report_lo.margin + tol, report_hi.margin + tol
        margin_hi = report_hi.margin
        moved, steps = None, 0
        while hi - lo > 1:
            if (hi - lo) * 2**steps > 8 * n:
                k = (lo + hi) // 2
            else:
                k = lo + round((hi - lo) * f_lo / (f_lo - f_hi))
                k = min(max(k, lo + 1), hi - 1)
            cs = build_constraints(v_z, k / n, eff, qubit_mass)
            report = sdp_feasible(cs, tol=tol)
            iterations += report.iterations
            steps += 1
            if report.feasible:
                if moved == "lo":
                    f_hi /= 2
                lo, f_lo, moved = k, report.margin + tol, "lo"
            else:
                if moved == "hi":
                    f_lo /= 2
                hi, f_hi, moved = k, report.margin + tol, "hi"
                margin_hi = report.margin
        points.append(BoundaryPoint(float(v_z), hi / n, margin_hi, iterations, True))
    return points


def ppt_oracle(rho: DensityMatrix) -> bool:
    """True iff the state has a negative partial transpose (is entangled).

    Valid as an entanglement test exactly for 2x2 and 2x3 systems.
    """
    rho.validate()
    return min_eigenvalue(rho.partial_transpose()) < -1e-10
