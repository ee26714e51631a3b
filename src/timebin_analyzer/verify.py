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
the same t, and the real program has the same optimum (Gatermann &
Parrilo, J. Pure Appl. Algebra 192, 2004).  One solver: a feasible
primal-dual interior-point method on this LMI (Vandenberghe & Boyd, SIAM
Rev. 38, 1996), with the HKM direction (Helmberg, Rendl, Vanderbei &
Wolkowicz, SIAM J. Optim. 6, 1996) and Mehrotra's predictor-corrector
(SIAM J. Optim. 2, 1992).  It keeps a primal point S = (rho - t*I,
rho^Gamma - t*I) > 0 and a dual Z = (Z_1, Z_2) > 0 at every iterate and
stops when the duality gap Tr(S Z) is at most MAX_GAP = 1e-8.

The margin min(lambda_min(rho), lambda_min(rho^Gamma)) at the returned
point decides the verdict: infeasible when it is < -tol.  Soundness: the
returned point is strictly inside both cones, so margin > t.  Weak
duality gives t* <= t + Tr(S Z) <= t + 1e-8, t* the optimum, up to the
final dual residual ||A^T Z - c||, which is at most 2.3e-11 over
tests/solver_sweep.py.  So a PPT state meeting the constraints has
t* >= 0, and for tol >= 1e-8 an infeasible verdict shows that no such
state exists; for a smaller tol the band is 1e-8, not tol.  For 2x3 the
PPT test is exact, so an infeasible program certifies entanglement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import finite_in
from .measurement import AnalyzerEfficiencies, bob_povm, visibility_pairs
from .quantum import (
    DensityMatrix,
    min_eigenvalue,
    partial_transpose,
    unvec_symmetric,
    vec_symmetric,
)

DEFAULT_QUBIT_MASS = 2.0 / 3.0
DEFAULT_TOL = 1e-7
# Smallest boundary_scan step; on a finer grid, points in [0.5, 1) collide.
MIN_RESOLUTION = 2.0**-53

# Projector onto Bob's detected (one-photon) subspace, in {none, E, L}.
_QUBIT_SECTOR = np.kron(np.eye(2), np.diag([0.0, 1.0, 1.0]))

# Row k is (B_k, B_k^Gamma) flattened, B_k the k-th basis matrix of
# vec_symmetric: x @ _BLOCKS holds the blocks (rho, rho^Gamma) of rho(x).
_BASIS = unvec_symmetric(np.eye(21))
_BLOCKS = np.stack([_BASIS, partial_transpose(_BASIS)], axis=1).reshape(21, 72)
_BLOCKS.flags.writeable = False
del _BASIS


class NonConvergenceError(RuntimeError):
    """The feasibility solver could not certify a verdict."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ConstraintSet:
    """Affine constraints Tr(rho C_k) = b_k, with their least-squares solution
    ``x0`` in real symmetric coordinates and the ``rank`` of the constraint
    rows (singular values above 1e-12 times the largest), found on construction."""

    operators: list
    targets: list

    def __post_init__(self):
        operators = np.array(self.operators)
        rows = vec_symmetric(operators)  # refuses a complex operator
        self.operators = [np.array(op, dtype=float) for op in operators.real]
        b = np.asarray(self.targets, dtype=float)
        self.x0, _, _, s = np.linalg.lstsq(rows, b, rcond=None)
        self.rank = int(np.sum(s > 1e-12 * s[0]))
        residual = float(np.max(np.abs(rows @ self.x0 - b)))
        if residual > 1e-9:
            raise NonConvergenceError(
                "constraints are inconsistent", {"residual": residual}
            )


@dataclass
class FeasibilityReport:
    """Outcome of one feasibility instance; ``gap`` is the final duality gap
    Tr(S Z), at most ``MAX_GAP``, and ``dual_residual`` the final ||A^T Z - c||."""

    feasible: bool
    margin: float
    iterations: int
    gap: float
    dual_residual: float
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
    detected-sector mass complete the set, in the order trace, v_z+, v_z-,
    v_xy, mass.
    """
    finite_in("v_z", v_z, -1, 1)
    finite_in("v_xy", v_xy, -1, 1)
    finite_in("qubit_mass", qubit_mass, 0, 1, open_lo=True)
    plus, minus = visibility_pairs(bob_povm(eff))
    v = np.array([v_z, v_z, v_xy], dtype=float)[:, None, None]
    operators = [np.eye(6), *((plus - minus) - v * (plus + minus)), _QUBIT_SECTOR]
    cs = ConstraintSet(operators, [1.0, 0.0, 0.0, 0.0, float(qubit_mass)])
    if cs.rank < len(operators):
        warnings.warn(
            f"constraints are rank deficient (rank {cs.rank} of {len(operators)}); "
            "the analyzer efficiencies may be degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
    return cs


# The solve stops once the duality gap Tr(S Z) is at most MAX_GAP, which
# bounds the optimum: t* <= t + MAX_GAP.  Solves take about 6 to 7
# iterations; the cap only ends one that does not converge.
MAX_GAP = 1e-8
_ITERATION_CAP = 50
# Each step goes this fraction of the way to the boundary of the cone.
_STEP_FRACTION = 0.98
# The start puts t this far below lambda_min of (rho(x0), rho(x0)^Gamma).
# With Z = I/12 the first gap is mean(lambda_i - lambda_min) + the offset,
# so an offset much above that mean (about 0.1) only adds gap to close: at
# 0.1 the first gap is about 0.2.  Over tests/solver_sweep.py, offsets of
# 1, 0.5, 0.3, 0.2, 0.05 and 0.03 all took more iterations than 0.1.
_START_OFFSET = 0.1


def _schur_factor(l_inv, r, a):
    """Upper-triangular U with U^T U = H, H_kl = sum_b Tr(A_bk S_b^-1 A_bl Z_b)
    for the blocks b and coordinates k, l, given l_inv[b] = L_b^-1 for
    S_b = L_b L_b^T and Z_b = r[b] r[b]^T.

    H is the Gram matrix of the l_inv[b] A_bk r[b], so U is the R of their
    QR decomposition, one (72, K) factorization.  Near the gap target H's
    condition number can pass 1e16, where its Cholesky factorization fails
    (6 of 3800 random solves) and this QR does not.
    """
    k = a.shape[1]
    m = (l_inv[:, None] @ a @ r[:, None]).transpose(1, 0, 2, 3).reshape(k, 72)
    return np.linalg.qr(m.T, mode="r")


def _steps(l_inv, ds, dz):
    """(primal, dual) steps: _STEP_FRACTION of the largest step along ``ds``
    that keeps S_1, S_2 positive definite and along ``dz`` for Z_1, Z_2,
    each capped at 1.  l_inv stacks L^-1 of S = L L^T then of Z; each step
    reads off lambda_min(L^-1 d L^-T) over its two blocks."""
    d = np.concatenate([ds, dz])
    low = np.linalg.eigvalsh(l_inv @ d @ l_inv.transpose(0, 2, 1)).reshape(2, -1)
    return [min(1.0, -_STEP_FRACTION / x) if x < 0 else 1.0 for x in low.min(axis=1)]


def _sym(m):
    return 0.5 * (m + m.transpose(0, 2, 1))


def sdp_feasible(cs: ConstraintSet, tol=DEFAULT_TOL) -> FeasibilityReport:
    """Decide whether a PSD state with PSD partial transpose satisfies ``cs``.

    Maximizes t subject to S_1 = rho(z) - t*I > 0 and S_2 = rho(z)^Gamma
    - t*I > 0 over the affine constraint subspace, in w = (z, t), by a
    feasible primal-dual interior-point method; the verdict is feasible iff
    the margin min(lambda_min(rho), lambda_min(rho^Gamma)) at the returned
    point is >= -tol.  The start is rho at the least-squares point x0 and
    t = lambda_min - _START_OFFSET, just inside both cones, with the dual
    Z_1 = Z_2 = I/12.  Deterministic for fixed inputs.  Raises
    :class:`NonConvergenceError` when the iteration cap is reached or a
    factorization fails before the gap reaches ``MAX_GAP``.
    """
    finite_in("tol", tol, 0, open_lo=True)
    # The null basis (2.7 kB) is not kept on cs: callers hold many constraint sets.
    _, _, vt = np.linalg.svd(vec_symmetric(np.array(cs.operators)))
    null = vt[cs.rank:].T  # columns span the nullspace
    # S_b(w) = f0[b] + sum_k w_k a[b, k] for the blocks b = rho, rho^Gamma;
    # row k of a_flat is (a[0, k], a[1, k]) flattened.
    a_flat = np.concatenate([null.T @ _BLOCKS, np.tile(-np.eye(6).ravel(), (1, 2))])
    k = len(a_flat)
    # _schur_factor takes the blocks as one C-contiguous (2, k, 6, 6) stack.
    a = np.ascontiguousarray(a_flat.reshape(k, 2, 6, 6).transpose(1, 0, 2, 3))
    f0 = (cs.x0 @ _BLOCKS).reshape(2, 6, 6)
    # The dual: Z_b > 0 with sum_b Tr(a[b, k] Z_b) = c_k, c = -e_t.  Every
    # null-basis matrix has trace 0, so Z_1 = Z_2 = I/12 is feasible.
    c = np.zeros(k)
    c[-1] = -1.0

    def blocks(dw):
        return np.dot(dw, a_flat).reshape(2, 6, 6)

    w = np.zeros(k)
    w[-1] = min_eigenvalue(f0).min() - _START_OFFSET
    s_mat = f0 + blocks(w)
    z = np.stack([np.eye(6), np.eye(6)]) / 12.0
    iterations = 0
    # A NaN gap fails the comparison, so it ends in NonConvergenceError.
    while not (gap := float(np.vdot(s_mat, z))) <= MAX_GAP:
        diagnostics = {"gap": gap, "iterations": iterations, "t": float(w[-1])}
        if iterations == _ITERATION_CAP:
            raise NonConvergenceError(
                f"primal-dual solver exhausted {iterations} iterations", diagnostics
            )
        # The four 6x6 blocks (S_1, S_2, Z_1, Z_2) go through each numpy
        # call as one stack: at this size a call costs more than its
        # arithmetic, and a stacked call gives each block the same bits
        # as a call on that block alone.
        try:
            r = np.linalg.cholesky(np.concatenate([s_mat, z]))
            l_inv = np.linalg.inv(r)
            ls = l_inv[:2]
            u_inv = np.linalg.inv(_schur_factor(ls, r[2:], a))
        except np.linalg.LinAlgError:
            raise NonConvergenceError(
                "primal-dual system is not positive definite", diagnostics
            ) from None
        s_inv = ls.transpose(0, 2, 1) @ ls
        # Predictor (sigma = 0), then Mehrotra's corrector, each in the HKM
        # direction dZ = sym(sigma mu S^-1 - Z - Z dS S^-1 - ...).  H^-1 v
        # is U^-1 (U^-T v): a formed H^-1 lets Z drift off A^T Z = c.
        ds_aff = blocks(u_inv @ (u_inv.T @ -c))
        dz_aff = -z - _sym(z @ ds_aff @ s_inv)
        mu = gap / 12
        step_s, step_z = _steps(l_inv, ds_aff, dz_aff)
        mu_aff = np.vdot(s_mat + step_s * ds_aff, z + step_z * dz_aff) / 12
        sigma_mu = (mu_aff / mu) ** 3 * mu
        second = dz_aff @ ds_aff @ s_inv
        rhs = sigma_mu * (a_flat @ s_inv.ravel()) - c - a_flat @ second.ravel()
        dw = u_inv @ (u_inv.T @ rhs)
        ds = blocks(dw)
        dz = _sym(sigma_mu * s_inv - z - z @ ds @ s_inv - second)
        step_s, step_z = _steps(l_inv, ds, dz)
        w = w + step_s * dw
        s_mat = f0 + blocks(w)
        z = z + step_z * dz
        iterations += 1

    rho_blocks = ((cs.x0 + null @ w[:-1]) @ _BLOCKS).reshape(2, 6, 6)
    margin = min(map(float, min_eigenvalue(rho_blocks)))
    feasible = margin >= -tol
    return FeasibilityReport(
        feasible=feasible,
        margin=margin,
        iterations=iterations,
        gap=gap,
        dual_residual=float(np.linalg.norm(a_flat @ z.ravel() - c)),
        witness=rho_blocks[0].copy() if feasible else None,
    )


@dataclass
class BoundaryPoint:
    """One point of the classical boundary: threshold in v_xy at fixed v_z.

    ``margin`` is the solver margin at ``threshold``; ``iterations`` is
    the number of solver iterations summed over every solve the scan made.
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
