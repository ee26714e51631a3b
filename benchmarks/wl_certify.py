"""Workload ``certify``: entanglement verdicts from lossy visibilities.

Why this workload: ``verify`` does almost all the work here, and
``waveoptics`` and ``chsh`` do none.  It uses ``verify`` in two ways.
One-shot verdicts spread over the noise space set the task percentiles
(200-340 ms each, about a quarter of them INFEASIBLE).  Boundary tracing
solves again and again near zero margin (seconds and thousands of
evaluations per point), which mostly moves ``job_s``.  A vectorized
solver subspace, a root find in place of bisection, or lazy scipy shows
here, along with any cost one use pays for the other.

Traffic per job (size ``full``): 20 noise points stratified on a 5 x 4
grid over p_xy in [0, 0.15) and p_z in [0, 0.3), each jittered inside
its cell and paired with analyzer efficiencies from {0.45 ... 0.9}: the
same pair in the same cell for every seed (6 symmetric, 14 asymmetric),
so that every seed does about the same solver work and the slowest
verdicts, which set the 90th percentile, come from the same cells; the
paper's point (v_z, v_xy, eta_l, eta_s) = (0.952, 0.804, 0.9, 0.9);
and one single-point boundary scan at a v_z of the reference table,
whose threshold must also be monotone in v_z against the table.  With
22 tasks the 90th percentile falls on the second slowest verdict, below
the boundary scan.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from harness import Task
from timebin_analyzer import measurement, states, verify

NAME = "certify"
WHY = (
    "verify does nearly all the work: one-shot verdicts over the noise space "
    "set the percentiles, repeated boundary solves near zero margin move job_s"
)

EFFICIENCIES = (0.45, 0.5, 0.6, 0.7, 0.8, 0.9)
ARRIVAL_PROB = 2.0 / 3.0  # detected-sector mass of the embedded 2x3 state
PHASES = np.linspace(0.0, 2.0 * math.pi, 24)
P_XY_MAX = 0.15
P_Z_MAX = 0.3
PAPER_POINT = {"v_z": 0.952, "v_xy": 0.804, "eta_l": 0.9, "eta_s": 0.9}
SIZES = {
    "full": {"grid": (5, 4), "boundary": 1},
    "smoke": {"grid": (2, 2), "boundary": 1},
}

_REFERENCE = json.loads(
    Path(__file__).with_name("boundary_reference.json").read_text()
)
REFERENCE = {v_z: thr for v_z, thr in _REFERENCE["thresholds"]}
RESOLUTION = _REFERENCE["resolution"]
BOUNDARY_TOL = 3 * RESOLUTION
PSD_TOL = 1e-8
RESIDUAL_TOL = 1e-6


class Verdict(NamedTuple):
    report: verify.FeasibilityReport
    constraints: verify.ConstraintSet
    rho: object  # the generating 2x3 state, None for the paper's point


def efficiency_pairs(count: int) -> list:
    """``count`` (eta_l, eta_s) pairs; within each run of six, eta_l
    takes every value once and eta_s is shifted by the run's index."""
    n = len(EFFICIENCIES)
    return [(EFFICIENCIES[k % n], EFFICIENCIES[(k + k // n) % n])
            for k in range(count)]


def generate(seed: int, size: str = "full") -> list:
    cfg = SIZES[size]
    rng = random.Random(seed)
    entries = []
    n_xy, n_z = cfg["grid"]
    pairs = iter(efficiency_pairs(n_xy * n_z))
    for i in range(n_xy):
        for j in range(n_z):
            eta_l, eta_s = next(pairs)
            entries.append(("verdict", {
                "p_xy": P_XY_MAX * (i + rng.random()) / n_xy,
                "p_z": P_Z_MAX * (j + rng.random()) / n_z,
                "eta_l": eta_l,
                "eta_s": eta_s,
            }))
    entries.append(("paper", dict(PAPER_POINT)))
    for _ in range(cfg["boundary"]):
        eta = rng.choice(EFFICIENCIES)
        entries.append(("boundary", {
            "v_z": rng.choice(sorted(REFERENCE)), "eta_l": eta, "eta_s": eta,
        }))
    rng.shuffle(entries)
    return [Task(i, kind, inputs) for i, (kind, inputs) in enumerate(entries)]


def warmup(tasks):
    return next(t for t in tasks if t.kind == "paper")


_PROBE_RHO = np.eye(6, dtype=complex) / 6 + 0.01 * np.diag(np.arange(6.0)) + 0.02j * (
    np.eye(6, k=1) - np.eye(6, k=-1))
_PROBE_BASIS = [np.roll(np.eye(6), k, axis=1) for k in range(12)]

# About the seconds the probe took on the reference host (2-core Xeon VM,
# one BLAS thread).  It sets the scale of the timings, so it stays fixed
# for results to compare across commits.
PROBE_REF_S = 0.010


def probe():
    """A fixed slice of the solver's inner loop written with numpy alone:
    a 6x6 Hermitian eigensolve, an outer product and its projection on a
    basis, driven from Python."""
    for _ in range(60):
        w, v = np.linalg.eigh(_PROBE_RHO)
        g = np.outer(v[:, 0], v[:, 0].conj())
        np.array([np.trace(b.T @ g).real for b in _PROBE_BASIS])


def _efficiencies(tr, x):
    return tr.call(measurement.AnalyzerEfficiencies, x["eta_l"], x["eta_s"])


def run(task, tr, ctx):
    x = task.inputs
    if task.kind == "boundary":
        eff = _efficiencies(tr, x)
        (point,) = tr.call(verify.boundary_scan, [x["v_z"]], eff)
        tr.count("verify.boundary_scan.points")
        tr.count("verify.boundary_scan.evals", point.iterations)
        return point

    if task.kind == "paper":
        rho, eff, v_z, v_xy = None, _efficiencies(tr, x), x["v_z"], x["v_xy"]
    else:
        bell = tr.call(states.hybrid_bell_state)
        noise = tr.call(states.DepolarizationParams.unbiased, x["p_xy"], x["p_z"])
        rho = tr.call(
            states.embed_2x3, tr.call(states.depolarize, bell, noise), ARRIVAL_PROB
        )
        eff = _efficiencies(tr, x)
        bob = tr.call(measurement.bob_povm, eff)
        v_z = tr.call(states.visibility_z, rho, bob=bob).v_z
        v_xy = tr.call(states.visibility_xy, rho, PHASES, bob_x=bob["X"]).v_xy
    cs = tr.call(verify.build_constraints, v_z, v_xy, eff)
    try:
        report = tr.call(verify.sdp_feasible, cs)
    except verify.NonConvergenceError:
        tr.count("verify.nonconvergence")
        raise
    tr.count("verify.sdp_feasible.evals", report.iterations)
    tr.count("verify.verdicts")
    tr.count("verify.infeasible", not report.feasible)
    return Verdict(report, cs, rho)


def _min_eig(m):
    return float(np.linalg.eigvalsh(m)[0])


def _partial_transpose_bob(m):
    """Partial transpose on Bob's qutrit of a 2x3 operator, written here
    independently of the library."""
    return m.reshape(2, 3, 2, 3).transpose(0, 3, 2, 1).reshape(6, 6)


def check(task, result, ctx) -> list:
    if task.kind == "boundary":
        v_z = task.inputs["v_z"]
        ref = REFERENCE[v_z]
        if not result.bracketed:
            return [f"threshold not bracketed (reference {ref})"]
        if abs(result.threshold - ref) > BOUNDARY_TOL:
            return [f"threshold {result.threshold} is more than {BOUNDARY_TOL} "
                    f"from the reference {ref}"]
        # Monotone in v_z: no higher than the table at any lower v_z, no
        # lower than it at any higher v_z.
        above = [thr for v, thr in REFERENCE.items() if v < v_z]
        below = [thr for v, thr in REFERENCE.items() if v > v_z]
        if (above and result.threshold > min(above) + 1e-9) or (
                below and result.threshold < max(below) - 1e-9):
            return [f"threshold {result.threshold} at v_z={v_z} is not monotone "
                    f"in v_z against the reference table"]
        return []

    report, cs, rho = result
    problems = []
    if report.feasible:
        w = report.witness
        if w is None:
            return ["FEASIBLE verdict without a witness"]
        lam, lam_pt = _min_eig(w), _min_eig(_partial_transpose_bob(w))
        if min(lam, lam_pt) < -PSD_TOL:
            problems.append(f"witness not PPT: lambda_min {lam:.3e}, "
                            f"lambda_min(PT) {lam_pt:.3e}")
        worst = max(
            abs(np.trace(w @ op).real - b) for op, b in zip(cs.operators, cs.targets)
        )
        if worst > RESIDUAL_TOL:
            problems.append(f"witness constraint residual {worst:.3e}")
    if task.kind == "paper" and report.feasible:
        problems.append("the paper's point must be INFEASIBLE")
    if rho is not None and not report.feasible and not verify.ppt_oracle(rho):
        problems.append("INFEASIBLE verdict for a PPT generating state")
    return problems


def check_job(outcomes) -> dict:
    """Monotonicity is checked per scan, against the reference table."""
    return {}


def traffic(outcomes) -> dict:
    verdicts = Counter(
        o.result.report.verdict
        for o in outcomes
        if o.task.kind != "boundary" and o.result is not None
    )
    noise = [o.task for o in outcomes if o.task.kind == "verdict"]
    boundary = [o for o in outcomes if o.task.kind == "boundary"]
    return {
        "verdicts": dict(sorted(verdicts.items())),
        "verdict_base": sum(verdicts.values()),
        "asymmetric_efficiency_pairs": sum(
            t.inputs["eta_l"] != t.inputs["eta_s"] for t in noise
        ),
        "boundary_v_z": [o.task.inputs["v_z"] for o in boundary],
        "boundary_evals": [
            o.result.iterations for o in boundary if o.result is not None
        ],
    }


if __name__ == "__main__":
    # Regenerates the reference table in boundary_reference.json.
    eff = measurement.AnalyzerEfficiencies(_REFERENCE["eta"], _REFERENCE["eta"])
    rows = [
        [p.v_z, p.threshold]
        for p in verify.boundary_scan(sorted(REFERENCE), eff, resolution=RESOLUTION)
    ]
    print(json.dumps({**_REFERENCE, "thresholds": rows}, indent=2))
