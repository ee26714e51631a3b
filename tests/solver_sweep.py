"""Solver sweep: the verdicts, margins and iterations of
``verify.sdp_feasible`` on a fixed set of points, and the thresholds of
``verify.boundary_scan`` on the default ``npt-boundary`` grid.

Run it on two trees and compare, to show that a solver change moves no
verdict and no threshold::

    cd old-tree && PYTHONPATH=src python path/to/solver_sweep.py > old.json
    cd new-tree && PYTHONPATH=src python path/to/solver_sweep.py > new.json
    python tests/solver_sweep.py old.json new.json

With no argument it prints one JSON document.  With two documents it
prints whether they are identical, the verdict flips, the threshold
moves, the largest |margin difference|, the iteration totals and the
largest single-solve iteration count of each side, how many solves
took more iterations on the new side than on the old, and each side's
largest final dual residual ||A^T Z - c|| (``null`` for a document
written before solves recorded it).  A solver change meant to be
bit-identical must show ``"identical": true``.  pytest does not collect
this file.

The points (efficiencies (0.9, 0.9) unless drawn):
  - the paper point (0.952, 0.804), (0.9, 0.3), (1, 1/1024) and
    (0.952, 0.3066);
  - 200 random points, seed 2026: v_z and v_xy uniform in [0, 1],
    eta_l and eta_s uniform in [0.3, 1];
  - the 64 points v_xy = k/1024, k = 1..64, at v_z = 1.
The scans: the default grid 0.5, 0.7, 0.8, 0.9, 0.952, 1.0 at
resolution 1e-3, at efficiencies (0.9, 0.9), (0.8, 0.5), (0.5, 0.8),
(0.3, 1) and (1, 1).
"""

import json
import sys

import numpy as np

NAMED = [(0.952, 0.804), (0.9, 0.3), (1.0, 1 / 1024), (0.952, 0.3066)]
GRID = [0.5, 0.7, 0.8, 0.9, 0.952, 1.0]
SCAN_EFFICIENCIES = [(0.9, 0.9), (0.8, 0.5), (0.5, 0.8), (0.3, 1.0), (1.0, 1.0)]


def points():
    """(label, v_z, v_xy, eta_l, eta_s) of every single solve."""
    out = [(f"named {v_z} {v_xy}", v_z, v_xy, 0.9, 0.9) for v_z, v_xy in NAMED]
    draws = np.random.default_rng(2026).uniform(
        [0.0, 0.0, 0.3, 0.3], [1.0, 1.0, 1.0, 1.0], size=(200, 4)
    )
    out += [(f"random {i}", *map(float, row)) for i, row in enumerate(draws)]
    out += [(f"k/1024 {k}", 1.0, k / 1024, 0.9, 0.9) for k in range(1, 65)]
    return out


def run():
    from timebin_analyzer import verify
    from timebin_analyzer.measurement import AnalyzerEfficiencies

    solves = {}
    for label, v_z, v_xy, eta_l, eta_s in points():
        eff = AnalyzerEfficiencies(eta_l, eta_s)
        try:
            report = verify.sdp_feasible(verify.build_constraints(v_z, v_xy, eff))
        except Exception as exc:
            solves[label] = {"error": type(exc).__name__}
            continue
        solves[label] = {
            "verdict": report.verdict,
            "margin": repr(report.margin),
            "iterations": report.iterations,
            "dual_residual": report.dual_residual,
        }
    scans = {}
    for eta_l, eta_s in SCAN_EFFICIENCIES:
        label = f"eff {eta_l} {eta_s}"
        try:
            result = verify.boundary_scan(GRID, AnalyzerEfficiencies(eta_l, eta_s))
        except Exception as exc:
            scans[label] = {"error": type(exc).__name__}
            continue
        scans[label] = {
            "thresholds": {repr(p.v_z): repr(p.threshold) for p in result},
            "iterations": sum(p.iterations for p in result),
        }
    return {"solves": solves, "scans": scans}


def outcome(entry, key):
    """The entry's ``key`` value, or its exception name."""
    return entry.get(key, entry.get("error"))


def compare(old, new):
    flips, moves, worst = [], [], 0.0
    for label, a in old["solves"].items():
        b = new["solves"][label]
        if outcome(a, "verdict") != outcome(b, "verdict"):
            flips.append(label)
        elif "margin" in a:
            worst = max(worst, abs(float(a["margin"]) - float(b["margin"])))
    for label, a in old["scans"].items():
        if outcome(a, "thresholds") != outcome(new["scans"][label], "thresholds"):
            moves.append(label)

    def iterations(doc):
        totals = {
            part: sum(entry.get("iterations", 0) for entry in doc[part].values())
            for part in ("solves", "scans")
        }
        totals["largest_solve"] = max(
            entry.get("iterations", 0) for entry in doc["solves"].values()
        )
        return totals

    def largest_dual_residual(doc):
        """None for a document written before solves recorded the field."""
        values = [e["dual_residual"] for e in doc["solves"].values()
                  if "dual_residual" in e]
        return max(values, default=None)

    slower = sum(
        new["solves"][label].get("iterations", 0) > a.get("iterations", 0)
        for label, a in old["solves"].items()
    )
    return {
        "identical": old == new,
        "verdict_flips": flips,
        "threshold_moves": moves,
        "largest_margin_difference": worst,
        "iterations": {"old": iterations(old), "new": iterations(new)},
        "solves_with_more_iterations": slower,
        "largest_dual_residual": {
            "old": largest_dual_residual(old),
            "new": largest_dual_residual(new),
        },
    }


if __name__ == "__main__":
    if len(sys.argv) == 3:
        with open(sys.argv[1]) as f_old, open(sys.argv[2]) as f_new:
            print(json.dumps(compare(json.load(f_old), json.load(f_new)), indent=1))
    elif len(sys.argv) == 1:
        print(json.dumps(run(), indent=1))
    else:
        sys.exit(__doc__)
