"""Scan sweep: SHA-256 digests of drift scans, CHSH estimates, surface
maxima and stability series over a fixed grid.

Run it on two trees and compare, to show that a change to ``chsh`` or
``analysis`` moves no bit of what they compute::

    cd old-tree && PYTHONPATH=src python path/to/scan_sweep.py > old.json
    cd new-tree && PYTHONPATH=src python path/to/scan_sweep.py > new.json
    python tests/scan_sweep.py old.json new.json

With no argument it prints one JSON document of digests, keyed by case.
With two documents it prints whether they are identical and the first
key whose digest differs.  A change meant to be bit-identical must show
``"identical": true``.  pytest does not collect this file.

The grid, for the depolarized paper state and a linear drift of 2 pi per
120 s at 0.5 s buckets:
  - ``simulate_drift_scan`` counts and times for seeds None, 0, 1, 7 and
    123, rates 1000 and 3 per second, the five named Alice axes,
    efficiencies (0.9, 0.9), (0.8, 0.5) and (1, 1), and 1, 240 and 1200
    buckets (450 scans);
  - ``max_expectation_surface`` of every scan;
  - ``estimate_chsh``, split on and off, of every z+x / z-x pair;
  - ``stability_series`` rows (v_xy 0.804, 1 s buckets) for rates None,
    1000 and 3, seeds 0, 1, 7 and 123, and 1, 240 and 1200 buckets.
A case that raises records the exception's name in place of a digest.
"""

import hashlib
import json
import math
import sys

import numpy as np

SEEDS = [None, 0, 1, 7, 123]
RATES = [1000.0, 3.0]
AXES = ["z+x", "z-x", "x", "y", "z"]
EFFICIENCIES = [(0.9, 0.9), (0.8, 0.5), (1.0, 1.0)]
BUCKETS = [1, 240, 1200]


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def record(out, key, compute):
    """``out[key]`` = the digest ``compute()`` returns, or its exception name."""
    try:
        out[key] = compute()
    except Exception as exc:
        out[key] = type(exc).__name__


def run():
    from timebin_analyzer import analysis, chsh, states
    from timebin_analyzer.measurement import AnalyzerEfficiencies

    rho = states.depolarize(
        states.hybrid_bell_state(), states.DepolarizationParams.unbiased(0.012, 0.086)
    )
    drift = chsh.DriftModel("linear", 2 * math.pi, 120.0, 0.0)
    out = {}
    for seed in SEEDS:
        for rate in RATES:
            for eta_l, eta_s in EFFICIENCIES:
                eff = AnalyzerEfficiencies(eta_l, eta_s)
                for n in BUCKETS:
                    case = f"seed {seed} rate {rate:g} eff {eta_l:g} {eta_s:g} n {n}"
                    traces = {}
                    for axis in AXES:
                        traces[axis] = chsh.simulate_drift_scan(
                            rho, eff, drift, alice_axis=axis, rate=rate,
                            duration=n * 0.5, bucket=0.5, seed=seed,
                        )
                        tr = traces[axis]
                        out[f"scan {case} {axis}"] = digest(tr.times, tr.counts)

                        def surface(tr=tr):
                            res = chsh.max_expectation_surface(tr)
                            return digest(
                                np.array([res.max_abs, res.value_at_argmax]),
                                np.array(res.argmax),
                            )

                        record(out, f"surface {case} {axis}", surface)
                    for split in (True, False):
                        record(out, f"estimate {case} split {split}", lambda: digest(
                            np.array(chsh.estimate_chsh(
                                traces["z+x"], traces["z-x"], split=split
                            ))
                        ))
    for rate in (None, 1000.0, 3.0):
        for seed in (0, 1, 7, 123):
            for n in BUCKETS:
                record(out, f"stability rate {rate} seed {seed} n {n}", lambda: digest(
                    analysis.stability_series(
                        0.804, drift, float(n), 1.0, rate=rate, seed=seed
                    ).rows
                ))
    return out


def compare(old, new):
    first = next((key for key in old if old[key] != new.get(key)), None)
    if first is None:
        first = next((key for key in new if key not in old), None)
    return {"identical": old == new, "first_difference": first, "cases": len(old)}


if __name__ == "__main__":
    if len(sys.argv) == 3:
        with open(sys.argv[1]) as f_old, open(sys.argv[2]) as f_new:
            print(json.dumps(compare(json.load(f_old), json.load(f_new)), indent=1))
    elif len(sys.argv) == 1:
        print(json.dumps(run(), indent=1))
    else:
        sys.exit(__doc__)
