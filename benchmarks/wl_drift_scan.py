"""Workload ``drift_scan``: CHSH from drifting-phase scans, stability, CLI.

Why this workload: ``chsh`` and ``analysis`` are per-bucket Python loops
(tens of ms at 240 buckets, most of a second at 3600).  The n^2 two-time
surface takes about half a second and about 100 MB per array at 3600
buckets, so the long scans set the slowest tasks and ``peak_rss_mb``.
Vectorized scans or an O(n) surface show on the long scans.  The CLI
export path uses the same surface in a different way (dense CSV rows),
so a change that speeds the maximum but slows or breaks export also
shows here.  ``cli`` and ``svg`` run only in this workload; importing
``cli`` loads scipy without using it, so lazy scipy moves ``setup_s``.

Traffic per job (size ``full``), 28 tasks:
- 16 pairs of ``simulate_drift_scan`` (settings z+x and z-x, seeded
  Poisson counts) followed by ``estimate_chsh``, at 240 to 480 buckets of
  0.5 s (a fixed spread assigned by the seed);
- 2 long pairs: one noiseless at 3600 buckets (30 min) taking the full
  ``max_expectation_surface``, one seeded at 1200 buckets;
- 6 ``analysis.stability_series`` runs with 1 s buckets over 1 to 3 h;
- 4 ``cli.main`` runs at default size: ``chsh-scan`` and ``stability``,
  each with and without ``--svg``.  Every round of the job repeats each
  argv, and the warm-up runs one of them first, so repeats of an argv
  must write identical bytes.
The 90th percentile lies among the CLI ``chsh-scan`` runs and the
seeded long pair, below the noiseless long pair; the median among the
scan pairs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from harness import Task, spread
from timebin_analyzer import analysis, chsh, cli, states
from timebin_analyzer.measurement import AnalyzerEfficiencies

NAME = "drift_scan"
WHY = (
    "chsh and analysis per-bucket loops and the n^2 surface: long scans set "
    "p90 and peak memory; CLI export and svg run only here"
)

P_XY, P_Z = 0.012, 0.086  # the paper's noise point
V_Z, V_XY = 1 - 4 * P_XY, 1 - 2 * (P_XY + P_Z)  # its visibilities, closed form
ETA = 0.9
RATE = 1000.0
BUCKET = 0.5
DRIFT_PERIOD = 120.0
AXES = ("z+x", "z-x")
SIZES = {
    "full": {"pairs": 16, "pair_buckets": (240, 480), "long_buckets": (3600, 1200),
             "stability": 6, "stability_hours": (1, 3), "cli_argvs": 4},
    "smoke": {"pairs": 2, "pair_buckets": (240, 240), "long_buckets": (240, 240),
              "stability": 1, "stability_hours": (0.1, 0.1), "cli_argvs": 2},
}
NOISELESS_TOL = 1e-6
MEAN_S_RANGE = (2.32, 2.52)
STABILITY_TOL = 0.01


class Pair(NamedTuple):
    estimate: chsh.ChshEstimate
    max_abs: float | None  # max |E| of the z+x surface, noiseless pairs only


class CliRun(NamedTuple):
    code: int
    stderr: str
    out_dir: object
    csv_bytes: int


def generate(seed: int, size: str = "full") -> list:
    cfg = SIZES[size]
    rng = random.Random(seed)
    entries = []
    buckets = spread(*cfg["pair_buckets"], cfg["pairs"])
    rng.shuffle(buckets)
    for n in buckets:
        entries.append(("pair", {"buckets": n, "seed": rng.randrange(2**31),
                                 "phase0": rng.uniform(0, 2 * math.pi)}))
    # The noiseless pair starts at phase 0 so that its phase grid holds
    # the maximizing pair of the surface and max |E| is exact.
    noiseless_buckets, seeded_buckets = cfg["long_buckets"]
    entries.append(("long", {"buckets": noiseless_buckets, "seed": None,
                             "phase0": 0.0}))
    entries.append(("long", {"buckets": seeded_buckets,
                             "seed": rng.randrange(2**31),
                             "phase0": rng.uniform(0, 2 * math.pi)}))
    lo, hi = cfg["stability_hours"]
    for i in range(cfg["stability"]):
        hours = lo if cfg["stability"] == 1 else lo + (hi - lo) * i / (cfg["stability"] - 1)
        entries.append(("stability", {
            "duration": round(3600 * hours), "v_xy": rng.uniform(0.7, 0.85),
            "seed": rng.randrange(2**31),
        }))
    commands = [["chsh-scan"], ["chsh-scan", "--svg"], ["stability"],
                ["stability", "--svg"]][: cfg["cli_argvs"]]
    for argv in commands:
        entries.append(("cli", {"argv": argv + ["--seed", str(rng.randrange(1000))]}))
    rng.shuffle(entries)
    return [Task(i, kind, inputs) for i, (kind, inputs) in enumerate(entries)]


def warmup(tasks):
    return next(t for t in tasks if t.kind == "cli" and t.inputs["argv"][0] == "chsh-scan")


_PROBE_RHO = np.eye(6, dtype=complex) / 6
_PROBE_OPS = [np.eye(3, k=k) for k in (-1, 0, 1)]

# About the seconds the probe took on the reference host (2-core Xeon VM,
# one BLAS thread).  It sets the scale of the timings, so it stays fixed
# for results to compare across commits.
PROBE_REF_S = 0.011


def probe():
    """A fixed slice of a scan's per-bucket loop written with numpy alone:
    small Kronecker products and traces, driven from Python."""
    for k in range(70):
        phase = np.exp(1j * 0.01 * k)
        for op in _PROBE_OPS:
            np.trace(_PROBE_RHO @ np.kron(np.eye(2), op * phase)).real


def _pair(tr, x):
    n = x["buckets"]
    noise = tr.call(states.DepolarizationParams.unbiased, P_XY, P_Z)
    rho = tr.call(states.depolarize, tr.call(states.hybrid_bell_state), noise)
    eff = AnalyzerEfficiencies(ETA, ETA)
    drift = chsh.DriftModel("linear", 2 * math.pi, DRIFT_PERIOD, x["phase0"])
    noiseless = x["seed"] is None
    traces = [
        tr.call(chsh.simulate_drift_scan, rho, eff, drift, alice_axis=axis,
                rate=RATE, duration=n * BUCKET, bucket=BUCKET,
                seed=None if noiseless else x["seed"] + i)
        for i, axis in enumerate(AXES)
    ]
    tr.count("chsh.buckets", 2 * n)
    estimate = tr.call(chsh.estimate_chsh, *traces, split=not noiseless)
    tr.count("chsh.surface_cells", 2 * (n * n if noiseless else ((n + 1) // 2) ** 2))
    if not noiseless:
        return Pair(estimate, None)
    surface = tr.call(chsh.max_expectation_surface, traces[0])
    tr.count("chsh.surface_cells", n * n)
    return Pair(estimate, surface.max_abs)


def _cli(tr, ctx, task):
    out_dir = Path(tempfile.mkdtemp(dir=ctx.workdir))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = tr.call(cli.main, task.inputs["argv"] + ["--out-dir", str(out_dir)])
    csv_bytes = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
    tr.count("cli.exit_nonzero", code != 0)
    tr.count("cli.csv_bytes", csv_bytes)
    return CliRun(code, err.getvalue(), out_dir, csv_bytes)


def run(task, tr, ctx):
    x = task.inputs
    if task.kind in ("pair", "long"):
        return _pair(tr, x)
    if task.kind == "stability":
        drift = chsh.DriftModel("linear", math.pi / 2, 1800.0)
        curve = tr.call(analysis.stability_series, x["v_xy"], drift,
                        float(x["duration"]), 1.0, rate=RATE, seed=x["seed"])
        tr.count("analysis.stability.buckets", x["duration"])
        return curve
    return _cli(tr, ctx, task)


def _digest(out_dir):
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check(task, result, ctx) -> list:
    x = task.inputs
    if task.kind == "stability":
        rows = result.rows
        if rows.shape[0] != x["duration"] or np.max(np.abs(rows[:, 1:3])) > 1:
            return ["stability series has the wrong length or |E| > 1"]
        drift_free = float(np.mean(rows[:, 3]))
        if abs(drift_free - x["v_xy"]) > STABILITY_TOL:
            return [f"mean combined expectation {drift_free:.4f} is not v_xy "
                    f"{x['v_xy']:.4f} within {STABILITY_TOL}"]
        return []
    if task.kind == "cli":
        if result.code != 0:
            return [f"exit code {result.code}: {result.stderr.strip()}"]
        digest = _digest(result.out_dir)
        shutil.rmtree(result.out_dir)
        first = ctx.memo.setdefault(json.dumps(x["argv"]), digest)
        return [] if digest == first else ["output bytes differ from an earlier run "
                                           "of the same argv"]
    s = result.estimate.s
    if not abs(s) <= 2 * math.sqrt(2) + 1e-12:
        return [f"|S| = {abs(s)} exceeds 2 sqrt 2"]
    if result.max_abs is not None:
        problems = []
        if abs(result.max_abs - V_XY / math.sqrt(2)) > NOISELESS_TOL:
            problems.append(f"noiseless max|E| {result.max_abs!r} is not "
                            f"v_xy/sqrt2 = {V_XY / math.sqrt(2)!r}")
        if abs(s - math.sqrt(2) * (V_Z + V_XY)) > NOISELESS_TOL:
            problems.append(f"noiseless S {s!r} is not sqrt2 (v_z + v_xy)")
        return problems
    return []


def _seeded_pairs(outcomes):
    return [o for o in outcomes if o.task.kind in ("pair", "long")
            and o.task.inputs["seed"] is not None and o.result is not None]


def check_job(outcomes) -> dict:
    """The job's mean seeded S must lie in 2.42 +/- 0.10."""
    seeded = _seeded_pairs(outcomes)
    if not seeded:
        return {}
    mean_s = sum(o.result.estimate.s for o in seeded) / len(seeded)
    lo, hi = MEAN_S_RANGE
    if lo <= mean_s <= hi:
        return {}
    msg = f"mean seeded S {mean_s:.4f} over {len(seeded)} pairs outside [{lo}, {hi}]"
    return {o.task.id: [msg] for o in seeded}


def traffic(outcomes) -> dict:
    scans = [o.task.inputs for o in outcomes if o.task.kind in ("pair", "long")]
    seeded = [o.result.estimate.s for o in _seeded_pairs(outcomes)]
    cli_runs = [o for o in outcomes if o.task.kind == "cli"]
    return {
        "tasks_by_kind": dict(Counter(o.task.kind for o in outcomes)),
        "buckets_per_scan": {
            "min": min(x["buckets"] for x in scans),
            "median": sorted(x["buckets"] for x in scans)[len(scans) // 2],
            "max": max(x["buckets"] for x in scans),
            "total": 2 * sum(x["buckets"] for x in scans),
        },
        "noiseless_pairs": sum(x["seed"] is None for x in scans),
        "mean_seeded_s": sum(seeded) / len(seeded) if seeded else None,
        "stability_buckets": sum(o.task.inputs["duration"] for o in outcomes
                                 if o.task.kind == "stability"),
        "cli_argvs": sorted({" ".join(o.task.inputs["argv"]) for o in cli_runs}),
        "cli_csv_bytes": sum(o.result.csv_bytes for o in cli_runs
                             if o.result is not None),
    }
