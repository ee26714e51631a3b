"""Workload ``aoi_sweep``: angle-of-incidence sweeps, wave optics and rays.

Why this workload: the ``waveoptics`` FFT kernels dominate, and
``verify`` and ``chsh`` do no work.  A relay-off angle costs about
0.1 s at 512^2 (of which ``alias_free_range`` is about a third), a
relay-on angle a few ms, and ray tasks take microseconds.  Grids of
256^2 and 512^2 (1 MB and 4 MB per complex field) sit on either side of
a 2 MB per-core L2.  One spectral pass per sweep should gain on long
relay-off sweeps; its fixed per-sweep cost would show on 5-angle
sweeps, and relay-on and ray tasks should not move.

Traffic per job (size ``full``), 49 tasks:
- 20 wave sweeps with the relay on and 9 with it off, each
  ``make_gaussian`` or ``make_speckle`` (several mode counts and seeds)
  followed by ``aoi_visibility_scan`` over 5 to 41 angles up to 1-2 mrad.
  Relay-on sweeps are 10 at 256^2 and 10 at 512^2; relay-off sweeps are
  6 at 256^2 (5-41 angles) and 3 at 512^2 (5-17 angles).  Angle counts
  are a fixed spread per class, each with a fixed field kind (Gaussian
  and speckle alternate along the spread), so every seed does the same
  FFT work and the tasks rank alike; the seed draws the sweep widths,
  the speckle seeds and the order of the tasks.
- 10 ray references (``geometry.visibility`` and ``geometry.phase``) and
  10 ``analysis.expectation_vs_aoi`` curves at 801 angles.
The 9 relay-off sweeps are the slowest tasks, so the 90th percentile
lies among them and the median among the relay-on sweeps.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from harness import Task, spread
from timebin_analyzer import analysis, geometry, waveoptics

NAME = "aoi_sweep"
WHY = (
    "waveoptics FFT kernels dominate: relay-off sweeps at 256^2 and 512^2 set "
    "p90 and job_s, relay-on and ray tasks set p50; verify and chsh idle"
)

GEOM = geometry.InterferometerGeometry(
    delta_l0=0.60, sigma=1.49e-3, v0=0.91, wavelength=776e-9, focal_length=0.1
)
SPECKLE_MODES = {256: (5, 10, 20, 30), 512: (10, 30, 50)}
WAVE_ERRORS = (
    waveoptics.AliasingError,
    waveoptics.ShiftTooLargeError,
    waveoptics.GridResolutionError,
)
# (relay, grid_n, tasks, fewest angles, most angles) per wave-sweep class.
SIZES = {
    "full": {
        "wave": [(True, 256, 10, 5, 41), (True, 512, 10, 5, 41),
                 (False, 256, 6, 5, 41), (False, 512, 3, 5, 17)],
        "ray": 10, "expectation": 10, "ray_angles": 801,
    },
    "smoke": {
        "wave": [(True, 256, 1, 5, 5), (False, 256, 2, 3, 5)],
        "ray": 1, "expectation": 2, "ray_angles": 41,
    },
}
RELAY_ON_TOL = 1e-3
RAY_MODEL_TOL = 1e-2


def generate(seed: int, size: str = "full") -> list:
    cfg = SIZES[size]
    rng = random.Random(seed)
    entries = []
    for relay, grid_n, count, lo, hi in cfg["wave"]:
        modes = SPECKLE_MODES[grid_n]
        for i, k in enumerate(spread(lo, hi, count)):
            x = {"relay": relay, "grid_n": grid_n, "angles": k,
                 "alpha_max": rng.uniform(1e-3, 2e-3)}
            if i % 2 == 0:
                x["mode"] = "gaussian"
            else:
                x.update(mode="speckle", mode_count=modes[(i // 2) % len(modes)],
                         speckle_seed=rng.randrange(2**31))
            entries.append(("wave", x))
    for _ in range(cfg["ray"]):
        entries.append(("ray", {"angles": cfg["ray_angles"],
                                "alpha_max": rng.uniform(1e-4, 2e-3)}))
    for i in range(cfg["expectation"]):
        entries.append(("expectation", {
            "relay": i % 2 == 0, "angles": cfg["ray_angles"],
            "alpha_max": math.radians(rng.uniform(0.05, 0.24)),
            "v_xy": rng.uniform(0.7, 0.85), "fixed_phase": rng.uniform(0, 2 * math.pi),
        }))
    rng.shuffle(entries)
    return [Task(i, kind, inputs) for i, (kind, inputs) in enumerate(entries)]


def warmup(tasks):
    """The shortest relay-off sweep on the smallest grid: it reaches every
    kernel of the wave path."""
    wave_off = [t for t in tasks if t.kind == "wave" and not t.inputs["relay"]]
    return min(wave_off, key=lambda t: (t.inputs["grid_n"], t.inputs["angles"], t.id))


_PROBE_FIELD = np.exp(-np.add.outer(*(2 * [np.linspace(-2.0, 2.0, 512) ** 2])) + 0j)

# About the seconds the probe took on the reference host (2-core Xeon VM,
# one BLAS thread).  It sets the scale of the timings, so it stays fixed
# for results to compare across commits.
PROBE_REF_S = 0.014


def probe():
    """A fixed slice of a relay-off angle written with numpy alone: a tilt
    phase on a 512^2 field and its FFT."""
    np.fft.fft2(_PROBE_FIELD * np.exp(1j * np.linspace(0.0, 1.0, 512)))


def _alphas(x):
    return np.linspace(-x["alpha_max"], x["alpha_max"], x["angles"])


def run(task, tr, ctx):
    x = task.inputs
    alphas = _alphas(x)
    if task.kind == "ray":
        return (tr.call(geometry.visibility, GEOM, alphas),
                tr.call(geometry.phase, GEOM, alphas))
    if task.kind == "expectation":
        return tr.call(analysis.expectation_vs_aoi, GEOM, x["v_xy"], alphas,
                       x["relay"], fixed_phase=x["fixed_phase"])
    try:
        if x["mode"] == "gaussian":
            field = tr.call(
                waveoptics.make_gaussian,
                float(geometry.intensity_std_from_sigma(GEOM.sigma)),
                grid_n=x["grid_n"], wavelength=GEOM.wavelength,
            )
        else:
            field = tr.call(
                waveoptics.make_speckle, x["mode_count"], x["speckle_seed"],
                grid_n=x["grid_n"], wavelength=GEOM.wavelength,
            )
        with tr.span("waveoptics.aoi_visibility_scan") as sp:
            vis = waveoptics.aoi_visibility_scan(field, GEOM, alphas, x["relay"])
    except WAVE_ERRORS:
        tr.count("waveoptics.errors")
        raise
    side = "relay_on" if x["relay"] else "relay_off"
    tr.count(f"waveoptics.{side}.s", sp.seconds)
    tr.count(f"waveoptics.{side}.angles", alphas.size)
    return vis


def _ray_visibility(alphas):
    """Closed-form ray visibility, written here independently of the library."""
    t = np.tan(alphas)
    arg = GEOM.delta_l0 * t / (math.sqrt(2.0) * GEOM.sigma * (1.0 + t))
    return GEOM.v0 * np.exp(-(arg**2))


def check(task, result, ctx) -> list:
    x = task.inputs
    alphas = _alphas(x)
    if task.kind == "ray":
        vis, ph = result
        problems = []
        if not np.allclose(vis, _ray_visibility(alphas), rtol=1e-12, atol=0):
            problems.append("ray visibility differs from the closed form")
        wrapped = np.asarray(ph.wrapped)
        residue = np.angle(np.exp(1j * (np.asarray(ph.unwrapped) - wrapped)))
        if np.any(wrapped <= -math.pi) or np.any(wrapped > math.pi) or np.max(
            np.abs(residue)
        ) > 1e-6:
            problems.append("wrapped phase is not the unwrapped phase in (-pi, pi]")
        return problems
    if task.kind == "expectation":
        e, rate = result.rows[:, 1], result.rows[:, 2]
        problems = []
        if x["relay"]:
            if np.max(np.abs(e - x["v_xy"] * math.cos(x["fixed_phase"]))) > 1e-12:
                problems.append("relay-on expectation is not v_xy cos(phase)")
        elif np.max(np.abs(e)) > x["v_xy"] + 1e-12:
            problems.append("relay-off |E| exceeds v_xy")
        if np.any(rate < 0) or np.any(rate > 1):
            problems.append("collection rate outside [0, 1]")
        return problems
    vis = np.asarray(result)
    if vis.shape != alphas.shape or not np.all(np.isfinite(vis)):
        return ["visibility sweep has the wrong shape or non-finite values"]
    if x["relay"]:
        worst = float(np.max(np.abs(vis - GEOM.v0)))
        if worst > RELAY_ON_TOL:
            return [f"relay-on visibility deviates from v0 by {worst:.3e}"]
    elif x["mode"] == "gaussian":
        worst = float(np.max(np.abs(vis - _ray_visibility(alphas))))
        if worst > RAY_MODEL_TOL:
            return [f"Gaussian relay-off visibility deviates from the ray model "
                    f"by {worst:.3e}"]
    elif np.any(vis < 0) or np.any(vis > GEOM.v0 + 1e-9):
        return ["speckle relay-off visibility outside [0, v0]"]
    return []


def check_job(outcomes) -> dict:
    return {}


def traffic(outcomes) -> dict:
    wave = [o.task.inputs for o in outcomes if o.task.kind == "wave"]
    return {
        "tasks_by_kind": dict(Counter(o.task.kind for o in outcomes)),
        "relay_split": {"on": sum(x["relay"] for x in wave),
                        "off": sum(not x["relay"] for x in wave)},
        "grid_sizes": {f"{n}^2": c for n, c in
                       sorted(Counter(x["grid_n"] for x in wave).items())},
        "angles_per_sweep": {
            "relay_on": sorted(x["angles"] for x in wave if x["relay"]),
            "relay_off": sorted(x["angles"] for x in wave if not x["relay"]),
        },
        "field_modes": dict(Counter(
            x["mode"] if x["mode"] == "gaussian" else f"speckle{x['mode_count']}"
            for x in wave
        )),
    }
