"""CHSH estimation with a drifting analyzer phase.

The analyzer has a single superposition-basis output, so the second
outcome is recovered by letting the phase drift and pairing counts from
two different times.  This script simulates the six coincidence traces
for both polarization settings, builds the two-time expectation
surface, and extracts the CHSH parameter.
"""

import math

import numpy as np

from timebin_analyzer import chsh, states, svg
from timebin_analyzer.measurement import AnalyzerEfficiencies

rho = states.depolarize(
    states.hybrid_bell_state(), states.DepolarizationParams.unbiased(0.012, 0.086)
)
eff = AnalyzerEfficiencies(0.9, 0.9)
duration = 60.0
drift = chsh.DriftModel("linear", amount=2 * math.pi, period=duration)

print("Noiseless scan (expected counts): the surface maximum is exactly v_xy")
trace = chsh.simulate_drift_scan(
    rho, eff, drift, alice_axis="x", duration=duration, seed=None
)
surface = chsh.max_expectation_surface(trace)
i, j = surface.argmax
print(f"  max |E(t1, t2)| = {surface.max_abs:.6f} at t1 = {trace.times[i]:.1f} s, "
      f"t2 = {trace.times[j]:.1f} s (phase difference ~ pi)")

print("\nPoisson simulation at 1000 coincidences/s, 0.5 s buckets:")
estimates = []
for seed in range(5):
    scans = [
        chsh.simulate_drift_scan(
            rho, eff, drift, alice_axis=axis, duration=duration,
            seed=100 + 2 * seed + k,
        )
        for k, axis in enumerate(("z+x", "z-x"))
    ]
    est = chsh.estimate_chsh(*scans)
    estimates.append(est.s)
    print(
        f"  seed {seed}: S = {est.s:.3f} "
        f"(E11 {est.e11:+.3f}, E12 {est.e12:+.3f}, E21 {est.e21:+.3f}, "
        f"E22 {est.e22:+.3f})"
    )
print(f"  mean S = {np.mean(estimates):.3f}; "
      f"prediction sqrt(2)(0.952 + 0.804) = {chsh.s_theo(0.952, 0.804):.3f}")

svg.line_plot(
    "demo_chsh_drift_scan.svg",
    [
        (f"{det} {b}", trace.times, counts)
        for det, bins in zip(chsh.DETECTORS, trace.counts)
        for b, counts in zip(chsh.BINS, bins)
    ],
    "noiseless drift scan (setting x)", "time [s]", "expected counts per bucket",
)
print("\nsaved demo_chsh_drift_scan.svg")
