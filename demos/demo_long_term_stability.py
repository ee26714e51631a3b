"""Long-term phase stability via the drift-invariant combined expectation.

The passively stabilized analyzer phase wanders slowly.  Measuring the
superposition basis at two quadratures of the polarization qubit gives
E1 = v cos(phi) and E2 = v sin(phi); their quadrature sum recovers the
visibility no matter where the phase drifts, so the entanglement metric
stays flat for half an hour of simulated drift.
"""

import math

from timebin_analyzer import analysis, chsh, svg

drift = chsh.DriftModel("linear", amount=math.pi / 2, period=1800.0, phase0=0.3)

print("Noiseless half-hour run, 3-minute buckets, pi/2 of total drift:")
curve = analysis.stability_series(0.804, drift, duration=1800.0, bucket=180.0)
print(f"{'t [min]':>8} {'E_phi':>8} {'E_quad':>8} {'combined':>9}")
for t, e1, e2, comb in curve.rows:
    print(f"{t / 60:8.1f} {e1:8.4f} {e2:8.4f} {comb:9.4f}")

noisy = analysis.stability_series(
    0.804, drift, duration=1800.0, bucket=180.0, rate=1000.0, seed=11
)
worst = min(noisy.rows[:, 3])
print(f"\nWith Poisson noise at 1000 coincidences/s the combined value dips to "
      f"{worst:.3f},")
print("still comfortably above the 0.65 needed to certify entanglement at "
      "v_z = 0.952")

t_min = noisy.rows[:, 0] / 60.0
svg.line_plot(
    "demo_long_term_stability.svg",
    [
        ("E at phi'", t_min, noisy.rows[:, 1]),
        ("E at phi' + pi/2", t_min, noisy.rows[:, 2]),
        ("combined", t_min, noisy.rows[:, 3]),
        ("certification floor", [t_min[0], t_min[-1]], [0.65, 0.65]),
    ],
    "noisy half-hour run at 1000 coincidences/s", "time [min]", "expectation value",
)
print("\nsaved demo_long_term_stability.svg")
