"""Certifying entanglement from two visibilities, with loss in the model.

A 2x3 feasibility program asks whether any state with a positive
partial transpose could have produced the measured visibilities through
the lossy analyzer.  If none can, the measurement certifies
entanglement.  The classical boundary in the (v_z, v_xy) plane is found
by a bracketed search on the solver margin over a grid of v_xy.  It is
independent of the analyzer losses and, as the tests check, lies on the
circle v_z^2 + v_xy^2 = 1.
"""

from timebin_analyzer import svg, verify
from timebin_analyzer.measurement import AnalyzerEfficiencies

eff = AnalyzerEfficiencies(0.9, 0.9)

print("Measured visibilities v_z = 0.952, v_xy = 0.804:")
report = verify.sdp_feasible(verify.build_constraints(0.952, 0.804, eff))
print(f"  {report.verdict} (margin {report.margin:+.4e}, "
      f"{report.iterations} iterations)")
print("  no PPT state is consistent with the data: the state was entangled")

print("\nControl points:")
for v_z, v_xy, note in (
    (1.0, 0.0, "perfect z correlations alone are classical"),
    (0.0, 0.0, "featureless data, maximally mixed state works"),
):
    rep = verify.sdp_feasible(verify.build_constraints(v_z, v_xy, eff))
    print(f"  (v_z={v_z}, v_xy={v_xy}): {rep.verdict} "
          f"(margin {rep.margin:+.3e}) - {note}")

print("\nClassical boundary (smallest v_xy that certifies entanglement):")
grid = [0.80, 0.90, 0.952, 1.0]
points = verify.boundary_scan(grid, eff)
for p in points:
    print(f"  v_z = {p.v_z:.3f}: v_xy threshold = {p.threshold:.3f}")
print("  the measured point (0.952, 0.804) sits far above the bound")

print("\nLoss independence of the boundary:")
for eta_l, eta_s in ((0.45, 0.45), (0.8, 0.5), (0.5, 0.8)):
    alt = verify.boundary_scan([0.952], AnalyzerEfficiencies(eta_l, eta_s))
    print(f"  eta_l = {eta_l}, eta_s = {eta_s}: threshold at v_z = 0.952 is "
          f"{alt[0].threshold:.4f}")

svg.line_plot(
    "demo_entanglement_verification.svg",
    [
        ("classical bound", [p.v_z for p in points], [p.threshold for p in points]),
        ("measured", [0.952], [0.804]),
    ],
    "classical boundary and the measured point", "v_z", "v_xy",
)
print("\nsaved demo_entanglement_verification.svg")
