"""Fringe visibility versus angle of incidence, with and without relay.

Sweeps the analyzer over input angles for a single-mode Gaussian beam
and for a strongly multimode speckle beam.  Without the relay system
the visibility collapses with angle (and never gets off the ground for
the speckle beam); with it, every input interferes at the system
visibility.
"""

import numpy as np

from timebin_analyzer import analysis, geometry, svg

geom = geometry.InterferometerGeometry(
    delta_l0=0.60, sigma=1.49e-3, v0=0.91, wavelength=776e-9, focal_length=0.1
)
alphas = np.linspace(0.0, 2.0e-3, 11)

print("Gaussian beam, relay off: visibility follows the ray-model envelope")
gauss_off = analysis.aoi_sweep(geom, analysis.FieldSpec("gaussian"), alphas, relay=False)
gauss_on = analysis.aoi_sweep(geom, analysis.FieldSpec("gaussian"), alphas, relay=True)
print(f"{'alpha [mrad]':>13} {'wave optics':>12} {'ray model':>10} {'relay on':>9}")
for row_off, row_on in zip(gauss_off.rows, gauss_on.rows):
    print(
        f"{row_off[0] * 1e3:13.2f} {row_off[1]:12.4f} {row_off[2]:10.4f} "
        f"{row_on[1]:9.4f}"
    )

print()
print("Speckle beam (50 transverse modes): the relay is what makes it work")
speckle_alphas = np.linspace(0.0, 2.0e-3, 5)
for seed in (0, 1, 2):
    spec = analysis.FieldSpec("speckle", mode_count=50, seed=seed)
    v_off = analysis.aoi_sweep(geom, spec, speckle_alphas[:1], relay=False).rows[0, 1]
    v_on = analysis.aoi_sweep(geom, spec, speckle_alphas, relay=True).rows[:, 1]
    print(
        f"  seed {seed}: no relay {v_off:.3f}; with relay "
        f"{v_on.min():.3f}..{v_on.max():.3f} across the sweep"
    )

svg.line_plot(
    "demo_angle_tolerance.svg",
    [
        ("single mode, no relay", alphas * 1e3, gauss_off.rows[:, 1]),
        ("ray model", alphas * 1e3, gauss_off.rows[:, 2]),
        ("single mode, relay", alphas * 1e3, gauss_on.rows[:, 1]),
    ],
    "visibility vs angle of incidence", "alpha [mrad]", "fringe visibility",
)
print("\nsaved demo_angle_tolerance.svg")
