import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, headers",
    [
        ("demo_angle_tolerance.py", (
            "Gaussian beam, relay off: visibility follows the ray-model envelope",
            "Speckle beam (50 transverse modes): the relay is what makes it work",
        )),
        ("demo_chsh_drift_scan.py", (
            "Noiseless scan (expected counts): the surface maximum is exactly v_xy",
        )),
        ("demo_long_term_stability.py", (
            "Noiseless half-hour run, 3-minute buckets, pi/2 of total drift:",
        )),
        ("demo_entangled_visibilities.py", (
            "Hybrid Bell state (H paired with the early bin):",
        )),
        ("demo_entanglement_verification.py", (
            "Measured visibilities v_z = 0.952, v_xy = 0.804:",
        )),
        ("demo_relay_and_phase.py", (
            "Relay ray-transfer matrices",
        )),
    ],
    ids=["angle_tolerance", "chsh_drift_scan", "long_term_stability",
         "entangled_visibilities", "entanglement_verification", "relay_and_phase"],
)
def test_demo_runs(tmp_path, script, headers):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for header in headers:
        assert header in result.stdout
