import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_angle_tolerance_demo(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "demo_angle_tolerance.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Gaussian beam, relay off: visibility follows the ray-model envelope" in (
        result.stdout
    )
    assert "Speckle beam (50 transverse modes): the relay is what makes it work" in (
        result.stdout
    )
