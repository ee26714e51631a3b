import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A stand-in for matplotlib.pyplot, so that each demo's plotting branch
# runs without matplotlib: every object takes any call and any attribute,
# and passes each argument through np.asarray, as plotting would.
PYPLOT_STUB = """
import numpy as np


class _Any:
    def __getattr__(self, name):
        if name.startswith("__"):  # numpy's array protocols, among others
            raise AttributeError(name)
        return self

    def __call__(self, *args, **kwargs):
        for value in (*args, *kwargs.values()):
            np.asarray(value)
        return _Any()


def subplots(nrows=1, ncols=1, **kwargs):
    axes = tuple(_Any() for _ in range(nrows * ncols))
    return _Any(), axes[0] if len(axes) == 1 else axes


def __getattr__(name):
    return _Any()
"""


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
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "pyplot.py").write_text(PYPLOT_STUB)
    paths = [str(ROOT / "src"), str(stub.parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    path = ROOT / "demos" / script
    result = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for header in headers:
        assert header in result.stdout
    if "import matplotlib" in path.read_text():
        assert f"saved {path.stem}.png" in result.stdout


def test_readme_quick_start():
    # Runs the README "Quick start" block statement by statement and checks
    # each value that a trailing comment states as a number or a string
    # literal, to the digits the comment gives.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    values = {}
    checked = 0
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            expression = compile(ast.Expression(node.value), "README.md", "eval")
            value = eval(expression, namespace)
            values[ast.get_source_segment(block, node)] = value
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            if not isinstance(node, ast.Assign):
                continue
            value = namespace[node.targets[0].id]
        comment = lines[node.end_lineno - 1].partition("#")[2].split()
        try:
            documented = ast.literal_eval(comment[0]) if comment else None
        except (ValueError, SyntaxError):
            continue
        if isinstance(documented, float):
            digits = len(comment[0].partition(".")[2])
            assert round(value, digits) == documented, comment[0]
            checked += 1
        elif isinstance(documented, str):
            assert value == documented
            checked += 1
    assert checked >= 6
    # The relay images every mode onto itself: exactly v0, not v0 up to rounding.
    assert values["waveoptics.interfere(speckle, geom, alpha=0.0, relay=True)"] == 0.91
