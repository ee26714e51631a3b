import ast
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, headers, n_series",
    [
        ("demo_angle_tolerance.py", (
            "Gaussian beam, relay off: visibility follows the ray-model envelope",
            "Speckle beam (50 transverse modes): the relay is what makes it work",
        ), 3),
        ("demo_chsh_drift_scan.py", (
            "Noiseless scan (expected counts): the surface maximum is exactly v_xy",
        ), 6),
        ("demo_long_term_stability.py", (
            "Noiseless half-hour run, 3-minute buckets, pi/2 of total drift:",
        ), 4),
        ("demo_entangled_visibilities.py", (
            "Hybrid Bell state (H paired with the early bin):",
        ), None),
        ("demo_entanglement_verification.py", (
            "Measured visibilities v_z = 0.952, v_xy = 0.804:",
        ), 2),
        ("demo_relay_and_phase.py", (
            "Relay ray-transfer matrices",
        ), None),
    ],
    ids=["angle_tolerance", "chsh_drift_scan", "long_term_stability",
         "entangled_visibilities", "entanglement_verification", "relay_and_phase"],
)
def test_demo_runs(tmp_path, script, headers, n_series):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    path = ROOT / "demos" / script
    result = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for header in headers:
        assert header in result.stdout
    if n_series:  # one polyline, or one dot for a series of one point, each
        assert f"saved {path.stem}.svg" in result.stdout
        root = ElementTree.parse(tmp_path / f"{path.stem}.svg").getroot()
        marks = [el for el in root if el.tag.endswith(("}polyline", "}circle"))]
        assert len(marks) == n_series


def test_imports_are_stdlib_numpy_or_the_package():
    # numpy is the one declared dependency, of the package and of the demos.
    # A relative import (level > 0) is the package's own.
    allowed = {*sys.stdlib_module_names, "numpy", "timebin_analyzer"}
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")]:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
        names += [n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level]
        assert not {name.partition(".")[0] for name in names} - allowed, path.name


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
