import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from timebin_analyzer import cli, svg, verify
from timebin_analyzer.measurement import AnalyzerEfficiencies


ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


def run(argv):
    return cli.main(argv)


class TestParseQuantity:
    @pytest.mark.parametrize(
        "text, kind, expected",
        [
            ("2mrad", "angle", 2e-3),
            ("349nrad", "angle", 349e-9),
            ("1.75urad", "angle", 1.75e-6),
            ("0.24deg", "angle", math.radians(0.24)),
            ("1.5rad", "angle", 1.5),
            ("1.49mm", "length", 1.49e-3),
            ("776nm", "length", 776e-9),
            ("0.6m", "length", 0.6),
            ("0.5s", "time", 0.5),
            ("2ns", "time", 2e-9),
            (0.25, "length", 0.25),
            ("0.25", "length", 0.25),
        ],
    )
    def test_units(self, text, kind, expected):
        assert cli.parse_quantity(text, kind) == pytest.approx(expected, rel=1e-12)

    def test_bad_quantity(self):
        with pytest.raises(cli.CliError):
            cli.parse_quantity("fast", "time")

    @given(
        unit=hst.sampled_from(
            [(kind, suffix) for kind, units in cli._UNITS.items() for suffix in units]
        ),
        value=hst.floats(allow_nan=False, allow_infinity=False),
    )
    def test_suffix_round_trip(self, unit, value):
        kind, suffix = unit
        parsed = cli.parse_quantity(f"{value!r}{suffix}", kind)
        assert parsed == value * cli._UNITS[kind][suffix]

    # Without digits or the letter n ("nan", "inf") float() parses nothing;
    # the unit letters make the suffix branch run too.
    @given(text=hst.text(alphabet="abcdegkmorsu.+-_ ", max_size=8))
    def test_non_numeric_rejected(self, text):
        for kind in cli._UNITS:
            with pytest.raises(cli.CliError):
                cli.parse_quantity(text, kind)


class TestRelayCheck:
    def test_exit_zero_and_csv(self, tmp_path):
        assert run(["relay-check", "--focal-length", "0.1m",
                    "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "relay_check.csv").read_text()
        assert "identity_residual" in text
        residual = float(text.splitlines()[-2].split(",")[-1])
        assert residual < 1e-12

    @pytest.mark.parametrize("f", [1e-300, 1e-7, 0.1, 1e7, 1e9, 1e300])
    def test_reports_residual_and_exits_0(self, tmp_path, capsys, f):
        # The b entry is in metres and c in 1/metres, so the residual scales
        # with f and 1/f; it is reported, not judged.
        assert run(["relay-check", "--focal-length", f"{f!r}m",
                    "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "relay_check.csv").read_text()
        a, b, c, d, residual = map(float, text.splitlines()[-2].split(",")[1:])
        assert f"residual {residual:.3e}" in capsys.readouterr().out
        assert max(abs(a - 1), abs(b) / f, abs(c) * f, abs(d - 1)) < 1e-15
        if f == 1e9:
            # The round trip rounds to 2.4e-7 here.
            assert f"{residual:.3e}" == "2.384e-07"
            assert residual >= 1e-9


class TestNptVerify:
    def test_entangled_verdict(self, tmp_path, capsys):
        assert run(["npt-verify", "--vz", "0.952", "--vxy", "0.804",
                    "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "INFEASIBLE/ENTANGLED" in out

    def test_feasible_verdict(self, tmp_path, capsys):
        assert run(["npt-verify", "--vz", "1.0", "--vxy", "0.0",
                    "--out-dir", str(tmp_path)]) == 0
        assert "FEASIBLE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra, golden",
        [
            ([], {"npt_verify.csv": "npt_verify_paper_point.csv"}),
            (["--vz", "0.9", "--vxy", "0.3"],
             {"npt_verify.csv": "npt_verify_vz0.9_vxy0.3.csv",
              "npt_witness.json": "npt_witness_vz0.9_vxy0.3.json"}),
            # The header records each converted value, however it was spelled.
            (["--tol", "1e-7"], {"npt_verify.csv": "npt_verify_paper_point.csv"}),
            (["--tol", "0.0000001", "--vz", ".952"],
             {"npt_verify.csv": "npt_verify_paper_point.csv"}),
        ],
        ids=["paper_point", "feasible", "tol_spelled", "tol_and_vz_spelled"],
    )
    def test_golden_bytes(self, tmp_path, extra, golden):
        # Margin, iteration count and witness digits pin the solver path.
        assert run(["npt-verify", *extra, "--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(golden)
        for name, reference in golden.items():
            assert (tmp_path / name).read_bytes() == (DATA / reference).read_bytes()

    def test_nonconvergence_maps_to_exit_3(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise verify.NonConvergenceError("stub")

        monkeypatch.setattr(cli.verify, "sdp_feasible", explode)
        assert run(["npt-verify", "--out-dir", str(tmp_path)]) == 3
        assert not any(tmp_path.iterdir())

    def test_exit_3_prints_solver_diagnostics(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(verify, "_ITERATION_CAP", 5)
        assert run(["npt-verify", "--out-dir", str(tmp_path)]) == 3
        assert not any(tmp_path.iterdir())
        err = capsys.readouterr().err
        assert "exhausted 5 iterations" in err
        assert "diagnostics: gap=" in err and " iterations=5 " in err and " t=" in err

    def test_newton_cholesky_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # With no gap target the iterates run on until a factorization of
        # the primal-dual system fails in double precision: that is a
        # NonConvergenceError with diagnostics, not a LinAlgError (a
        # ValueError, which would exit 2).
        monkeypatch.setattr(verify, "MAX_GAP", 0.0)
        cs = verify.build_constraints(0.952, 0.804, AnalyzerEfficiencies(0.9, 0.9))
        with pytest.raises(verify.NonConvergenceError, match="not positive") as info:
            verify.sdp_feasible(cs)
        assert set(info.value.diagnostics) == {"gap", "iterations", "t"}
        assert run(["npt-verify", "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "not positive definite" in err
        assert "diagnostics: gap=" in err and " iterations=" in err and " t=" in err


class TestVisibilityScan:
    def test_paper_row(self, tmp_path):
        assert run([
            "visibility-scan", "--mode", "gaussian", "--relay", "off",
            "--alpha-max", "2mrad", "--out-dir", str(tmp_path),
        ]) == 0
        lines = [
            l for l in (tmp_path / "visibility_scan.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        rows = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
        idx = np.argmin(np.abs(rows[:, 0] - 1.7e-3))
        assert rows[idx, 0] == pytest.approx(1.7e-3, abs=1e-9)
        assert abs(rows[idx, 1] - 0.70) <= 0.03

    def test_svg_emitted(self, tmp_path):
        assert run([
            "visibility-scan", "--alpha-steps", "5", "--svg",
            "--out-dir", str(tmp_path),
        ]) == 0
        svg = (tmp_path / "visibility_scan.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_one_step_note_names_the_angle_swept(self, tmp_path, capsys):
        # linspace(0, alpha_max, 1) is [0]: the one angle swept is 0.
        assert run([
            "visibility-scan", "--alpha-steps", "1", "--alpha-max", "2mrad",
            "--out-dir", str(tmp_path),
        ]) == 0
        assert " at 0 mrad; wrote " in capsys.readouterr().out

    def test_jobs_deterministic(self, tmp_path):
        for jobs, name in ((1, "a"), (4, "b")):
            out = tmp_path / name
            assert run([
                "visibility-scan", "--alpha-steps", "9", "--jobs", str(jobs),
                "--out-dir", str(out),
            ]) == 0

        def data_lines(path):
            return [
                l for l in path.read_text().splitlines() if not l.startswith("#")
            ]

        assert data_lines(tmp_path / "a" / "visibility_scan.csv") == data_lines(
            tmp_path / "b" / "visibility_scan.csv"
        )

    @pytest.mark.parametrize(
        "extra, golden",
        [
            ([], "visibility_scan_gaussian_relay_off.csv"),
            (["--mode", "speckle", "--mode-count", "15", "--seed", "5"],
             "visibility_scan_speckle_relay_off.csv"),
        ],
    )
    def test_golden_bytes(self, tmp_path, extra, golden):
        assert run([
            "visibility-scan", "--grid-n", "256", "--alpha-steps", "9", *extra,
            "--out-dir", str(tmp_path),
        ]) == 0
        assert (tmp_path / "visibility_scan.csv").read_bytes() == (
            DATA / golden
        ).read_bytes()

    @pytest.mark.parametrize(
        "argv, name, got",
        [
            pytest.param(argv, name, "".join(got), id="-".join([*argv, name]))
            for argv, name, *got in [
                (["visibility-scan", "--sigma", "nan"], "sigma"),
                (["visibility-scan", "--delta-l0", "nan"], "delta_l0"),
                (["visibility-scan", "--wavelength", "nan"], "wavelength"),
                (["visibility-scan", "--focal-length", "nan"], "focal_length"),
                (["relay-check", "--focal-length", "nan"], "focal_length"),
                (["relay-check", "--focal-length", "inf"], "focal_length"),
                (["visibility-scan", "--delta-l0", "inf"], "delta_l0"),
                (["visibility-scan", "--alpha-max", "nan"], "alpha_max"),
                (["visibility-scan", "--alpha-max", "-1"], "alpha_max", "got -1.0"),
                (["expectation-aoi", "--alpha-max", "1e308"], "alpha_max",
                 "got 1e+308"),
                (["visibility-scan", "--grid-n", "64", "--wavelength", "1e-300"],
                 "wavelength", "got 1e-300 m"),
                (["visibility-scan", "--alpha-steps", "0"], "alpha_steps"),
                (["expectation-aoi", "--alpha-steps", "0"], "alpha_steps"),
                (["expectation-aoi", "--vxy", "2"], "v_xy"),
                (["expectation-aoi", "--vxy", "nan"], "v_xy"),
                (["expectation-aoi", "--fixed-phase", "nan"], "fixed_phase"),
                (["chsh-scan", "--drift-period", "nan"], "period"),
                (["chsh-scan", "--drift-amount", "nan"], "amount"),
                (["chsh-scan", "--rate", "nan"], "rate"),
                (["chsh-scan", "--duration", "inf"], "duration"),
                (["chsh-scan", "--bucket", "500s", "--duration", "120s"], "duration"),
                (["stability", "--vxy", "1.5"], "v_xy"),
                (["stability", "--vxy", "nan"], "v_xy"),
                (["stability", "--bucket", "0s"], "bucket"),
                (["stability", "--rate", "-1"], "rate"),
                (["npt-verify", "--vz", "0", "--vxy", "0", "--tol", "nan"], "tol"),
                (["npt-boundary", "--vz-grid", "0.9", "--resolution", "nan"],
                 "resolution"),
                (["npt-boundary", "--vz-grid", "0.9", "--resolution", "0"],
                 "resolution"),
                (["npt-boundary", "--resolution", "1e-310"], "resolution"),
                (["chsh-scan", "--rate", "1e308"], "rate * bucket"),
                (["chsh-scan", "--drift-amount", "1e308rad"], "amount and period"),
                (["chsh-scan", "--drift-period", "1e-308s"], "amount and period"),
                (["chsh-scan", "--bucket", "1e300s", "--duration", "1e300s"],
                 "rate * bucket"),
                (["stability", "--rate", "1e308"], "rate * bucket"),
                (["stability", "--drift-amount", "1e308rad"], "amount and period"),
                (["stability", "--drift-period", "1e-308s"], "amount and period"),
                (["visibility-scan", "--relay", "yes"], "relay"),
                (["expectation-aoi", "--relay", "yes"], "relay"),
                (["npt-verify", "--eta-l", "abc"], "eta_l"),
                (["visibility-scan", "--alpha-steps", "x"], "alpha_steps"),
                (["npt-boundary", "--vz-grid", "0.5,"], "vz_grid"),
                (["chsh-scan", "--seed", "-5"], "seed"),
                (["stability", "--seed", "-1"], "seed"),
                (["visibility-scan", "--mode", "speckle", "--seed", "-1"], "seed"),
                (["visibility-scan", "--grid-n", "64", "--sigma", "1e-300m"], "sigma",
                 "got sigma 1e-300 m and extent 8e-300 m"),
                (["expectation-aoi", "--relay", "off", "--delta-l0", "1e308m"],
                 "delta_l0 and wavelength"),
                (["phase-sensitivity", "--delta-l0", "1e308m"],
                 "delta_l0 and wavelength"),
                (["phase-sensitivity", "--wavelength", "1e308m"],
                 "wavelength and delta_l0"),
                (["phase-sensitivity", "--delta-l0", "1e-9m"],
                 "wavelength and delta_l0"),
                (["phase-sensitivity", "--delta-l0", "1e-320m"],
                 "wavelength and delta_l0", "got wavelength 7.76"),
                (["relay-check", "--focal-length", "1e308m"], "focal_length",
                 "got 1e+308"),
                (["relay-check", "--focal-length", "4e-309m"], "focal_length",
                 "got 4e-309"),
                (["visibility-scan", "--sigma", "1e308m"], "sigma",
                 "got sigma 1e+308 m and extent inf m"),
                # Sizes past their caps are refused before any allocation.
                (["visibility-scan", "--grid-n", "4096"], "grid_n"),
                (["visibility-scan", "--grid-n", str(2**62)], "grid_n"),
                (["visibility-scan", "--alpha-steps", "4097"], "alpha_steps"),
                (["expectation-aoi", "--alpha-steps", str(10**12)], "alpha_steps"),
                (["stability", "--duration", "1e300s", "--bucket", "1s",
                  "--rate", "none"], "duration"),
                (["stability", "--duration", "10s", "--bucket", "1e-300s",
                  "--rate", "none"], "duration"),
                (["chsh-scan", "--duration", "100001s", "--bucket", "1s"], "duration"),
                (["chsh-scan", "--duration", "2049s", "--bucket", "0.5s"], "duration",
                 "at most 4096 buckets for the surface export"),
                # Only chsh-scan's seed and stability's rate take none.
                (["visibility-scan", "--seed", "none"], "seed"),
                (["npt-verify", "--tol", "none"], "tol"),
                (["chsh-scan", "--rate", "none"], "rate"),
            ]
        ],
    )
    def test_bad_sweep_input_rejected(self, tmp_path, capsys, argv, name, got):
        assert run([*argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {name} must be" in err
        assert got in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--delta-l0", "--wavelength"])
    def test_alias_error_with_huge_setting(self, tmp_path, capsys, flag):
        # The grid the message asks for is infinite or 300 digits long; it is
        # printed in exponent form instead of overflowing an integer.
        argv = ["visibility-scan", "--grid-n", "64", "--alpha-steps", "3"]
        assert run([*argv, flag, "1e308m", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: delta_l0 must be ")
        assert "alias-free" in err
        assert len(err) < 300
        assert not any(tmp_path.iterdir())

    def test_seed_spelling_same_bytes(self, tmp_path):
        argv = ["visibility-scan", "--grid-n", "64", "--alpha-steps", "3",
                "--relay", "on", "--mode", "speckle", "--mode-count", "3"]
        for seed in ("5", "05"):
            assert run([*argv, "--seed", seed, "--out-dir", str(tmp_path / seed)]) == 0
        text = (tmp_path / "5" / "visibility_scan.csv").read_bytes()
        assert b"# seed=5\n" in text
        assert (tmp_path / "05" / "visibility_scan.csv").read_bytes() == text


class TestChshScan:
    def test_noiseless_s(self, tmp_path, capsys):
        assert run([
            "chsh-scan", "--seed", "none", "--duration", "30s",
            "--drift-period", "30s", "--out-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        s = float(out.split("S = ")[1].split(";")[0])
        assert s == pytest.approx(2.4834, abs=1e-3)
        for name in (
            "chsh_trace_a1.csv", "chsh_trace_a2.csv",
            "chsh_surface_a1.csv", "chsh_surface_a2.csv", "chsh_summary.csv",
        ):
            assert (tmp_path / name).exists()

    def test_empty_split_cell_names_rate(self, tmp_path, capsys):
        # At 3 pairs/s the split estimate's odd-bucket cell holds no count;
        # the exit-2 message names the setting to change.
        assert run(["chsh-scan", "--rate", "3", "--seed", "0",
                    "--out-dir", str(tmp_path)]) == 2
        assert "raise rate or bucket" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_export_memory_bounded(self, tmp_path):
        # 480 buckets: each dense surface array would hold 230 400 cells
        # (1.8 MB), and each surface file is 6.1 MB of text.
        tracemalloc.start()
        try:
            assert run([
                "chsh-scan", "--duration", "240s", "--drift-period", "240s",
                "--seed", "9", "--out-dir", str(tmp_path),
            ]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "chsh_surface_a1.csv").read_text().count("\n") > 480**2
        assert peak < 8e6


class TestStability:
    def test_byte_reproducible(self, tmp_path):
        for name in ("x", "y"):
            assert run([
                "stability", "--seed", "7", "--duration", "600s",
                "--bucket", "60s", "--out-dir", str(tmp_path / name),
            ]) == 0
        a = (tmp_path / "x" / "stability.csv").read_bytes()
        b = (tmp_path / "y" / "stability.csv").read_bytes()
        assert a == b


CHSH_SCAN_20S = ["chsh-scan", "--duration", "20s", "--drift-period", "20s"]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (CHSH_SCAN_20S + ["--seed", "9"], {
            "chsh_trace_a1.csv": "chsh_scan_seed9_trace_a1.csv",
            "chsh_trace_a2.csv": "chsh_scan_seed9_trace_a2.csv",
            "chsh_summary.csv": "chsh_scan_seed9_summary.csv",
            "chsh_surface_a1.csv":
                "af62d73d6cc5ba868cc3c0a44b82bbd5bce508d0c7e38bdc96423a6128d7d266",
            "chsh_surface_a2.csv":
                "2a9c91fe9e981d0fb8b9fd297805f81ca6040369fbfb09919c3400da0e623445",
        }),
        (CHSH_SCAN_20S + ["--seed", "none"], {
            "chsh_trace_a1.csv": "chsh_scan_noiseless_trace_a1.csv",
            "chsh_trace_a2.csv": "chsh_scan_noiseless_trace_a2.csv",
            "chsh_summary.csv": "chsh_scan_noiseless_summary.csv",
            "chsh_surface_a1.csv":
                "e5b4d18febb61c004e4f3a72f377a3652b1737d126bfad502188921cba21df16",
            "chsh_surface_a2.csv":
                "5dd3dbaccc1c4e9d78a1f3c99974d5e42c2764128e08a066254d6274431ff9bb",
        }),
        (["stability", "--seed", "3", "--duration", "600s", "--bucket", "10s"],
         {"stability.csv": "stability_seed3.csv"}),
        (["stability", "--rate", "none"], {"stability.csv": "stability_noiseless.csv"}),
    ],
    ids=["chsh_seed9", "chsh_noiseless", "stability_seed3", "stability_noiseless"],
)
def test_drift_golden_bytes(tmp_path, argv, golden):
    # Each reference is a file under tests/data or, for the 40x40
    # surfaces, the SHA-256 of the expected bytes.
    assert run([*argv, "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(golden)
    for name, reference in golden.items():
        written = (tmp_path / name).read_bytes()
        if name.startswith("chsh_surface"):
            assert hashlib.sha256(written).hexdigest() == reference
        else:
            assert written == (DATA / reference).read_bytes()


@pytest.mark.parametrize(
    "argv, name, digest",
    [
        (["chsh-scan", "--seed", "9"], "chsh_surface_a1.csv",
         "56ca53a4358154974424715887d6c78f5ba3193b92e38342d739dd06fab616cb"),
        (["chsh-scan", "--seed", "9"], "chsh_surface_a2.csv",
         "886a11f1d10eb6ffc026d9499177c3acecbb9e959452f5fba3e3d17a6974c759"),
        (["relay-check"], "relay_check.csv",
         "ac52e50e652f30b76c712b7033e634030391cb708744ca9b988419ba2c1cc3c1"),
        (["phase-sensitivity"], "phase_sensitivity.csv",
         "c3c22090c9ae776b94f573467039c88706126ffeca3973adf8e04e21486c3304"),
        (["expectation-aoi"], "expectation_aoi.csv",
         "f77b05c1c285d5bf4197f4b99ba28cf489a7f484168fa9bf1892ed01eb57a456"),
    ],
    ids=["chsh_surface_a1_240", "chsh_surface_a2_240", "relay_check",
         "phase_sensitivity", "expectation_aoi"],
)
def test_default_output_digests(tmp_path, argv, name, digest):
    # SHA-256 of the file a run with default settings writes; the 240-bucket
    # surfaces span 15 export blocks, the last one partial.
    assert run([*argv, "--out-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestNptBoundary:
    def test_two_point_grid(self, tmp_path):
        assert run([
            "npt-boundary", "--vz-grid", "0.9,0.952",
            "--out-dir", str(tmp_path),
        ]) == 0
        lines = [
            l for l in (tmp_path / "npt_boundary.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        rows = [l.split(",") for l in lines[1:]]
        assert float(rows[0][1]) >= float(rows[1][1])
        assert float(rows[1][1]) < 0.804


    def test_golden_bytes(self, tmp_path):
        assert run([
            "npt-boundary", "--vz-grid", "0.952", "--out-dir", str(tmp_path),
        ]) == 0
        assert (tmp_path / "npt_boundary.csv").read_bytes() == (
            DATA / "npt_boundary_vz0.952.csv"
        ).read_bytes()

    def test_svg_without_finite_threshold(self, tmp_path):
        # At v_z = 0 even v_xy = 1 is feasible, so the only threshold is
        # inf and the plot has no finite point: it is drawn as its axes box.
        argv = ["npt-boundary", "--vz-grid", "0"]
        assert run([*argv, "--out-dir", str(tmp_path / "csv")]) == 0
        assert run([*argv, "--svg", "--out-dir", str(tmp_path / "svg")]) == 0
        csv = (tmp_path / "csv" / "npt_boundary.csv").read_bytes()
        assert b"\n0,inf," in csv
        assert (tmp_path / "svg" / "npt_boundary.csv").read_bytes() == csv
        svg = (tmp_path / "svg" / "npt_boundary.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert sorted(p.name for p in (tmp_path / "svg").iterdir()) == [
            "npt_boundary.csv",
            "npt_boundary.svg",
        ]

    def test_svg_of_a_one_ulp_grid(self, tmp_path):
        # The v_z axis spans one ulp, so a tick step is below the spacing of
        # the floats there.  A subprocess turns a hang into a failure.
        result = subprocess.run(
            [sys.executable, "-m", "timebin_analyzer.cli", "npt-boundary",
             "--vz-grid", "0.9,0.9000000000000001", "--svg",
             "--out-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        root = ElementTree.parse(tmp_path / "npt_boundary.svg").getroot()
        lines = root.findall("{http://www.w3.org/2000/svg}line")
        # At most 6 ticks on each axis, and the one legend line; no tick
        # is drawn twice.
        assert len(lines) <= 13
        ends = [tuple(line.get(a) for a in ("x1", "y1", "x2", "y2")) for line in lines]
        assert len(set(ends)) == len(ends)


def test_line_plot_at_float_range_limits(tmp_path):
    # A range from -y to y spans more than the largest float; its halves do
    # not, so every tick and point has finite coordinates.  At the largest
    # float the 5 % padding is clamped to the float range.
    path = tmp_path / "plot.svg"
    for y in (1e308, sys.float_info.max):
        svg.line_plot(path, [("huge", [0.0, 1.0], [-y, y])], "t", "x", "y")
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "<polyline" in text
        assert "nan" not in text and "inf" not in text
    # One point widens to a range of nonzero span, also where v + 1 rounds
    # back to v.
    for v in (1e16, -1e16, 1.7e308):
        path.unlink()
        svg.line_plot(path, [("one", [v], [v])], "t", "x", "y")
        text = path.read_text()
        assert text.rstrip().endswith("</svg>")
        assert "nan" not in text and "inf" not in text


def test_line_plot_draws_one_point_as_a_dot(tmp_path):
    # A polyline of one point has no length, so a series with one finite
    # point is a circle in its colour.  Two points are one polyline, and the
    # digest pins the whole document.
    path = tmp_path / "plot.svg"
    svg.line_plot(path, [("one", [1.0, math.nan], [2.0, 3.0])], "t", "x", "y")
    root = ElementTree.parse(path).getroot()
    (circle,) = root.findall("{http://www.w3.org/2000/svg}circle")
    assert circle.get("fill") == svg._PALETTE[0]
    assert root.findall("{http://www.w3.org/2000/svg}polyline") == []
    svg.line_plot(path, [("two", [0.0, 1.0], [2.0, 3.0])], "t", "x", "y")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f6967d040dcd226bb4d4f8baa03e4bd1a28d8730d5d28b4be7de35aa2edb67eb"
    )


def test_line_plot_escapes_text(tmp_path):
    # The title and labels are text, not markup: with < and & in them the
    # document still parses, and each reads back as it was given.
    path = tmp_path / "plot.svg"
    texts = [("E<0 & E>0", "t", "x", "y"), ("a & b", "t <&> u", "x < 1", "y & z")]
    for label, title, xlabel, ylabel in texts:
        svg.line_plot(path, [(label, [0, 1], [0, 1])], title, xlabel, ylabel)
        root = ElementTree.parse(path).getroot()
        read = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert read[0] == title
        assert read[-3:] == [xlabel, ylabel, label]


_FINITE = hst.floats(allow_nan=False, allow_infinity=False)


@given(
    bounds=hst.one_of(
        hst.tuples(_FINITE, _FINITE).filter(lambda b: b[0] < b[1]),
        # One ulp wide: tick steps fall below the spacing of the floats.
        _FINITE.filter(lambda x: x < sys.float_info.max).map(
            lambda x: (x, math.nextafter(x, math.inf))
        ),
    )
)
@example(bounds=(-1e308, 1e308))
@example(bounds=(-sys.float_info.max, sys.float_info.max))
@example(bounds=(1e15, 1e15 + 0.125))
@example(bounds=(1e12, 1e12 + 2**-12))
@example(bounds=(3e8, 3e8 + 2**-24))
@example(bounds=(0.0, 5e-324))
def test_ticks_bounded_finite_and_in_range(bounds):
    lo, hi = bounds
    ticks = svg._ticks(lo, hi)
    assert len(ticks) <= 6
    assert len(set(ticks)) == len(ticks)
    assert all(math.isfinite(t) and lo <= t <= hi for t in ticks)


class TestImport:
    def test_npt_verify_does_not_load_scipy(self, tmp_path):
        # numpy is the only dependency: importing the CLI and running a
        # feasibility solve must not bring scipy back.
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        code = (
            "import sys; from timebin_analyzer import cli; "
            f"code = cli.main(['npt-verify', '--out-dir', {str(tmp_path)!r}]); "
            "print(code, 'scipy' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 False"


class TestConfigPrecedence:
    def test_config_overrides_defaults_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "schema": 1,
            "stability": {"vxy": 0.5, "duration": "600s", "bucket": "60s",
                          "rate": "none"},
        }))
        out1 = tmp_path / "from_config"
        assert run(["stability", "--config", str(config),
                    "--out-dir", str(out1)]) == 0
        text = (out1 / "stability.csv").read_text()
        assert "# v_xy=0.5" in text

        out2 = tmp_path / "flag_wins"
        assert run(["stability", "--config", str(config), "--vxy", "0.7",
                    "--out-dir", str(out2)]) == 0
        assert "# v_xy=0.7" in (out2 / "stability.csv").read_text()

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"stability": {"verbosity": 3}}))
        assert run(["stability", "--config", str(config),
                    "--out-dir", str(tmp_path)]) == 2

    def test_defaults_scope_shared_across_subcommands(self, tmp_path):
        # built-in < "defaults" < subcommand scope < flag, read from the headers.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "schema": 1,
            "defaults": {"eta_l": 0.8, "vxy": 0.6, "focal_length": "0.2m"},
            "stability": {"vxy": 0.5},
        }))

        def header(argv, name):
            out = tmp_path / "-".join(argv)
            assert run([*argv, "--config", str(config), "--out-dir", str(out)]) == 0
            return (out / name).read_text()

        assert "# focal_length_m=0.2\n" in header(["relay-check"], "relay_check.csv")
        text = header(["npt-verify"], "npt_verify.csv")
        assert "# eta_l=0.8\n" in text and "# eta_s=0.9\n" in text
        assert "# v_xy=0.6\n" in text
        assert "# v_xy=0.5\n" in header(["stability"], "stability.csv")
        assert "# v_xy=0.7\n" in header(["stability", "--vxy", "0.7"], "stability.csv")

    @pytest.mark.parametrize(
        "scopes",
        [
            {"defaults": {"verbosity": 3}},
            {"relay-check": {"eta_l": 0.8}},
        ],
        ids=["defaults-key-of-no-subcommand", "scope-key-of-another-subcommand"],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, scopes):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema": 1, **scopes}))
        out = tmp_path / "out"
        assert run(["relay-check", "--config", str(config), "--out-dir", str(out)]) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, where",
        [
            ([1], "config must be"),
            ("x", "config must be"),
            ({"stability": [1, 2]}, "config scope 'stability' must be"),
            ({"schema": 1, "defaults": 3}, "config scope 'defaults' must be"),
        ],
        ids=["list", "string", "scope-list", "defaults-number"],
    )
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, config, where):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["stability", "--config", str(path), "--out-dir", str(out)]) == 2
        assert f"error: {where} a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_unsupported_schema_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema": 2}))
        out = tmp_path / "out"
        assert run(["relay-check", "--config", str(config), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: unsupported config schema 2\n"
        assert not out.exists()

    def test_fractional_integer_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"expectation-aoi": {"alpha_steps": 2.7}}))
        assert run(["expectation-aoi", "--config", str(config),
                    "--out-dir", str(tmp_path / "out")]) == 2
        assert "error: alpha_steps must be an integer, got 2.7" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_svg_off_in_config_writes_no_svg(self, tmp_path):
        # A config file takes the switch words for svg, as for relay.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"defaults": {"svg": "off"}}))
        out = tmp_path / "out"
        assert run(["stability", "--duration", "60s", "--bucket", "10s",
                    "--config", str(config), "--out-dir", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["stability.csv"]

    @pytest.mark.parametrize(
        "config, key",
        [({"defaults": {"out_dir": 5}}, "out_dir"), ({"stability": {"drift": 5}}, "drift")],
        ids=["out_dir", "drift"],
    )
    def test_text_setting_of_wrong_type_exits_2(
        self, tmp_path, monkeypatch, capsys, config, key
    ):
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps(config))
        assert run(["stability", "--config", "config.json"]) == 2
        assert capsys.readouterr().err == f"error: {key} must be text, got 5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "env"))
        assert run(["relay-check"]) == 0
        assert (tmp_path / "env" / "relay_check.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["visibility-scan", "--grid-n", "64", "--alpha-steps", "3", "--svg"],
        ["relay-check"],
        ["phase-sensitivity"],
        ["chsh-scan", "--duration", "4s", "--drift-period", "4s", "--svg"],
        ["npt-verify", "--vz", "0.9", "--vxy", "0.3"],
        ["npt-boundary", "--vz-grid", "0.952", "--svg"],
        ["stability", "--duration", "60s", "--bucket", "10s", "--svg"],
        ["expectation-aoi", "--alpha-steps", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_printed_line_names_every_file_written(tmp_path, capsys, argv):
    assert run([*argv, "--out-dir", str(tmp_path)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    note, paths = line.split("; wrote ")
    assert note
    assert sorted(paths.split(", ")) == sorted(str(p) for p in tmp_path.iterdir())


class TestExpectationAoi:
    def test_relay_on_constant(self, tmp_path):
        assert run([
            "expectation-aoi", "--relay", "on", "--alpha-steps", "41",
            "--out-dir", str(tmp_path),
        ]) == 0
        values = [float(row[1]) for row in csv_rows(tmp_path / "expectation_aoi.csv")]
        assert max(values) - min(values) <= 1e-9

    def test_relay_off_zero_v0(self, tmp_path):
        # E carries the envelope V(alpha)/v0, which v0 = 0 leaves defined:
        # the rows are the default v0's.
        argv = ["expectation-aoi", "--relay", "off", "--alpha-steps", "41"]
        assert run([*argv, "--out-dir", str(tmp_path / "default")]) == 0
        assert run([*argv, "--v0", "0", "--out-dir", str(tmp_path / "zero")]) == 0
        default, zero = (
            csv_rows(tmp_path / key / "expectation_aoi.csv")
            for key in ("default", "zero")
        )
        assert zero == default
        assert not np.isnan(np.array(zero, dtype=float)).any()

    def test_relay_off_beam_narrow_against_offset(self, tmp_path):
        # With sigma 1e-320 m the output rays part by far more than the beam
        # width at every tilt, so E is 0; at normal incidence they overlap.
        argv = ["expectation-aoi", "--relay", "off", "--alpha-steps", "41"]
        assert run([*argv, "--out-dir", str(tmp_path / "default")]) == 0
        narrow = ["--sigma", "1e-320m", "--out-dir", str(tmp_path / "narrow")]
        assert run([*argv, *narrow]) == 0
        default, narrow = (
            np.array(csv_rows(tmp_path / key / "expectation_aoi.csv"), dtype=float)
            for key in ("default", "narrow")
        )
        tilted = narrow[:, 0] != 0.0
        assert 0 < tilted.sum() < len(narrow)
        assert np.array_equal(narrow[tilted, 1], np.zeros(tilted.sum()))
        assert np.array_equal(narrow[~tilted, 1], default[~tilted, 1])


def csv_rows(path):
    """The data rows of a CSV the CLI wrote, as lists of cell strings."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [line.split(",") for line in lines[1:]]


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["bogus"])
        assert err.value.code == 2

    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_bad_unit_value(self, tmp_path):
        assert run(["visibility-scan", "--alpha-max", "fast",
                    "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("words", [["on", "true", True], ["off", "false", False]])
    def test_relay_words_and_json_booleans(self, tmp_path, words):
        outputs = set()
        for i, word in enumerate(words):
            config = tmp_path / f"config{i}.json"
            config.write_text(json.dumps({"expectation-aoi": {"relay": word}}))
            out = tmp_path / str(i)
            assert run([
                "expectation-aoi", "--config", str(config), "--alpha-steps", "41",
                "--out-dir", str(out),
            ]) == 0
            outputs.add((out / "expectation_aoi.csv").read_text())
        (text,) = outputs
        assert f"# relay={words[-1]}" in text


def test_readme_command_lines_convert():
    # Every "timebin-analyzer ..." line of the README's "Command line" block
    # parses and converts through the settings table; nothing is run.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines()
             if line.startswith("timebin-analyzer ")]
    assert {argv[0] for argv in lines} == set(cli._COMMANDS)
    for argv in lines:
        args = cli.build_parser().parse_args(argv)
        settings = cli._merge_settings(args.command, None, vars(args))
        table = {**cli._COMMANDS[args.command][1], **cli._OUTPUT}
        assert set(settings) == set(table)
        for key, (_, kind) in table.items():
            assert isinstance(settings[key], str) == (kind == "text"), (argv, key)


@pytest.mark.parametrize(
    "case",
    json.loads((DATA / "cli_parser_texts.json").read_text()),
    ids=lambda case: " ".join(case["argv"]) or "no_arguments",
)
def test_parser_texts_unchanged(case, monkeypatch, capsys):
    # Usage, --help and argparse error texts, recorded when the parser built
    # the flags of all eight subcommands on every call.
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_parser_builds_only_the_chosen_subcommand():
    parser = cli.build_parser()
    parser.parse_args(["relay-check", "--f", "0.1m"])
    (sub,) = [action for action in parser._actions if action.dest == "command"]
    usages = {name: p.format_usage() for name, p in sub.choices.items()}
    assert "--focal-length FOCAL_LENGTH" in usages.pop("relay-check")
    for name, usage in usages.items():
        assert usage == f"usage: timebin-analyzer {name} [-h]\n"
