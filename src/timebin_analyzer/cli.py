"""Command-line interface.

Subcommands cover the main scenarios: visibility scans, the relay ABCD
report (its residual, the largest |round trip - I|, has a b entry in metres
and grows with f), phase sensitivity, CHSH drift simulation, entanglement
verification and its classical boundary, long-term stability, and the
expectation-versus-angle sweep.  Every run writes CSV with a header
that records the tool version, the full parameter set, and the seed, so
identical invocations are byte-reproducible.  A subcommand only computes:
it returns its files and a note, and ``main`` writes them and prints one
line, the note and then every path written.  So a run opens no file until
its computation is done; the ``chsh-scan`` surface cells are the exception,
computed block by block as they are written.

Unit-bearing flags accept suffixes (deg, mrad, urad, nrad, rad; m, mm,
um, nm; s, ms, ns); bare numbers are SI base units.  Configuration
precedence: built-in defaults < JSON config file (--config; its
"defaults" scope, whose keys apply to every subcommand that has them,
then the subcommand's own scope) < explicit flags.  Each setting's default
and kind are declared once, in ``_COMMANDS``, and every merged value is
converted once, before the subcommand runs.  Exit codes: 0 success,
2 validation error, 3 solver non-convergence; no subcommand judges its
own results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, analysis, chsh, geometry, svg, verify
from ._checks import finite_in
from .measurement import AnalyzerEfficiencies
from .quantum import operator_to_dict
from .states import DepolarizationParams, depolarize, hybrid_bell_state

ENV_OUT_DIR = "TIMEBIN_ANALYZER_OUTDIR"
CONFIG_SCHEMA = 1
# Most angles in one sweep (--alpha-steps).  A relay-off visibility scan
# holds an angles x grid_n complex array: 134 MB at this cap and the largest
# grid, waveoptics.MAX_GRID_N.
MAX_ALPHA_STEPS = 4096
# Most buckets in one chsh-scan.  Each of its two surface files holds one
# row per pair of buckets, about 28 bytes each: 480 MB at this cap.
MAX_SURFACE_BUCKETS = 4096

_UNITS = {
    "angle": {"rad": 1.0, "mrad": 1e-3, "urad": 1e-6, "nrad": 1e-9,
              "deg": math.pi / 180.0},
    "length": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "time": {"s": 1.0, "ms": 1e-3, "ns": 1e-9},
    "number": {"": 1.0},
}


class CliError(ValueError):
    """Invalid flag or configuration value."""


def parse_quantity(text, kind):
    """Parse '1.49mm' style values into SI base units; a bare number is already SI."""
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip()
    units = _UNITS[kind]
    by_length = sorted(units, key=len, reverse=True)
    suffix = next((u for u in by_length if u and s.endswith(u)), "")
    try:
        return float(s[: len(s) - len(suffix)]) * units.get(suffix, 1.0)
    except ValueError as exc:
        raise CliError(f"cannot parse {kind} quantity {text!r}") from exc


_SWITCH = {"on": True, "true": True, "off": False, "false": False}
_EXPECTED = {
    **{kind: f"a number with an optional unit ({', '.join(units)})"
       for kind, units in _UNITS.items()},
    "number": "a number",
    "int": "an integer",
    "numbers": "comma-separated numbers",
    "switch": "on, off, true, false or a JSON boolean",
    "text": "text",
}


def _convert(key, value, kind):
    """``value`` of the setting ``key`` as its ``kind``: an "int", a list of
    "numbers", an on/off "switch", "text", or a quantity of the unit ``kind``.
    A kind ending in "|none" also takes none (the word or JSON null).
    CliError names ``key`` if the value does not convert."""
    kind, _, nullable = kind.partition("|")
    if nullable and value in (None, "none"):
        return None
    try:
        if kind == "int":
            return int(str(value))  # a JSON 2.7 is refused, not truncated
        if kind == "numbers":
            return [float(v) for v in str(value).split(",")]
        if kind == "switch":
            return value if isinstance(value, bool) else _SWITCH[value]
        if kind == "text":
            if not isinstance(value, str):
                raise TypeError(value)
            return value
        return parse_quantity(value, kind)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise CliError(f"{key} must be {_EXPECTED[kind]}, got {value!r}") from exc


# Settings of every subcommand.  An empty out_dir means ENV_OUT_DIR, else ".".
_OUTPUT = {"out_dir": ("", "text"), "svg": (False, "switch")}


def _merge_settings(command, config, args_dict):
    """The settings of ``command``: its defaults, then the config file's
    "defaults" and ``command`` scopes, then the flags, each value converted
    to its kind."""
    table = {**_COMMANDS[command][1], **_OUTPUT}
    merged = {key: default for key, (default, _) in table.items()}
    if config is not None:
        if not isinstance(config, dict):
            raise CliError(f"config must be a JSON object, got {type(config).__name__}")
        if config.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
            raise CliError(f"unsupported config schema {config.get('schema')}")
        # One file serves every subcommand: a "defaults" key that only
        # other subcommands have is skipped, not refused.
        known = set().union(*(keys for _, keys in _COMMANDS.values()))
        for scope in ("defaults", command):
            entries = config.get(scope, {})
            if not isinstance(entries, dict):
                raise CliError(f"config scope {scope!r} must be a JSON object, "
                               f"got {type(entries).__name__}")
            for key, value in entries.items():
                key = key.replace("-", "_")
                if key in merged:
                    merged[key] = value
                elif scope == command or key not in known:
                    raise CliError(f"unknown config key {key!r} for {command}")
    for key, value in args_dict.items():
        if key in merged and value is not None:
            merged[key] = value
    return {key: _convert(key, value, table[key][1]) for key, value in merged.items()}


def _write_csv(path, columns, rows, params):
    """Write the header lines, the column names and then ``rows`` to ``path``.

    ``rows`` is a float array (one CSV row per array row), an iterable of
    such arrays written block by block as they arrive (as
    ``chsh.surface_to_rows`` yields them), or a list of rows whose cells
    are str or numbers.  Numbers are formatted with ``%.12g``, which
    writes an integer below 1e12 as ``str`` does.
    """
    if isinstance(rows, np.ndarray):
        rows = [rows]
    with open(path, "w") as out:
        out.write(f"# timebin-analyzer {__version__}\n")
        out.writelines(f"# {key}={params[key]}\n" for key in sorted(params))
        out.write(",".join(columns) + "\n")
        for part in rows:
            if isinstance(part, np.ndarray):
                row_fmt = ",".join(["%.12g"] * part.shape[1]) + "\n"
                out.write("".join([row_fmt % tuple(row) for row in part.tolist()]))
            else:
                cells = [v if isinstance(v, str) else "%.12g" % v for v in part]
                out.write(",".join(cells) + "\n")


class _File(NamedTuple):
    """One output file: ``rows`` under ``columns`` and the header ``params``,
    with the plot ``(series, title, xlabel, ylabel)`` drawn beside it under
    --svg.  A ``.json`` name holds ``rows`` as its JSON document."""

    name: str
    columns: list | None
    rows: object
    params: dict | None
    plot: tuple | None = None


def _write(settings, files, note):
    """Write ``files`` into the output directory, then print ``note`` and
    every path written on one line."""
    out_dir = Path(settings["out_dir"] or os.environ.get(ENV_OUT_DIR) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for file in files:
        path = out_dir / file.name
        if path.suffix == ".json":
            path.write_text(json.dumps(file.rows, indent=1))
        else:
            _write_csv(path, file.columns, file.rows, file.params)
        written.append(path)
        if file.plot and settings["svg"]:
            written.append(path.with_suffix(".svg"))
            svg.line_plot(written[-1], *file.plot)
    print(f"{note}; wrote {', '.join(map(str, written))}")


def _geometry_from(settings):
    return geometry.InterferometerGeometry(**{key: settings[key] for key in _GEOMETRY})


def _efficiencies_from(settings):
    return AnalyzerEfficiencies(settings["eta_l"], settings["eta_s"])


def _drift_from(settings):
    return chsh.DriftModel(
        kind=settings["drift"],
        amount=settings["drift_amount"],
        period=settings["drift_period"],
    )


def _sweep_range(settings):
    """Largest angle and number of angles of a sweep, validated before any
    array is built: every angle of the sweep lies within |alpha_max|."""
    alpha_max = settings["alpha_max"]
    if not abs(alpha_max) < geometry.ALPHA_LIMIT:
        raise ValueError(
            f"alpha_max must be in (-pi/4, pi/4) rad for the ray model, "
            f"got {alpha_max}"
        )
    return (
        alpha_max,
        finite_in("alpha_steps", settings["alpha_steps"], 1, MAX_ALPHA_STEPS),
    )


_GEOMETRY = {
    "delta_l0": ("0.6m", "length"),
    "sigma": ("1.49mm", "length"),
    "v0": (0.91, "number"),
    "wavelength": ("776nm", "length"),
    "focal_length": ("0.1m", "length"),
}
_EFFICIENCIES = {"eta_l": (0.9, "number"), "eta_s": (0.9, "number")}


def cmd_visibility_scan(settings):
    geom = _geometry_from(settings)
    alpha_max, steps = _sweep_range(settings)
    alphas = np.linspace(0.0, alpha_max, steps)
    relay = settings["relay"]
    spec = analysis.FieldSpec(
        mode=settings["mode"],
        grid_n=settings["grid_n"],
        mode_count=settings["mode_count"],
        seed=settings["seed"],
    )
    curve = analysis.aoi_sweep(geom, spec, alphas, relay)
    params = {**curve.params, "jobs": settings["jobs"]}
    alpha, wave, ray = curve.rows.T
    plot = (
        [("wave optics", alpha * 1e3, wave), ("ray model", alpha * 1e3, ray)],
        f"visibility vs AOI (relay {'on' if relay else 'off'})",
        "alpha [mrad]", "visibility",
    )
    file = _File("visibility_scan.csv", curve.columns, curve.rows, params, plot)
    return [file], f"visibility {wave[-1]:.4f} at {alpha_max * 1e3:.4g} mrad"


def cmd_relay_check(settings):
    f = settings["focal_length"]
    m = geometry.relay_matrix(f)
    residual = float(np.max(np.abs(m - np.eye(2))))
    det = float(np.linalg.det(m))
    single = geometry.relay_single_pass(f)
    rows = [
        ["round_trip", m[0, 0], m[0, 1], m[1, 0], m[1, 1], residual],
        [
            "single_pass",
            single[0, 0],
            single[0, 1],
            single[1, 0],
            single[1, 1],
            float(np.max(np.abs(single + np.eye(2)))),
        ],
    ]
    file = _File(
        "relay_check.csv",
        ["stage", "a", "b", "c", "d", "identity_residual"],
        rows,
        {"operation": "relay_check", "focal_length_m": f, "determinant": det},
    )
    note = f"relay round trip residual {residual:.3e} (det {det:.12f})"
    return [file], note


def cmd_phase_sensitivity(settings):
    geom = _geometry_from(settings)
    step = 1e-9
    # A slope that overflows comes with a phase that overflows, which
    # geometry.phase refuses below, naming the settings; a slope that
    # underflows to 0 gives an infinite pi-shift angle, refused next.
    with np.errstate(over="ignore", divide="ignore"):
        d1 = (
            geometry.path_difference(geom, step) - geometry.path_difference(geom, -step)
        ) / (2 * step)
        aoi_per_pi = geom.wavelength / (2.0 * abs(d1))
    if not aoi_per_pi < geometry.ALPHA_LIMIT:
        raise ValueError(
            f"wavelength and delta_l0 must be such that the pi-shift angle "
            f"wavelength/(2|slope|) is below pi/4 rad, got wavelength "
            f"{geom.wavelength} m and delta_l0 {geom.delta_l0} m"
        )
    nominal = 349e-9
    residual = abs(aoi_per_pi - nominal) / nominal
    phi0 = geometry.phase(geom, 0.0).unwrapped
    dphi_5pi = abs(geometry.phase(geom, 1.75e-6).unwrapped - phi0)
    dphi_pi = abs(geometry.phase(geom, aoi_per_pi).unwrapped - phi0)
    ratio = dphi_5pi / abs(geometry.phase(geom, nominal).unwrapped - phi0)
    rows = [
        ["slope_m_per_rad", d1],
        ["aoi_per_pi_rad", aoi_per_pi],
        ["nominal_aoi_per_pi_rad", nominal],
        ["relative_residual_vs_nominal", residual],
        ["phase_shift_at_1p75urad_rad", dphi_5pi],
        ["phase_shift_at_1p75urad_over_pi", dphi_5pi / math.pi],
        ["ratio_1p75urad_over_349nrad", ratio],
        ["phase_check_at_aoi_per_pi_rad", dphi_pi],
    ]
    file = _File(
        "phase_sensitivity.csv",
        ["quantity", "value"],
        rows,
        {
            "operation": "phase_sensitivity",
            "delta_l0_m": geom.delta_l0,
            "wavelength_m": geom.wavelength,
        },
    )
    note = (
        f"path-difference slope {d1:.6g} m/rad; pi shift per {aoi_per_pi * 1e9:.1f} nrad "
        f"({100 * residual:.1f}% from the nominal 349 nrad); "
        f"5 pi check: {dphi_5pi / math.pi:.3f} pi at 1.75 urad"
    )
    return [file], note


def cmd_chsh_scan(settings):
    params = DepolarizationParams.unbiased(settings["p_xy"], settings["p_z"])
    rho = depolarize(hybrid_bell_state(), params)
    eff = _efficiencies_from(settings)
    duration = settings["duration"]
    bucket = settings["bucket"]
    drift = _drift_from(settings)
    rate = settings["rate"]
    seed = settings["seed"]
    if chsh.bucket_times(duration, bucket, rate).size > MAX_SURFACE_BUCKETS:
        raise ValueError(
            f"duration must be at most {MAX_SURFACE_BUCKETS} buckets for the "
            f"surface export, rounded to whole buckets, got duration {duration} s "
            f"and bucket {bucket} s"
        )
    base_params = {
        "operation": "chsh_scan",
        "p_xy": params.p_x,
        "p_z": params.p_z,
        "eta_l": eff.eta_l,
        "eta_s": eff.eta_s,
        "rate_per_s": rate,
        "duration_s": duration,
        "bucket_s": bucket,
        "drift_kind": drift.kind,
        "drift_amount_rad": drift.amount,
        "drift_period_s": drift.period,
        "seed": seed,
    }
    keys = [(det, b) for det in chsh.DETECTORS for b in chsh.BINS]
    traces = []
    files = []
    for idx, axis in enumerate(("z+x", "z-x")):
        tr = chsh.simulate_drift_scan(
            rho, eff, drift, alice_axis=axis, rate=rate, duration=duration,
            bucket=bucket, seed=None if seed is None else seed + idx,
        )
        traces.append(tr)
        series = tr.counts.reshape(len(keys), -1)
        tag = f"a{idx + 1}"
        axis_params = {**base_params, "alice_axis": axis}
        plot = None if tag == "a2" else (
            [(f"{det} {b}", tr.times, ys) for (det, b), ys in zip(keys, series)],
            "drift-scan coincidences (setting z+x)", "time [s]", "counts per bucket",
        )
        files += [
            _File(
                f"chsh_trace_{tag}.csv",
                ["time_s"] + [f"{det}{b}" for det, b in keys],
                np.column_stack([tr.times, series.T]),
                axis_params,
                plot,
            ),
            _File(f"chsh_surface_{tag}.csv", *chsh.surface_to_rows(tr), axis_params),
        ]
    est = chsh.estimate_chsh(*traces, split=seed is not None)
    summary_rows = [
        ["S", est.s],
        ["E_A1_B1", est.e11],
        ["E_A1_B2", est.e12],
        ["E_A2_B1", est.e21],
        ["E_A2_B2", est.e22],
    ]
    files.append(
        _File("chsh_summary.csv", ["quantity", "value"], summary_rows, base_params)
    )
    return files, f"S = {est.s:.4f}"


def cmd_npt_verify(settings):
    eff = _efficiencies_from(settings)
    cs = verify.build_constraints(
        settings["vz"], settings["vxy"], eff, qubit_mass=settings["qubit_mass"]
    )
    report = verify.sdp_feasible(cs, tol=settings["tol"])
    rows = [
        ["verdict", report.verdict],
        ["margin", report.margin],
        ["iterations", report.iterations],
    ]
    params = {
        "operation": "npt_verify",
        "v_z": settings["vz"],
        "v_xy": settings["vxy"],
        "eta_l": eff.eta_l,
        "eta_s": eff.eta_s,
        "tol": settings["tol"],
        "qubit_mass": settings["qubit_mass"],
    }
    files = [_File("npt_verify.csv", ["quantity", "value"], rows, params)]
    match = f"PPT state matches the visibilities (margin {report.margin:.3e})"
    if not report.feasible:
        return files, f"INFEASIBLE/ENTANGLED: no {match}"
    witness = operator_to_dict(report.witness, 2, 3)
    files.append(_File("npt_witness.json", None, witness, None))
    return files, f"FEASIBLE: a {match}; entanglement is not certified"


def cmd_npt_boundary(settings):
    eff = _efficiencies_from(settings)
    tol, resolution = settings["tol"], settings["resolution"]
    mass = settings["qubit_mass"]
    results = verify.boundary_scan(settings["vz_grid"], eff, tol, resolution, mass)
    finite = [(p.v_z, p.threshold) for p in results if math.isfinite(p.threshold)]
    file = _File(
        "npt_boundary.csv",
        ["v_z", "v_xy_threshold", "margin", "iterations"],
        [[p.v_z, p.threshold, p.margin, p.iterations] for p in results],
        {
            "operation": "npt_boundary",
            "eta_l": eff.eta_l,
            "eta_s": eff.eta_s,
            "tol": tol,
            "resolution": resolution,
            "qubit_mass": mass,
            "jobs": settings["jobs"],
        },
        (
            [("classical bound", [v for v, _ in finite], [t for _, t in finite])],
            "entanglement verification boundary", "v_z", "v_xy threshold",
        ),
    )
    return [file], f"{len(finite)} of {len(results)} v_z points have a threshold"


def cmd_stability(settings):
    curve = analysis.stability_series(
        v_xy=settings["vxy"],
        drift=_drift_from(settings),
        duration=settings["duration"],
        bucket=settings["bucket"],
        rate=settings["rate"],
        seed=settings["seed"],
    )
    t, e1, e2, combined = curve.rows.T
    plot = (
        [("E_phi", t, e1), ("E_phi+pi/2", t, e2), ("combined", t, combined)],
        "long-term stability", "time [s]", "expectation value",
    )
    file = _File("stability.csv", curve.columns, curve.rows, curve.params, plot)
    return [file], f"combined expectation {combined.mean():.4f} on average"


def cmd_expectation_aoi(settings):
    geom = _geometry_from(settings)
    alpha_max, steps = _sweep_range(settings)
    alphas = np.linspace(-alpha_max, alpha_max, steps)
    relay = settings["relay"]
    curve = analysis.expectation_vs_aoi(
        geom, settings["vxy"], alphas, relay, fixed_phase=settings["fixed_phase"]
    )
    alpha, e, _ = curve.rows.T
    plot = (
        [("expectation", alpha * 1e3, e)],
        f"expectation vs AOI (relay {'on' if relay else 'off'})", "alpha [mrad]", "E",
    )
    file = _File("expectation_aoi.csv", curve.columns, curve.rows, curve.params, plot)
    return [file], f"E from {e.min():.4f} to {e.max():.4f}"


# Each subcommand's settings, as {key: (default, kind)}; see _convert for
# the kinds.  Only chsh-scan's seed and stability's rate take none.
_COMMANDS = {
    "visibility-scan": (
        cmd_visibility_scan,
        {
            **_GEOMETRY,
            "mode": ("gaussian", "text"),
            "relay": ("off", "switch"),
            "alpha_max": ("2mrad", "angle"),
            "alpha_steps": (21, "int"),
            "grid_n": (512, "int"),
            "mode_count": (50, "int"),
            "seed": (0, "int"),
            "jobs": (1, "int"),
        },
    ),
    "relay-check": (cmd_relay_check, {"focal_length": _GEOMETRY["focal_length"]}),
    "phase-sensitivity": (cmd_phase_sensitivity, _GEOMETRY),
    "chsh-scan": (
        cmd_chsh_scan,
        {
            "p_xy": (0.012, "number"),
            "p_z": (0.086, "number"),
            **_EFFICIENCIES,
            "rate": (1000.0, "number"),
            "duration": ("120s", "time"),
            "bucket": ("0.5s", "time"),
            "drift": ("linear", "text"),
            "drift_amount": ("6.283185307179586rad", "angle"),
            "drift_period": ("120s", "time"),
            "seed": (1, "int|none"),
        },
    ),
    "npt-verify": (
        cmd_npt_verify,
        {
            "vz": (0.952, "number"),
            "vxy": (0.804, "number"),
            **_EFFICIENCIES,
            "tol": (verify.DEFAULT_TOL, "number"),
            "qubit_mass": (verify.DEFAULT_QUBIT_MASS, "number"),
        },
    ),
    "npt-boundary": (
        cmd_npt_boundary,
        {
            "vz_grid": ("0.5,0.7,0.8,0.9,0.952,1.0", "numbers"),
            **_EFFICIENCIES,
            "tol": (verify.DEFAULT_TOL, "number"),
            "resolution": (1e-3, "number"),
            "qubit_mass": (verify.DEFAULT_QUBIT_MASS, "number"),
            "jobs": (1, "int"),
        },
    ),
    "stability": (
        cmd_stability,
        {
            "vxy": (0.804, "number"),
            "drift": ("linear", "text"),
            "drift_amount": ("1.5707963267948966rad", "angle"),
            "drift_period": ("1800s", "time"),
            "duration": ("1800s", "time"),
            "bucket": ("180s", "time"),
            "rate": (1000.0, "number|none"),
            "seed": (0, "int"),
        },
    ),
    "expectation-aoi": (
        cmd_expectation_aoi,
        {
            **_GEOMETRY,
            "relay": ("on", "switch"),
            "vxy": (0.80, "number"),
            "alpha_max": ("0.2deg", "angle"),
            "alpha_steps": (801, "int"),
            "fixed_phase": ("0rad", "angle"),
        },
    ),
}


class _SubcommandParser(argparse.ArgumentParser):
    """The parser of one subcommand.  It adds the flags of its settings
    table when it first parses, so a run builds the flags of the subcommand
    it runs and of no other."""

    def __init__(self, *args, table, **kwargs):
        super().__init__(*args, **kwargs)
        self._table = table

    def parse_known_args(self, args=None, namespace=None):
        if self._table is not None:
            table, self._table = self._table, None
            self.add_argument("--config", default=None, help="JSON config file")
            self.add_argument("--out-dir", dest="out_dir", default=None)
            self.add_argument("--svg", action="store_const", const=True,
                              default=None, help="also write SVG plots")
            for key in table:
                flag = "--" + key.replace("_", "-")
                if key == "focal_length":
                    self.add_argument(flag, "--f", dest=key, default=None)
                elif key == "jobs":
                    self.add_argument(flag, dest=key, default=None,
                                      help="accepted for compatibility; ignored")
                else:
                    self.add_argument(flag, dest=key, default=None)
        return super().parse_known_args(args, namespace)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="timebin-analyzer",
        description="Angle-tolerant time-bin qubit analyzer simulations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_SubcommandParser)
    for name, (_, table) in _COMMANDS.items():
        sub.add_parser(name, help=f"{name} scenario", table=table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage()
        return 2
    try:
        config = json.loads(Path(args.config).read_text()) if args.config else None
        settings = _merge_settings(args.command, config, vars(args))
        files, note = _COMMANDS[args.command][0](settings)
        _write(settings, files, note)
        return 0
    except verify.NonConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        if exc.diagnostics:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(exc.diagnostics.items()))
            print(f"diagnostics: {pairs}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
