"""The scalar input rule and every entry point it guards."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from timebin_analyzer import analysis, chsh, geometry, verify, waveoptics
from timebin_analyzer import states as st
from timebin_analyzer._checks import finite_in, integer_in
from timebin_analyzer.measurement import (
    AnalyzerEfficiencies,
    alice_projectors,
    bob_povm,
)

from oracles import propagate

GEOM_KW = dict(
    delta_l0=0.6, sigma=1.49e-3, v0=0.91, wavelength=776e-9, focal_length=0.1
)
GEOM = geometry.InterferometerGeometry(**GEOM_KW)
EFF = AnalyzerEfficiencies(0.9, 0.9)
CS = verify.build_constraints(0.9, 0.3, EFF)
DRIFT = chsh.DriftModel()
FIELD = waveoptics.make_gaussian(1e-3, grid_n=64)


def below(lo):
    return hst.floats(max_value=lo, allow_nan=False).filter(lambda v: v < lo)


def above(hi):
    return hst.floats(min_value=hi, allow_nan=False).filter(lambda v: v > hi)


POSITIVE = hst.floats(max_value=0.0, allow_nan=False)  # values outside (0, inf)
UNIT = hst.one_of(below(0.0), above(1.0))
SIGNED = hst.one_of(below(-1.0), above(1.0))
FINITE = hst.just(math.nan)  # no finite value is out of range
NON_INTEGER = hst.sampled_from([512.0, 100.5, 2.5, 1e20]) | hst.floats(allow_nan=False)
ANGLE = hst.one_of(
    hst.floats(min_value=math.pi / 4), hst.floats(max_value=-math.pi / 4)
)


def geom(**kw):
    return geometry.InterferometerGeometry(**{**GEOM_KW, **kw})


def stability(**kw):
    args = dict(v_xy=0.8, drift=DRIFT, duration=10.0, bucket=1.0, rate=100.0)
    return analysis.stability_series(**{**args, **kw})


# (entry point, parameter named in the error, values outside its range)
GUARDED = {
    "InterferometerGeometry.delta_l0": (
        lambda v: geom(delta_l0=v), "delta_l0", POSITIVE
    ),
    "InterferometerGeometry.sigma": (lambda v: geom(sigma=v), "sigma", POSITIVE),
    "InterferometerGeometry.wavelength": (
        lambda v: geom(wavelength=v), "wavelength", POSITIVE
    ),
    "InterferometerGeometry.focal_length": (
        lambda v: geom(focal_length=v), "focal_length", POSITIVE
    ),
    "InterferometerGeometry.v0": (lambda v: geom(v0=v), "v0", UNIT),
    "geometry.visibility": (
        lambda v: geometry.visibility(GEOM, [0.0, v]), "|alpha|", ANGLE
    ),
    "geometry.lateral_offset": (
        lambda v: geometry.lateral_offset(GEOM, v), "|alpha|", ANGLE
    ),
    "geometry.phase": (lambda v: geometry.phase(GEOM, v), "|alpha|", ANGLE),
    "relay_single_pass": (geometry.relay_single_pass, "focal_length", POSITIVE),
    "thin_lens": (geometry.thin_lens, "f", hst.just(0.0)),
    "AnalyzerEfficiencies.eta_l": (
        lambda v: AnalyzerEfficiencies(v, 0.9), "eta_l", UNIT
    ),
    "AnalyzerEfficiencies.eta_s": (
        lambda v: AnalyzerEfficiencies(0.9, v), "eta_s", UNIT
    ),
    "bob_povm.relative_phase": (
        lambda v: bob_povm(EFF, relative_phase=v), "relative_phase", FINITE
    ),
    "DepolarizationParams.p_x": (
        lambda v: st.DepolarizationParams(v, 0.0, 0.0), "p_x", UNIT
    ),
    "DepolarizationParams.p_y": (
        lambda v: st.DepolarizationParams(0.0, v, 0.0), "p_y", UNIT
    ),
    "DepolarizationParams.p_z": (
        lambda v: st.DepolarizationParams(0.0, 0.0, v), "p_z", UNIT
    ),
    "embed_2x3": (
        lambda v: st.embed_2x3(st.hybrid_bell_state(), v), "arrival_prob", UNIT
    ),
    "ScalarField.extent": (
        lambda v: waveoptics.ScalarField(np.ones((64, 64)), v, 776e-9),
        "extent",
        POSITIVE,
    ),
    "ScalarField.wavelength": (
        lambda v: waveoptics.ScalarField(np.ones((64, 64)), 0.01, v),
        "wavelength",
        POSITIVE,
    ),
    "make_gaussian.sigma": (
        lambda v: waveoptics.make_gaussian(v, grid_n=64), "sigma", POSITIVE
    ),
    # Below about 6e-154 m the default cell area (sigma/4)^2 is subnormal;
    # above about 8e152 m the default extent 16 sigma squares to inf.
    "make_gaussian.sigma_cell_area": (
        lambda v: waveoptics.make_gaussian(v, grid_n=64),
        "sigma",
        hst.one_of(
            hst.floats(0.0, 5.9e-154, exclude_min=True),
            hst.floats(8.5e152, 1e306),
        ),
    ),
    "make_gaussian.extent": (
        lambda v: waveoptics.make_gaussian(1e-3, grid_n=64, extent=v),
        "extent",
        below(12e-3),
    ),
    "make_gaussian.wavelength": (
        lambda v: waveoptics.make_gaussian(1e-3, grid_n=64, wavelength=v),
        "wavelength",
        POSITIVE,
    ),
    "make_speckle.mode_count": (
        lambda v: waveoptics.make_speckle(v, 0, grid_n=64), "mode_count", below(1.0)
    ),
    "make_speckle.seed": (
        lambda v: waveoptics.make_speckle(3, v, grid_n=64), "seed", below(0.0)
    ),
    # Sizes and seeds are integers: a float is refused even when integral.
    "make_gaussian.grid_n": (
        lambda v: waveoptics.make_gaussian(1e-3, grid_n=v), "grid_n", NON_INTEGER
    ),
    "make_speckle.grid_n": (
        lambda v: waveoptics.make_speckle(3, 0, grid_n=v), "grid_n", NON_INTEGER
    ),
    "make_speckle.mode_count_integer": (
        lambda v: waveoptics.make_speckle(v, 0, grid_n=64), "mode_count", NON_INTEGER
    ),
    "make_speckle.seed_integer": (
        lambda v: waveoptics.make_speckle(3, v, grid_n=64), "seed", NON_INTEGER
    ),
    "FieldSpec.grid_n": (
        lambda v: analysis.FieldSpec("gaussian", grid_n=v).build(GEOM),
        "grid_n",
        NON_INTEGER,
    ),
    "make_speckle.extent": (
        lambda v: waveoptics.make_speckle(3, 0, grid_n=64, extent=v), "extent", POSITIVE
    ),
    # Below 64 x 1.5e-154 m the 64-cell grid's cell area is subnormal; from
    # 1.3e154 m on extent^2 overflows.
    "make_speckle.extent_cell_area": (
        lambda v: waveoptics.make_speckle(3, 0, grid_n=64, extent=v),
        "extent",
        hst.one_of(
            hst.floats(0.0, 9.5e-153, exclude_min=True),
            hst.floats(1.3e154, 1e306),
            hst.sampled_from([1e-300, 1e-160, 1e200]),
        ),
    ),
    "propagate.distance": (
        lambda v: propagate(FIELD, v), "distance", FINITE
    ),
    "DriftModel.amount": (lambda v: chsh.DriftModel(amount=v), "amount", FINITE),
    "DriftModel.phase0": (lambda v: chsh.DriftModel(phase0=v), "phase0", FINITE),
    "DriftModel.period": (lambda v: chsh.DriftModel(period=v), "period", POSITIVE),
    "bucket_times.duration": (
        lambda v: chsh.bucket_times(v, 1.0), "duration", POSITIVE
    ),
    "bucket_times.bucket": (lambda v: chsh.bucket_times(10.0, v), "bucket", POSITIVE),
    "bucket_times.bucket_count": (
        lambda v: chsh.bucket_times(v, 1.0),
        "duration",
        hst.floats(chsh.MAX_BUCKETS + 1.0, 1e308),
    ),
    "bucket_times.rate": (
        lambda v: chsh.bucket_times(10.0, 1.0, v), "rate", POSITIVE
    ),
    "simulate_drift_scan.seed": (
        lambda v: chsh.simulate_drift_scan(
            st.hybrid_bell_state(), EFF, DRIFT, rate=100.0, duration=2.0, seed=v
        ),
        "seed",
        below(0.0),
    ),
    "simulate_drift_scan.seed_integer": (
        lambda v: chsh.simulate_drift_scan(
            st.hybrid_bell_state(), EFF, DRIFT, rate=100.0, duration=2.0, seed=v
        ),
        "seed",
        NON_INTEGER,
    ),
    "alice_projectors": (
        lambda v: alice_projectors([v, 0.0, 0.0]),
        "bloch",
        hst.floats(allow_nan=False).filter(lambda v: abs(abs(v) - 1.0) > 1e-12),
    ),
    "visibility_xy.phase_grid": (
        lambda v: st.visibility_xy(
            st.hybrid_bell_state(), np.append(np.linspace(0.0, 2.0 * math.pi, 24), v)
        ),
        "phase_grid",
        FINITE,
    ),
    "ConstraintSet.operators": (
        lambda v: verify.ConstraintSet(
            [*CS.operators[:4], np.full((6, 6), v)], CS.targets
        ),
        "operators",
        hst.just(1j),  # a complex operator
    ),
    "ConstraintSet.targets": (
        lambda v: verify.ConstraintSet(CS.operators, [*CS.targets[:4], v]),
        "targets",
        FINITE,
    ),
    "build_constraints.v_z": (
        lambda v: verify.build_constraints(v, 0.3, EFF), "v_z", SIGNED
    ),
    "build_constraints.v_xy": (
        lambda v: verify.build_constraints(0.9, v, EFF), "v_xy", SIGNED
    ),
    "build_constraints.qubit_mass": (
        lambda v: verify.build_constraints(0.9, 0.3, EFF, qubit_mass=v),
        "qubit_mass",
        hst.one_of(POSITIVE, above(1.0)),
    ),
    "sdp_feasible.tol": (lambda v: verify.sdp_feasible(CS, tol=v), "tol", POSITIVE),
    "boundary_scan.resolution": (
        lambda v: verify.boundary_scan([0.9], EFF, resolution=v), "resolution", POSITIVE
    ),
    # Below 2^-53 the dyadic grid would overflow a float or repeat its points.
    "boundary_scan.resolution_floor": (
        lambda v: verify.boundary_scan([0.9], EFF, resolution=v),
        "resolution",
        hst.floats(0.0, 2.0**-53, exclude_min=True, exclude_max=True),
    ),
    "expectation_vs_aoi.v_xy": (
        lambda v: analysis.expectation_vs_aoi(GEOM, v, [0.0], False), "v_xy", SIGNED
    ),
    "expectation_vs_aoi.fixed_phase": (
        lambda v: analysis.expectation_vs_aoi(GEOM, 0.8, [0.0], True, fixed_phase=v),
        "fixed_phase",
        FINITE,
    ),
    "expectation_vs_aoi.alphas": (
        lambda v: analysis.expectation_vs_aoi(GEOM, 0.8, [v], False), "|alpha|", ANGLE
    ),
    "expectation_vs_aoi.alphas_relay": (
        lambda v: analysis.expectation_vs_aoi(GEOM, 0.8, [v], True), "|alpha|", ANGLE
    ),
    "stability_series.v_xy": (lambda v: stability(v_xy=v), "v_xy", SIGNED),
    "stability_series.duration": (
        lambda v: stability(duration=v), "duration", POSITIVE
    ),
    "stability_series.bucket": (lambda v: stability(bucket=v), "bucket", POSITIVE),
    "stability_series.rate": (lambda v: stability(rate=v), "rate", POSITIVE),
    "stability_series.seed": (lambda v: stability(seed=v), "seed", below(0.0)),
    "stability_series.seed_integer": (
        lambda v: stability(seed=v), "seed", NON_INTEGER
    ),
}


@pytest.mark.parametrize("entry", GUARDED)
@given(data=hst.data())
def test_guarded_entry_point_rejects_bad_values(entry, data):
    call, name, out_of_range = GUARDED[entry]
    for value in (math.nan, math.inf, -math.inf, data.draw(out_of_range)):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
            call(value)


def test_angle_errors_are_angle_domain_errors():
    for call in (
        lambda: geometry.visibility(GEOM, math.nan),
        lambda: analysis.expectation_vs_aoi(GEOM, 0.8, [math.nan], False),
    ):
        with pytest.raises(geometry.AngleDomainError, match="got nan"):
            call()


@pytest.mark.parametrize(
    "value, bounds, message",
    [
        (math.nan, dict(lo=0, open_lo=True), "x must be > 0, got nan"),
        (math.nan, dict(lo=0, hi=1), "x must be in [0, 1], got nan"),
        (math.nan, dict(lo=0, hi=1, open_lo=True), "x must be in (0, 1], got nan"),
        (math.nan, {}, "x must be finite, got nan"),
        (math.nan, dict(hi=2.5), "x must be finite, got nan"),
        (math.inf, dict(lo=0, open_lo=True), "x must be finite, got inf"),
        (math.inf, dict(lo=0, hi=1), "x must be finite, got inf"),
        (-math.inf, dict(lo=0), "x must be >= 0, got -inf"),
        (-math.inf, {}, "x must be finite, got -inf"),
        (0.0, dict(lo=0, open_lo=True), "x must be > 0, got 0.0"),
        (1.5, dict(lo=-1, hi=1), "x must be in [-1, 1], got 1.5"),
        (3.0, dict(hi=2.5), "x must be <= 2.5, got 3.0"),
        (0.004, dict(lo=0.012), "x must be >= 0.012, got 0.004"),
    ],
)
def test_finite_in_message_rule(value, bounds, message):
    with pytest.raises(ValueError) as info:
        finite_in("x", value, **bounds)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 1, np.float64(0.25)])
def test_finite_in_returns_value_unchanged(value):
    assert finite_in("x", value, 0, 1) is value


@pytest.mark.parametrize(
    "value, bounds, message",
    [
        (2.5, {}, "x must be an integer, got 2.5"),
        (512.0, dict(lo=0), "x must be an integer, got 512.0"),
        (1e20, dict(lo=0), "x must be an integer, got 1e+20"),
        (math.nan, dict(lo=0), "x must be an integer, got nan"),
        (np.float64(3.0), dict(lo=1), "x must be an integer, got 3.0"),
        (-1, dict(lo=0), "x must be >= 0, got -1"),
        (0, dict(lo=1), "x must be >= 1, got 0"),
        (5, dict(lo=1, hi=4), "x must be in [1, 4], got 5"),
    ],
)
def test_integer_in_message_rule(value, bounds, message):
    with pytest.raises(ValueError) as info:
        integer_in("x", value, **bounds)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [0, 1, 10**30, np.int64(7), np.uint8(3)])
def test_integer_in_returns_value_unchanged(value):
    assert integer_in("x", value, 0) is value
