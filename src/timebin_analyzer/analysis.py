"""Scenario sweeps combining the geometry, wave-optics and qubit layers.

Each operation returns a small result object carrying its parameters so
CSV exports are self-describing and reproducible from the header alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chsh as _chsh
from . import geometry as _geometry
from . import waveoptics as _waveoptics
from ._checks import finite_in

# Photon collection falls to zero at this angle; a raised-cosine
# surrogate for the fiber-coupling rolloff.  It scales rates, never
# visibilities.
COLLECTION_CUTOFF_RAD = math.radians(0.24)


@dataclass(frozen=True)
class FieldSpec:
    """Recipe for the input field of a wave-optics sweep."""

    mode: str = "gaussian"  # 'gaussian' or 'speckle'
    grid_n: int = 512
    mode_count: int = 50
    seed: int = 0

    def build(self, geom: _geometry.InterferometerGeometry) -> _waveoptics.ScalarField:
        if self.mode == "gaussian":
            # The fringe-formula sigma is twice the intensity std.  The grid
            # is checked here so that a refusal reports the sigma given.
            std = _geometry.intensity_std_from_sigma(geom.sigma)
            extent = 16.0 * std
            _waveoptics._require_power_of_two(self.grid_n)
            _waveoptics._require_normal_cell_area(
                "sigma", geom.sigma, extent, self.grid_n
            )
            return _waveoptics.make_gaussian(
                std, grid_n=self.grid_n, extent=extent, wavelength=geom.wavelength
            )
        if self.mode == "speckle":
            return _waveoptics.make_speckle(
                self.mode_count,
                self.seed,
                grid_n=self.grid_n,
                wavelength=geom.wavelength,
            )
        raise ValueError(f"unknown field mode {self.mode!r}")


@dataclass
class Curve:
    """A sampled curve with named columns and provenance parameters."""

    columns: list
    rows: np.ndarray
    params: dict = field(default_factory=dict)


def aoi_sweep(
    geom: _geometry.InterferometerGeometry,
    field_spec: FieldSpec,
    alphas,
    relay: bool,
) -> Curve:
    """Wave-optics fringe visibility versus angle of incidence.

    The ray-model visibility is included as a reference column for
    Gaussian inputs.
    """
    alphas = np.asarray(alphas, dtype=float)
    input_field = field_spec.build(geom)
    vis = _waveoptics.aoi_visibility_scan(input_field, geom, alphas, relay)
    ray = _geometry.visibility(geom, alphas)
    rows = np.column_stack([alphas, vis, ray])
    return Curve(
        columns=["alpha_rad", "visibility", "visibility_ray_model"],
        rows=rows,
        params={
            "operation": "aoi_sweep",
            "relay": relay,
            "mode": field_spec.mode,
            "grid_n": field_spec.grid_n,
            "extent_m": input_field.extent,
            "mode_count": field_spec.mode_count if field_spec.mode == "speckle" else 1,
            "seed": field_spec.seed,
            "delta_l0_m": geom.delta_l0,
            "sigma_m": geom.sigma,
            "v0": geom.v0,
            "wavelength_m": geom.wavelength,
        },
    )


def throughput_vs_aoi(alpha):
    """Raised-cosine photon-collection rolloff, zero beyond
    ``COLLECTION_CUTOFF_RAD``.

    A surrogate shape for the coupling-efficiency falloff; multiplies
    rates only.
    """
    alpha = np.asarray(alpha, dtype=float)
    inside = np.abs(alpha) < COLLECTION_CUTOFF_RAD
    out = np.zeros_like(alpha)
    out[inside] = 0.5 * (1.0 + np.cos(math.pi * alpha[inside] / COLLECTION_CUTOFF_RAD))
    return out


def expectation_vs_aoi(
    geom: _geometry.InterferometerGeometry,
    v_xy: float,
    alphas,
    relay: bool,
    fixed_phase: float = 0.0,
) -> Curve:
    """Superposition-basis expectation value versus angle of incidence.

    With relay the analyzer phase stays fixed and E is constant; without
    it the phase races through many cycles per microradian while the
    visibility envelope decays, so E oscillates rapidly and averages to
    zero over any window spanning many periods.  The relative photon
    collection rate is included as a separate column.
    """
    finite_in("v_xy", v_xy, -1, 1)
    finite_in("fixed_phase", fixed_phase)
    alphas = _geometry._check_alpha(alphas)
    if relay:
        e_vals = np.full(alphas.shape, v_xy * math.cos(fixed_phase))
    else:
        unwrapped = _geometry.phase(geom, alphas).unwrapped
        envelope = _geometry.visibility(geom, alphas) / geom.v0
        e_vals = envelope * v_xy * np.cos(unwrapped)
    rate = throughput_vs_aoi(alphas)
    rows = np.column_stack([alphas, e_vals, rate])
    return Curve(
        columns=["alpha_rad", "expectation", "relative_collection_rate"],
        rows=rows,
        params={
            "operation": "expectation_vs_aoi",
            "relay": relay,
            "v_xy": v_xy,
            "fixed_phase_rad": fixed_phase,
            "delta_l0_m": geom.delta_l0,
            "sigma_m": geom.sigma,
            "v0": geom.v0,
            "wavelength_m": geom.wavelength,
            "collection_cutoff_rad": COLLECTION_CUTOFF_RAD,
        },
    )


def stability_series(
    v_xy: float,
    drift: _chsh.DriftModel,
    duration: float,
    bucket: float,
    rate: float | None = None,
    seed: int = 0,
) -> Curve:
    """Long-term stability of the two quadrature expectation values.

    E1 follows v_xy cos(phi(t)) and E2 the quadrature v_xy sin(phi(t));
    their combined magnitude is drift independent.  With ``rate`` set,
    the per-bucket coincidences are Poisson distributed and the
    expectation values carry shot noise; ``rate=None`` is noiseless.
    """
    finite_in("v_xy", v_xy, -1, 1)
    times = _chsh.bucket_times(duration, bucket, rate)
    phases = drift.phase(times)
    e1_ideal = v_xy * np.cos(phases)
    e2_ideal = v_xy * np.sin(phases)
    if rate is None:
        e1, e2 = e1_ideal, e2_ideal
    else:
        rng = np.random.Generator(np.random.PCG64(finite_in("seed", seed, 0)))
        ideal = np.column_stack([e1_ideal, e2_ideal])
        # Means ordered (bucket, quadrature, +/-): the draws come in that order.
        mean = rate * bucket / 4.0 * np.stack([1.0 + ideal, 1.0 - ideal], axis=-1)
        plus, minus = np.moveaxis(rng.poisson(mean), -1, 0)
        total = plus + minus
        e = np.divide(plus - minus, total, out=np.zeros(total.shape), where=total > 0)
        e1, e2 = e.T
    # math.hypot, as in chsh.combined_expectation: np.hypot differs by an ulp.
    _chsh.check_expectations(np.column_stack([e1, e2]))
    combined = np.array(list(map(math.hypot, e1.tolist(), e2.tolist())))
    rows = np.column_stack([times, e1, e2, combined])
    return Curve(
        columns=["time_s", "e_phi", "e_phi_quadrature", "combined"],
        rows=rows,
        params={
            "operation": "stability_series",
            "v_xy": v_xy,
            "drift_kind": drift.kind,
            "drift_amount_rad": drift.amount,
            "drift_period_s": drift.period,
            "drift_phase0_rad": drift.phase0,
            "duration_s": duration,
            "bucket_s": bucket,
            "rate_per_s": rate,
            "seed": seed if rate is not None else None,
        },
    )
