import math

import numpy as np
import pytest

from timebin_analyzer import analysis, chsh
from timebin_analyzer import geometry as g


@pytest.fixture
def geom():
    return g.InterferometerGeometry(
        delta_l0=0.60, sigma=1.49e-3, v0=0.91, wavelength=776e-9, focal_length=0.1
    )


class TestAoiSweep:
    def test_gaussian_matches_ray_model(self, geom):
        alphas = np.array([0.0, 0.5e-3, 1.0e-3, 1.5e-3, 2.0e-3])
        curve = analysis.aoi_sweep(geom, analysis.FieldSpec("gaussian"), alphas, False)
        wave, ray = curve.rows[:, 1], curve.rows[:, 2]
        assert np.max(np.abs(wave - ray)) <= 1e-2

    def test_gaussian_relay_flat(self, geom):
        alphas = np.linspace(0.0, 2e-3, 5)
        curve = analysis.aoi_sweep(geom, analysis.FieldSpec("gaussian"), alphas, True)
        assert np.max(np.abs(curve.rows[:, 1] - geom.v0)) <= 1e-3

    def test_speckle_relay_flat_and_seed_invariant(self, geom):
        alphas = np.linspace(0.0, 2e-3, 3)
        curves = [
            analysis.aoi_sweep(
                geom, analysis.FieldSpec("speckle", seed=seed), alphas, True
            )
            for seed in (0, 1)
        ]
        for curve in curves:
            assert np.max(np.abs(curve.rows[:, 1] - geom.v0)) <= 2e-2
        assert np.allclose(curves[0].rows[:, 1], curves[1].rows[:, 1], atol=2e-2)

    def test_params_recorded(self, geom):
        curve = analysis.aoi_sweep(
            geom, analysis.FieldSpec("speckle", seed=7), np.array([0.0]), False
        )
        assert curve.params["seed"] == 7
        assert curve.params["mode"] == "speckle"
        assert curve.params["relay"] is False

    def test_unknown_mode(self, geom):
        with pytest.raises(ValueError):
            analysis.FieldSpec("bessel").build(geom)


class TestExpectationVsAoi:
    def test_relay_constant(self, geom):
        alphas = np.linspace(-math.radians(0.2), math.radians(0.2), 101)
        curve = analysis.expectation_vs_aoi(geom, 0.80, alphas, relay=True)
        assert np.ptp(curve.rows[:, 1]) <= 1e-6

    def test_no_relay_averages_to_zero(self, geom):
        # Window of ~100 phase periods: pi per 323 nrad, so +/-32.3 urad
        # spans 100 full fringes.
        half = 100 * 2 * 323.33e-9 / 2.0
        alphas = np.linspace(-half, half, 20001)
        curve = analysis.expectation_vs_aoi(geom, 0.80, alphas, relay=False)
        assert abs(np.mean(curve.rows[:, 1])) < 0.02

    def test_no_relay_bounded_by_v_xy(self, geom):
        alphas = np.linspace(-1e-4, 1e-4, 5001)
        curve = analysis.expectation_vs_aoi(geom, 0.80, alphas, relay=False)
        assert np.max(np.abs(curve.rows[:, 1])) <= 0.80 + 1e-12
        assert np.max(np.abs(curve.rows[:, 1])) > 0.75  # envelope nearly flat here

    def test_rate_column_is_collection_throughput(self, geom):
        alphas = np.array([0.0, math.radians(0.12), math.radians(0.24)])
        curve = analysis.expectation_vs_aoi(geom, 0.80, alphas, relay=True)
        assert curve.rows[0, 2] == pytest.approx(1.0)
        assert curve.rows[1, 2] == pytest.approx(0.5, abs=1e-12)
        assert curve.rows[2, 2] == pytest.approx(0.0, abs=1e-12)


class TestThroughput:
    def test_shape(self):
        cutoff = analysis.COLLECTION_CUTOFF_RAD
        assert analysis.throughput_vs_aoi(0.0) == 1.0
        assert analysis.throughput_vs_aoi(cutoff) == 0.0
        assert analysis.throughput_vs_aoi(-cutoff * 1.5) == 0.0
        mid = analysis.throughput_vs_aoi(cutoff / 2.0)
        assert mid == pytest.approx(0.5, abs=1e-12)


class TestStabilitySeries:
    def test_noiseless_combined_is_exactly_v_xy(self):
        rng = np.random.default_rng(26)
        for phase0 in rng.uniform(0, 2 * math.pi, size=100):
            drift = chsh.DriftModel("linear", amount=math.pi / 2, period=1800.0,
                                    phase0=phase0)
            curve = analysis.stability_series(0.804, drift, 1800.0, 180.0)
            assert np.max(np.abs(curve.rows[:, 3] - 0.804)) <= 1e-12

    def test_slow_drift_stays_above_floor(self):
        drift = chsh.DriftModel("linear", amount=math.pi / 2, period=1800.0)
        curve = analysis.stability_series(0.804, drift, 1800.0, 180.0)
        assert np.min(curve.rows[:, 3]) > 0.65

    def test_poisson_mode_within_band(self):
        # Binomial error propagation: sigma_E ~ sqrt((1 - E^2)/N) with
        # N = rate * bucket / 2 per setting, far below the 0.05 band.
        rate, bucket = 1000.0, 180.0
        n_per_setting = rate * bucket / 2.0
        sigma_e = math.sqrt((1 - 0.804**2) / n_per_setting)
        assert 5 * sigma_e < 0.05
        drift = chsh.DriftModel("linear", amount=math.pi / 2, period=1800.0)
        curve = analysis.stability_series(
            0.804, drift, 1800.0, bucket, rate=rate, seed=3
        )
        assert np.max(np.abs(curve.rows[:, 3] - 0.804)) <= 0.05

    def test_seeded_determinism(self):
        drift = chsh.DriftModel("sinusoidal", amount=1.0, period=600.0)
        a = analysis.stability_series(0.8, drift, 1200.0, 60.0, rate=500.0, seed=9)
        b = analysis.stability_series(0.8, drift, 1200.0, 60.0, rate=500.0, seed=9)
        assert np.array_equal(a.rows, b.rows)

    @pytest.mark.parametrize("rate, seed", [(1000.0, 3), (50.0, 11), (None, 0)])
    def test_combined_column_is_combined_expectation(self, rate, seed):
        # One hypot for the library: the series' combined column and the
        # scalar function agree to the bit, row by row.
        drift = chsh.DriftModel("sinusoidal", amount=2.0, period=700.0, phase0=0.3)
        curve = analysis.stability_series(
            0.804, drift, 3600.0, 1.0, rate=rate, seed=seed
        )
        _, e1, e2, combined = curve.rows.T
        expected = [chsh.combined_expectation(a, b) for a, b in zip(e1, e2)]
        assert combined.tobytes() == np.array(expected).tobytes()

    def test_validation(self):
        drift = chsh.DriftModel()
        with pytest.raises(ValueError):
            analysis.stability_series(0.8, drift, 0.0, 1.0)
        with pytest.raises(ValueError, match="v_xy"):
            analysis.stability_series(1.5, drift, 10.0, 1.0)
        with pytest.raises(ValueError, match="rate"):
            analysis.stability_series(0.8, drift, 10.0, 1.0, rate=math.nan)
        with pytest.raises(ValueError, match="duration"):
            analysis.stability_series(0.8, drift, 10.0, 100.0)
