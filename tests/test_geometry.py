import dataclasses
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from timebin_analyzer import geometry as g

from oracles import central_difference, fringe_intensity


@pytest.fixture
def geom():
    return g.InterferometerGeometry(
        delta_l0=0.60, sigma=1.49e-3, v0=0.91, wavelength=776e-9, focal_length=0.1
    )


def mp_offset(delta_l0, alpha):
    t = mpmath.tan(mpmath.mpf(alpha))
    return delta_l0 * t / (1 + t)


class TestLateralOffset:
    def test_zero_angle(self, geom):
        assert g.lateral_offset(geom, 0.0) == 0.0

    @pytest.mark.parametrize("alpha", [1.0e-3, 1.7e-3])
    def test_high_precision_evaluation(self, geom, alpha):
        mpmath.mp.dps = 50
        expected = float(mp_offset(mpmath.mpf("0.60"), alpha))
        assert g.lateral_offset(geom, alpha) == pytest.approx(expected, rel=1e-14)

    def test_frozen_values(self, geom):
        assert g.lateral_offset(geom, 1.0e-3) == pytest.approx(5.994007990013e-4, rel=1e-12)
        assert g.lateral_offset(geom, 1.7e-3) == pytest.approx(1.018269922066e-3, rel=1e-12)

    def test_domain_error(self, geom):
        with pytest.raises(g.AngleDomainError):
            g.lateral_offset(geom, math.pi / 4)
        with pytest.raises(g.AngleDomainError):
            g.lateral_offset(geom, -0.9)


class TestPathDifference:
    def test_normal_incidence_exact(self, geom):
        assert g.path_difference(geom, 0.0) == geom.delta_l0

    def test_pi_shift_angle_within_ten_percent(self, geom):
        # One pi of phase corresponds to a half-wavelength path change.
        shortfall = geom.delta_l0 - g.path_difference(geom, 349e-9)
        assert shortfall == pytest.approx(geom.wavelength / 2.0, rel=0.10)

    def test_slope_matches_finite_differences(self, geom):
        fd = central_difference(lambda a: g.path_difference(geom, a), 0.0, 1e-9)
        analytic = -2.0 * geom.delta_l0
        assert fd == pytest.approx(analytic, rel=1e-6)

    def test_finite_difference_step_refinement(self, geom):
        # The derivative estimate stabilizes as the step shrinks.
        steps = [1e-6, 1e-7, 1e-8, 1e-9]
        fds = [
            central_difference(lambda a: g.path_difference(geom, a), 0.0, h)
            for h in steps
        ]
        assert fds[-1] == pytest.approx(fds[-2], rel=1e-7)


class TestFringeIntensity:
    def test_constructive_at_zero(self, geom):
        assert fringe_intensity(geom, 0.0, 0.0, 1.0) == pytest.approx(
            2.0 * math.pi * geom.sigma**2, rel=1e-14
        )

    def test_destructive_at_zero(self, geom):
        assert fringe_intensity(geom, 0.0, math.pi, 1.0) == pytest.approx(0.0, abs=1e-18)

    def test_envelope_at_paper_angle(self, geom):
        delta = g.lateral_offset(geom, 1.7e-3)
        envelope = math.exp(-(delta**2) / (2.0 * geom.sigma**2))
        assert envelope == pytest.approx(0.791742, abs=1e-5)
        value = fringe_intensity(geom, 1.7e-3, 0.0, 1.0)
        assert value == pytest.approx(math.pi * geom.sigma**2 * (1 + envelope), rel=1e-12)


class TestVisibility:
    def test_zero_angle_is_v0(self, geom):
        assert g.visibility(geom, 0.0) == 0.91

    def test_paper_point(self, geom):
        # The stated parameters give 0.7205; the quoted 0.70 carries a
        # +/-0.03 band (width-convention ambiguity).
        assert g.visibility(geom, 1.70e-3) == pytest.approx(0.70, abs=0.03)

    def test_zero_baseline(self):
        geom0 = g.InterferometerGeometry(0.60, 1.49e-3, 0.0, 776e-9, 0.1)
        assert g.visibility(geom0, 1.0e-3) == 0.0

    def test_fringe_extraction_equivalence(self, geom):
        phis = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        for alpha in (0.0, 0.5e-3, 1.7e-3):
            intensities = fringe_intensity(geom, alpha, phis, 1.0)
            i_max, i_min = intensities.max(), intensities.min()
            extracted = geom.v0 * (i_max - i_min) / (i_max + i_min)
            assert extracted == pytest.approx(g.visibility(geom, alpha), abs=1e-9)

    def test_even_symmetry_to_first_order(self, geom):
        # The tan asymmetry is second order: |V(a) - V(-a)| grows like
        # 2 delta_l0 a^2 * dV/d(delta), reaching ~1.7e-3 only at 2 mrad.
        alphas = np.linspace(0.0, 1.5e-3, 31)
        diff = np.abs(g.visibility(geom, alphas) - g.visibility(geom, -alphas))
        assert np.max(diff) <= 1e-3
        wide = np.linspace(0.0, 2e-3, 41)
        diff_wide = np.abs(g.visibility(geom, wide) - g.visibility(geom, -wide))
        assert np.max(diff_wide) <= 2e-3

    def test_monotone_nonincreasing(self, geom):
        alphas = np.linspace(0.0, 10e-3, 500)
        values = g.visibility(geom, alphas)
        assert np.all(np.diff(values) <= 1e-15)


class TestPhase:
    def test_unwrapped_at_zero(self, geom):
        expected = 2.0 * math.pi * 0.60 / 776e-9
        assert g.phase(geom, 0.0).unwrapped == pytest.approx(expected, rel=1e-14)

    def test_five_pi_shift(self, geom):
        dphi = abs(g.phase(geom, 1.75e-6).unwrapped - g.phase(geom, 0.0).unwrapped)
        assert dphi == pytest.approx(5.0 * math.pi, rel=0.10)

    def test_shift_ratio(self, geom):
        base = g.phase(geom, 0.0).unwrapped
        ratio = abs(g.phase(geom, 1.75e-6).unwrapped - base) / abs(
            g.phase(geom, 349e-9).unwrapped - base
        )
        assert ratio == pytest.approx(5.0, abs=0.05)

    def test_wrapped_consistency(self, geom):
        for alpha in (0.0, 1e-6, 1e-3, -2e-3):
            res = g.phase(geom, alpha)
            assert -math.pi < res.wrapped <= math.pi
            residue = (res.unwrapped - res.wrapped) / (2.0 * math.pi)
            assert abs(residue - round(residue)) * 2.0 * math.pi <= 1e-9

    @pytest.mark.parametrize(
        "kwargs", [dict(delta_l0=1e308), dict(wavelength=1e-320)],
        ids=["delta_l0", "wavelength"],
    )
    def test_non_finite_phase_refused(self, geom, kwargs):
        # 2 pi L / lambda overflows: refused, naming both, without a numpy
        # overflow warning and before a NaN wrapped phase.
        wide = dataclasses.replace(geom, **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (0.0, [0.0, 1e-3]):
                with pytest.raises(
                    ValueError, match="^delta_l0 and wavelength must be .* finite"
                ):
                    g.phase(wide, alpha)


class TestRelayMatrix:
    def exact_single_pass(self, f):
        """Exact rational product of the five element matrices."""
        f = Fraction(f)
        fs = lambda d: [[Fraction(1), d], [Fraction(0), Fraction(1)]]
        lens = [[Fraction(1), Fraction(0)], [-1 / f, Fraction(1)]]

        def matmul(a, b):
            return [
                [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]

        m = fs(f)
        for el in (lens, fs(2 * f), lens, fs(f)):
            m = matmul(m, el)
        return m

    @pytest.mark.parametrize("f", [0.05, 0.1, 1.0])
    def test_round_trip_identity(self, f):
        m = g.relay_matrix(f)
        assert np.max(np.abs(m - np.eye(2))) < 1e-12

    def test_single_pass_minus_identity(self):
        exact = self.exact_single_pass(Fraction(1, 10))
        assert exact == [[-1, 0], [0, -1]]
        m = g.relay_single_pass(0.1)
        assert np.max(np.abs(m + np.eye(2))) < 1e-12

    @pytest.mark.parametrize("f", [0.05, 0.1, 1.0])
    def test_determinants(self, f):
        assert np.linalg.det(g.relay_single_pass(f)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(g.relay_matrix(f)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(g.free_space(f)) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.det(g.thin_lens(f)) == pytest.approx(1.0, abs=1e-15)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_l0": -1.0},
            {"sigma": 0.0},
            {"v0": 1.5},
            {"v0": -0.1},
            {"wavelength": 0.0},
            {"focal_length": -0.2},
        ],
    )
    def test_invalid_geometry(self, kwargs):
        params = dict(
            delta_l0=0.6, sigma=1.49e-3, v0=0.91, wavelength=776e-9, focal_length=0.1
        )
        params.update(kwargs)
        with pytest.raises(ValueError):
            g.InterferometerGeometry(**params)

    def test_width_conversions(self):
        assert g.sigma_from_intensity_std(0.745e-3) == pytest.approx(1.49e-3)
        assert g.intensity_std_from_sigma(1.49e-3) == pytest.approx(0.745e-3)
