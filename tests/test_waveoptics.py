import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from timebin_analyzer import geometry as g
from timebin_analyzer import waveoptics as w
from timebin_analyzer.analysis import FieldSpec

from oracles import (
    angular_spectrum_kernel_dense,
    aoi_visibility_scan_dense,
    coords,
    fringe_visibility,
    gaussian_dense,
    gaussian_overlap_quadrature,
    normalized,
    overlap,
    propagate,
    relay_by_lenses,
    shift_and_tilt,
    signal_bandwidth_argsort,
    signal_bandwidth_ring_loop,
    spectrum,
)

SIGMA = 1.49e-3 / 2.0  # intensity std matching the reference geometry

# The golden visibility_scan_*.csv inputs, then each field kind of the
# aoi_sweep benchmark.
SWEEP_FIELDS = (
    [("gaussian", 256, 1, 0), ("speckle", 256, 15, 5), ("gaussian", 512, 1, 0)]
    + [("speckle", 256, m, 1) for m in (5, 10, 20, 30)]
    + [("speckle", 512, m, 1) for m in (10, 30, 50)]
)


def bandwidth(field, spec):
    """The ring bandwidth of the power of ``spec``, folded as the library folds it."""
    return w._signal_bandwidth(field, w._folded_power(spec)[1])


@pytest.fixture
def geom():
    return g.InterferometerGeometry(
        delta_l0=0.60, sigma=1.49e-3, v0=0.91, wavelength=776e-9, focal_length=0.1
    )


@pytest.fixture
def gaussian():
    return w.make_gaussian(SIGMA, grid_n=512)


class TestMakeGaussian:
    def test_unit_power_and_center_peak(self, gaussian):
        assert gaussian.power() == pytest.approx(1.0, abs=1e-12)
        peak = np.unravel_index(np.argmax(np.abs(gaussian.grid)), gaussian.grid.shape)
        assert peak == (256, 256)

    def test_self_overlap_visibility(self, gaussian):
        assert fringe_visibility(gaussian, gaussian) == pytest.approx(1.0, abs=1e-12)

    def test_second_moment_matches_sigma(self, gaussian):
        x = coords(gaussian)
        xx = np.meshgrid(x, x, indexing="ij")[0]
        intensity = np.abs(gaussian.grid) ** 2 * gaussian.cell**2
        measured = math.sqrt(float(np.sum(intensity * xx**2)))
        assert measured == pytest.approx(SIGMA, rel=5e-3)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            w.make_gaussian(SIGMA, grid_n=500)  # not a power of two
        with pytest.raises(ValueError):
            w.make_gaussian(SIGMA, grid_n=512, extent=8 * SIGMA)  # tails clipped
        with pytest.raises(w.GridResolutionError):
            w.make_gaussian(1e-5, grid_n=64, extent=0.02)  # beam under-resolved

    @pytest.mark.parametrize("n", [2 * w.MAX_GRID_N, 2**62])
    def test_grid_cap_refused_before_allocation(self, n, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("grid built past the cap")

        monkeypatch.setattr(np, "arange", fail)
        for build in (lambda: w.make_gaussian(SIGMA, grid_n=n),
                      lambda: w.make_speckle(3, 0, grid_n=n)):
            with pytest.raises(ValueError, match=r"^grid_n must be a power of two in "
                               rf"\[64, {w.MAX_GRID_N}\], got {n}$"):
                build()

    def test_nan_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma must be > 0, got nan"):
                w.make_gaussian(math.nan)
            for name in ("extent", "wavelength"):
                values = {"extent": 0.01, "wavelength": 776e-9, name: math.nan}
                with pytest.raises(ValueError, match=f"{name} must be > 0, got nan"):
                    w.ScalarField(np.ones((64, 64)), **values)

    @pytest.mark.parametrize("shape", [(64, 128), (32, 32)])
    def test_grid_square_and_at_least_64(self, shape):
        with pytest.raises(ValueError, match=r"^grid must be square with N >= 64, "
                           rf"got \({shape[0]}, {shape[1]}\)$"):
            w.ScalarField(np.ones(shape), 0.01, 776e-9)

    @pytest.mark.parametrize("name", ["extent", "wavelength"])
    def test_infinite_rejected(self, name):
        values = {"extent": 0.01, "wavelength": 776e-9, name: math.inf}
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            w.ScalarField(np.ones((64, 64)), **values)
        with pytest.raises(ValueError, match=f"{name} .*must be finite"):
            w.make_gaussian(1e-3, **{name: math.inf})

    @pytest.mark.parametrize("grid_n", [64, 128, 256, 512, 1024])
    @pytest.mark.parametrize("extent", [None, 13.0 * SIGMA, 0.012])
    def test_fold_bit_identical_to_meshgrid(self, grid_n, extent):
        folded = w.make_gaussian(SIGMA, grid_n=grid_n, extent=extent)
        dense = gaussian_dense(SIGMA, grid_n, extent=extent)
        assert folded.extent == dense.extent
        assert np.array_equal(folded.grid.view(np.uint64), dense.grid.view(np.uint64))

    # SHA-256 of make_gaussian(SIGMA, grid_n).grid.tobytes(), computed with
    # the meshgrid construction that the quadrant fold replaced.
    @pytest.mark.parametrize(
        "grid_n, digest",
        [
            (256, "b1721642a4fcc908189304b09296f6f27b7dc11345df5cc241d4946ad85a0d35"),
            (512, "95908157fe8fdb6d7de561a66a8abec5c302aca2d465103513203ff9515239e1"),
        ],
    )
    def test_pinned_bytes(self, grid_n, digest):
        grid = w.make_gaussian(SIGMA, grid_n=grid_n).grid
        assert hashlib.sha256(grid.tobytes()).hexdigest() == digest


class TestMakeSpeckle:
    def test_single_mode_limit(self):
        speckle = w.make_speckle(1, seed=3)
        width = speckle.extent / (3.0 * math.sqrt(2.0) * 4.0)
        reference = w.make_gaussian(width, grid_n=512, extent=speckle.extent)
        assert abs(overlap(speckle, reference)) == pytest.approx(1.0, abs=1e-10)

    def test_seed_determinism(self):
        a = w.make_speckle(50, seed=11)
        b = w.make_speckle(50, seed=11)
        assert np.array_equal(a.grid, b.grid)

    def test_seed_decorrelation(self):
        fields = [w.make_speckle(50, seed=s) for s in range(7)]
        pairs = 0
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                assert abs(overlap(fields[i], fields[j])) < 0.9
                pairs += 1
        assert pairs >= 20

    def test_unit_power(self):
        assert w.make_speckle(50, seed=0).power() == pytest.approx(1.0, abs=1e-12)

    def test_mode_count_validation(self):
        with pytest.raises(ValueError):
            w.make_speckle(0, seed=0)

    def test_resolution_guard(self):
        with pytest.raises(w.GridResolutionError):
            w.make_speckle(200, seed=0, grid_n=64, extent=0.02)

    @pytest.mark.parametrize("mode_count, seed", [(1, 0), (15, 5), (50, 11)])
    def test_matches_explicit_coefficient_loop(self, mode_count, seed):
        # The coefficient draws, one pair at a time in row-major order.
        extent, grid_n = 0.02, 512
        top = mode_count - 1
        width = extent / (3.0 * math.sqrt(2.0) * (math.sqrt(2 * top + 1) + 3.0))
        x = (np.arange(grid_n) - grid_n // 2) * (extent / grid_n)
        psi = w._hermite_functions(x / (math.sqrt(2.0) * width), top)
        psi /= math.sqrt(math.sqrt(2.0) * width)
        rng = np.random.Generator(np.random.PCG64(seed))
        coeff = np.zeros((top + 1, top + 1), dtype=complex)
        for m in range(top + 1):
            for n_ in range(top + 1 - m):
                re, im = rng.normal(size=2)
                coeff[m, n_] = re + 1j * im
        expected = normalized(w.ScalarField(psi.T @ coeff @ psi, extent, 776e-9))
        assert np.array_equal(w.make_speckle(mode_count, seed).grid, expected.grid)

    def test_pinned_bytes(self):
        # Computed with the copying normalization that the in-place one replaced.
        grid = w.make_speckle(30, seed=7, grid_n=512).grid
        assert hashlib.sha256(grid.tobytes()).hexdigest() == (
            "7bed2abbaad7278c7e46306ced179c84017469a2358ceaf0cc17b6fa3f277ac6"
        )

    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    def test_unit_power_rejects_powerless_grid(self, value):
        grid = np.full((64, 64), value, dtype=complex)
        with pytest.raises(ValueError, match="cannot normalize a zero-power field"):
            w._unit_power(grid, 0.01, 776e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        parts=hst.lists(
            hst.floats(-1e150, 1e150) | hst.sampled_from([0.0, -0.0]),
            min_size=2,
            max_size=128,
        ),
        extent=hst.floats(1e-4, 0.1),
    )
    def test_unit_power_scaling_equals_division(self, parts, extent):
        # Scaling the float view by 1/sqrt(p) gives grid / sqrt(p): equal
        # cells, and equal bits wherever neither part of the input is zero.
        grid = np.resize(np.asarray(parts), 2 * 64 * 64).view(complex).reshape(64, 64)
        p = w.ScalarField(grid, extent, 776e-9).power()
        assume(0 < p < math.inf)
        expected = grid / math.sqrt(p)
        scaled = w._unit_power(grid.copy(), extent, 776e-9).grid
        assert np.array_equal(scaled, expected)
        signed = (grid.real != 0) & (grid.imag != 0)
        assert np.array_equal(
            scaled[signed].view(np.uint64), expected[signed].view(np.uint64)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        mode_count=hst.integers(1, 60),
        grid_n=hst.sampled_from([64, 128, 256]),
        extent=hst.floats(1e-4, 0.1),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_finite_unit_power_or_resolution_error(
        self, mode_count, grid_n, extent, seed
    ):
        # The fundamental width is derived from the extent, so the highest
        # mode always fits; the grid either resolves its lobes or refuses.
        try:
            field = w.make_speckle(mode_count, seed, grid_n=grid_n, extent=extent)
        except w.GridResolutionError:
            return
        assert np.all(np.isfinite(field.grid))
        assert field.power() == pytest.approx(1.0, abs=1e-12)


class TestNonFiniteField:
    """A field of NaN or infinite power is refused, not scored as NaN."""

    @pytest.fixture(params=[math.nan, math.inf], ids=["nan", "inf"])
    def field(self, request):
        grid = np.full((64, 64), request.param, dtype=complex)
        return w.ScalarField(grid, 0.01, 776e-9)

    def test_fringe_visibility(self, field):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="finite power"):
                fringe_visibility(field, field)

    @pytest.mark.parametrize("relay", [True, False], ids=["relay-on", "relay-off"])
    def test_aoi_visibility_scan(self, field, geom, relay):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="finite power"):
                w.aoi_visibility_scan(field, geom, [0.0], relay)

    @staticmethod
    def gaussian_with(value):
        grid = w.make_gaussian(1e-3, grid_n=64).grid
        grid[32, 32] = value
        return grid

    # Grids whose power() is 0, NaN or inf; an |E| of 1e-170 squares to 0, one
    # of 1e155 past the float range.
    REFUSED = {
        "zero": lambda: np.zeros((64, 64), dtype=complex),
        "one-nan-cell": lambda: TestNonFiniteField.gaussian_with(math.nan),
        "one-inf-cell": lambda: TestNonFiniteField.gaussian_with(math.inf),
        "one-minus-inf-cell": lambda: TestNonFiniteField.gaussian_with(-math.inf),
        "underflow": lambda: np.full((64, 64), 1e-170 + 0j),
        "overflow": lambda: np.full((64, 64), 1e155 + 0j),
    }
    # Constant grids of tiny and huge but finite, nonzero power.
    SCORED = {
        "tiny": lambda: np.full((64, 64), 1e-150 + 0j),
        "huge": lambda: np.full((64, 64), 1e150 + 0j),
    }

    @pytest.mark.parametrize("relay", [True, False], ids=["relay-on", "relay-off"])
    @pytest.mark.parametrize("kind", list(REFUSED))
    def test_refused_by_name_without_warnings(self, kind, geom, relay):
        field = w.ScalarField(self.REFUSED[kind](), 0.01, 776e-9)
        with np.errstate(over="ignore"):
            assert not 0 < field.power() < math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite power"):
                w.aoi_visibility_scan(field, geom, [0.0], relay)

    @pytest.mark.parametrize("relay", [True, False], ids=["relay-on", "relay-off"])
    @pytest.mark.parametrize("kind", list(SCORED))
    def test_positive_finite_power_is_scored(self, kind, geom, relay):
        field = w.ScalarField(self.SCORED[kind](), 0.01, 776e-9)
        assert 0 < field.power() < math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = w.aoi_visibility_scan(field, geom, [0.0, 1e-3], relay)
        assert np.all(np.isfinite(scan)) and scan[0] == pytest.approx(geom.v0)

    def test_relay_on_check_allocates_no_grid(self, geom):
        # The relay-on refusal reads the power in one pass; field.power()
        # would allocate the 2 MB |E| array of this grid.
        field = w.make_speckle(30, seed=7, grid_n=512)
        alphas = np.linspace(0.0, 2e-3, 9)
        w.aoi_visibility_scan(field, geom, alphas, True)
        tracemalloc.start()
        try:
            w.aoi_visibility_scan(field, geom, alphas, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e3


@pytest.mark.parametrize("bad_cell", [None, math.nan, math.inf],
                         ids=["all-nan", "one-nan-cell", "one-inf-cell"])
def test_propagate_refuses_non_finite_field(bad_cell):
    # The alias guard's ring power is the field's total power: a NaN or
    # inf there is refused instead of propagating to an all-NaN field.
    if bad_cell is None:
        field = w.ScalarField(np.full((64, 64), math.nan, dtype=complex), 0.01, 776e-9)
    else:
        field = w.make_gaussian(1e-3, grid_n=64)
        field.grid[32, 32] = bad_cell
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="finite power"):
            propagate(field, 0.01)


class TestInputsUnchanged:
    """Scoring builds its temporaries in place; the fields it reads stay intact."""

    @pytest.fixture
    def fields(self):
        return (
            w.make_gaussian(SIGMA, grid_n=128, extent=0.02),
            w.make_speckle(10, seed=2, grid_n=128),
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda a, b, geom: a.power(),
            lambda a, b, geom: overlap(a, b),
            lambda a, b, geom: overlap(a, a),
            lambda a, b, geom: fringe_visibility(a, b),
            lambda a, b, geom: fringe_visibility(a, a),
            lambda a, b, geom: w.aoi_visibility_scan(a, geom, [0.0, 1e-3], True),
            lambda a, b, geom: w.aoi_visibility_scan(a, geom, [0.0, 1e-3], False),
        ],
        ids=["power", "overlap", "overlap_self", "visibility", "visibility_self",
             "scan_relay_on", "scan_relay_off"],
    )
    def test_grids_byte_identical_after_call(self, fields, geom, call):
        before = [f.grid.copy() for f in fields]
        call(*fields, geom)
        for field, copy in zip(fields, before):
            assert field.grid.tobytes() == copy.tobytes()


class TestShiftAndTilt:
    def test_identity(self, gaussian):
        out = shift_and_tilt(gaussian, 0.0, 0.0)
        assert np.array_equal(out.grid, gaussian.grid)

    def test_gaussian_offset_overlap_closed_form(self, gaussian, geom):
        delta = g.lateral_offset(geom, 1.7e-3)
        shifted = shift_and_tilt(gaussian, delta, 0.0)
        measured = abs(overlap(gaussian, shifted))
        closed_form = math.exp(-(delta**2) / (8.0 * SIGMA**2))
        quadrature = gaussian_overlap_quadrature(SIGMA, delta)
        assert measured == pytest.approx(closed_form, abs=1e-9)
        assert measured == pytest.approx(quadrature, abs=1e-7)

    def test_offset_visibility_equals_ray_envelope(self, gaussian, geom):
        # The fringe visibility of the offset beams reproduces the ray
        # model envelope exp(-delta^2/(2 sigma_g^2)) with sigma_g = 2 sigma.
        delta = g.lateral_offset(geom, 1.7e-3)
        shifted = shift_and_tilt(gaussian, delta, 0.0)
        vis = fringe_visibility(gaussian, shifted)
        envelope = math.exp(-(delta**2) / (2.0 * geom.sigma**2))
        assert vis == pytest.approx(envelope, abs=1e-9)

    def test_shift_inverse(self, gaussian):
        delta = 1.0e-3
        back = shift_and_tilt(shift_and_tilt(gaussian, delta, 0.0), -delta, 0.0)
        rms = math.sqrt(float(np.mean(np.abs(back.grid - gaussian.grid) ** 2)))
        assert rms <= 1e-10

    def test_tilt_is_pure_phase(self, gaussian):
        tilted = shift_and_tilt(gaussian, 0.0, 1.0e-3)
        assert tilted.power() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(tilted.grid), np.abs(gaussian.grid), atol=1e-12)

    def test_too_large_shift(self, gaussian):
        with pytest.raises(w.ShiftTooLargeError):
            shift_and_tilt(gaussian, gaussian.extent / 3.0, 0.0)


class TestPropagate:
    def test_zero_distance_identity(self, gaussian):
        out = propagate(gaussian, 0.0)
        assert np.max(np.abs(out.grid - gaussian.grid)) < 1e-12

    def test_gaussian_width_growth(self, gaussian):
        z = 2.0
        out = propagate(gaussian, z)
        x = coords(out)
        xx = np.meshgrid(x, x, indexing="ij")[0]
        intensity = np.abs(out.grid) ** 2 * out.cell**2
        measured = math.sqrt(float(np.sum(intensity * xx**2) / np.sum(intensity)))
        rayleigh = math.pi * (2.0 * SIGMA) ** 2 / gaussian.wavelength
        predicted = SIGMA * math.sqrt(1.0 + (z / rayleigh) ** 2)
        assert measured == pytest.approx(predicted, rel=5e-3)

    def test_power_conservation(self, gaussian):
        out = propagate(gaussian, 0.6)
        assert out.power() == pytest.approx(gaussian.power(), rel=1e-9)

    def test_round_trip(self, gaussian):
        out = propagate(propagate(gaussian, 0.6), -0.6)
        rms = math.sqrt(float(np.mean(np.abs(out.grid - gaussian.grid) ** 2)))
        assert rms <= 1e-9

    def test_aliasing_guard(self, gaussian):
        with pytest.raises(w.AliasingError) as err:
            propagate(gaussian, 100.0)
        assert "extent" in str(err.value)

    # SHA-256 of propagate(...).grid.tobytes(): a faster kernel or
    # bandwidth must not change a single output bit.
    @pytest.mark.parametrize(
        "kind, distance, digest",
        [
            ("gaussian", 0.6,
             "bc55aa3bdc5dd61ebe4ec13a626c3ddcdd33a48711eb1897724d8816a8b5c015"),
            ("gaussian", -2.0,
             "61deba7fd273f5050d4a145d7857d14bf238d590221440abdf889bf35bc2e8e0"),
            ("speckle", 0.6,
             "82e9f04f1fe301c74d7550cdf74632a6b2e71ce26191e5ed2b949d3aae24e039"),
        ],
    )
    def test_pinned_bytes(self, gaussian, kind, distance, digest):
        field = gaussian if kind == "gaussian" else w.make_speckle(20, 3, grid_n=256)
        out = propagate(field, distance)
        assert hashlib.sha256(out.grid.tobytes()).hexdigest() == digest


class TestKernelAndBandwidth:
    @pytest.mark.parametrize("distance", [0.6, -0.6])
    @pytest.mark.parametrize(
        "n, extent",
        [(64, 0.012), (65, 0.012), (128, 0.012), (512, 0.012), (64, 19e-6)],
    )
    def test_kernel_bit_identical_to_dense(self, n, extent, distance):
        field = w.ScalarField(np.ones((n, n)), extent, 776e-9)
        dense = angular_spectrum_kernel_dense(field, distance)
        # Cells finer than lambda/2 put part of the grid past 1/lambda.
        assert (extent < 776e-9 * n / 2) == bool(np.any(np.abs(dense) < 0.5))
        k = np.minimum(np.arange(n), n - np.arange(n))
        kernel = w._kernel_quadrant(field, distance).take(k, axis=0).take(k, axis=1)
        assert kernel.shape == (n, n)
        assert np.array_equal(kernel.view(np.uint64), dense.view(np.uint64))

    @pytest.mark.parametrize("n", [64, 65, 128, 256])
    def test_bandwidth_equals_ring_loop(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        fields = [w.ScalarField(noise, 0.01, 776e-9)]
        if n & (n - 1) == 0:
            fields += [
                w.make_gaussian(SIGMA, grid_n=n, extent=0.012),
                w.make_speckle(5, seed=n, grid_n=n),
            ]
        for field in fields:
            spec = spectrum(field)
            assert bandwidth(field, spec) == signal_bandwidth_ring_loop(field, spec)

    def test_bandwidth_is_largest_radius_of_crossing_ring(self):
        # All power on ring 5365, whose cells differ in hypot(fx, fy) by an
        # ulp on this grid.
        field = w.ScalarField(np.ones((128, 128)), 0.012, 776e-9)
        f = np.fft.fftfreq(128, d=field.cell)
        k = np.minimum(np.arange(128), 128 - np.arange(128))
        ring = k[:, None] ** 2 + k[None, :] ** 2 == 5365
        radius = np.hypot(f[:, None], f[None, :])[ring]
        assert radius.min() < radius.max()
        assert bandwidth(field, ring.astype(complex)) == radius.max()

    @pytest.mark.parametrize("mode, grid_n, mode_count, seed", SWEEP_FIELDS)
    def test_bandwidth_equals_argsort_on_sweep_fields(
        self, geom, mode, grid_n, mode_count, seed
    ):
        field = FieldSpec(mode, grid_n, mode_count=mode_count, seed=seed).build(geom)
        spec = spectrum(field)
        assert bandwidth(field, spec) == signal_bandwidth_argsort(field, spec)

    @pytest.mark.parametrize("mode, grid_n, mode_count, seed", SWEEP_FIELDS)
    def test_sweep_bandwidth_equals_argsort(self, geom, mode, grid_n, mode_count, seed):
        # The sweep reads the power of the uncentered spectrum fft2(grid).
        field = FieldSpec(mode, grid_n, mode_count=mode_count, seed=seed).build(geom)
        spec = np.fft.fft2(field.grid)
        assert bandwidth(field, spec) == signal_bandwidth_argsort(field, spec)
        assert bandwidth(field, spec) == bandwidth(field, spectrum(field))

    def test_bandwidth_ring_is_the_exact_crossing(self):
        # A field where the cell-by-cell argsort sum rounds across the
        # 1e-12 threshold and returns the ring below; exact sums agree with
        # the ring version.
        field = w.make_speckle(30, seed=4, grid_n=256)
        spec = spectrum(field)
        rings = bandwidth(field, spec)
        assert rings == signal_bandwidth_ring_loop(field, spec, Fraction)
        assert rings > signal_bandwidth_argsort(field, spec)
        # The sweep's uncentered spectrum lands on the same exact ring.
        assert bandwidth(field, np.fft.fft2(field.grid)) == rings


class TestInterfere:
    def test_relay_restores_v0(self, gaussian, geom):
        for alpha in np.linspace(0.0, 2e-3, 5):
            vis = w.interfere(gaussian, geom, alpha, relay=True)
            assert vis == pytest.approx(geom.v0, abs=1e-3)

    def test_matches_ray_model_without_relay(self, gaussian, geom):
        for alpha in (0.0, 0.5e-3, 1.0e-3, 1.5e-3, 2.0e-3):
            vis = w.interfere(gaussian, geom, alpha, relay=False)
            assert vis == pytest.approx(g.visibility(geom, alpha), abs=1e-2)

    def test_speckle_needs_relay(self, geom):
        no_relay = []
        with_relay = []
        for seed in range(10):
            speckle = w.make_speckle(50, seed=seed)
            no_relay.append(w.interfere(speckle, geom, 0.0, relay=False))
            with_relay.append(w.interfere(speckle, geom, 0.0, relay=True))
        assert max(no_relay) < 0.5
        assert max(abs(v - geom.v0) for v in with_relay) <= 2e-2

    def test_relay_never_hurts(self, geom):
        fields = [w.make_gaussian(SIGMA), w.make_speckle(20, seed=4)]
        for field in fields:
            for alpha in (0.0, 1e-3, 2e-3):
                assert w.interfere(field, geom, alpha, relay=True) >= w.interfere(
                    field, geom, alpha, relay=False
                ) - 1e-12

    def test_global_phase_invariance(self, gaussian, geom):
        rotated = w.ScalarField(
            gaussian.grid * np.exp(1j * 0.77), gaussian.extent, gaussian.wavelength
        )
        v1 = w.interfere(gaussian, geom, 1e-3, relay=False)
        v2 = w.interfere(rotated, geom, 1e-3, relay=False)
        assert v2 == pytest.approx(v1, abs=1e-12)

    def test_lens_by_lens_relay_validation(self):
        # Gentle parameters keep the lens chirp inside the grid band; at
        # the production focal length the chirp aliases, which is why
        # the library models the relay as the identity.
        geom = g.InterferometerGeometry(
            delta_l0=0.60, sigma=2e-3, v0=1.0, wavelength=776e-9, focal_length=2.0
        )
        field = w.make_gaussian(0.5e-3, grid_n=1024, extent=0.024)
        vis = geom.v0 * fringe_visibility(
            field, relay_by_lenses(field, geom.focal_length)
        )
        assert vis == pytest.approx(1.0, abs=1e-6)
        assert repr(vis) == "0.9999999999998515"


def reference_scan(field, geom, alphas, relay):
    """The per-angle composition: propagate, offset, then overlap in real space."""
    out = []
    for alpha in alphas:
        e_long = field
        if not relay:
            delta = g.lateral_offset(geom, alpha)
            e_long = shift_and_tilt(propagate(field, geom.delta_l0), delta, 0.0)
        out.append(geom.v0 * fringe_visibility(field, e_long))
    return np.array(out)


class TestAoiVisibilityScan:
    ALPHAS = np.linspace(-2e-3, 2e-3, 9)

    @pytest.mark.parametrize("relay", [False, True])
    @pytest.mark.parametrize("kind", ["gaussian", "speckle"])
    def test_matches_per_angle_reference(self, geom, kind, relay):
        if kind == "gaussian":
            field = w.make_gaussian(SIGMA, grid_n=128)
        else:
            field = w.make_speckle(10, seed=2, grid_n=128)
        scan = w.aoi_visibility_scan(field, geom, self.ALPHAS, relay)
        expected = reference_scan(field, geom, self.ALPHAS, relay)
        assert np.max(np.abs(scan - expected)) <= 1e-12

    @pytest.mark.parametrize("relay", [False, True])
    def test_interfere_is_scan_element(self, gaussian, geom, relay):
        for alpha in (0.0, -1e-3, 1.7e-3):
            assert w.interfere(gaussian, geom, alpha, relay) == w.aoi_visibility_scan(
                gaussian, geom, [alpha], relay
            )[0]

    @pytest.mark.parametrize("angles", [1, 9, 41])
    def test_one_kernel_per_sweep(self, gaussian, geom, monkeypatch, angles):
        calls = dict.fromkeys(["fft2", "quadrant", "range", "kernel", "overlap"], 0)

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft2", counted("fft2", np.fft.fft2))
        monkeypatch.setattr(w, "_kernel_quadrant", counted("quadrant", w._kernel_quadrant))
        # The alias-free range is taken from the sweep's own spectrum.
        monkeypatch.setattr(w, "_signal_bandwidth", counted("range", w._signal_bandwidth))
        # No full-grid kernel and no real-space overlap: the sweep reads the
        # kernel quadrant, and the relay-on sweep reads only the field power.
        # The library defines neither name; one it looked up would be counted.
        monkeypatch.setattr(
            w, "_kernel", counted("kernel", angular_spectrum_kernel_dense), raising=False
        )
        monkeypatch.setattr(w, "overlap", counted("overlap", overlap), raising=False)
        alphas = np.linspace(0.0, 2e-3, angles)
        assert w.aoi_visibility_scan(gaussian, geom, alphas, False).shape == (angles,)
        assert calls == {"fft2": 1, "quadrant": 1, "range": 1, "kernel": 0, "overlap": 0}
        assert w.aoi_visibility_scan(gaussian, geom, alphas, True).shape == (angles,)
        assert calls == {"fft2": 1, "quadrant": 1, "range": 1, "kernel": 0, "overlap": 0}

    @pytest.mark.parametrize("kind", ["gaussian", "speckle"])
    def test_relay_on_returns_v0_to_the_bit(self, geom, kind):
        # The relay images the input onto itself: v0 comes back as it is, not
        # scaled by a self-overlap that reads 1 only up to rounding (it gave
        # 0.9099999999999999 for this speckle field).
        if kind == "gaussian":
            field = w.make_gaussian(SIGMA, grid_n=512)
        else:
            field = w.make_speckle(30, seed=7, grid_n=512)
        scan = w.aoi_visibility_scan(field, geom, self.ALPHAS, True)
        assert scan.dtype == np.float64
        assert scan.tobytes() == np.full(self.ALPHAS.shape, geom.v0).tobytes()

    @pytest.mark.parametrize("mode, grid_n, mode_count, seed", SWEEP_FIELDS)
    def test_matches_dense_oracle_on_sweep_fields(
        self, geom, mode, grid_n, mode_count, seed
    ):
        field = FieldSpec(mode, grid_n, mode_count=mode_count, seed=seed).build(geom)
        scan = w.aoi_visibility_scan(field, geom, self.ALPHAS, False)
        dense = aoi_visibility_scan_dense(field, geom, self.ALPHAS)
        assert np.max(np.abs(scan - dense)) <= 1e-15

    @pytest.mark.parametrize("n", [64, 65, 96, 97])
    def test_matches_dense_oracle_on_band_limited_grids(self, geom, n):
        # Every frequency up to the grid's band edge carries power, so a fold
        # that drops or doubles an edge column (k = N/2 for even N, or
        # (N-1)/2 and its partner for odd N) moves the result.
        rng = np.random.Generator(np.random.PCG64(n))
        k = np.minimum(np.arange(n), n - np.arange(n))
        taper = 1.0 / (1.0 + k[:, None] ** 2 + k[None, :] ** 2)
        spec = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * taper
        field = w.ScalarField(np.fft.fftshift(np.fft.ifft2(spec)), 0.012, 776e-9)
        scan = w.aoi_visibility_scan(field, geom, self.ALPHAS, False)
        dense = aoi_visibility_scan_dense(field, geom, self.ALPHAS)
        assert np.max(np.abs(scan - dense)) <= 1e-15

    def test_empty_sweep_does_not_propagate(self, gaussian, geom, monkeypatch):
        def fail(*args):
            raise AssertionError("spectrum or kernel built for an empty sweep")

        monkeypatch.setattr(np.fft, "fft2", fail)
        monkeypatch.setattr(w, "_kernel_quadrant", fail)
        for relay in (False, True):
            out = w.aoi_visibility_scan(gaussian, geom, [], relay)
            assert out.shape == (0,) and out.dtype == float

    def test_aliasing_error(self, gaussian, geom):
        far = dataclasses.replace(geom, delta_l0=100.0)
        with pytest.raises(w.AliasingError):
            w.aoi_visibility_scan(gaussian, far, self.ALPHAS, False)
        # Aliasing is reported before an angle outside the ray model.
        with pytest.raises(w.AliasingError):
            w.aoi_visibility_scan(gaussian, far, [0.0, 1.0], False)

    def test_shift_too_large(self, gaussian, geom):
        # delta(10 mrad) = 5.9 mm, beyond a quarter of the 11.9 mm extent.
        with pytest.raises(w.ShiftTooLargeError):
            w.aoi_visibility_scan(gaussian, geom, [0.0, 1e-3, 1e-2], False)

    def test_angle_domain_error(self, gaussian, geom):
        with pytest.raises(g.AngleDomainError):
            w.aoi_visibility_scan(gaussian, geom, [0.0, 1.0], False)

    @pytest.mark.parametrize(
        "alpha", [math.nan, math.inf, -math.inf, math.pi / 4, -math.pi / 4]
    )
    @pytest.mark.parametrize("relay", [False, True])
    def test_angle_outside_ray_model(self, geom, alpha, relay):
        field = w.make_gaussian(SIGMA, grid_n=128)
        with pytest.raises(g.AngleDomainError):
            w.interfere(field, geom, alpha, relay)
        with pytest.raises(g.AngleDomainError):
            w.aoi_visibility_scan(field, geom, [0.0, alpha], relay)


class TestKernelCache:
    ALPHAS = np.linspace(0.0, 2e-3, 9)

    # SHA-256 of aoi_visibility_scan(field, geom, ALPHAS, False).tobytes(),
    # computed before the sweep shared its kernel quadrant between calls.
    # The CSV goldens print %.12g and would not see a changed last bit.
    @pytest.mark.parametrize(
        "kind, grid_n, digest",
        [
            ("gaussian", 256, "e60a9b1a76c30517a79cf0cd44f29c924abacbf2cb9cb0e2592afbd962179539"),
            ("speckle", 256, "53db0cd1972c73809ef99595b1054b3a5ca33a288747253d30819c89fa1ab8b9"),
            ("gaussian", 512, "5103825f69b236cb49ad1b21a502fd84b56130abf9ed24f08d67c0e0139b8b1b"),
            ("speckle", 512, "7f0bcaad0575b6362c9bc19b6dc2e9b41ae7871b6a84e8747a42f6f5aace66bf"),
        ],
    )
    def test_sweep_bits_pinned_cold_and_warm(self, geom, kind, grid_n, digest):
        if kind == "gaussian":
            field = w.make_gaussian(SIGMA, grid_n=grid_n)
        else:
            field = w.make_speckle(30, 5, grid_n=grid_n)
        w._angular_spectrum_quadrant.cache_clear()
        w._ring_table.cache_clear()
        for _ in range(2):  # cold, then from the cached quadrant and rings
            out = w.aoi_visibility_scan(field, geom, self.ALPHAS, False)
            assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    def test_one_read_only_quadrant_per_grid(self):
        a = w.make_speckle(30, 5, grid_n=256)
        b = w.make_speckle(10, 1, grid_n=256)
        quadrant = w._kernel_quadrant(a, 0.6)
        assert w._kernel_quadrant(b, 0.6) is quadrant
        assert not quadrant.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            quadrant[0, 0] = 0.0

    def test_one_read_only_ring_table_per_grid(self, geom):
        w._ring_table.cache_clear()
        for field in (w.make_speckle(30, 5, grid_n=256), w.make_speckle(10, 1, grid_n=256)):
            w.aoi_visibility_scan(field, geom, [0.0, 1e-3], False)
        info = w._ring_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        keys, ids = w._ring_table(256)
        assert w._ring_table(256)[1] is ids
        assert w._ring_table(128)[1] is not ids
        for table in (keys, ids):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
        # Sorted distinct keys, and each cell's key kx^2 + ky^2 by index.
        m2 = np.arange(129) ** 2
        assert np.all(np.diff(keys) > 0)
        assert np.array_equal(keys[ids], np.add.outer(m2, m2).ravel())

    @pytest.mark.parametrize(
        "other, distance",
        [
            (dict(grid_n=256), 0.3),  # another delta_l0
            (dict(grid_n=256, wavelength=1550e-9), 0.6),
            (dict(grid_n=128), 0.6),  # another grid side
            (dict(grid_n=256, extent=0.03), 0.6),  # another cell
        ],
    )
    def test_distinct_grids_distinct_quadrants(self, other, distance):
        quadrant = w._kernel_quadrant(w.make_speckle(10, 1, grid_n=256), 0.6)
        assert w._kernel_quadrant(w.make_speckle(10, 1, **other), distance) is not quadrant

    def test_cache_is_bounded(self, geom):
        w._angular_spectrum_quadrant.cache_clear()
        w._ring_table.cache_clear()
        for grid_n in (64, 128, 256):
            for sigma in (SIGMA, 2.0 * SIGMA):
                field = w.make_gaussian(sigma, grid_n=grid_n)
                w.aoi_visibility_scan(field, geom, [0.0, 1e-4], False)
        info = w._angular_spectrum_quadrant.cache_info()
        assert info.misses == 6 and info.currsize <= 4
        rings = w._ring_table.cache_info()
        assert (rings.misses, rings.hits) == (3, 3)
        for cache in (info, rings):
            assert cache.maxsize == w._KERNEL_CACHE_SIZE
