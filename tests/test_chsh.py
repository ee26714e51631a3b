import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from timebin_analyzer import analysis, chsh
from timebin_analyzer import quantum as q
from timebin_analyzer import states as st
from timebin_analyzer.measurement import (
    AnalyzerEfficiencies,
    alice_projectors,
    bob_povm,
)

from oracles import (
    drift_scan_rates_loop,
    expectation_surface_dense,
    fit_period,
    max_expectation_surface_dense,
    random_density_matrix,
)

EFF = AnalyzerEfficiencies(0.9, 0.9)

# Indices into DriftTrace.counts, (detector, bin, bucket).
DET = {det: k for k, det in enumerate(chsh.DETECTORS)}
BIN = {b: k for k, b in enumerate(chsh.BINS)}


@pytest.fixture
def noisy():
    return st.depolarize(
        st.hybrid_bell_state(), st.DepolarizationParams.unbiased(0.012, 0.086)
    )


def drift_2pi(duration):
    return chsh.DriftModel("linear", amount=2.0 * math.pi, period=duration)


# Non-finite or non-positive values, for the checks that must reject them.
NOT_POSITIVE = hst.one_of(
    hst.floats(max_value=0.0), hst.sampled_from([math.inf, math.nan])
)
NOT_FINITE = hst.sampled_from([math.inf, -math.inf, math.nan])


def scan_grid(test):
    """The 192 noiseless scans of ``test_matches_per_bucket_loop``, as
    parameters (n, kind, phase0, etas, axis, embedded)."""
    for name, values, ids in [
        ("embedded", [False, True], ["2x2", "2x3"]),
        ("axis", ["z+x", "z-x", "x", "y"], None),
        ("etas", [(0.9, 0.9), (0.8, 0.5)], None),
        ("phase0", [0.0, 1.3], None),
        ("kind", ["linear", "sinusoidal"], None),
        ("n", [40, 240, 1200], None),
    ]:
        test = pytest.mark.parametrize(name, values, ids=ids)(test)
    return test


def grid_scan(rho, n, kind, phase0, etas, axis, embedded):
    """One noiseless scan of the grid: (state, drift, trace)."""
    rho = st.embed_2x3(rho, 0.7) if embedded else rho
    drift = chsh.DriftModel(kind, amount=2.5, period=90.0, phase0=phase0)
    trace = chsh.simulate_drift_scan(
        rho, AnalyzerEfficiencies(*etas), drift, alice_axis=axis, rate=1000.0,
        duration=n * 0.5, bucket=0.5, seed=None,
    )
    return rho, drift, trace


def assert_matches_dense(trace):
    res = chsh.max_expectation_surface(trace)
    expected = max_expectation_surface_dense(*trace.middle_series())
    assert (res.max_abs, res.argmax, res.value_at_argmax) == expected


class TestExpectationFromCounts:
    def test_balanced(self):
        assert chsh.expectation_from_counts(5, 5, 5, 5) == 0.0

    def test_perfect_correlation(self):
        assert chsh.expectation_from_counts(100, 100, 0, 0) == 1.0

    @pytest.mark.parametrize("k", [1, 10])
    def test_paper_scale_invariance(self, k):
        value = chsh.expectation_from_counts(707 * k, 707 * k, 146 * k, 146 * k)
        assert value == pytest.approx(0.65768, abs=1e-5)
        assert value == pytest.approx(0.93 / math.sqrt(2.0), abs=1e-3)

    def test_zero_denominator(self):
        with pytest.raises(chsh.ZeroDenominatorError):
            chsh.expectation_from_counts(0, 0, 0, 0)

    def test_nan_count_rejected(self):
        with pytest.raises(ValueError, match="finite, got nan"):
            chsh.expectation_from_counts(math.nan, 1, 1, 1)


class TestChshS:
    def test_tsirelson_configuration(self):
        r = 1.0 / math.sqrt(2.0)
        assert chsh.chsh_s(r, -r, r, r) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_all_zero(self):
        assert chsh.chsh_s(0, 0, 0, 0) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="expectation value nan"):
            chsh.chsh_s(math.nan, 0, 0, 0)

    def test_depolarized_state_contractions(self, noisy):
        # Settings: A1/A2 along z+-x; B1 = sigma_z; B2 = sigma_phi at the
        # quadrature phi = pi that the drift scan selects, shared by both
        # settings.
        a1 = chsh.alice_setting("z+x")
        a2 = chsh.alice_setting("z-x")
        b1 = q.PAULI_Z
        b2 = -q.PAULI_X  # sigma_phi at phi = pi
        sqrt2 = math.sqrt(2.0)

        def correlation(setting, bob_op):
            p_plus, p_minus = setting
            return noisy.expectation(q.tensor(p_plus - p_minus, bob_op))

        e11 = correlation(a1, b1)
        e12 = correlation(a1, b2)
        e21 = correlation(a2, b1)
        e22 = correlation(a2, b2)
        assert e11 == pytest.approx(0.952 / sqrt2, abs=1e-12)
        assert e12 == pytest.approx(-0.804 / sqrt2, abs=1e-12)
        s = chsh.chsh_s(e11, e12, e21, e22)
        assert s == pytest.approx(2.4834, abs=1e-4)
        assert s == pytest.approx(chsh.s_theo(0.952, 0.804), abs=1e-12)

    def test_quantum_bound_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = q.DensityMatrix(random_density_matrix(rng, 4), 2, 2)
            axes = rng.normal(size=(4, 3))
            ops = []
            for vec in axes:
                p_plus, p_minus = alice_projectors(vec / np.linalg.norm(vec))
                ops.append(p_plus - p_minus)
            e = [
                rho.expectation(q.tensor(ops[0], ops[2])),
                rho.expectation(q.tensor(ops[0], ops[3])),
                rho.expectation(q.tensor(ops[1], ops[2])),
                rho.expectation(q.tensor(ops[1], ops[3])),
            ]
            assert chsh.chsh_s(*e) <= 2.0 * math.sqrt(2.0) + 1e-9


class TestAliceSetting:
    # SHA-256 of np.stack(alice_setting(axis)), the (2, 2, 2) complex pair.
    DIGESTS = {
        "z+x": "feddfd9abe067f3034bf7ff1006231b57bb3452fbc3a66334b1287ca6b1d9c5e",
        "z-x": "0f06c274cfcd0d7de208b4fe37e93d0d66a77f820d9d659ec48b65a682a4c8f0",
        "x": "3ad74086573029aa06dd9100275fed6bc490bdb640f1bff0fac915302cc9a352",
        "y": "61162a1c369cecd105ab8f6fba59f6780860a75938e2937a4514a8c4814b072d",
        "z": "f46960f0b1794020151ebc9a019dc44ac3fb47bb2bc99da662405fe08e05a9b2",
    }

    @pytest.mark.parametrize("axis", DIGESTS)
    def test_named_pair_digest(self, axis):
        pair = np.stack(chsh.alice_setting(axis))
        assert pair.shape == (2, 2, 2)
        assert hashlib.sha256(pair.tobytes()).hexdigest() == self.DIGESTS[axis]

    @pytest.mark.parametrize(
        "axis", ["w", "Z", "", [1.0, 0.0, 0.0], np.array([0.0, 0.0, 1.0]), None]
    )
    def test_names_only(self, axis):
        with pytest.raises(ValueError, match="^unknown Alice axis"):
            chsh.alice_setting(axis)


class TestSTheo:
    def test_perfect(self):
        assert chsh.s_theo(1.0, 1.0) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_paper_value(self):
        value = chsh.s_theo(0.952, 0.804)
        assert value == pytest.approx(2.4834, abs=1e-4)
        assert abs(value - 2.47) <= 0.02

    def test_rounded_visibilities(self):
        assert chsh.s_theo(0.95, 0.80) == pytest.approx(2.4749, abs=1e-4)

    def test_bounds(self):
        with pytest.raises(ValueError):
            chsh.s_theo(1.2, 0.5)


class TestCombinedExpectation:
    def test_pythagorean_invariance(self):
        rng = np.random.default_rng(24)
        for theta in rng.uniform(0, 2 * math.pi, size=25):
            v = 0.804
            assert chsh.combined_expectation(
                v * math.cos(theta), v * math.sin(theta)
            ) == pytest.approx(v, abs=1e-14)

    def test_floor_value(self):
        assert chsh.combined_expectation(0.804, 0.0) == pytest.approx(0.804)
        assert chsh.combined_expectation(0.804, 0.0) > 0.65

    def test_three_four_five(self):
        assert chsh.combined_expectation(0.4, 0.3) == pytest.approx(0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="expectation value nan"):
            chsh.combined_expectation(0.4, math.nan)

    @given(
        hst.floats(-1.0, 1.0, allow_nan=False),
        hst.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_within_one_spacing_of_math_hypot(self, a, b):
        # np.hypot and math.hypot may round differently, but by at most one
        # unit in the last place.
        exact = math.hypot(a, b)
        got = chsh.combined_expectation(a, b)
        assert type(got) is float
        assert abs(got - exact) <= np.spacing(exact)


class TestDriftModel:
    def test_linear(self):
        model = chsh.DriftModel("linear", amount=2 * math.pi, period=10.0)
        assert model.phase(5.0) == pytest.approx(math.pi)

    def test_sinusoidal(self):
        model = chsh.DriftModel("sinusoidal", amount=1.0, period=4.0)
        assert model.phase(1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            chsh.DriftModel("random-walk")
        for bad in ({"period": math.nan}, {"period": math.inf}, {"period": 0.0},
                    {"amount": math.nan}, {"phase0": math.inf}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                chsh.DriftModel("linear", **bad)

    @given(period=NOT_POSITIVE)
    def test_rejects_bad_period(self, period):
        with pytest.raises(ValueError, match="period"):
            chsh.DriftModel("linear", period=period)

    @given(name=hst.sampled_from(["amount", "phase0"]), value=NOT_FINITE)
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            chsh.DriftModel("sinusoidal", **{name: value})


class TestBucketTimes:
    @given(name=hst.sampled_from(["rate", "duration", "bucket"]), value=NOT_POSITIVE)
    @example(name="duration", value=None)
    @example(name="bucket", value=None)
    def test_rejects_bad_value(self, name, value):
        args = {"duration": 10.0, "bucket": 0.5, "rate": 1000.0, name: value}
        with pytest.raises(ValueError, match=name):
            chsh.bucket_times(**args)

    # A scan's noiseless mode is seed=None, so it refuses rate=None too.
    @pytest.mark.parametrize("name", ["rate", "duration", "bucket"])
    def test_scan_refuses_none(self, noisy, name):
        with pytest.raises(ValueError, match=f"^{name} must be > 0, got None"):
            chsh.simulate_drift_scan(noisy, EFF, chsh.DriftModel(), **{name: None})

    def test_stability_series_refuses_none_duration(self):
        with pytest.raises(ValueError, match="^duration must be > 0, got None"):
            analysis.stability_series(0.8, chsh.DriftModel(), None, 1.0)


class TestSimulateDriftScan:
    def test_zero_drift_constant_traces(self):
        bell = st.hybrid_bell_state()
        still = chsh.DriftModel("linear", amount=0.0, period=10.0)
        trace = chsh.simulate_drift_scan(
            bell, EFF, still, alice_axis="x", duration=10.0, seed=None
        )
        assert np.all(np.ptp(trace.counts, axis=2) <= 1e-12)

    def test_linear_drift_period_fit(self, noisy):
        duration = 60.0
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift_2pi(duration), alice_axis="x", duration=duration,
            seed=None,
        )
        n_plus = trace.counts[DET["+"], BIN["mid"]]
        period = fit_period(trace.times, n_plus)
        assert period == pytest.approx(duration, rel=0.02)

    def test_noiseless_matches_analytic_rates(self, noisy):
        # For Alice along z+x the middle-bin rate per bucket is
        # rate * bucket * (eta/8) * (1 +/- v_x cos(phi)/sqrt(2)).
        rate, bucket, duration = 1000.0, 0.5, 20.0
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift_2pi(duration), alice_axis="z+x", rate=rate,
            duration=duration, bucket=bucket, seed=None,
        )
        phases = drift_2pi(duration).phase(trace.times)
        kappa = 0.804 / math.sqrt(2.0)
        for det, sign in (("+", 1.0), ("-", -1.0)):
            expected = rate * bucket * 0.9 / 8.0 * (1.0 + sign * kappa * np.cos(phases))
            series = trace.counts[DET[det], BIN["mid"]]
            assert np.max(np.abs(series - expected)) < 1e-10
        for det, bob_key, p in (("+", "early", 0.952), ("-", "late", 0.952)):
            expected = rate * bucket * 0.9 / 4.0 * (1 + p / math.sqrt(2.0)) / 4.0
            series = trace.counts[DET[det], BIN[bob_key]]
            assert np.max(np.abs(series - expected)) < 1e-10

    def test_seed_determinism(self, noisy):
        kwargs = dict(alice_axis="z+x", duration=10.0, seed=42)
        t1 = chsh.simulate_drift_scan(noisy, EFF, drift_2pi(10.0), **kwargs)
        t2 = chsh.simulate_drift_scan(noisy, EFF, drift_2pi(10.0), **kwargs)
        assert np.array_equal(t1.counts, t2.counts)

    def test_validation(self, noisy):
        with pytest.raises(ValueError):
            chsh.simulate_drift_scan(noisy, EFF, drift_2pi(1.0), rate=-5.0)

    @pytest.mark.parametrize("seed", [None, 3], ids=["noiseless", "seeded"])
    def test_memory_bounded_at_cap(self, noisy, seed):
        # A stack of one 6x6 complex operator per bucket would peak at 164 MB.
        tracemalloc.start()
        try:
            trace = chsh.simulate_drift_scan(
                noisy, EFF, drift_2pi(600.0), duration=chsh.MAX_BUCKETS * 0.5,
                seed=seed,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.n_buckets == chsh.MAX_BUCKETS
        assert peak < 24e6

    @scan_grid
    def test_matches_per_bucket_loop(
        self, noisy, n, kind, phase0, etas, axis, embedded
    ):
        # The static bins are the oracle's bits.  The middle bin is
        # d + c cos(phi) + s sin(phi), the oracle's value rounded another
        # way, so it is pinned within 2 eps of the pairs per bucket (8x the
        # largest deviation over the grid).
        rho, drift, trace = grid_scan(noisy, n, kind, phase0, etas, axis, embedded)
        six = rho if embedded else st.embed_2x3(rho, 1.0)
        scale = 1000.0 * 0.5
        expected = drift_scan_rates_loop(
            six.matrix, chsh.alice_setting(axis), *etas, drift.phase(trace.times),
            scale,
        )
        assert trace.counts.shape == expected.shape == (2, 3, n)
        mid = BIN["mid"]
        error = np.max(np.abs(trace.counts[:, mid] - expected[:, mid]))
        assert error <= 2 * np.finfo(float).eps * scale
        static = [BIN["early"], BIN["late"]]
        assert np.array_equal(trace.counts[:, static], expected[:, static])

    def test_counts_layout(self, noisy):
        # counts[k, b] is detector DETECTORS[k] in bin BINS[b], as the
        # per-bucket oracle lays out its series.
        assert chsh.DETECTORS == ("+", "-")
        assert chsh.BINS == ("early", "mid", "late")
        drift = drift_2pi(20.0)
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift, alice_axis="z+x", duration=20.0, seed=None
        )
        assert trace.counts.shape == (2, 3, trace.n_buckets)
        assert trace.counts.dtype == np.float64 and trace.counts.flags.c_contiguous
        assert np.array_equal(trace.middle_series(), trace.counts[:, BIN["mid"]])
        expected = drift_scan_rates_loop(
            st.embed_2x3(noisy, 1.0).matrix, chsh.alice_setting("z+x"), 0.9, 0.9,
            drift.phase(trace.times), 500.0,
        )
        assert np.max(np.abs(trace.counts - expected)) < 1e-10

    def test_seeded_draw_order(self, noisy):
        # One generator draws each detector's early, late and then middle
        # series from the noiseless means.
        kwargs = dict(alice_axis="z+x", duration=20.0)
        means = chsh.simulate_drift_scan(noisy, EFF, drift_2pi(20.0), **kwargs).counts
        trace = chsh.simulate_drift_scan(noisy, EFF, drift_2pi(20.0), seed=7, **kwargs)
        rng = np.random.Generator(np.random.PCG64(7))
        expected = np.empty_like(means)
        for k in DET.values():
            for b in ("early", "late", "mid"):
                expected[k, BIN[b]] = rng.poisson(means[k, BIN[b]])
        assert np.array_equal(trace.counts, expected)
        assert trace.counts.flags.c_contiguous


def scan_operators_uncached(eta_l, eta_s, axis):
    """P_a x B for Bob's E, L, D, X_c and X_s (see simulate_drift_scan),
    each pair tensored on its own."""
    povm = bob_povm(AnalyzerEfficiencies(eta_l, eta_s))
    diag = np.diag(np.diag(povm["X"]))
    cross = povm["X"] - diag
    bob = [povm["E"], povm["L"], diag, cross, 1j * (np.triu(cross) - np.tril(cross))]
    return np.array([[q.tensor(p, b) for b in bob] for p in chsh.alice_setting(axis)])


class TestOperatorCache:
    ETAS = [(0.9, 0.9), (0.8, 0.5), (1.0, 1.0)]

    # SHA-256 of times and counts of a 120-bucket scan of the noisy state,
    # computed before the scans shared their operators between calls (the
    # noiseless one again since X's coherence is sqrt(eta_l) * sqrt(eta_s)).
    @pytest.mark.parametrize(
        "seed, axis, etas, rate, digest",
        [
            (None, "z+x", (0.9, 0.9), 1000.0, "5f36d1a92b513979ea1455d513486f0d547ca4effffab9b10b61e5277abd83df"),
            (11, "z-x", (0.8, 0.5), 1000.0, "a5bcf237b2d55d262c01ad0df6779244be502f590373b6921cd2212853a47779"),
            (4, "y", (0.5, 0.8), 3.0, "a08025fd2cd8fabc83d5e09735d5c5814b8c5d4d8a4f63c4be9d29879090d9a0"),
        ],
        ids=["noiseless", "seeded", "sparse"],
    )
    def test_scan_bits_pinned_cold_and_warm(
        self, noisy, seed, axis, etas, rate, digest
    ):
        chsh._scan_operators.cache_clear()
        for _ in range(2):  # cold, then from the cached operators
            trace = chsh.simulate_drift_scan(
                noisy, AnalyzerEfficiencies(*etas), drift_2pi(60.0), alice_axis=axis,
                rate=rate, duration=60.0, seed=seed,
            )
            data = trace.times.tobytes() + trace.counts.tobytes()
            assert hashlib.sha256(data).hexdigest() == digest
        info = chsh._scan_operators.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("etas", ETAS, ids=["0.9-0.9", "0.8-0.5", "1-1"])
    @pytest.mark.parametrize("axis", ["z+x", "z-x", "x", "y", "z"])
    def test_read_only_and_equal_to_uncached(self, etas, axis):
        ops = chsh._scan_operators(*etas, axis)
        assert ops.shape == (2, 5, 6, 6) and ops.dtype == complex
        assert ops.nbytes == 5760
        assert np.array_equal(
            ops.view(np.uint64), scan_operators_uncached(*etas, axis).view(np.uint64)
        )
        assert not ops.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ops[0, 0, 0, 0] = 0.0

    def test_distinct_settings_distinct_entries(self, noisy):
        chsh._scan_operators.cache_clear()
        settings = [(etas, axis) for etas in self.ETAS for axis in ("z+x", "z-x")]
        for _ in range(2):
            for etas, axis in settings:
                chsh.simulate_drift_scan(
                    noisy, AnalyzerEfficiencies(*etas), chsh.DriftModel(),
                    alice_axis=axis, duration=5.0, seed=1,
                )
        info = chsh._scan_operators.cache_info()
        assert (info.misses, info.hits) == (len(settings), len(settings))
        stacks = {id(chsh._scan_operators(*etas, axis)) for etas, axis in settings}
        assert len(stacks) == len(settings)
        assert chsh._scan_operators(0.8, 0.5, "x") is not chsh._scan_operators(
            0.5, 0.8, "x"
        )
        # Equal keys of another type compute in that type.
        f32 = np.float32(0.75), np.float32(0.5)
        ops = chsh._scan_operators(*f32, "x")
        assert ops is not chsh._scan_operators(0.75, 0.5, "x")
        assert ops.tobytes() == scan_operators_uncached(*f32, "x").tobytes()
        assert ops.tobytes() != scan_operators_uncached(0.75, 0.5, "x").tobytes()

    def test_cache_is_bounded(self, noisy):
        chsh._scan_operators.cache_clear()
        for eta in np.linspace(0.5, 1.0, 4):
            for axis in ("z+x", "z-x", "x", "y", "z"):
                chsh.simulate_drift_scan(
                    noisy, AnalyzerEfficiencies(eta, 0.9), chsh.DriftModel(),
                    alice_axis=axis, duration=5.0,
                )
        info = chsh._scan_operators.cache_info()
        assert info.misses == 20
        assert info.maxsize == chsh._OPERATOR_CACHE_SIZE == 16
        assert info.currsize == 16

    @pytest.mark.parametrize("axis", [["z+x"], None, "q"])
    def test_unknown_axis_refused_before_lookup(self, noisy, axis):
        chsh._scan_operators.cache_clear()
        with pytest.raises(ValueError, match="^unknown Alice axis"):
            chsh.simulate_drift_scan(noisy, EFF, chsh.DriftModel(), alice_axis=axis)
        assert chsh._scan_operators.cache_info().currsize == 0


class TestMaxExpectationSurface:
    def test_perfect_visibility_full_period(self):
        bell = st.hybrid_bell_state()
        trace = chsh.simulate_drift_scan(
            bell, EFF, drift_2pi(40.0), alice_axis="x", duration=40.0, seed=None
        )
        res = chsh.max_expectation_surface(trace)
        assert res.max_abs == pytest.approx(1.0, abs=1e-6)

    def test_depolarized_max_is_v_xy(self, noisy):
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift_2pi(40.0), alice_axis="x", duration=40.0, seed=None
        )
        res = chsh.max_expectation_surface(trace)
        assert res.max_abs == pytest.approx(0.804, abs=1e-6)

    def test_independent_of_drift_speed(self, noisy):
        for duration, period in ((40.0, 40.0), (80.0, 20.0)):
            drift = chsh.DriftModel("linear", amount=2 * math.pi, period=period)
            trace = chsh.simulate_drift_scan(
                noisy, EFF, drift, alice_axis="x", duration=duration, seed=None
            )
            res = chsh.max_expectation_surface(trace)
            assert res.max_abs == pytest.approx(0.804, abs=1e-6)

    @scan_grid
    def test_matches_dense(self, noisy, n, kind, phase0, etas, axis, embedded):
        _, _, trace = grid_scan(noisy, n, kind, phase0, etas, axis, embedded)
        assert_matches_dense(trace)
        assert_matches_dense(chsh.DriftTrace(trace.times[::2], trace.counts[..., ::2]))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_with_undefined_cells(self, noisy, seed):
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift_2pi(120.0), alice_axis="z+x", rate=3.0,
            duration=120.0, seed=seed,
        )
        n_plus, n_minus = trace.middle_series()
        assert np.any(n_plus + n_minus == 0)
        assert_matches_dense(trace)

    @pytest.mark.parametrize("duration", [0.5, 60.0])
    def test_constant_series(self, noisy, duration):
        still = chsh.DriftModel("linear", amount=0.0, period=10.0)
        trace = chsh.simulate_drift_scan(
            noisy, EFF, still, alice_axis="x", duration=duration, seed=None
        )
        assert trace.n_buckets == round(duration / 0.5)
        assert_matches_dense(trace)
        assert chsh.max_expectation_surface(trace).max_abs < 1e-14

    def test_all_zero_counts(self, noisy):
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift_2pi(10.0), alice_axis="x", duration=10.0, seed=None
        )
        trace.counts[:, BIN["mid"]] = 0.0
        with pytest.raises(chsh.ZeroDenominatorError):
            max_expectation_surface_dense(*trace.middle_series())
        with pytest.raises(chsh.ZeroDenominatorError):
            chsh.max_expectation_surface(trace)

    def test_memory_linear_in_scan_length(self, noisy):
        # One dense 20000 x 20000 float array would be 3.2 GB.
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift_2pi(600.0), alice_axis="z+x", duration=10_000.0,
            seed=3,
        )
        tracemalloc.start()
        try:
            chsh.max_expectation_surface(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.n_buckets == 20_000
        assert peak < 16e6


class TestZExpectation:
    def test_noiseless_value(self, noisy):
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift_2pi(10.0), alice_axis="z+x", duration=10.0, seed=None
        )
        assert chsh.z_expectation(trace) == pytest.approx(
            0.952 / math.sqrt(2.0), abs=1e-12
        )


class TestEstimateChsh:
    def scans(self, noisy, seed, duration=60.0, rate=1000.0):
        traces = []
        for idx, axis in enumerate(("z+x", "z-x")):
            traces.append(
                chsh.simulate_drift_scan(
                    noisy, EFF, drift_2pi(duration), alice_axis=axis,
                    rate=rate, duration=duration,
                    seed=None if seed is None else seed + idx,
                )
            )
        return traces

    def test_noiseless_recovers_s_theo(self, noisy):
        t1, t2 = self.scans(noisy, None)
        est = chsh.estimate_chsh(t1, t2, split=False)
        assert est.s == pytest.approx(chsh.s_theo(0.952, 0.804), abs=1e-6)

    def test_split_estimator_unbiased(self, noisy):
        values = []
        for seed in range(8):
            t1, t2 = self.scans(noisy, 100 + 2 * seed)
            values.append(chsh.estimate_chsh(t1, t2, split=True).s)
        mean = float(np.mean(values))
        assert mean == pytest.approx(chsh.s_theo(0.952, 0.804), abs=0.08)

    @pytest.mark.parametrize("split", [True, False])
    def test_fields_are_floats(self, noisy, split):
        est = chsh.estimate_chsh(*self.scans(noisy, 3, duration=20.0), split=split)
        assert [type(v) for v in est] == [float] * 5

    def test_split_names_rate_when_odd_cell_is_empty(self, noisy):
        # The scans of `chsh-scan --rate 3 --seed 0`: the odd buckets next
        # to the cell chosen on the even ones hold no middle-bin count,
        # while the full surface has defined cells.
        t1, t2 = self.scans(noisy, 0, duration=120.0, rate=3.0)
        with pytest.raises(chsh.ZeroDenominatorError, match="rate"):
            chsh.estimate_chsh(t1, t2, split=True)
        assert math.isfinite(chsh.estimate_chsh(t1, t2, split=False).s)

    def test_surface_rows_export(self, noisy):
        t1, _ = self.scans(noisy, None, duration=5.0)
        sheader, blocks = chsh.surface_to_rows(t1)
        assert sheader == ["t1_s", "t2_s", "expectation", "defined"]
        n = t1.n_buckets
        sizes = [len(block) for block in blocks]
        assert sum(sizes) == n**2
        assert all(size % n == 0 for size in sizes)

    def test_surface_rows_antisymmetry(self, noisy):
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift_2pi(10.0), alice_axis="x", duration=10.0, seed=None
        )
        _, blocks = chsh.surface_to_rows(trace)
        n = trace.n_buckets
        surface = np.concatenate(list(blocks))[:, 2].reshape(n, n)
        assert np.allclose(surface, -surface.T, atol=1e-12, equal_nan=True)

    @pytest.mark.parametrize(
        "n, block_cells, n_blocks, seed, rate, zeroed",
        [
            pytest.param(1, None, 1, 4, 3.0, None, id="1-None-1"),
            pytest.param(40, None, 1, 4, 3.0, None, id="40-None-1"),
            pytest.param(240, None, 15, 4, 3.0, None, id="240-None-15"),
            pytest.param(40, 30, 40, 4, 3.0, None, id="40-30-40"),
            pytest.param(41, 100, 21, 4, 3.0, None, id="41-100-21"),
            # 120 buckets give 4 blocks of 34 rows but the last.
            pytest.param(120, None, 4, None, 1000.0, None, id="noiseless"),
            pytest.param(120, None, 4, 5, 1000.0, None, id="seeded"),
            pytest.param(120, None, 4, 2, 3.0, None, id="sparse"),
            pytest.param(120, None, 4, None, 1000.0, slice(0, 1), id="undefined_cell"),
            pytest.param(120, None, 4, None, 1000.0, slice(3, 7), id="zeroed_buckets"),
            pytest.param(120, None, 4, None, 1000.0, slice(None), id="all_zeroed"),
        ],
    )
    def test_surface_rows_match_dense(
        self, noisy, monkeypatch, n, block_cells, n_blocks, seed, rate, zeroed
    ):
        # At the default block size 240 buckets give 15 blocks of 17 rows but
        # the last, which has 2; a block smaller than a row holds one row.
        if block_cells is not None:
            monkeypatch.setattr(chsh, "_EXPORT_BLOCK_CELLS", block_cells)
        trace = chsh.simulate_drift_scan(
            noisy, EFF, drift_2pi(60.0), alice_axis="z+x", rate=rate,
            duration=n * 0.5, seed=seed,
        )
        if zeroed is not None:
            trace.counts[:, BIN["mid"], zeroed] = 0.0
        _, blocks = chsh.surface_to_rows(trace)
        blocks = list(blocks)
        rows_per_block = max(1, chsh._EXPORT_BLOCK_CELLS // n)
        assert len(blocks) == n_blocks
        assert all(len(block) == rows_per_block * n for block in blocks[:-1])
        surface, defined = expectation_surface_dense(*trace.middle_series())
        expected = np.column_stack([
            np.repeat(trace.times, n), np.tile(trace.times, n),
            surface.ravel(), defined.ravel(),
        ])
        got = np.concatenate(blocks)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        # Undefined cells hold NaN, and only they; E(t2, t1) = -E(t1, t2).
        values = got[:, 2].reshape(n, n)
        assert np.array_equal(np.isnan(values), ~defined)
        assert np.allclose(values, -values.T, atol=1e-12, equal_nan=True)
        if zeroed is not None:
            assert np.isnan(values[zeroed, zeroed]).all()
        if zeroed is not None or rate < 10:
            assert not defined.all()
