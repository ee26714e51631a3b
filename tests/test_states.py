import math

import numpy as np
import pytest

from timebin_analyzer import quantum as q
from timebin_analyzer import states as st
from timebin_analyzer.measurement import (
    AnalyzerEfficiencies,
    alice_projectors,
    bob_povm,
)

from oracles import embed_2x3_loops, fit_cosine, random_density_matrix


def equatorial(phi):
    """Alice's projector pair along the Bloch vector (cos phi, sin phi, 0)."""
    phi = np.asarray(phi, dtype=float)
    bloch = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], -1)
    return alice_projectors(bloch)


@pytest.fixture
def bell():
    return st.hybrid_bell_state()


@pytest.fixture
def noisy(bell):
    return st.depolarize(bell, st.DepolarizationParams.unbiased(0.012, 0.086))


class TestHybridBellState:
    def test_trace_and_purity(self, bell):
        assert np.trace(bell.matrix).real == pytest.approx(1.0, abs=1e-14)
        assert np.trace(bell.matrix @ bell.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_perfect_zz_correlation(self, bell):
        zz = q.tensor(q.PAULI_Z, q.PAULI_Z)
        assert bell.expectation(zz) == pytest.approx(1.0, abs=1e-14)

    def test_xx_correlation_fixes_signs(self, bell):
        xx = q.tensor(q.PAULI_X, q.PAULI_X)
        assert bell.expectation(xx) == pytest.approx(1.0, abs=1e-14)

    def test_yy_correlation(self, bell):
        yy = q.tensor(q.PAULI_Y, q.PAULI_Y)
        assert bell.expectation(yy) == pytest.approx(-1.0, abs=1e-14)


class TestEmbed2x3:
    def test_full_arrival(self, bell):
        emb = st.embed_2x3(bell, 1.0)
        assert emb.matrix[0, 0] == 0 and emb.matrix[3, 3] == 0
        qubit = emb.matrix[np.ix_([1, 2, 4, 5], [1, 2, 4, 5])]
        assert np.allclose(qubit, bell.matrix, atol=1e-14)

    def test_zero_arrival_keeps_alice_marginal(self, bell):
        emb = st.embed_2x3(bell, 0.0)
        assert np.allclose(emb.bob_marginal(), np.diag([1.0, 0.0, 0.0]), atol=1e-14)
        assert np.allclose(emb.alice_marginal(), bell.alice_marginal(), atol=1e-14)

    def test_half_arrival_block_masses(self, bell):
        emb = st.embed_2x3(bell, 0.5)
        emb.validate()
        qubit_mass = emb.matrix[1, 1] + emb.matrix[2, 2] + emb.matrix[4, 4] + emb.matrix[5, 5]
        vacuum_mass = emb.matrix[0, 0] + emb.matrix[3, 3]
        assert qubit_mass.real == pytest.approx(0.5, abs=1e-14)
        assert vacuum_mass.real == pytest.approx(0.5, abs=1e-14)

    def test_invalid_probability(self, bell):
        with pytest.raises(ValueError):
            st.embed_2x3(bell, 1.2)

    def test_matches_loops_bitwise(self, bell, noisy):
        rng = np.random.default_rng(11)
        cases = [(bell, 0.0), (bell, 1.0), (noisy, 0.24)] + [
            (q.DensityMatrix(random_density_matrix(rng, 4), 2, 2), rng.uniform())
            for _ in range(200)
        ]
        for rho, p in cases:
            got = st.embed_2x3(rho, p).matrix
            assert got.tobytes() == embed_2x3_loops(rho, p).tobytes()


class TestDepolarize:
    def test_identity_channel(self, bell):
        out = st.depolarize(bell, st.DepolarizationParams(0.0, 0.0, 0.0))
        assert np.array_equal(out.matrix, bell.matrix)

    def test_paper_noise_visibilities(self, bell, noisy):
        # Closed forms: v_z = 1 - 2(p_x + p_y), v_xy = 1 - 2(p_y + p_z).
        zz = q.tensor(q.PAULI_Z, q.PAULI_Z)
        xx = q.tensor(q.PAULI_X, q.PAULI_X)
        assert noisy.expectation(zz) == pytest.approx(0.952, abs=1e-12)
        assert noisy.expectation(xx) == pytest.approx(0.804, abs=1e-12)

    def test_correlation_scaling_each_axis(self, bell):
        params = st.DepolarizationParams(0.25, 0.25, 0.25)
        out = st.depolarize(bell, params)
        probs = {"x": 0.25, "y": 0.25, "z": 0.25}
        paulis = {"x": q.PAULI_X, "y": q.PAULI_Y, "z": q.PAULI_Z}
        for axis in ("x", "y", "z"):
            factor = 1.0 - 2.0 * sum(p for k, p in probs.items() if k != axis)
            obs = q.tensor(paulis[axis], paulis[axis])
            assert out.expectation(obs) == pytest.approx(
                factor * bell.expectation(obs), abs=1e-12
            )

    def test_trace_and_positivity_on_random_states(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            rho = q.DensityMatrix(random_density_matrix(rng, 4), 2, 2)
            p = rng.uniform(0, 1, size=3)
            p = p / p.sum() * rng.uniform(0, 1)
            out = st.depolarize(rho, st.DepolarizationParams(*p))
            out.validate()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            st.DepolarizationParams(0.6, 0.3, 0.2)
        with pytest.raises(ValueError):
            st.DepolarizationParams(-0.1, 0.0, 0.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda rho: st.embed_2x3(rho, 1.0), "embed_2x3"),
        (lambda rho: st.depolarize(rho, st.DepolarizationParams(0.0, 0.0, 0.0)),
         "depolarize"),
    ],
    ids=["embed_2x3", "depolarize"],
)
def test_needs_2x2_state(bell, call, name):
    with pytest.raises(ValueError, match=f"^{name} expects a 2x2-qubit"):
        call(st.embed_2x3(bell, 1.0))


class TestVisibilityZ:
    def test_ideal_state(self, bell):
        res = st.visibility_z(bell)
        assert res.v_z == pytest.approx(1.0, abs=1e-12)

    def test_depolarized(self, noisy):
        res = st.visibility_z(noisy)
        assert res.v_z == pytest.approx(0.952, abs=1e-9)
        assert res.v_plus == pytest.approx(res.v_minus, abs=1e-12)

    def test_maximally_mixed(self):
        mixed = q.DensityMatrix(np.eye(4, dtype=complex) / 4.0, 2, 2)
        res = st.visibility_z(mixed)
        assert res == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_lossy_measurements_leave_visibility(self, noisy):
        emb = st.embed_2x3(noisy, 0.7)
        res = st.visibility_z(emb, bob=bob_povm(AnalyzerEfficiencies(0.8, 0.5)))
        assert res.v_z == pytest.approx(0.952, abs=1e-9)

    def test_zero_coincidence_error(self, bell):
        vacuum_only = st.embed_2x3(bell, 0.0)
        with pytest.raises(st.ZeroDenominatorError):
            st.visibility_z(vacuum_only)


class TestVisibilityXY:
    def grid(self, n=24):
        return np.linspace(0.0, 2.0 * math.pi, n)

    def test_ideal_state(self, bell):
        res = st.visibility_xy(bell, self.grid())
        assert res.v_xy == pytest.approx(1.0, abs=1e-10)

    def test_depolarized(self, noisy):
        res = st.visibility_xy(noisy, self.grid())
        assert res.v_xy == pytest.approx(0.804, abs=1e-6)

    def test_insufficient_grid(self, bell):
        with pytest.raises(st.FitDegenerateError):
            st.visibility_xy(bell, np.linspace(0, 2 * math.pi, 4))
        with pytest.raises(st.FitDegenerateError):
            st.visibility_xy(bell, np.linspace(0, math.pi, 16))

    def test_global_phase_offset_invariance(self, noisy):
        base = st.visibility_xy(noisy, self.grid())
        shifted = st.visibility_xy(noisy, self.grid() + 1.234)
        assert shifted.v_xy == pytest.approx(base.v_xy, abs=1e-10)
        assert shifted.fitted_phase == pytest.approx(base.fitted_phase, abs=1e-10)

    def test_analyzer_phase_moves_fitted_phase_only(self, noisy):
        emb = st.embed_2x3(noisy, 1.0)
        base = st.visibility_xy(emb, self.grid())
        rotated = st.visibility_xy(
            emb,
            self.grid(),
            bob_x=bob_povm(AnalyzerEfficiencies(1.0, 1.0), relative_phase=0.7)["X"],
        )
        assert rotated.v_xy == pytest.approx(base.v_xy, abs=1e-10)
        assert abs(rotated.fitted_phase - base.fitted_phase) == pytest.approx(
            0.7, abs=1e-9
        )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_grid_refused_without_warning(self, bell, bad):
        with pytest.raises(st.FitDegenerateError, match="^phase_grid must be finite"):
            st.visibility_xy(bell, np.full(10, bad))

    def test_fitted_phase_of_pi_reads_plus_pi(self, bell):
        # p_y + p_z > 1/2 turns the superposition visibility negative: the
        # fitted phase is pi, read in (-pi, pi] as +pi, not -pi.
        out = st.depolarize(bell, st.DepolarizationParams(0.0, 0.3, 0.3))
        res = st.visibility_xy(out, self.grid())
        assert res.fitted_phase == math.pi
        assert res.v_xy == pytest.approx(0.2, abs=1e-12)

    def test_fitted_phase_in_half_open_interval(self, bell):
        rng = np.random.default_rng(27)
        for _ in range(50):
            p_x, p_y, p_z = rng.uniform(0.0, 1.0 / 3.0, 3)
            out = st.depolarize(bell, st.DepolarizationParams(p_x, p_y, p_z))
            phi0 = st.visibility_xy(out, self.grid()).fitted_phase
            assert -math.pi < phi0 <= math.pi
            # Zero for a positive superposition visibility, pi for a negative
            # one, compared modulo 2*pi.
            expected = 0.0 if p_y + p_z < 0.5 else math.pi
            assert abs(math.remainder(phi0 - expected, 2 * math.pi)) < 1e-12

    def test_exact_sinusoid_residuals(self, bell):
        phases = self.grid(32)
        rates = [
            bell.expectation(
                q.tensor(equatorial(phi)[0], 0.5 * (np.eye(2) + q.PAULI_X))
            )
            for phi in phases
        ]
        offset, amp, _, resid = fit_cosine(phases, rates)
        assert resid <= 1e-10
        assert amp / offset == pytest.approx(1.0, abs=1e-10)

    def test_closed_form_match(self, bell):
        # Unbiased channel: numeric visibilities equal the closed forms.
        for p_xy, p_z in ((0.0, 0.0), (0.012, 0.086), (0.05, 0.1)):
            out = st.depolarize(bell, st.DepolarizationParams.unbiased(p_xy, p_z))
            v_z = st.visibility_z(out).v_z
            v_xy = st.visibility_xy(out, self.grid()).v_xy
            assert v_z == pytest.approx(1 - 2 * (2 * p_xy), abs=1e-12)
            assert v_xy == pytest.approx(1 - 2 * (p_xy + p_z), abs=1e-12)

    def test_equals_least_squares_fringe_fit(self):
        # Random 2x3 states, efficiencies and analyzer phases: the closed
        # form is the least-squares fit of each branch's fringe on a grid.
        rng = np.random.default_rng(26)
        p_plus, p_minus = equatorial(self.grid())
        for _ in range(100):
            rho = q.DensityMatrix(random_density_matrix(rng, 6), 2, 3)
            eff = AnalyzerEfficiencies(*rng.uniform(0.1, 1.0, 2))
            bob_x = bob_povm(eff, relative_phase=rng.uniform(-4.0, 4.0))["X"]
            res = st.visibility_xy(rho, self.grid(), bob_x=bob_x)
            fits = [
                fit_cosine(self.grid(), rho.expectation(q.tensor(p, bob_x)))
                for p in (p_plus, p_minus)
            ]
            for offset, amplitude, _, _ in fits:
                assert res.v_xy == pytest.approx(amplitude / offset, abs=1e-15)
            assert -math.pi < res.fitted_phase <= math.pi
            dphi = math.remainder(res.fitted_phase - fits[0][2], 2 * math.pi)
            assert abs(dphi) < 1e-14

    def test_no_photon_at_bob_refused(self, bell):
        with pytest.raises(st.FitDegenerateError, match="offset is not positive"):
            st.visibility_xy(st.embed_2x3(bell, 0.0), self.grid())


class TestTwoByTwoMeasuredThroughEmbedding:
    # A 2x2 state is measured as embed_2x3(rho, 1.0) under the lossless
    # POVM, whose E, L and X blocks are 1, 1 and 1/2 times the qubit
    # projectors |E><E|, |L><L| and |+><+|: the ratios are the same.
    grid = np.linspace(0.0, 2.0 * math.pi, 24)
    qubit = {
        "E": np.diag([1.0, 0.0]).astype(complex),
        "L": np.diag([0.0, 1.0]).astype(complex),
        "X": 0.5 * np.ones((2, 2), dtype=complex),
    }

    def states(self):
        bell = st.hybrid_bell_state()
        yield bell
        yield st.depolarize(bell, st.DepolarizationParams(0.03, 0.01, 0.08))
        rng = np.random.default_rng(24)
        for _ in range(8):
            yield q.DensityMatrix(random_density_matrix(rng, 4), 2, 2)

    def qubit_visibility_z(self, rho):
        h, v = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        n = {
            a + b: rho.expectation(q.tensor(m_a, self.qubit[b]))
            for a, m_a in (("H", h), ("V", v))
            for b in "EL"
        }
        v_plus = (n["HE"] - n["VE"]) / (n["HE"] + n["VE"])
        v_minus = (n["VL"] - n["HL"]) / (n["VL"] + n["HL"])
        return v_plus, v_minus, 0.5 * (v_plus + v_minus)

    def test_equal_to_embedding(self):
        for rho in self.states():
            emb = st.embed_2x3(rho, 1.0)
            assert st.visibility_z(rho) == pytest.approx(
                st.visibility_z(emb), abs=1e-15
            )
            assert st.visibility_xy(rho, self.grid) == pytest.approx(
                st.visibility_xy(emb, self.grid), abs=1e-15
            )

    def test_agree_with_qubit_projectors(self):
        for rho in self.states():
            assert st.visibility_z(rho) == pytest.approx(
                self.qubit_visibility_z(rho), abs=1e-15
            )
            p_plus, p_minus = equatorial(self.grid)
            fits = [
                fit_cosine(self.grid, rho.expectation(q.tensor(p, self.qubit["X"])))
                for p in (p_plus, p_minus)
            ]
            res = st.visibility_xy(rho, self.grid)
            for offset, amplitude, _, _ in fits:
                assert res.v_xy == pytest.approx(amplitude / offset, abs=1e-15)
            assert res.fitted_phase == pytest.approx(fits[0][2], abs=1e-14)

    def test_other_shapes_refused(self):
        rho = q.DensityMatrix(np.eye(8) / 8, 2, 4)
        with pytest.raises(ValueError, match="expected a 2x2 or 2x3 state, got 2x4"):
            st.visibility_z(rho)
        with pytest.raises(ValueError, match="expected a 2x2 or 2x3 state, got 2x4"):
            st.visibility_xy(rho, self.grid)
