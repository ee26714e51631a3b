import json
import math

import numpy as np
import pytest

from timebin_analyzer import quantum as q
from timebin_analyzer import verify
from timebin_analyzer.measurement import (
    AnalyzerEfficiencies,
    alice_projectors,
    bob_povm,
)

from oracles import (
    basis_traces,
    jacobi_eigvalsh,
    kron_loops,
    partial_transpose_loops,
    random_density_matrix,
    symmetric_basis,
)


# Alice's H (Bloch vector +z) and Bob's lossless early-bin element.
M_H = alice_projectors([0.0, 0.0, 1.0])[0]
M_E = bob_povm(AnalyzerEfficiencies(1, 1))["E"]


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


class TestTensor:
    def test_identity_product(self):
        assert np.array_equal(q.tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_single_entry_product(self):
        m = q.tensor(M_H, M_E)
        expected = np.zeros((6, 6))
        expected[1, 1] = 0.25
        assert np.max(np.abs(m - expected)) < 1e-15

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, c = random_hermitian(rng, 2), random_hermitian(rng, 2)
            b, d = random_hermitian(rng, 3), random_hermitian(rng, 3)
            lhs = q.tensor(a, b) @ q.tensor(c, d)
            rhs = q.tensor(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(8)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        assert np.max(np.abs(q.tensor(a, b) - kron_loops(a, b))) < 1e-13

    def test_equals_kron_exactly(self):
        # Each entry is the one complex product a_ij b_kl that np.kron forms.
        rng = np.random.default_rng(13)

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for dim_b in (2, 3):
            for _ in range(10):
                a, b = draw(2, 2), draw(dim_b, dim_b)
                assert np.array_equal(q.tensor(a, b), np.kron(a, b))

    def test_stack_equals_kron_exactly(self):
        # A (24, 2, 2) stack of equatorial phase projectors.
        phi = np.linspace(0, 2 * np.pi, 24)
        bloch = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], -1)
        p_plus, _ = alice_projectors(bloch)
        bob_x = bob_povm(AnalyzerEfficiencies(0.9, 0.8))["X"]
        stacked = q.tensor(p_plus, bob_x)
        assert stacked.shape == (24, 6, 6)
        assert np.array_equal(stacked, np.kron(p_plus, bob_x))

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((2, 1, 2, 2), (5, 3, 3)), ((3, 2, 2), (3, 3, 3)), ((2, 2), (4, 3, 3))],
    )
    def test_two_stacks_equal_kron_pairwise(self, shape_a, shape_b):
        # (2, 1, 2, 2) x (5, 3, 3) is the detector-by-operator product of
        # chsh.simulate_drift_scan; stack shapes broadcast like numpy's.
        rng = np.random.default_rng(21)
        a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
        b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
        stacked = q.tensor(a, b)
        batch = np.broadcast_shapes(shape_a[:-2], shape_b[:-2])
        assert stacked.shape == batch + (2 * 3, 2 * 3)
        a = np.broadcast_to(a, batch + (2, 2))
        b = np.broadcast_to(b, batch + (3, 3))
        for idx in np.ndindex(batch):
            assert np.array_equal(stacked[idx], np.kron(a[idx], b[idx]))


def bell_state_2x3():
    psi = np.zeros(6, dtype=complex)
    psi[1] = 1 / math.sqrt(2)  # |H, E>
    psi[5] = 1 / math.sqrt(2)  # |V, L>
    return np.outer(psi, psi.conj())


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(9)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 3)
        pt = q.partial_transpose(q.tensor(rho_a, rho_b), 2, 3)
        expected = q.tensor(rho_a.T, rho_b)
        assert np.max(np.abs(pt - expected)) < 1e-13
        assert q.min_eigenvalue(pt) > -1e-12

    def test_bell_minimum_eigenvalue(self):
        pt = q.partial_transpose(bell_state_2x3(), 2, 3)
        assert q.min_eigenvalue(pt) == pytest.approx(-0.5, abs=1e-12)
        assert jacobi_eigvalsh(pt)[0] == pytest.approx(-0.5, abs=1e-9)

    def test_trace_preserved_and_involution(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix(rng, 6)
        pt = q.partial_transpose(rho, 2, 3)
        assert np.trace(pt) == pytest.approx(np.trace(rho), abs=1e-14)
        assert np.array_equal(q.partial_transpose(pt, 2, 3), rho)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(11)
        for dims in ((2, 2), (2, 3)):
            m = random_hermitian(rng, dims[0] * dims[1])
            assert np.max(
                np.abs(q.partial_transpose(m, *dims) - partial_transpose_loops(m, *dims))
            ) < 1e-14

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(14)
        m = rng.normal(size=(17, 6, 6)) + 1j * rng.normal(size=(17, 6, 6))
        for dims in ((2, 3), (2, None), (3, 2)):
            stacked = q.partial_transpose(m, *dims)
            expected = [q.partial_transpose(x, *dims) for x in m]
            assert np.array_equal(stacked, expected)
        nested = q.partial_transpose(m[:16].reshape(4, 4, 6, 6), 2, 3)
        assert np.array_equal(nested.reshape(16, 6, 6), q.partial_transpose(m[:16]))

    @pytest.mark.parametrize(
        "shape, dims",
        [((6,), (2, 3)), ((6, 4), (2, 3)), ((5, 6, 4), (2, 3)), ((5, 5), (2, None)),
         ((3, 6, 6), (2, 2)), ((3, 6, 6), (4, None))],
    )
    def test_rejects_bad_shapes(self, shape, dims):
        with pytest.raises(q.DimensionMismatchError):
            q.partial_transpose(np.zeros(shape), *dims)

    def test_pure_state_pt_spectrum_structure(self):
        # For a pure state with Schmidt coefficients s_i the partial
        # transpose has eigenvalues {s_i^2} plus pairs +/- s_i s_j.
        rng = np.random.default_rng(12)
        for _ in range(20):
            psi = rng.normal(size=6) + 1j * rng.normal(size=6)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            s = np.linalg.svd(psi.reshape(2, 3), compute_uv=False)
            expected = [s[0] ** 2, s[1] ** 2, s[0] * s[1], -s[0] * s[1], 0.0, 0.0]
            w = np.linalg.eigvalsh(q.partial_transpose(rho, 2, 3))
            assert np.allclose(np.sort(w), np.sort(expected), atol=1e-10)


def test_min_eigenvalue_stack_equals_each_matrix():
    rng = np.random.default_rng(15)
    m = np.array([random_hermitian(rng, 6) for _ in range(8)]).reshape(2, 4, 6, 6)
    lows = q.min_eigenvalue(m)
    assert lows.shape == (2, 4)
    assert np.array_equal(lows, [[q.min_eigenvalue(x) for x in row] for row in m])
    assert isinstance(q.min_eigenvalue(m[0, 0]), float)


class TestExpectation:
    def test_identity(self):
        assert q.expectation(np.eye(6) / 6.0, np.eye(6)) == pytest.approx(1.0)

    def test_lossless_coincidence(self):
        rho = np.zeros((6, 6), dtype=complex)
        rho[1, 1] = 1.0  # |H, E>
        obs = q.tensor(M_H, M_E)
        assert q.expectation(rho, obs) == pytest.approx(0.25)

    def test_linearity_over_mixtures(self):
        rng = np.random.default_rng(17)
        obs = random_hermitian(rng, 6)
        r1 = random_density_matrix(rng, 6)
        r2 = random_density_matrix(rng, 6)
        for lam in (0.0, 0.3, 0.75, 1.0):
            mixed = lam * r1 + (1 - lam) * r2
            direct = q.expectation(mixed, obs)
            combo = lam * q.expectation(r1, obs) + (1 - lam) * q.expectation(r2, obs)
            assert direct == pytest.approx(combo, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(q.DimensionMismatchError):
            q.expectation(np.eye(4) / 4, np.eye(6))

    def test_stack_matches_single_values(self):
        rng = np.random.default_rng(19)
        rho = random_density_matrix(rng, 6)
        stack = np.array([random_hermitian(rng, 6) for _ in range(12)])
        stack = stack.reshape(3, 4, 6, 6)
        values = q.expectation(rho, stack)
        assert values.shape == (3, 4)
        singles = [q.expectation(rho, obs) for obs in stack.reshape(12, 6, 6)]
        assert isinstance(singles[0], float)
        assert np.array_equal(values.ravel(), singles)

    def test_stack_with_non_hermitian_element_raises(self):
        rng = np.random.default_rng(20)
        rho = random_density_matrix(rng, 6)
        stack = np.array([random_hermitian(rng, 6) for _ in range(5)])
        stack[3, 0, 1] += 0.5j
        with pytest.raises(ValueError, match="imaginary residue"):
            q.expectation(rho, stack)

    def test_stack_trailing_shape_mismatch(self):
        with pytest.raises(q.DimensionMismatchError):
            q.expectation(np.eye(6) / 6, np.zeros((4, 4, 4)))


class TestDensityMatrix:
    def test_validation_passes(self):
        q.DensityMatrix(bell_state_2x3(), 2, 3).validate()

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            q.DensityMatrix(2 * bell_state_2x3(), 2, 3).validate()

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5, 0, 0, 0, 0]).astype(complex)
        with pytest.raises(ValueError):
            q.DensityMatrix(m, 2, 3).validate()

    def test_rejects_shape_off_dims(self):
        with pytest.raises(q.DimensionMismatchError, match="does not match dims"):
            q.DensityMatrix(np.eye(4), 2, 3)

    def test_rejects_non_hermitian(self):
        m = bell_state_2x3()
        m[0, 1] += 0.1
        with pytest.raises(q.NotHermitianError):
            q.DensityMatrix(m, 2, 3).validate()

    def test_marginals(self):
        rng = np.random.default_rng(18)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 3)
        dm = q.DensityMatrix(q.tensor(rho_a, rho_b), 2, 3)
        assert np.allclose(dm.alice_marginal(), rho_a, atol=1e-13)
        assert np.allclose(dm.bob_marginal(), rho_b, atol=1e-13)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        m = random_hermitian(rng, 6)
        payload = json.dumps(q.operator_to_dict(m, 2, 3))
        back = q.operator_from_dict(json.loads(payload))
        assert np.allclose(back, m, atol=0)

    def test_shape_mismatch_rejected(self):
        d = q.operator_to_dict(np.eye(6), 2, 3)
        d["dim_b"] = 2
        with pytest.raises(q.DimensionMismatchError):
            q.operator_from_dict(d)


class TestHermitianBasis:
    """The real symmetric index map against the real members of the
    oracle's Hermitian basis and their traces."""

    def test_orthonormal_and_complete(self):
        basis = symmetric_basis(6)
        assert len(basis) == 21
        gram = np.array([basis_traces(b, basis) for b in basis])
        assert np.max(np.abs(gram - np.eye(21))) < 1e-14
        assert np.array_equal(q.vec_symmetric(np.array(basis)), gram)

    def test_vec_round_trip(self):
        rng = np.random.default_rng(20)
        m = random_hermitian(rng, 6).real
        x = q.vec_symmetric(m)
        assert x.shape == (21,)
        assert np.max(np.abs(q.unvec_symmetric(x) - m)) < 1e-13

    def test_stack_round_trip(self):
        # A (3, 5) stack maps as its matrices do one at a time, bit for bit,
        # and comes back to within rounding of 1/sqrt(2) squared.
        rng = np.random.default_rng(23)
        g = rng.normal(size=(3, 5, 6, 6))
        m = g + g.swapaxes(-1, -2)
        x = q.vec_symmetric(m)
        assert x.shape == (3, 5, 21)
        assert np.array_equal(x, [[q.vec_symmetric(b) for b in row] for row in m])
        back = q.unvec_symmetric(x)
        assert np.array_equal(back, [[q.unvec_symmetric(v) for v in row] for row in x])
        assert np.max(np.abs(back - m)) < 1e-13

    def test_vec_matches_basis_traces(self):
        rng = np.random.default_rng(21)
        basis = symmetric_basis(6)
        eff = AnalyzerEfficiencies(0.9, 0.9)
        matrices = [random_hermitian(rng, 6).real for _ in range(20)]
        matrices += list(verify.build_constraints(0.952, 0.804, eff).operators)
        # A matrix symmetric only to rounding: both triangles count.
        matrices.append(rng.normal(size=(6, 6)))
        for m in matrices:
            assert np.array_equal(q.vec_symmetric(m), basis_traces(m, basis))
        stacked = q.vec_symmetric(np.array(matrices))
        assert np.array_equal(stacked, [basis_traces(m, basis) for m in matrices])

    def test_unvec_matches_basis_sum(self):
        rng = np.random.default_rng(22)
        basis = np.array(symmetric_basis(6))
        for _ in range(20):
            x = rng.normal(size=21)
            assert np.array_equal(
                q.unvec_symmetric(x), np.tensordot(x, basis, axes=1)
            )

    def test_vec_rejects_complex(self):
        with pytest.raises(ValueError, match="needs a real matrix"):
            q.vec_symmetric(1j * np.eye(3))

    def test_unvec_rejects_bad_length(self):
        with pytest.raises(q.DimensionMismatchError):
            q.unvec_symmetric(np.zeros(20))
