import hashlib
import math

import numpy as np
import pytest

from timebin_analyzer import quantum as q
from timebin_analyzer.measurement import (
    AnalyzerEfficiencies,
    alice_projectors,
    bob_povm,
    validate_povm,
    visibility_pairs,
)

from oracles import jacobi_eigvalsh


def hvda():
    """H, V, D and A as the projector pairs along +z and +x."""
    (m_h, m_d), (m_v, m_a) = alice_projectors([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return {"H": m_h, "V": m_v, "D": m_d, "A": m_a}


class TestAlicePovm:
    def test_completeness_both_bases(self):
        m = hvda()
        assert np.array_equal(m["H"] + m["V"], np.eye(2))
        assert np.max(np.abs(m["D"] + m["A"] - np.eye(2))) < 1e-15

    def test_diagonal_element_entries(self):
        assert np.max(np.abs(hvda()["D"] - 0.5)) < 1e-15

    def test_orthogonal_projectors(self):
        m = hvda()
        assert np.max(np.abs(m["D"] @ m["A"])) < 1e-15
        assert np.max(np.abs(m["H"] @ m["V"])) < 1e-15

    def test_validates(self):
        m = hvda()
        assert validate_povm({"H": m["H"], "V": m["V"]}).ok
        assert validate_povm({"D": m["D"], "A": m["A"]}).ok


class TestAliceProjectors:
    def test_literal_basis_matrices(self):
        # +z gives H | V, -z gives V | H, +x gives D | A and -x gives A | D,
        # bit for bit, signed zeros included.
        m_h = np.array([[1, 0], [0, 0]], dtype=complex)
        m_v = np.array([[0, 0], [0, 1]], dtype=complex)
        m_d = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        m_a = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
        cases = {
            (0.0, 0.0, 1.0): (m_h, m_v),
            (0.0, 0.0, -1.0): (m_v, m_h),
            (1.0, 0.0, 0.0): (m_d, m_a),
            (-1.0, 0.0, 0.0): (m_a, m_d),
        }
        for bloch, pair in cases.items():
            for got, want in zip(alice_projectors(bloch), pair):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_equatorial_stack_digest(self):
        # A 24-point equatorial phase scan, pinned to its bytes.
        phi = np.linspace(0.0, 2.0 * math.pi, 24)
        bloch = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], -1)
        stack = np.stack(alice_projectors(bloch))
        assert stack.shape == (2, 24, 2, 2)
        assert hashlib.sha256(stack.tobytes()).hexdigest() == (
            "d9080298cb3e602cddce4a3f6ca3fb973e3623d12b147748ba35925ae374b36e"
        )

    def test_stack_equals_each_vector(self):
        rng = np.random.default_rng(25)
        bloch = rng.normal(size=(4, 5, 3))
        bloch /= np.linalg.norm(bloch, axis=-1, keepdims=True)
        plus, minus = alice_projectors(bloch)
        assert plus.shape == minus.shape == (4, 5, 2, 2)
        for idx in np.ndindex(4, 5):
            one_plus, one_minus = alice_projectors(bloch[idx])
            assert np.array_equal(plus[idx], one_plus)
            assert np.array_equal(minus[idx], one_minus)

    def test_projective_pair_along_bloch_vector(self):
        rng = np.random.default_rng(26)
        for n in rng.normal(size=(20, 3)):
            n /= np.linalg.norm(n)
            plus, minus = alice_projectors(n)
            assert np.max(np.abs(plus + minus - np.eye(2))) < 1e-15
            assert np.max(np.abs(plus @ minus)) < 1e-15
            assert np.max(np.abs(plus @ plus - plus)) < 1e-15
            sigma = n[0] * q.PAULI_X + n[1] * q.PAULI_Y + n[2] * q.PAULI_Z
            assert np.trace(plus @ sigma).real == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bloch", [[1.0, 0.0], np.zeros((4, 2)), 1.0, []])
    def test_last_axis_other_than_three_refused(self, bloch):
        with pytest.raises(ValueError, match=r"^bloch must have a last axis of 3"):
            alice_projectors(bloch)

    @pytest.mark.parametrize(
        "bloch",
        [
            [1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
            [1.0 + 2e-12, 0.0, 0.0],
            [math.nan, 0.0, 0.0],
            [[0.0, 0.0, 1.0], [0.0, math.nan, 1.0]],
            [math.inf, 0.0, 0.0],
        ],
    )
    def test_non_unit_or_nan_refused(self, bloch):
        with pytest.raises(ValueError, match=r"^bloch must be unit vectors, got norm"):
            alice_projectors(bloch)

    def test_unit_within_tolerance_accepted(self):
        plus, _ = alice_projectors([1.0 + 5e-13, 0.0, 0.0])
        assert np.max(np.abs(plus - hvda()["D"])) < 1e-12


class TestBobPovm:
    def test_unit_efficiency_middle_element(self):
        m_x = bob_povm(AnalyzerEfficiencies(1.0, 1.0))["X"]
        block = m_x[1:, 1:]
        assert np.max(np.abs(block - 0.25 * np.ones((2, 2)))) < 1e-15
        assert np.linalg.matrix_rank(block, tol=1e-12) == 1

    def test_total_loss(self):
        m = bob_povm(AnalyzerEfficiencies(0.0, 0.0))
        for key in ("E", "L", "X"):
            assert np.max(np.abs(m[key])) == 0.0
        assert np.array_equal(m["none"], np.eye(3))

    def test_asymmetric_no_click_spectrum(self):
        # Smallest eigenvalue of the no-click element is
        # 1 - (eta_l + eta_s + sqrt(eta_l eta_s)) / 4 from the 2x2 block
        # (eta_l + eta_s)/4 * I + sqrt(eta_l eta_s)/4 * sigma_x.
        eta_l, eta_s = 0.8, 0.5
        m = bob_povm(AnalyzerEfficiencies(eta_l, eta_s))
        expected_min = 1.0 - (eta_l + eta_s + np.sqrt(eta_l * eta_s)) / 4.0
        w = np.linalg.eigvalsh(m["none"])
        assert w[0] == pytest.approx(expected_min, abs=1e-12)
        assert jacobi_eigvalsh(m["none"])[0] == pytest.approx(expected_min, abs=1e-9)
        for key in ("E", "L", "X", "none"):
            vals = np.linalg.eigvalsh(m[key])
            assert vals[0] >= -1e-15 and vals[-1] <= 1.0 + 1e-15

    def test_vacuum_annihilated(self):
        m = bob_povm(AnalyzerEfficiencies(0.7, 0.3))
        for key in ("E", "L", "X"):
            assert np.max(np.abs(m[key][0, :])) == 0.0
            assert np.max(np.abs(m[key][:, 0])) == 0.0

    def test_middle_block_rank_one(self):
        for eta_l in (0.2, 0.6, 1.0):
            for eta_s in (0.1, 0.5, 0.9):
                block = bob_povm(AnalyzerEfficiencies(eta_l, eta_s))["X"][1:, 1:]
                vec = np.array([np.sqrt(eta_l), np.sqrt(eta_s)])
                assert np.max(np.abs(block - 0.25 * np.outer(vec, vec))) < 1e-14

    def test_relative_phase_stays_valid(self):
        m = bob_povm(AnalyzerEfficiencies(0.8, 0.5), relative_phase=0.7)
        assert q.is_hermitian(m["X"])
        assert validate_povm(m).ok

    def test_efficiency_grid(self):
        etas = np.linspace(0.0, 1.0, 21)
        for eta_l in etas:
            for eta_s in etas:
                diag = validate_povm(bob_povm(AnalyzerEfficiencies(eta_l, eta_s)))
                assert diag.ok, f"eta_l={eta_l} eta_s={eta_s}: {diag}"

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            AnalyzerEfficiencies(1.2, 0.5)
        with pytest.raises(ValueError):
            AnalyzerEfficiencies(0.5, -0.1)


class TestVisibilityPairs:
    @pytest.mark.parametrize("eta_l, eta_s, phase", [(1.0, 1.0, 0.0), (0.8, 0.5, 0.7)])
    def test_equal_explicit_tensors(self, eta_l, eta_s, phase):
        alice = hvda()
        bob = bob_povm(AnalyzerEfficiencies(eta_l, eta_s), relative_phase=phase)
        plus, minus = visibility_pairs(bob)
        assert plus.shape == minus.shape == (3, 6, 6)
        for k, (a_plus, a_minus, b) in enumerate(["HVE", "VHL", "DAX"]):
            assert np.array_equal(plus[k], np.kron(alice[a_plus], bob[b]))
            assert np.array_equal(minus[k], np.kron(alice[a_minus], bob[b]))


class TestValidatePovm:
    def test_detects_psd_violation(self):
        m = bob_povm(AnalyzerEfficiencies(0.5, 0.5))
        bad = {key: val.copy() for key, val in m.items()}
        bad["X"][1, 2] = 0.5
        bad["X"][2, 1] = 0.5
        diag = validate_povm(bad)
        assert not diag.ok
        assert any("X" in f and "PSD" in f for f in diag.failures)

    def test_detects_incompleteness(self):
        m = bob_povm(AnalyzerEfficiencies(1.0, 1.0))
        diag = validate_povm({"E": m["E"], "X": m["X"]})
        assert not diag.ok
        assert any("identity" in f for f in diag.failures)

    def test_reports_margins(self):
        povm = bob_povm(AnalyzerEfficiencies(1.0, 1.0))
        diag = validate_povm(povm)
        assert diag.ok and diag.failures == []
        assert str(diag) == "POVM valid"
        # The completeness margin, which validate_povm checks against tol.
        residual = np.max(np.abs(sum(povm.values()) - np.eye(3)))
        assert residual < 1e-15
