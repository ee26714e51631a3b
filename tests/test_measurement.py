import numpy as np
import pytest

from timebin_analyzer import quantum as q
from timebin_analyzer.measurement import (
    AnalyzerEfficiencies,
    alice_povm,
    bob_povm,
    validate_povm,
    visibility_pairs,
)

from oracles import jacobi_eigvalsh


class TestAlicePovm:
    def test_completeness_both_bases(self):
        m = alice_povm()
        assert np.array_equal(m["H"] + m["V"], np.eye(2))
        assert np.max(np.abs(m["D"] + m["A"] - np.eye(2))) < 1e-15

    def test_diagonal_element_entries(self):
        assert np.max(np.abs(alice_povm()["D"] - 0.5)) < 1e-15

    def test_orthogonal_projectors(self):
        m = alice_povm()
        assert np.max(np.abs(m["D"] @ m["A"])) < 1e-15
        assert np.max(np.abs(m["H"] @ m["V"])) < 1e-15

    def test_validates(self):
        m = alice_povm()
        assert validate_povm({"H": m["H"], "V": m["V"]}).ok
        assert validate_povm({"D": m["D"], "A": m["A"]}).ok


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
        alice = alice_povm()
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
        diag = validate_povm(bob_povm(AnalyzerEfficiencies(1.0, 1.0)))
        assert diag.ok
        assert set(diag.min_eigenvalues) == {"E", "L", "X", "none"}
        assert diag.completeness_residual < 1e-15
