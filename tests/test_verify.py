import dataclasses
import json
import math
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from timebin_analyzer import quantum as q
from timebin_analyzer import states as st
from timebin_analyzer import verify
from timebin_analyzer.measurement import (
    AnalyzerEfficiencies,
    alice_projectors,
    bob_povm,
)

import solver_sweep
from oracles import (
    alternating_projections,
    boundary_closed_form,
    boundary_scan_bisect,
    jacobi_eigvalsh,
)

EFF = AnalyzerEfficiencies(0.9, 0.9)


def residuals(cs, rho):
    """Tr(rho C_k) - b_k of each constraint, in the order trace, v_z+, v_z-,
    v_xy, mass."""
    return np.array(
        [np.trace(rho @ op).real - b for op, b in zip(cs.operators, cs.targets)]
    )


def classically_correlated():
    """1/2 (|HE><HE| + |VL><VL|), perfect z correlations, no coherence."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5
    m[3, 3] = 0.5
    return q.DensityMatrix(m, 2, 2)


class TestBuildConstraints:
    def test_maximally_mixed_satisfies_zero_visibilities(self):
        cs = verify.build_constraints(0.0, 0.0, AnalyzerEfficiencies(1.0, 1.0))
        res = residuals(cs, np.eye(6, dtype=complex) / 6.0)
        assert np.max(np.abs(res)) < 1e-12

    def test_classical_state_satisfies_perfect_z(self):
        cs = verify.build_constraints(1.0, 0.0, EFF)
        rho = st.embed_2x3(classically_correlated(), 1.0).matrix
        # Trace and the three visibility rows; this state's detected mass is
        # 1, not the pinned 2/3, so the last row is left out.
        assert np.max(np.abs(residuals(cs, rho)[:4])) < 1e-12

    def test_operators_block_diagonal(self):
        cs = verify.build_constraints(0.952, 0.804, EFF)
        vac, qub = [0, 3], [1, 2, 4, 5]
        for op in cs.operators:
            for i in vac:
                for j in qub:
                    assert abs(op[i, j]) < 1e-15
                    assert abs(op[j, i]) < 1e-15

    def test_rank_deficiency_warning(self):
        cs = verify.build_constraints(0.5, 0.5, AnalyzerEfficiencies(0.0, 0.0))
        with pytest.warns(RuntimeWarning):
            verify.sdp_feasible(cs)

    @pytest.mark.parametrize(
        "eta, verdict",
        [
            (0.0, "FEASIBLE"),
            (1e-100, "INFEASIBLE"),
            (1e-13, "INFEASIBLE"),
            (4e-12, "INFEASIBLE"),
            (1e-11, "INFEASIBLE"),
        ],
    )
    def test_rank_warning_names_rank_the_solve_uses(self, monkeypatch, eta, verdict):
        # The solve keeps 21 coordinates less the rank, plus t, so its Schur
        # matrix is k x k with rank 22 - k; the one warning, if any, must
        # name that rank.  The rows are scaled before the rank is counted,
        # so at any eta > 0 the paper point keeps all five rows and is
        # certified with no warning at all.
        sizes = set()
        factor = verify._schur_factor

        def record(l_inv, r, a):
            u = factor(l_inv, r, a)
            sizes.add(len(u))
            return u

        monkeypatch.setattr(verify, "_schur_factor", record)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cs = verify.build_constraints(0.952, 0.804, AnalyzerEfficiencies(eta, eta))
            assert verify.sdp_feasible(cs).verdict == verdict
        (k,) = sizes
        messages = [str(w.message) for w in caught]
        assert len(messages) == (22 - k < 5)
        assert all(f"rank {22 - k} of 5" in m for m in messages)

    def test_coherence_survives_tiny_efficiencies(self):
        # sqrt(eta_l * eta_s) underflows to 0 at 1e-200 each; the middle-bin
        # coherence, and with it the margin, must not.
        tiny = AnalyzerEfficiencies(1e-200, 1e-200)
        assert bob_povm(tiny)["X"][1, 2] != 0
        margins = [
            verify.sdp_feasible(verify.build_constraints(0.952, 0.804, eff)).margin
            for eff in (tiny, EFF)
        ]
        assert abs(margins[0] - margins[1]) <= 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify.build_constraints(1.5, 0.0, EFF)
        with pytest.raises(ValueError):
            verify.build_constraints(0.5, 0.0, EFF, qubit_mass=0.0)


class TestSdpFeasible:
    def test_measured_point_infeasible(self):
        start = time.perf_counter()
        report = verify.sdp_feasible(verify.build_constraints(0.952, 0.804, EFF))
        elapsed = time.perf_counter() - start
        assert report.verdict == "INFEASIBLE"
        assert report.margin < -1e-3
        assert elapsed < 10.0

    @pytest.mark.parametrize(
        "v_z, v_xy",
        [(1.0, 0.0), (0.0, 1.0), (0.0, 1.0 - 2.0**-19)],
        ids=["perfect_z", "perfect_xy", "near_perfect_xy"],
    )
    def test_perfect_z_zero_xy_feasible_with_witness(self, v_z, v_xy):
        # Edge points of the feasible region, where the optimal margin is
        # zero or tiny and the primal-dual system is close to singular.
        cs = verify.build_constraints(v_z, v_xy, EFF)
        report = verify.sdp_feasible(cs)
        assert report.feasible
        witness = report.witness
        assert witness is not None
        assert np.max(np.abs(residuals(cs, witness))) < 1e-8
        assert q.min_eigenvalue(witness) >= -1e-8
        assert q.min_eigenvalue(q.partial_transpose(witness, 2, 3)) >= -1e-8

    def test_newton_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(verify, "_ITERATION_CAP", 5)
        with pytest.raises(verify.NonConvergenceError, match="5 iterations") as info:
            verify.sdp_feasible(verify.build_constraints(0.952, 0.804, EFF))
        assert set(info.value.diagnostics) == {"gap", "iterations", "t"}
        assert info.value.diagnostics["iterations"] == 5
        assert info.value.diagnostics["gap"] > verify.MAX_GAP

    def test_exit_diagnostic_t_is_the_start(self, monkeypatch):
        # With no iteration allowed, the reported t is the start: lambda_min
        # of (rho(x0), rho(x0)^Gamma) less the offset, x0 the minimum-norm
        # solution of the constraint rows.
        monkeypatch.setattr(verify, "_ITERATION_CAP", 0)
        cs = verify.build_constraints(0.952, 0.804, EFF)
        with pytest.raises(verify.NonConvergenceError, match="0 iterations") as info:
            verify.sdp_feasible(cs)
        rows = q.vec_symmetric(cs.operators)
        x0 = np.linalg.lstsq(rows, cs.targets, rcond=None)[0]
        rho = q.unvec_symmetric(x0)
        low = min(np.linalg.eigvalsh(m)[0] for m in (rho, q.partial_transpose(rho)))
        expected = low - verify._START_OFFSET
        assert abs(info.value.diagnostics["t"] - expected) <= 1e-12

    def test_zero_visibilities_strictly_interior(self):
        report = verify.sdp_feasible(verify.build_constraints(0.0, 0.0, EFF))
        assert report.feasible
        assert report.margin == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_determinism(self):
        cs = verify.build_constraints(0.9, 0.42, EFF)
        r1 = verify.sdp_feasible(cs)
        r2 = verify.sdp_feasible(cs)
        assert r1.margin == r2.margin
        assert r1.iterations == r2.iterations

    def test_witness_invariant_on_feasible_sweep(self):
        for v_xy in (0.0, 0.1, 0.2, 0.3):
            cs = verify.build_constraints(0.9, v_xy, EFF)
            report = verify.sdp_feasible(cs)
            assert report.feasible
            assert np.max(np.abs(residuals(cs, report.witness))) < 1e-8
            assert q.min_eigenvalue(report.witness) >= -1e-8

    def test_infeasible_stable_under_tighter_tolerance(self):
        cs = verify.build_constraints(0.952, 0.804, EFF)
        assert not verify.sdp_feasible(cs, tol=1e-7).feasible
        assert not verify.sdp_feasible(cs, tol=1e-8).feasible

    def test_qubit_mass_does_not_change_verdicts(self):
        for mass in (0.3, 2.0 / 3.0, 0.9):
            infeasible = verify.sdp_feasible(
                verify.build_constraints(0.952, 0.804, EFF, qubit_mass=mass)
            )
            feasible = verify.sdp_feasible(
                verify.build_constraints(0.9, 0.3, EFF, qubit_mass=mass)
            )
            assert not infeasible.feasible
            assert feasible.feasible


def test_schur_factor_matches_trace_and_einsum():
    # U^T U = H, H_kl = sum_b Tr(A_bk S_b^-1 A_bl Z_b), with S_b and Z_b
    # positive definite and A_bk symmetric, all real, for the 17
    # coordinates of w.
    rng = np.random.default_rng(7)
    g = rng.normal(size=(2, 2, 6, 6))
    s, z = g @ g.transpose(0, 1, 3, 2) + np.eye(6)
    h = rng.normal(size=(2, 17, 6, 6))
    a = h + h.transpose(0, 1, 3, 2)
    l_inv = np.linalg.inv(np.linalg.cholesky(s))
    u = verify._schur_factor(l_inv, np.linalg.cholesky(z), a)
    ref = np.einsum("bkij,bjm,blmn,bni->kl", a, np.linalg.inv(s), a, z, optimize=True)
    assert np.array_equal(u, np.triu(u))
    assert np.linalg.norm(u.T @ u - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(5))
def test_lapack_kernels_match_numpy_linalg(seed):
    # sdp_feasible calls numpy.linalg's own LAPACK gufuncs through _lapack;
    # on stacks of the shapes the solve uses, each gives the public
    # wrapper's bits.
    kernels = verify._umath_linalg
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 6, 6))
    spd = g @ g.transpose(0, 2, 1) + np.eye(6)
    assert np.array_equal(
        verify._lapack(kernels.cholesky_lo, spd), np.linalg.cholesky(spd)
    )
    assert np.array_equal(verify._lapack(kernels.inv, spd), np.linalg.inv(spd))
    m = rng.normal(size=(17, 72)).T  # laid out as _schur_factor's
    r = m.copy(order="K")  # qr_r_raw overwrites its input with R
    verify._lapack(kernels.qr_r_raw, r)
    assert np.array_equal(np.triu(r[:17]), np.linalg.qr(m, mode="r"))
    u = np.triu(rng.normal(size=(17, 17))) + 5 * np.eye(17)
    assert np.array_equal(verify._lapack(kernels.inv, u), np.linalg.inv(u))
    h = rng.normal(size=(2, 6, 6)) + 1j * rng.normal(size=(2, 6, 6))
    h = h + h.conj().transpose(0, 2, 1)
    assert np.array_equal(
        verify._lapack(kernels.eigvalsh_lo, h), np.linalg.eigvalsh(h)
    )
    rows = rng.normal(size=(5, 21))
    for mine, public in zip(verify._lapack(kernels.svd_f, rows), np.linalg.svd(rows)):
        assert np.array_equal(mine, public)


def test_lapack_failure_raises_linalg_error():
    # A block that is not positive definite raises as np.linalg.cholesky
    # does, with no RuntimeWarning from the NaNs LAPACK leaves behind.
    stack = np.stack([np.eye(6), -np.eye(6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            verify._lapack(verify._umath_linalg.cholesky_lo, stack)


def test_steps_full_and_fractional():
    # With S = Z = I (L^-1 = I), a direction that stays inside the cone
    # takes the full step 1, one that leaves it at lambda_min = -x takes
    # _STEP_FRACTION / x, capped at 1.
    eye = np.stack([np.eye(6)] * 4)
    assert verify._steps(eye, 0.5 * eye) == [1.0, 1.0]
    assert verify._steps(eye, -eye) == [0.98, 0.98]
    d = np.concatenate([0.25 * eye[:2], -2.0 * eye[2:]])
    assert verify._steps(eye, d) == [1.0, 0.49]
    assert verify._steps(eye, -0.5 * eye) == [1.0, 1.0]


def test_complex_constraint_operator_refused():
    # A nonzero Bob phase makes the program complex; the real solver
    # refuses it instead of dropping the imaginary part.
    cs = verify.build_constraints(0.9, 0.3, EFF)
    mid = bob_povm(EFF, relative_phase=0.3)["X"]
    m_d, _ = alice_projectors([1.0, 0.0, 0.0])
    operators = [*cs.operators[:3], q.tensor(m_d, mid), *cs.operators[4:]]
    with pytest.raises(ValueError, match="real"):
        dataclasses.replace(cs, operators=operators)


def test_targets_one_per_operator():
    cs = verify.build_constraints(0.9, 0.3, EFF)
    with pytest.raises(ValueError, match="^targets must be one per operator"):
        dataclasses.replace(cs, targets=cs.targets[:-1])


def test_inconsistent_constraints_refused():
    cs = verify.ConstraintSet([np.eye(6), np.eye(6)], [1.0, 2.0])
    with pytest.raises(verify.NonConvergenceError, match="inconsistent"):
        verify.sdp_feasible(cs)


@settings(max_examples=30, deadline=None)
@given(
    point=hst.sampled_from([(0.952, 0.804), (0.9, 0.3), (0.952, 0.3066)]),
    exponents=hst.lists(
        hst.floats(min_value=-100, max_value=100), min_size=3, max_size=3
    ),
)
def test_verdict_independent_of_row_scale(point, exponents):
    # A visibility row Tr[rho (D - v S)] = 0 states the same constraint at
    # any nonzero scale, so scaling its operator moves neither the verdict
    # nor the margin.
    cs = verify.build_constraints(*point, EFF)
    scaled = [op * 10.0**u for op, u in zip(cs.operators[1:4], exponents)]
    operators = [cs.operators[0], *scaled, cs.operators[4]]
    report = verify.sdp_feasible(cs)
    other = verify.sdp_feasible(dataclasses.replace(cs, operators=operators))
    assert other.verdict == report.verdict
    assert abs(other.margin - report.margin) <= 1e-9


def test_newton_system_is_17_by_17(monkeypatch):
    # 21 real symmetric coordinates less 5 constraints, plus t: the Schur
    # matrix of every iteration is 17 x 17 and real.
    factors = set()
    factor = verify._schur_factor

    def record(l_inv, r, a):
        u = factor(l_inv, r, a)
        factors.add((u.shape, u.dtype))
        return u

    monkeypatch.setattr(verify, "_schur_factor", record)
    for v_xy in (0.3, 0.804):
        verify.sdp_feasible(verify.build_constraints(0.952, v_xy, EFF))
    assert factors == {((17, 17), np.dtype(float))}


@pytest.mark.parametrize("v_z, v_xy", [(0.952, 0.804), (0.9, 0.3)])
def test_dispatches_per_iteration(monkeypatch, v_z, v_xy):
    # The blocks (S_1, S_2, Z_1, Z_2) share one Cholesky call per iteration
    # and each primal/dual step pair one eigensolve; the start t and the
    # final margins take one eigensolve each.
    calls = Counter()
    lapack = verify._lapack

    def counted(kernel, a):
        calls[kernel.__name__] += 1
        return lapack(kernel, a)

    monkeypatch.setattr(verify, "_lapack", counted)
    report = verify.sdp_feasible(verify.build_constraints(v_z, v_xy, EFF))
    assert report.iterations > 0
    assert calls["eigvalsh_lo"] <= 2 * report.iterations + 2
    assert 0 < calls["cholesky_lo"] <= report.iterations


def test_operators_stored_real():
    cs = verify.build_constraints(0.952, 0.804, EFF)
    assert isinstance(cs.operators, np.ndarray)
    assert (cs.operators.shape, cs.operators.dtype) == ((5, 6, 6), np.dtype(float))


def test_solver_sweep_matches_reference():
    # The verdicts, margins and thresholds of tests/solver_sweep.py, recorded
    # with the log-det barrier solver that the primal-dual one replaced: a
    # solver change that moves a verdict or a threshold fails here.  The
    # iteration totals pin the start near the cone: from t = lambda_min - 1
    # the solves took 2016 iterations and the scans 1528.  The final Z meets
    # A^T Z = c to 1e-9; with a formed H^-1 it drifted off by up to 0.198.
    reference = json.loads(
        Path(__file__).with_name("data").joinpath("solver_sweep_reference.json")
        .read_text()
    )
    solve_iterations = 0
    for label, v_z, v_xy, eta_l, eta_s in solver_sweep.points():
        cs = verify.build_constraints(v_z, v_xy, AnalyzerEfficiencies(eta_l, eta_s))
        report = verify.sdp_feasible(cs)
        expected = reference["solves"][label]
        assert report.verdict == expected["verdict"], label
        assert abs(report.margin - float(expected["margin"])) <= 5e-8, label
        assert report.gap <= 1e-8, label
        assert report.dual_residual <= 1e-9, label
        solve_iterations += report.iterations
    assert solve_iterations <= 1800
    paper = verify.sdp_feasible(verify.build_constraints(0.952, 0.804, EFF))
    assert paper.iterations <= 12
    scan_iterations = 0
    for eta_l, eta_s in solver_sweep.SCAN_EFFICIENCIES:
        points = verify.boundary_scan(
            solver_sweep.GRID, AnalyzerEfficiencies(eta_l, eta_s)
        )
        thresholds = {repr(p.v_z): repr(p.threshold) for p in points}
        assert thresholds == reference["scans"][f"eff {eta_l} {eta_s}"]["thresholds"]
        scan_iterations += sum(p.iterations for p in points)
    assert scan_iterations <= 1350


class TestAlternatingProjections:
    @pytest.mark.parametrize(
        "v_z, v_xy, expected",
        [(0.952, 0.804, False), (1.0, 0.0, True), (0.0, 0.0, True), (0.9, 0.3, True)],
    )
    def test_agreement_with_margin_solver(self, v_z, v_xy, expected):
        cs = verify.build_constraints(v_z, v_xy, EFF)
        assert verify.sdp_feasible(cs).feasible is expected
        feasible, _, _ = alternating_projections(cs)
        assert feasible is expected


class TestPptOracle:
    def werner(self, p):
        bell = st.hybrid_bell_state().matrix
        return q.DensityMatrix(
            p * bell + (1 - p) * np.eye(4, dtype=complex) / 4.0, 2, 2
        )

    @pytest.mark.parametrize(
        "p, expected",
        [(0.2, False), (1 / 3 - 0.01, False), (1 / 3 + 0.01, True), (0.9, True)],
    )
    def test_werner_transition(self, p, expected):
        state = st.embed_2x3(self.werner(p), 1.0)
        assert verify.ppt_oracle(state) is expected
        # Closed form of the smallest partial-transpose eigenvalue in
        # the qubit sector is (1 - 3p)/4; cross-check with the Jacobi
        # eigensolver oracle.
        pt = self.werner(p).partial_transpose()
        assert jacobi_eigvalsh(pt)[0] == pytest.approx((1 - 3 * p) / 4.0, abs=1e-9)

    def test_transition_located_by_bisection(self):
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if verify.ppt_oracle(st.embed_2x3(self.werner(mid), 1.0)):
                hi = mid
            else:
                lo = mid
        assert hi == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_product_states(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            a = rng.dirichlet([1, 1])
            b = rng.dirichlet([1, 1, 1])
            rho = q.DensityMatrix(q.tensor(np.diag(a), np.diag(b)), 2, 3)
            assert verify.ppt_oracle(rho) is False

    def test_pure_bell_state(self):
        state = st.embed_2x3(st.hybrid_bell_state(), 1.0)
        assert verify.ppt_oracle(state) is True
        min_eig = q.min_eigenvalue(state.partial_transpose())
        assert min_eig == pytest.approx(-0.5, abs=1e-10)


def fake_report(margin, tol=verify.DEFAULT_TOL):
    return verify.FeasibilityReport(
        feasible=margin >= -tol, margin=margin, iterations=1, gap=0.0,
        dual_residual=0.0, witness=None,
    )


class TestBoundaryScan:
    def test_infeasible_start_is_a_solver_fault(self, monkeypatch):
        # v_xy = 0 is always PPT-feasible; a solver that says otherwise is
        # reported as not converged rather than scanned.
        monkeypatch.setattr(verify, "sdp_feasible", lambda cs, tol: fake_report(-1.0))
        with pytest.raises(verify.NonConvergenceError,
                           match="^v_xy = 0 must be feasible at v_z = 0.9; margin -1.0$"):
            verify.boundary_scan([0.9], EFF)

    def test_midpoint_safeguard_bounds_solves(self, monkeypatch):
        # A margin that jumps from +1 to just below -tol at v_xy = 0.3 keeps
        # regula falsi next to the infeasible end; the midpoint steps keep the
        # scan within twice the solves of bisection on the 2^-20 grid.
        tol, n = verify.DEFAULT_TOL, 2**20
        solves = []

        def step(v_xy, tol):
            solves.append(v_xy)
            return fake_report(1.0 if v_xy < 0.3 else -tol * (1 + 1e-9), tol)

        monkeypatch.setattr(verify, "build_constraints", lambda v_z, v_xy, *a: v_xy)
        monkeypatch.setattr(verify, "sdp_feasible", step)
        (point,) = verify.boundary_scan([0.9], EFF, tol, resolution=1.0 / n)
        assert point.threshold == math.ceil(0.3 * n) / n
        assert len(solves) <= 2 * (20 + 2)

    def test_measured_point_above_bound(self):
        points = verify.boundary_scan([0.952], EFF)
        assert points[0].bracketed
        assert points[0].threshold < 0.804

    def test_monotone_and_bracketed(self):
        points = verify.boundary_scan([0.8, 0.9, 1.0], EFF)
        thresholds = [p.threshold for p in points]
        assert all(
            thresholds[i] >= thresholds[i + 1] - 1e-9
            for i in range(len(thresholds) - 1)
        )
        assert all(p.bracketed for p in points)

    @pytest.mark.parametrize("eta_l, eta_s", [(0.9, 0.9), (0.8, 0.5)])
    def test_threshold_is_first_grid_point_above_circle(self, eta_l, eta_s):
        # v_z = 1 is left out: there the margin just above the circle is
        # inside the tol band, so tol rather than the circle sets the
        # threshold.
        resolution = 1e-3
        points = verify.boundary_scan(
            [0.5, 0.7, 0.9, 0.952], AnalyzerEfficiencies(eta_l, eta_s),
            resolution=resolution,
        )
        for point in points:
            circle = boundary_closed_form(point.v_z)
            assert point.threshold - resolution < circle <= point.threshold

    def test_bracketing_matches_bisection_with_fewer_solves(self, monkeypatch):
        # The criterion-08 grid and efficiency pairs, plus v_z = 0 (unbracketed),
        # -0.6 and 0.99, and qubit mass 0.3: same threshold, margin and
        # bracketing as plain bisection, never more solves per point, and
        # at most 7 solves per point on average over the criterion-08 grid.
        solves, reports = [], {}
        solve = verify.sdp_feasible

        def counted(cs, tol=verify.DEFAULT_TOL):
            # Every call counts; a repeat of a (deterministic) solve is
            # served from the cache to keep the test short.
            solves.append(cs)
            key = (np.array(cs.operators).tobytes(), tuple(cs.targets), tol)
            if key not in reports:
                reports[key] = solve(cs, tol=tol)
            return reports[key]

        monkeypatch.setattr(verify, "sdp_feasible", counted)
        criterion_08 = [0.5, 0.7, 0.8, 0.9, 0.952, 1.0]
        cases = [
            (v_z, (eta_l, eta_s), verify.DEFAULT_QUBIT_MASS)
            for eta_l, eta_s in [(0.9, 0.9), (0.45, 0.45), (0.8, 0.5), (0.5, 0.8)]
            for v_z in criterion_08 + [0.0, -0.6, 0.99]
        ] + [(0.9, (0.9, 0.9), 0.3)]
        grid_solves = []
        for v_z, eta, mass in cases:
            eff = AnalyzerEfficiencies(*eta)
            solves.clear()
            (point,) = verify.boundary_scan([v_z], eff, qubit_mass=mass)
            n_scan = len(solves)
            solves.clear()
            (ref,) = boundary_scan_bisect([v_z], eff, qubit_mass=mass)
            assert (point.threshold, point.margin, point.bracketed) == (
                ref.threshold, ref.margin, ref.bracketed
            ), (v_z, eta, mass)
            assert n_scan <= len(solves), (v_z, eta, mass)
            if v_z in criterion_08 and mass == verify.DEFAULT_QUBIT_MASS:
                grid_solves.append(n_scan)
        assert sum(grid_solves) <= 7 * len(grid_solves)

    def test_reference_thresholds(self):
        # The classical-boundary table the certify benchmark checks against.
        root = Path(__file__).resolve().parents[1]
        reference = json.loads((root / "benchmarks/boundary_reference.json").read_text())
        v_z_values = [v_z for v_z, _ in reference["thresholds"]]
        points = verify.boundary_scan(
            v_z_values,
            AnalyzerEfficiencies(reference["eta"], reference["eta"]),
            resolution=reference["resolution"],
        )
        assert [[p.v_z, p.threshold] for p in points] == reference["thresholds"]

    @pytest.mark.parametrize("resolution", [1.0, 0.3, 2.0**-4])
    def test_grid_step_matches_bisection(self, resolution):
        # The grid step is the largest power of two not above resolution.
        point = verify.boundary_scan([0.9], EFF, resolution=resolution)[0]
        ref = boundary_scan_bisect([0.9], EFF, resolution=resolution)[0]
        assert (point.threshold, point.margin) == (ref.threshold, ref.margin)

    def test_threshold_agreement_on_grid(self):
        # The bisection threshold is bracketed: feasible just below it,
        # infeasible just above it.
        for point in verify.boundary_scan([0.85, 0.9, 0.952], EFF):
            v_z, thr = point.v_z, point.threshold
            cs_lo = verify.build_constraints(v_z, thr - 2e-3, EFF)
            cs_hi = verify.build_constraints(v_z, thr + 1e-3, EFF)
            assert verify.sdp_feasible(cs_lo).feasible
            assert not verify.sdp_feasible(cs_hi).feasible
