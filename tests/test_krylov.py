import tracemalloc

import numpy as np
import pytest

from fftddm import bench, ddm, krylov, rectsolver
from fftddm.errors import ConvergenceError, ValidationError
from fftddm.geometry import CompositeDomain, GridField

from conftest import make_rect
from test_bench import dirichlet_cross
from test_ddm import (D, N, LINE_OPERATOR_CASES, dense_folded_operator,
                      dense_schur, dense_spectral, full_arm_schur,
                      random_star, star_composite, star_mixed)


class TestGmresConfig:
    @pytest.mark.parametrize("kwargs", [
        {"m": 0}, {"tol": 0.0}, {"tol": -1e-8}, {"max_restarts": 0},
        {"preconditioner": "ilu"}, {"preconditioner": "jacobi"}, {"tol": 1.0},
        {"m": 2.5}, {"max_restarts": 2.5}, {"m": True}, {"max_restarts": True},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            krylov.GmresConfig(**kwargs)

    def test_defaults(self):
        cfg = krylov.GmresConfig()
        assert cfg.m == 80 and cfg.preconditioner == "fft"


class TestGmres:
    def test_identity_operator_one_iteration(self):
        rhs = np.array([3.0, -1.0, 2.0])
        x, rep = krylov.gmres(lambda v: v, rhs)
        assert rep.converged and rep.iterations == 1
        np.testing.assert_allclose(x, rhs)

    def test_zero_rhs_zero_iterations(self):
        x, rep = krylov.gmres(lambda v: 2 * v, np.zeros(4))
        assert rep.converged and rep.iterations == 0
        assert not x.any()

    def test_dense_20x20_matches_lu(self, rng):
        A = rng.standard_normal((20, 20)) + 6 * np.eye(20)
        b = rng.standard_normal(20)
        cfg = krylov.GmresConfig(m=20, tol=1e-11)
        x, rep = krylov.gmres(lambda v: A @ v, b, cfg=cfg)
        assert rep.converged
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-10)

    def test_full_subspace_exact_in_at_most_n_iterations(self, rng):
        N = 12
        A = rng.standard_normal((N, N)) + 4 * np.eye(N)
        b = rng.standard_normal(N)
        cfg = krylov.GmresConfig(m=N, tol=1e-13)
        x, rep = krylov.gmres(lambda v: A @ v, b, cfg=cfg)
        assert rep.iterations <= N
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_residual_history_monotone_within_cycle(self, rng):
        N = 30
        A = rng.standard_normal((N, N)) + 5 * np.eye(N)
        b = rng.standard_normal(N)
        cfg = krylov.GmresConfig(m=N, tol=1e-12)
        _, rep = krylov.gmres(lambda v: A @ v, b, cfg=cfg)
        hist = rep.residual_history
        assert np.all(np.diff(hist) <= 1e-12)

    def test_restarting_still_converges(self, rng):
        N = 25
        A = rng.standard_normal((N, N)) + 6 * np.eye(N)
        b = rng.standard_normal(N)
        cfg = krylov.GmresConfig(m=4, tol=1e-10, max_restarts=100)
        x, rep = krylov.gmres(lambda v: A @ v, b, cfg=cfg)
        assert rep.converged
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_nonconvergence_raises_with_history(self, rng):
        N = 8
        A = rng.standard_normal((N, N)) + 4 * np.eye(N)
        b = rng.standard_normal(N)
        cfg = krylov.GmresConfig(m=2, tol=1e-15, max_restarts=3)
        calls = []

        def operator(v):
            calls.append(1)
            return A @ v

        def check(x):
            return np.linalg.norm(b - A @ x) / np.linalg.norm(b)

        with pytest.raises(ConvergenceError) as excinfo:
            krylov.gmres(operator, b, cfg=cfg, check=check)
        rep = excinfo.value.report
        assert not rep.converged
        assert rep.residual_history.size == 1 + rep.iterations == 7
        # one apply per Arnoldi step and one residual per cycle, no more
        assert len(calls) == rep.iterations + 3
        # the estimate never met tol, so only the solution was checked
        assert rep.residual_checks == ()
        assert rep.true_relative_residual == check(excinfo.value.solution)

    def test_operator_takes_one_argument_without_a_dual(self, rng):
        # only the dual hands the operator an expansion; plain GMRES, with
        # restarts and checks, calls it on the vector alone
        A = rng.standard_normal((30, 30)) + 8 * np.eye(30)
        b = rng.standard_normal(30)
        arities = []

        def operator(*args):
            arities.append(len(args))
            return A @ args[0]

        def check(x):
            return np.linalg.norm(b - A @ x) / np.linalg.norm(b)

        cfg = krylov.GmresConfig(m=4, tol=1e-10)
        _, rep = krylov.gmres(operator, b, cfg=cfg, check=check)
        assert rep.converged and rep.iterations > cfg.m
        assert arities == [1] * (rep.iterations
                                 + (rep.iterations - 1) // cfg.m)

    @pytest.mark.parametrize("finite_applies", [0, 4])
    def test_nonfinite_residual_stops_at_once(self, finite_applies, rng):
        # an operator whose output turns NaN: the first step whose estimate
        # is not finite ends the solve, with no further restarts
        A = rng.standard_normal((30, 30)) + 6 * np.eye(30)
        b = rng.standard_normal(30)
        calls = []

        def operator(v):
            calls.append(1)
            return A @ v if len(calls) <= finite_applies else np.nan * v

        cfg = krylov.GmresConfig(m=20, tol=1e-12)
        with pytest.raises(ConvergenceError) as err:
            krylov.gmres(operator, b, cfg=cfg)
        rep = err.value.report
        assert rep.iterations == finite_applies + 1
        assert np.isnan(rep.residual_history[-1])
        assert len(calls) == rep.iterations + 1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_rhs_stops_at_once(self, value):
        b = np.ones(12)
        b[5] = value
        with pytest.raises(ConvergenceError) as err:
            krylov.gmres(lambda v: 2.0 * v, b, cfg=krylov.GmresConfig(m=4))
        assert err.value.report.iterations == 1

    def test_nonfinite_solution_never_converges(self):
        # A v = 0 breaks down at once with an estimate of 0, but the
        # least-squares triangle is singular and the iterate NaN
        with pytest.raises(ConvergenceError,
                           match="relative residual nan") as err:
            krylov.gmres(lambda v: 0 * v, np.ones(5))
        rep = err.value.report
        assert not rep.converged and np.isnan(rep.true_relative_residual)
        assert np.isnan(err.value.solution).all()


class TestOrthogonalization:
    @pytest.mark.parametrize("kn,iters", [(8, 14), (16, 18), (32, 25)])
    def test_fft_iteration_counts_on_cross(self, kn, iters):
        cfg = krylov.GmresConfig(m=80, tol=1e-7)
        _, rep = bench.solve_case(bench.build_cross(k_n=kn), cfg)
        assert rep.converged and rep.iterations == iters

    def test_grcar_restarted(self, rng):
        N, m = 300, 30
        A = np.eye(N) - np.eye(N, k=-1) + sum(np.eye(N, k=j)
                                              for j in (1, 2, 3))
        b = rng.standard_normal(N)
        cfg = krylov.GmresConfig(m=m, tol=1e-12, max_restarts=100)
        x, rep = krylov.gmres(lambda v: A @ v, b, cfg=cfg)
        assert rep.converged and rep.iterations > m
        want = np.linalg.solve(A, b)
        assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()
        hist = rep.residual_history[1:]
        for start in range(0, hist.size, m):
            assert np.all(np.diff(hist[start:start + m]) <= 0.0)

    def test_basis_orthonormal_to_working_precision(self, rng):
        # eigenvalues over eight decades: a single Gram-Schmidt pass,
        # classical or modified, leaves |V V^T - I| at 2e-14 to 4e-14 here
        N, m = 300, 30
        A = np.diag(np.logspace(0, 8, N))
        V = self.captured_basis(lambda v: A @ v, rng.standard_normal(N), m)
        assert np.abs(V @ V.T - np.eye(m)).max() <= m * np.finfo(float).eps

    @staticmethod
    def captured_basis(operator, rhs, m, dual=None):
        """The first m Arnoldi vectors of one GMRES(m) cycle on `operator`,
        taken as the operator receives them (coordinates, given a `dual`);
        the cycle cannot converge."""
        basis = []

        def recorded(v, *expanded):
            basis.append(v.copy())
            return operator(v, *expanded)

        cfg = krylov.GmresConfig(m=m, tol=1e-15, max_restarts=1)
        with pytest.raises(ConvergenceError):
            krylov.gmres(recorded, rhs, cfg=cfg, dual=dual)
        return np.array(basis[:m])

    def test_fft_basis_orthonormal_on_the_cross(self):
        # the second Gram-Schmidt pass runs on a few of these 14 steps; the
        # basis is kept as interface coordinates, orthonormal once expanded
        case = bench.build_cross(k_n=8)
        op = ddm.build_schur_operator(case.composite)
        f = ddm.eliminate_arms(op, bench.rhs_fields(case)).values
        m = 14
        apply, rhs, dual, expand = op.coordinates(op.spectral_rhs(f))
        C = self.captured_basis(apply, rhs, m, dual)
        assert C.shape == (m, 1 + 2 * 32 + 2 * 14)
        V = np.array([expand(c) for c in C])
        assert np.abs(V @ V.T - np.eye(m)).max() <= m * np.finfo(float).eps

    def test_second_pass_runs_when_the_first_cancels(self, rng):
        # A v_k is mostly (p . v_k) v_0, with a new direction 1e-6 as long:
        # the classical pass cancels nearly all of w, and only the DGKS
        # second pass keeps the basis orthonormal (one pass misses by 7e8)
        N, m = 200, 20
        b, p = rng.standard_normal(N), rng.standard_normal(N)
        A = 1e-6 * rng.standard_normal((N, N)) / np.sqrt(N) + np.outer(
            b / np.linalg.norm(b), p / np.linalg.norm(p))
        V = self.captured_basis(lambda v: A @ v, b, m)
        assert np.abs(V @ V.T - np.eye(m)).max() <= m * np.finfo(float).eps

    def test_grcar_basis_orthonormal(self, rng):
        # the Grcar matrix is far from normal: v_{k-1} and v_k do not carry
        # most of A v_k, so the local steps leave much for the classical pass
        N, m = 300, 30
        A = np.eye(N) - np.eye(N, k=-1) + sum(np.eye(N, k=j)
                                              for j in (1, 2, 3))
        V = self.captured_basis(lambda v: A @ v, rng.standard_normal(N), m)
        assert np.abs(V @ V.T - np.eye(m)).max() <= m * np.finfo(float).eps


@pytest.fixture(scope="module")
def cross2():
    comp = bench.build_cross(k_n=2).composite
    return comp, ddm.build_schur_operator(comp)


class TestSolveCoupled:
    def test_zero_rhs(self, cross2):
        _, op = cross2
        p, rep = krylov.solve_coupled(
            op, GridField(op.coupled_id, np.zeros(op.size)))
        assert rep.converged and rep.iterations == 0
        assert not p.values.any()
        assert rep.true_relative_residual == 0.0

    @pytest.mark.parametrize("mode", krylov.PRECONDITIONERS)
    def test_all_modes_match_dense(self, cross2, mode, rng):
        comp, op = cross2
        A2, S = dense_schur(comp, op.coupled_id)
        f = rng.standard_normal(op.size)
        want = np.linalg.solve(A2 - S, f)
        cfg = krylov.GmresConfig(tol=1e-12, preconditioner=mode)
        p, rep = krylov.solve_coupled(op, GridField(op.coupled_id, f), cfg)
        assert rep.converged
        np.testing.assert_allclose(p.values, want, atol=1e-8)

    @pytest.mark.parametrize("mode", krylov.PRECONDITIONERS)
    @pytest.mark.parametrize("sid,extra", [(99, 0), (None, 1), (None, -1)],
                             ids=["other-id", "too-long", "too-short"])
    def test_wrong_subdomain_rejected(self, cross2, sid, extra, mode):
        _, op = cross2
        f = GridField(op.coupled_id if sid is None else sid,
                      np.ones(op.size + extra))
        cfg = krylov.GmresConfig(preconditioner=mode)
        with pytest.raises(ValidationError,
                           match=f"subdomain {op.coupled_id}"):
            krylov.solve_coupled(op, f, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_rhs_rejected(self, value):
        # such a right-hand side would run every restart before failing
        op = ddm.build_schur_operator(bench.build_cross(k_n=4).composite)
        f = np.ones(op.size)
        f[7] = value
        with pytest.raises(ValidationError, match="is not finite"):
            krylov.solve_coupled(op, GridField(op.coupled_id, f))

    @pytest.mark.parametrize("mode", krylov.PRECONDITIONERS)
    def test_true_residual_logged(self, cross2, mode, rng):
        # both modes report the value of the check that passed
        _, op = cross2
        f = rng.standard_normal(op.size)
        cfg = krylov.GmresConfig(tol=1e-11, preconditioner=mode)
        _, rep = krylov.solve_coupled(op, GridField(op.coupled_id, f), cfg)
        assert rep.true_relative_residual <= cfg.tol
        assert rep.true_relative_residual == rep.residual_checks[-1][1]

    @pytest.mark.parametrize("kn", [8, 16])
    def test_fft_iterations_nonincreasing_in_m(self, kn):
        comp = bench.build_cross(k_n=kn).composite
        op = ddm.build_schur_operator(comp)
        rng = np.random.default_rng(kn)
        f = GridField(op.coupled_id, rng.standard_normal(op.size))
        counts = []
        for m in (3, 10, 40, 80):
            cfg = krylov.GmresConfig(m=m, tol=1e-8, max_restarts=500)
            _, rep = krylov.solve_coupled(op, f, cfg)
            counts.append(rep.iterations)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def dense_fft_gmres(comp, op, f, cfg):
    """fft GMRES on the dense oracle's folded spectral system; returns
    (nodal solution, report) or raises ConvergenceError with the nodal
    solution attached."""
    Q, T, S_hat, D = dense_spectral(comp, op)
    M = dense_folded_operator(comp, op)
    f_hat = Q.T @ f

    def nodal(y):
        return Q @ np.linalg.solve(T - D, T @ y)

    def check(y):
        x = np.linalg.solve(T - D, T @ y)
        return np.linalg.norm(f_hat - (T - S_hat) @ x) / np.linalg.norm(f)

    try:
        y, rep = krylov.gmres(lambda v: M @ v, np.linalg.solve(T, f_hat),
                              cfg=cfg, check=check)
    except ConvergenceError as err:
        err.solution = nodal(err.solution)
        raise
    return nodal(y), rep


class TestSpectralGmres:
    @pytest.mark.parametrize("comp,m", [
        pytest.param(bench.build_cross(k_n=8).composite, 80, id="cross-k8"),
        pytest.param(star_mixed(8), 10, id="star-k8-restarted"),
    ])
    def test_history_matches_dense_reference(self, comp, m):
        op = ddm.build_schur_operator(comp)
        f = np.random.default_rng(3).standard_normal(op.size)
        cfg = krylov.GmresConfig(m=m, tol=1e-10, max_restarts=50)
        p, rep = krylov.solve_coupled(op, GridField(op.coupled_id, f), cfg)
        want, ref = dense_fft_gmres(comp, op, f, cfg)
        assert rep.iterations == ref.iterations
        # the two operators agree to rounding, so the histories agree to
        # rounding of the unit initial residual, not to a relative tolerance
        np.testing.assert_allclose(rep.residual_history, ref.residual_history,
                                   rtol=1e-6, atol=1e-13)
        assert [i for i, _ in rep.residual_checks] == [
            i for i, _ in ref.residual_checks]
        assert np.abs(p.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_convergence_error_carries_nodal_solution(self, cross2, rng):
        comp, op = cross2
        f = rng.standard_normal(op.size)
        cfg = krylov.GmresConfig(m=2, tol=1e-15, max_restarts=1)
        with pytest.raises(ConvergenceError) as got:
            krylov.solve_coupled(op, GridField(op.coupled_id, f), cfg)
        with pytest.raises(ConvergenceError) as want:
            dense_fft_gmres(comp, op, f, cfg)
        np.testing.assert_allclose(got.value.solution, want.value.solution,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("precond", ["fft", "identity"])
    def test_convergence_error_reports_nodal_residuals(self, precond):
        case = bench.build_cross(k_n=8)
        op = ddm.build_schur_operator(case.composite)
        f = ddm.eliminate_arms(op, bench.rhs_fields(case))
        cfg = krylov.GmresConfig(m=3, max_restarts=2, preconditioner=precond)
        with pytest.raises(ConvergenceError) as err:
            krylov.solve_coupled(op, f, cfg)
        p = err.value.solution
        res = np.linalg.norm(rectsolver.apply_rect_operator(
            op.center_plan.subdomain, p) - full_arm_schur(op, p) - f.values)
        rep = err.value.report
        assert rep.true_relative_residual == pytest.approx(
            res / np.linalg.norm(f.values), rel=1e-12)


class TestTrueResidualCheck:
    def test_check_tightens_until_the_true_residual_meets_tol(self, rng):
        # a check reading 100 times GMRES's own residual: the first check
        # fails, and the tightened inner tolerance carries the cycle on
        N = 80
        A = np.diag(np.linspace(1.0, 10.0, N))
        b = rng.standard_normal(N)
        tol = 1e-8
        calls = []

        def check(x):
            calls.append(x.copy())
            return 100.0 * np.linalg.norm(b - A @ x) / np.linalg.norm(b)

        applies = []

        def operator(v):
            applies.append(1)
            return A @ v

        x, rep = krylov.gmres(operator, b,
                              cfg=krylov.GmresConfig(m=N, tol=tol),
                              check=check)
        assert rep.converged
        # the passing check spares recomputing GMRES's own residual
        assert len(applies) == rep.iterations
        assert np.linalg.norm(b - A @ x) <= tol / 100 * np.linalg.norm(b)
        values = [v for _, v in rep.residual_checks]
        assert rep.true_relative_residual == values[-1]
        assert len(values) == len(calls) >= 2
        assert values[-1] <= tol < values[0]
        its = [i for i, _ in rep.residual_checks]
        assert its == sorted(its) and its[-1] == rep.iterations < N
        np.testing.assert_array_equal(calls[-1], x)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_check_ends_the_solve(self, value, rng):
        # a check that is not finite cannot tighten the inner tolerance, so
        # the first one ends the solve with no further apply
        A = np.diag(np.linspace(1.0, 10.0, 40))
        b = rng.standard_normal(40)
        applies, calls = [], []

        def operator(v):
            applies.append(1)
            return A @ v

        def check(x):
            calls.append(x.copy())
            return value

        cfg = krylov.GmresConfig(m=10, tol=1e-8)
        with pytest.raises(ConvergenceError) as err:
            krylov.gmres(operator, b, cfg=cfg, check=check)
        rep = err.value.report
        assert len(calls) == len(rep.residual_checks) == 1
        assert rep.residual_checks[0][0] == rep.iterations
        # one apply per step and one residual per cycle ended before it
        assert len(applies) == rep.iterations + (rep.iterations - 1) // cfg.m
        np.testing.assert_array_equal(err.value.solution, calls[0])

    def test_failed_checks_are_reported(self, rng):
        A = rng.standard_normal((10, 10)) + 5 * np.eye(10)
        b = rng.standard_normal(10)
        cfg = krylov.GmresConfig(m=10, tol=1e-8, max_restarts=2)
        with pytest.raises(ConvergenceError) as err:
            krylov.gmres(lambda v: A @ v, b, cfg=cfg, check=lambda x: 1.0)
        rep = err.value.report
        assert not rep.converged and rep.residual_checks
        assert all(v == 1.0 for _, v in rep.residual_checks)

    @pytest.mark.parametrize("kn,iters,checked", [
        (8, 14, [13, 14]), (16, 18, [17, 18]), (32, 25, [22, 25]),
        (64, 35, [30, 34, 35]),
    ])
    def test_cross_meets_tol_in_few_checks(self, kn, iters, checked):
        cfg = krylov.GmresConfig(m=80, tol=1e-7)
        _, rep = bench.solve_case(bench.build_cross(k_n=kn), cfg)
        assert rep.converged and rep.true_relative_residual <= cfg.tol
        assert rep.iterations == iters
        assert [i for i, _ in rep.residual_checks] == checked
        assert rep.residual_checks[-1][1] <= cfg.tol

    def test_restarted_star_check_schedule(self):
        # the check at 12, in the second cycle, fails and tightens the
        # inner tolerance; the one at 13 passes
        op = ddm.build_schur_operator(star_mixed(16))
        f = np.random.default_rng(0).standard_normal(op.size)
        cfg = krylov.GmresConfig(m=10, tol=1e-7)
        _, rep = krylov.solve_coupled(op, GridField(op.coupled_id, f), cfg)
        assert rep.iterations == 13
        assert [i for i, _ in rep.residual_checks] == [12, 13]
        assert rep.residual_checks[0][1] > cfg.tol >= rep.residual_checks[1][1]

    @pytest.mark.parametrize("seed", range(3))
    def test_star_meets_tol(self, seed):
        comp = star_mixed(8)
        op = ddm.build_schur_operator(comp)
        rng = np.random.default_rng(seed)
        f = GridField(op.coupled_id, rng.standard_normal(op.size))
        cfg = krylov.GmresConfig(m=10, tol=1e-7)
        _, rep = krylov.solve_coupled(op, f, cfg)
        assert rep.converged and rep.true_relative_residual <= cfg.tol


def grid_fft_gmres(op, f, cfg):
    """The fft GMRES on whole eigenbasis vectors, the reference for the
    interface coordinates: T^{-1} (T - S) (T - D)^{-1} T from
    `spectral_apply`, with solve_coupled's check; returns (nodal solution,
    report) or raises ConvergenceError with the nodal solution."""
    r = op.eigenbasis[2].reshape(-1)
    f_hat = op.spectral_rhs(f)

    def check(y):
        return np.linalg.norm(f_hat - op.spectral_apply(op.solution(y))) \
            / np.linalg.norm(f)

    try:
        y, rep = krylov.gmres(lambda y: r * op.spectral_apply(op.solution(y)),
                              r * f_hat, cfg=cfg, check=check)
    except ConvergenceError as err:
        err.solution = op.to_nodal(op.solution(err.solution))
        raise
    return op.to_nodal(op.solution(y)), rep


def interface_only(op, f):
    """`f` kept on the center's interface nodes alone: then b lies in the
    span of the interface coordinates' columns."""
    mask = np.zeros(op.size, dtype=bool)
    for nb in op.neighbors:
        mask[nb.from_center.from_idx] = True
    return np.where(mask, f, 0.0)


def coordinate_cases():
    cases = [pytest.param(bench.build_cross(k_n=kn).composite, m,
                          id=f"cross-k{kn}-m{m}")
             for kn in (8, 32) for m in (5, 10, 80)]
    cases += [pytest.param(star_composite(arms, **kw), 10, id=name)
              for name, (arms, kw) in sorted(LINE_OPERATOR_CASES.items())]
    cases += [
        pytest.param(star_mixed(16), 10, id="star-k16"),
        # two across arms on the one transform column: every center node
        # is an interface node, so b lies in their coordinates' span
        pytest.param(star_composite({"south": (2, D, N, ()),
                                     "north": (3, D, D, ())}, m=4, n=1),
                     10, id="one-column"),
        # two along arms on the one sweep row (a 1 x 2 center with three
        # arms), or two across arms on the one transform column (a 2 x 1
        # center with four), each with corners: their lines must share
        # coordinates, or the iterates drift from the grid's
        pytest.param(random_star(94), 10, id="one-row-three-arms"),
        pytest.param(random_star(112), 80, id="one-column-four-arms"),
        pytest.param(dirichlet_cross(8), 80, id="dirichlet-cross-k8"),
        # weakly coupled arms (kappa -1e3 and -1e5 against couplings of
        # 16 and 25): P is near the identity, and the first Arnoldi step's
        # Gram-Schmidt pass cancels all but 2e-4 and 3e-8 of P v_0; what
        # is left must not pass for a breakdown
        *(pytest.param(star_composite(
            {"west": (3, D, N, ()), "east": (2, D, N, ()),
             "south": (2, D, D, ())}, m=5, n=7, kappa=kappa), 10,
            id=f"weak-coupling-{-kappa:g}") for kappa in (-1e3, -1e5)),
        pytest.param(CompositeDomain(subdomains=[make_rect(
            4, 6, "NN", "PP", kappa=-1.0)], interfaces=[]), 10,
                     id="single-rectangle"),
    ]
    return cases


class TestInterfaceCoordinates:
    """fft GMRES on the interface coordinates makes the iterates of GMRES
    on whole eigenbasis vectors: the same iterations and checks, and the
    same field to rounding."""

    @pytest.mark.parametrize("on_interface", [False, True],
                             ids=["rhs", "rhs-on-interface"])
    @pytest.mark.parametrize("comp,m", coordinate_cases())
    def test_matches_grid_gmres(self, comp, m, on_interface):
        op = ddm.build_schur_operator(comp)
        f = np.random.default_rng(m).standard_normal(op.size)
        if on_interface and op.neighbors:
            f = interface_only(op, f)
        cfg = krylov.GmresConfig(m=m, tol=1e-10, max_restarts=500)
        p, rep = krylov.solve_coupled(op, GridField(op.coupled_id, f), cfg)
        want, ref = grid_fft_gmres(op, f, cfg)
        assert rep.converged and rep.iterations == ref.iterations
        assert [i for i, _ in rep.residual_checks] == [
            i for i, _ in ref.residual_checks]
        assert np.abs(p.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_rhs_takes_no_step(self):
        op = ddm.build_schur_operator(bench.build_cross(k_n=8).composite)
        applies = []
        operator, rhs, dual, expand = op.coordinates(np.zeros(op.size))
        _, rep = krylov.gmres(lambda c: applies.append(1) or operator(c),
                              rhs, dual=dual)
        assert rep.converged and rep.iterations == 0 and not applies
        assert not expand(rhs).any() and not dual(rhs)[0].any()

    def test_convergence_error_matches_grid_gmres(self):
        case = bench.build_cross(k_n=8)
        op = ddm.build_schur_operator(case.composite)
        f = ddm.eliminate_arms(op, bench.rhs_fields(case))
        cfg = krylov.GmresConfig(m=3, max_restarts=2)
        with pytest.raises(ConvergenceError) as got:
            krylov.solve_coupled(op, f, cfg)
        with pytest.raises(ConvergenceError) as want:
            grid_fft_gmres(op, f.values, cfg)
        p, ref = got.value.solution, want.value.solution
        assert p.shape == (op.size,)     # nodal values, not coordinates
        assert np.abs(p - ref).max() <= 1e-12 * np.abs(ref).max()
        assert got.value.report.iterations == want.value.report.iterations

    @pytest.mark.parametrize("comp,m,checked", [
        pytest.param(star_mixed(16), 10, [12, 13], id="star-k16-m10"),
        pytest.param(bench.build_cross(k_n=8).composite, 80, None,
                     id="cross-k8-m80")])
    def test_one_solution_per_apply_and_check(self, comp, m, checked,
                                              monkeypatch):
        # (T - D)^{-1} T y is formed once per operator apply and once per
        # check; the returned iterate is the one the passing check formed
        op = ddm.build_schur_operator(comp)
        f = np.random.default_rng(0).standard_normal(op.size)
        counts = {"solution": 0, "operator": 0}
        solution, gmres = op.solution, krylov.gmres

        def counting_solution(y):
            counts["solution"] += 1
            return solution(y)

        def counting_gmres(operator, *args, **kwargs):
            def counted(c, *expanded):
                counts["operator"] += 1
                return operator(c, *expanded)
            return gmres(counted, *args, **kwargs)

        monkeypatch.setitem(op.__dict__, "solution", counting_solution)
        monkeypatch.setattr(krylov, "gmres", counting_gmres)
        cfg = krylov.GmresConfig(m=m, tol=1e-7)
        p, rep = krylov.solve_coupled(op, GridField(op.coupled_id, f), cfg)
        assert rep.converged and rep.residual_checks
        assert checked is None or [i for i, _ in rep.residual_checks] \
            == checked
        assert counts["solution"] == counts["operator"] \
            + len(rep.residual_checks)
        monkeypatch.undo()
        want, _ = krylov.solve_coupled(op, GridField(op.coupled_id, f), cfg)
        np.testing.assert_array_equal(p.values, want.values)

    @pytest.mark.parametrize("comp,m", [
        pytest.param(star_mixed(16), 10, id="star-k16-m10"),
        pytest.param(bench.build_cross(k_n=8).composite, 80,
                     id="cross-k8-m80"),
        pytest.param(bench.build_cross(k_n=8).composite, 4,
                     id="cross-k8-m4")])
    def test_one_expansion_per_arnoldi_step(self, comp, m, monkeypatch):
        # each Krylov vector is expanded onto the eigenbasis once, by its
        # dual, and the next apply takes that expansion: besides the duals
        # only b, each cycle's residual and each check expand a vector, and
        # the apply after a failed check, which dropped the expansion so
        # that the check's fields do not come on top of it
        op = ddm.build_schur_operator(comp)
        f = np.random.default_rng(0).standard_normal(op.size)
        counts = dict.fromkeys(
            ("scatter", "residual", "dual", "plain", "reused"), 0)
        scatter, residual, gmres = op._scatter, op.spectral_apply, krylov.gmres

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted

        def counting_gmres(operator, *args, dual, **kwargs):
            def counted(c, *expanded):
                counts["reused" if expanded else "plain"] += 1
                return operator(c, *expanded)
            return gmres(counted, *args, dual=counting("dual", dual), **kwargs)

        monkeypatch.setitem(op.__dict__, "_scatter", counting("scatter",
                                                              scatter))
        monkeypatch.setitem(op.__dict__, "spectral_apply", counting(
            "residual", residual))      # the check's, which scatters once
        monkeypatch.setattr(krylov, "gmres", counting_gmres)
        cfg = krylov.GmresConfig(m=m, tol=1e-7)
        _, rep = krylov.solve_coupled(op, GridField(op.coupled_id, f), cfg)
        checks = len(rep.residual_checks)
        assert rep.converged and rep.residual_checks[-1][0] == rep.iterations
        cycles = (rep.iterations - 1) // m      # residuals of ended cycles
        refilled = sum(1 for i, v in rep.residual_checks  # failed mid-cycle
                       if v > cfg.tol and i % m)
        assert counts["reused"] == rep.iterations - refilled
        assert counts["plain"] == cycles + refilled
        assert counts["residual"] == checks
        # a dual for r_0, for each cycle's residual and for each step's
        # Gram-Schmidt pass, or two passes where the first cancels
        passes = counts["dual"] - 1 - cycles
        assert rep.iterations <= passes < 2 * rep.iterations
        assert counts["scatter"] - counts["residual"] \
            == 1 + counts["dual"] + counts["plain"] + checks

    def test_coordinates_are_the_interface_nodes(self):
        # 1 + the center's interface nodes, each corner once: on the cross
        # at k_n=8 two sweep rows of 32 and two columns of 16 - 2 rows
        op = ddm.build_schur_operator(bench.build_cross(k_n=8).composite)
        apply, rhs, dual, expand = op.coordinates(np.ones(op.size))
        assert rhs.size == 1 + 2 * 32 + 2 * 14
        # the dual gives the grid inner products of the expanded vectors,
        # and the expanded vector's norm
        rng = np.random.default_rng(5)
        c, e = rng.standard_normal((2, rhs.size))
        d, e_norm, v = dual(e)
        assert c @ d == pytest.approx(expand(c) @ expand(e), rel=1e-12)
        assert e_norm == pytest.approx(np.linalg.norm(expand(e)), rel=1e-14)
        # and the expansion itself, which the operator then takes in place
        # of its own: with it and the scale h, the coordinates of P Phi e / h
        np.testing.assert_array_equal(v, expand(e))
        want = apply(e / 4.0)
        assert np.abs(apply(e / 4.0, v, 4.0) - want).max() \
            <= 1e-14 * np.abs(want).max()

    def test_peak_memory_is_a_few_center_fields(self):
        # the basis holds 81 vectors of about 2 |interface| numbers, not
        # of N: at k_n=64 the grid basis alone took 81 N doubles
        case = bench.build_cross(k_n=64)
        op = ddm.build_schur_operator(case.composite)
        f = ddm.eliminate_arms(op, bench.rhs_fields(case))
        cfg = krylov.GmresConfig(m=80, tol=1e-10)
        krylov.solve_coupled(op, f, cfg)     # the operator's cached parts
        tracemalloc.start()
        try:
            krylov.solve_coupled(op, f, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 8 * op.size
