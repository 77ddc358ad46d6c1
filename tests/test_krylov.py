import numpy as np
import pytest

from fftddm import bench, ddm, krylov, oracle, rectsolver
from fftddm.errors import ConvergenceError, ValidationError
from fftddm.geometry import GridField, line_indices

from test_ddm import nodal_preconditioned, star_mixed


def dense_schur(comp, cid):
    A2 = oracle.assemble_rect_matrix(comp.subdomain(cid))
    S = np.zeros_like(A2)
    for iface in comp.interfaces_of(cid):
        oid = iface.other_side(cid)[0]
        Rci = oracle.assemble_coupling_matrix(comp, oid, cid)
        Ric = oracle.assemble_coupling_matrix(comp, cid, oid)
        Ai = oracle.assemble_rect_matrix(comp.subdomain(oid))
        S += Rci @ np.linalg.solve(Ai, Ric)
    return A2, S


class TestGmresConfig:
    @pytest.mark.parametrize("kwargs", [
        {"m": 0}, {"tol": 0.0}, {"tol": -1e-8}, {"max_restarts": 0},
        {"preconditioner": "ilu"},
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
        cfg = krylov.GmresConfig(m=2, tol=1e-15, max_restarts=1)
        with pytest.raises(ConvergenceError) as excinfo:
            krylov.gmres(lambda v: A @ v, b, cfg=cfg)
        rep = excinfo.value.report
        assert not rep.converged
        assert rep.residual_history.size >= 2

    def test_nonzero_initial_guess(self, rng):
        A = rng.standard_normal((10, 10)) + 5 * np.eye(10)
        b = rng.standard_normal(10)
        x0 = rng.standard_normal(10)
        cfg = krylov.GmresConfig(m=10, tol=1e-12)
        x, rep = krylov.gmres(lambda v: A @ v, b, x0=x0, cfg=cfg)
        assert rep.converged
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-9)


class TestOrthogonalization:
    @pytest.mark.parametrize("kn,iters", [(8, 19), (16, 26), (32, 35)])
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
        basis = []

        def operator(v):
            basis.append(v.copy())
            return A @ v

        cfg = krylov.GmresConfig(m=m, tol=1e-15, max_restarts=1)
        with pytest.raises(ConvergenceError):
            krylov.gmres(operator, rng.standard_normal(N), cfg=cfg)
        V = np.array(basis[:m])
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

    def test_wrong_subdomain_rejected(self, cross2):
        _, op = cross2
        with pytest.raises(ValidationError):
            krylov.solve_coupled(op, GridField(99, np.zeros(op.size)))

    def test_true_residual_logged(self, cross2, rng):
        _, op = cross2
        f = rng.standard_normal(op.size)
        _, rep = krylov.solve_coupled(op, GridField(op.coupled_id, f),
                                      krylov.GmresConfig(tol=1e-11))
        assert np.isfinite(rep.true_residual)
        assert rep.true_residual <= 1e-8 * np.linalg.norm(f)
        assert rep.true_relative_residual == pytest.approx(
            rep.true_residual / np.linalg.norm(f), rel=1e-12)

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

    def test_preconditioner_ranking_at_kn16(self):
        comp = bench.build_cross(k_n=16).composite
        op = ddm.build_schur_operator(comp)
        f = bench.rhs_fields(bench.build_cross(k_n=16))[op.coupled_id]
        iters = {}
        for mode in krylov.PRECONDITIONERS:
            cfg = krylov.GmresConfig(m=80, tol=1e-7, max_restarts=25,
                                     preconditioner=mode)
            try:
                _, rep = krylov.solve_coupled(op, f, cfg)
                iters[mode] = rep.iterations
            except ConvergenceError as exc:
                iters[mode] = exc.report.iterations
        assert iters["fft"] < iters["jacobi"] <= iters["identity"]


class TestSpectralGmres:
    @pytest.mark.parametrize("comp,m", [
        pytest.param(bench.build_cross(k_n=8).composite, 80, id="cross-k8"),
        pytest.param(star_mixed(8), 10, id="star-k8-restarted"),
    ])
    def test_history_matches_nodal_form(self, comp, m):
        op = ddm.build_schur_operator(comp)
        f = GridField(op.coupled_id, np.random.default_rng(3).standard_normal(
            op.size))
        cfg = krylov.GmresConfig(m=m, tol=1e-10, max_restarts=50)
        p, rep = krylov.solve_coupled(op, f, cfg)
        rhs = rectsolver.solve_rect(op.center_plan, f.values).values
        want, ref = krylov.gmres(lambda p: nodal_preconditioned(op, p), rhs,
                                 cfg=cfg)
        assert rep.iterations == ref.iterations
        np.testing.assert_allclose(rep.residual_history, ref.residual_history,
                                   rtol=1e-6)
        assert np.abs(p.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_convergence_error_carries_nodal_solution(self, cross2, rng):
        _, op = cross2
        f = GridField(op.coupled_id, rng.standard_normal(op.size))
        cfg = krylov.GmresConfig(m=2, tol=1e-15, max_restarts=1)
        with pytest.raises(ConvergenceError) as got:
            krylov.solve_coupled(op, f, cfg)
        rhs = rectsolver.solve_rect(op.center_plan, f.values).values
        with pytest.raises(ConvergenceError) as want:
            krylov.gmres(lambda p: nodal_preconditioned(op, p), rhs, cfg=cfg)
        np.testing.assert_allclose(got.value.solution, want.value.solution,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("precond", ["fft", "jacobi"])
    def test_convergence_error_reports_nodal_residuals(self, precond):
        case = bench.build_cross(k_n=8)
        op = ddm.build_schur_operator(case.composite)
        f = ddm.eliminate_arms(op, bench.rhs_fields(case))
        cfg = krylov.GmresConfig(m=3, max_restarts=2, preconditioner=precond)
        with pytest.raises(ConvergenceError) as err:
            krylov.solve_coupled(op, f, cfg)
        res = np.linalg.norm(op.unpreconditioned(err.value.solution)
                             - f.values)
        rep = err.value.report
        assert rep.true_residual == pytest.approx(res, rel=1e-12)
        assert rep.true_relative_residual == pytest.approx(
            res / np.linalg.norm(f.values), rel=1e-12)


class TestJacobiDiagonal:
    @pytest.mark.parametrize("kn,tol", [(1, 1e-12), (2, 1e-10)])
    def test_matches_dense_diagonal(self, kn, tol):
        comp = bench.build_cross(k_n=kn).composite
        op = ddm.build_schur_operator(comp)
        A2, S = dense_schur(comp, op.coupled_id)
        np.testing.assert_allclose(op.diagonal(),
                                   np.diag(A2 - S), atol=tol)

    def test_sampled_entries_at_kn32(self, rng):
        comp = bench.build_cross(k_n=32).composite  # center 64 x 128 nodes
        op = ddm.build_schur_operator(comp)
        d = op.diagonal()
        lines = [line_indices(op.center, e)
                 for e in ("west", "east", "south", "north")]
        sample = np.concatenate(
            [rng.choice(op.size, 8, replace=False)]
            + [line[[0, len(line) // 2, -1]] for line in lines])
        e = np.zeros(op.size)
        for i in sample:
            e[i] = 1.0
            assert d[i] == pytest.approx(op.unpreconditioned(e)[i],
                                         rel=1e-12)
            e[i] = 0.0
