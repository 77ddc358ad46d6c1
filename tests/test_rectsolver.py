import dataclasses
import itertools

import numpy as np
import pytest

from fftddm import oracle, rectsolver
from fftddm.errors import SingularOperatorError, ValidationError
from fftddm.geometry import AXIS_EDGES, GridField, edge_end, line_indices

from conftest import interface_block, make_rect

PAIRS = ("DD", "NN", "PP")
# (first, last) half-cell ends of one Dirichlet axis
HALF_ENDS = ((1, 0), (0, 1), (1, 1))


def ends_id(ends):
    return "".join(map(str, ends))


def half_edges(axis, ends):
    """The edges of `axis` that carry the half-cell `ends`."""
    return tuple(e for e, h in zip(AXIS_EDGES[axis], ends) if h)


def pair_cases(max_mn=8):
    """All BC pair combinations and grid shapes, PP lengths kept even and
    kappa chosen negative wherever the shifted operator would be singular."""
    for x_pair, y_pair in itertools.product(PAIRS, PAIRS):
        for m, n in itertools.product(range(1, max_mn + 1), repeat=2):
            if x_pair == "PP" and m % 2:
                continue
            if y_pair == "PP" and n % 2:
                continue
            # a pure Neumann/periodic operator has the constant nullspace;
            # a negative shift restores invertibility
            kappa = -1.0 if "DD" not in (x_pair, y_pair) else 0.0
            yield x_pair, y_pair, m, n, kappa


class TestPlanRect:
    def test_1x1_dd_scalar(self):
        plan = rectsolver.plan_rect(make_rect(1, 1))
        p = rectsolver.solve_rect(plan, np.array([1.0]))
        np.testing.assert_allclose(p.values, [-0.25])

    def test_arm_like_neumann_x(self):
        sub = make_rect(3, 4, x_pair="NN", y_pair="DD")
        plan = rectsolver.plan_rect(sub)
        # the sweep runs along x: Neumann ends modify its corner rows
        assert (plan.transform_axis, plan.solve_pair) == ("y", "NN")
        assert not plan.cyclic

    def test_periodic_x_is_cyclic(self):
        plan = rectsolver.plan_rect(make_rect(4, 3, x_pair="PP"))
        assert plan.solve_pair == "PP" and plan.cyclic

    def test_nn_nn_kappa_zero_is_singular(self):
        with pytest.raises(SingularOperatorError):
            rectsolver.plan_rect(make_rect(3, 3, "NN", "NN"))

    @pytest.mark.parametrize("x_pair,y_pair,m", [
        ("PP", "PP", 2), ("PP", "PP", 4), ("PP", "NN", 4)])
    def test_periodic_sweep_kappa_zero_is_singular(self, x_pair, y_pair, m):
        # the constant mode of a periodic sweep: a doubled wrap at m = 2,
        # the Sherman-Morrison denominator past that
        with pytest.raises(SingularOperatorError):
            rectsolver.plan_rect(make_rect(m, 4, x_pair, y_pair))


class TestSolveRect:
    def test_zero_rhs(self):
        plan = rectsolver.plan_rect(make_rect(4, 5))
        assert not rectsolver.solve_rect(plan, np.zeros(20)).values.any()

    def test_3x3_dd_matches_dense(self):
        sub = make_rect(3, 3)
        plan = rectsolver.plan_rect(sub)
        f = np.eye(9)[0]
        want = oracle.dense_lu_solve(oracle.assemble_rect_matrix(sub), f)
        np.testing.assert_allclose(rectsolver.solve_rect(plan, f).values,
                                   want, atol=1e-12)

    def test_wrong_subdomain_rejected(self):
        plan = rectsolver.plan_rect(make_rect(2, 2, sid=3))
        with pytest.raises(ValidationError):
            rectsolver.solve_rect(plan, GridField(7, np.zeros(4)))

    def test_wrong_length_rejected(self):
        plan = rectsolver.plan_rect(make_rect(2, 3))
        with pytest.raises(ValidationError, match="2 x 3"):
            rectsolver.solve_rect(plan, np.zeros(5))

    @pytest.mark.parametrize("x_pair,y_pair,m,n,kappa",
                             [c for c in pair_cases(5)])
    def test_oracle_equivalence_sweep(self, x_pair, y_pair, m, n, kappa, rng):
        sub = make_rect(m, n, x_pair, y_pair, dx=0.5, dy=0.25, kappa=kappa)
        A = oracle.assemble_rect_matrix(sub)
        f = rng.standard_normal(sub.size)
        want = oracle.dense_lu_solve(A, f)
        got = rectsolver.solve_rect(rectsolver.plan_rect(sub), f).values
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(got - want).max() <= 1e-10 * scale

    def test_half_cell_dirichlet_edges(self, rng):
        # half-cell ends sit on the sweep axis; y stays pure for the transform
        sub = make_rect(4, 3, half=("west", "east"))
        A = oracle.assemble_rect_matrix(sub)
        f = rng.standard_normal(sub.size)
        want = oracle.dense_lu_solve(A, f)
        got = rectsolver.solve_rect(rectsolver.plan_rect(sub), f).values
        np.testing.assert_allclose(got, want, atol=1e-11)

    @pytest.mark.parametrize("x_ends,y_ends", list(itertools.product(
        HALF_ENDS, repeat=2)), ids=ends_id)
    def test_half_cell_ends_on_both_axes(self, x_ends, y_ends, rng):
        # y, the transform axis, takes the shifted sine basis
        half = half_edges("x", x_ends) + half_edges("y", y_ends)
        for m, n in itertools.product(range(1, 6), repeat=2):
            sub = make_rect(m, n, dx=0.3, dy=0.2, kappa=-1.5, half=half)
            plan = rectsolver.plan_rect(sub)
            assert plan.transform_axis == "y" and plan.y_plan.ends == y_ends
            A = oracle.assemble_rect_matrix(sub)
            f = rng.standard_normal(sub.size)
            want = oracle.dense_lu_solve(A, f)
            got = rectsolver.solve_rect(plan, f).values
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_residual_at_64x64(self, rng):
        sub = make_rect(64, 64, dx=1 / 65, dy=1 / 65)
        plan = rectsolver.plan_rect(sub)
        f = rng.standard_normal(sub.size)
        p = rectsolver.solve_rect(plan, f)
        res = rectsolver.apply_rect_operator(sub, p.values) - f
        assert np.abs(res).max() <= 1e-10 * np.abs(f).max()

    def test_linearity(self, rng):
        plan = rectsolver.plan_rect(make_rect(6, 7, "NN", "DD"))
        f = rng.standard_normal(42)
        g = rng.standard_normal(42)
        a, b = 1.7, -0.3
        lhs = rectsolver.solve_rect(plan, a * f + b * g).values
        rhs = a * rectsolver.solve_rect(plan, f).values \
            + b * rectsolver.solve_rect(plan, g).values
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-11 * scale


def interface_cases(max_mn=5):
    """Every pair case with an interface-like (plain DD) edge, with and
    without a half-cell modifier on the opposite end of that axis."""
    opposite = {"west": "east", "east": "west", "south": "north",
                "north": "south"}
    for x_pair, y_pair, m, n, kappa in pair_cases(max_mn):
        edges = (("west", "east") if x_pair == "DD" else ()) \
            + (("south", "north") if y_pair == "DD" else ())
        for edge in edges:
            for half in ((), (opposite[edge],)):
                yield x_pair, y_pair, m, n, kappa, edge, half


class TestInterfaceOperator:
    @pytest.mark.parametrize("x_pair,y_pair,m,n,kappa,edge,half",
                             list(interface_cases()))
    def test_matches_dense_inverse_block(self, x_pair, y_pair, m, n, kappa,
                                         edge, half):
        sub = make_rect(m, n, x_pair, y_pair, dx=0.3, dy=0.2, kappa=kappa,
                        half=half)
        plan = rectsolver.plan_rect(sub)
        line = line_indices(sub, edge)
        want = np.linalg.inv(oracle.assemble_rect_matrix(sub))[
            np.ix_(line, line)]
        line_plan, t, t_c, exact = rectsolver.interface_operator(plan, edge)
        got = np.column_stack([interface_block(line_plan, t, e)
                               for e in np.eye(line.size)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert t_c is None and not exact

    @pytest.mark.parametrize("far_half", [False, True])
    @pytest.mark.parametrize("line_ends", HALF_ENDS, ids=ends_id)
    @pytest.mark.parametrize("edge", ["west", "east", "south", "north"])
    def test_half_cell_line_matches_dense_inverse_block(self, edge,
                                                        line_ends, far_half):
        # the line's own axis has half-cell ends, and with far_half the far
        # edge too: the line takes a shifted sine transform, of its own or
        # the plan's, never a sweep
        normal, end = edge_end(edge)
        line = "y" if normal == "x" else "x"
        half = half_edges(line, line_ends) \
            + ((AXIS_EDGES[normal][1 - end],) if far_half else ())
        for m, n in itertools.product(range(1, 6), repeat=2):
            sub = make_rect(m, n, dx=0.3, dy=0.2, kappa=2.0, half=half)
            plan = rectsolver.plan_rect(sub)
            idx = line_indices(sub, edge)
            want = np.linalg.inv(oracle.assemble_rect_matrix(sub))[
                np.ix_(idx, idx)]
            line_plan, t, _, _ = rectsolver.interface_operator(plan, edge)
            assert line_plan.ends == line_ends
            got = np.column_stack([interface_block(line_plan, t, e)
                                   for e in np.eye(idx.size)])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# sweep-axis cases: (pair, half-cell ends); a half-cell end is Dirichlet
SWEEP_AXES = [("DD", ()), ("DD", ("west",)), ("DD", ("east",)),
              ("DD", ("west", "east")), ("NN", ()), ("PP", ())]


class TestSweepBasis:
    @pytest.mark.parametrize("pair,half,ms", [
        (pair, half, ms) for pair, half in SWEEP_AXES
        for ms in (1, 2, 3, 8, 9) if pair != "PP" or ms % 2 == 0])
    def test_diagonalizes_the_sweep_axis(self, pair, half, ms):
        # y stays pure, so x is the sweep axis
        sub = make_rect(ms, 3, pair, "DD", dx=0.3, dy=0.2, kappa=-1.0,
                        half=half)
        plan = rectsolver.plan_rect(sub)
        assert plan.transform_axis == "y"
        delta = sub.delta("x")
        # the axis matrix less its diagonal; two periodic rows couple twice
        A = oracle.assemble_axis_matrix(pair, ms, delta, 0.0) \
            + 2.0 * delta * np.eye(ms)
        if pair == "DD":
            A[0, 0] += sub.end_modifier("west")
            A[-1, -1] += sub.end_modifier("east")
        W, mu = rectsolver.sweep_basis(plan)
        assert np.abs(W.T @ W - np.eye(ms)).max() <= 1e-13
        assert np.abs(W.T @ A @ W - np.diag(mu)).max() <= 1e-13 * delta

    @pytest.mark.parametrize("x_pair,y_pair,m,n,kappa,half", [
        (*case, ()) for case in pair_cases(4)] + [
        (x, y, m, n, kappa, half)
        for x, y, m, n, kappa, _, half in interface_cases(4) if half])
    def test_diagonalizes_the_rectangle(self, x_pair, y_pair, m, n, kappa,
                                        half):
        # (W (x) Q)^T A (W (x) Q) = diag(mu_k + lambda_n), either axis
        # transformed
        sub = make_rect(m, n, x_pair, y_pair, dx=0.3, dy=0.2, kappa=kappa,
                        half=half)
        plan = rectsolver.plan_rect(sub)
        W, mu = rectsolver.sweep_basis(plan)
        B = np.column_stack([rectsolver.to_nodal(plan, W @ e.reshape(
            plan.shape)) for e in np.eye(sub.size)])
        t = (mu[:, None] + plan.y_plan.eigenvalues).reshape(-1)
        got = B.T @ oracle.assemble_rect_matrix(sub) @ B
        assert np.abs(got - np.diag(t)).max() <= 1e-12 * np.abs(t).max()


class TestFactorTridiag:
    def test_flags_only_the_bad_column(self):
        # at n = 2 the folded order is the natural one: the LU pivot of
        # row 0, then the twist pivot of row 1
        diag = np.array([[-2.0, 0.0], [-2.0, -2.0]])
        beta, lower, bad = rectsolver._factor_tridiag(diag, 1.0, 1e-12)
        assert list(bad) == [False, True]
        np.testing.assert_array_equal(beta[:, 0], [-2.0, -1.5])
        np.testing.assert_array_equal(lower[:, 0], [-0.5, 1.0 / -1.5])


def column_factors(diag, off, cyclic=False):
    """_factor of one column; returns (beta, lower, off, sm, bad)."""
    return rectsolver._factor(np.asarray(diag, dtype=float)[:, None], off,
                              cyclic, 1e-13)


def factored(diag, off, rhs, cyclic=False):
    """One-column solve through _factor and _factored_solve, the path
    every sweep takes."""
    beta, lower, off, sm, bad = column_factors(diag, off, cyclic)
    assert not bad.any()
    x = rectsolver._factored_solve(beta, lower, off, sm,
                                   np.asarray(rhs, dtype=float)[:, None])
    return x[:, 0]


def dense_tridiag(diag, off, cyclic):
    m = len(diag)
    M = np.diag(np.asarray(diag, dtype=float))
    for i in range(m):
        if cyclic or i > 0:
            M[i, (i - 1) % m] += off
        if cyclic or i < m - 1:
            M[i, (i + 1) % m] += off
    return M


# per-end diagonal modifiers of a sweep axis, in units of the off-diagonal
END_KINDS = {"standard": (0.0, 0.0), "corner-modified": (1.0, 1.0),
             "half-cell": (-1.0, 0.0)}


class TestTwistedFactorization:
    """The twist row h = ms // 2 meets the LU rows 0..h-1 and the UL rows
    ms-1..h+1; odd ms leaves a lone middle row, ms = 1 and 2 no step."""

    @pytest.mark.parametrize("ends", sorted(END_KINDS))
    @pytest.mark.parametrize("ms", [1, 2, 3, 4, 5, 7, 8, 9])
    def test_matches_dense(self, ms, ends, rng):
        off = 0.7
        diag = np.tile([-2.1, -3.0, -4.5], (ms, 1))  # nt = 3 modes
        diag[0] += off * END_KINDS[ends][0]
        diag[-1] += off * END_KINDS[ends][1]
        self.check(diag, off, False, rng)

    @pytest.mark.parametrize("ms", [2, 4, 8])
    def test_cyclic_matches_dense(self, ms, rng):
        self.check(np.tile([-2.1, -3.0, -4.5], (ms, 1)), 0.7, True, rng)

    @staticmethod
    def check(diag, off, cyclic, rng):
        rhs = rng.standard_normal(diag.shape)
        beta, lower, off2, sm, bad = rectsolver._factor(diag, off, cyclic,
                                                        1e-13)
        assert not bad.any()
        np.testing.assert_array_equal(lower, off2 / beta)
        x = rectsolver._factored_solve(beta, lower, off2, sm, rhs)
        for k in range(diag.shape[1]):
            want = np.linalg.solve(dense_tridiag(diag[:, k], off, cyclic),
                                   rhs[:, k])
            np.testing.assert_allclose(x[:, k], want, rtol=1e-12,
                                       atol=1e-13)

    @pytest.mark.parametrize("ms", [1, 2, 3, 4, 5, 8, 9])
    def test_nullspace_is_caught_at_the_twist_pivot(self, ms):
        # mode 0 of a Neumann sweep at kappa = 0 is singular; mode 1 is not
        diag = np.tile([-2.0, -3.0], (ms, 1))
        diag[0] += 1.0
        diag[-1] += 1.0
        beta, _, bad = rectsolver._factor_tridiag(diag, 1.0, 1e-13)
        assert list(bad) == [True, False]
        assert np.all(np.abs(beta[:-1, 0]) >= 1e-13)
        assert abs(beta[-1, 0]) < 1e-13

    @pytest.mark.parametrize("m", [4, 5])
    def test_neumann_rectangle_names_only_mode_0(self, m):
        # sweep length m: even and odd
        with pytest.raises(SingularOperatorError, match=r"modes \[0\] "):
            rectsolver.plan_rect(make_rect(m, 3, "NN", "NN"))

    @pytest.mark.parametrize("x_pair,y_pair,m,n", [
        ("DD", "DD", 5, 4), ("NN", "DD", 4, 3), ("PP", "DD", 6, 3),
        ("DD", "PP", 3, 4), ("DD", "DD", 1, 2)])
    def test_plan_holds_one_factor_set(self, x_pair, y_pair, m, n):
        # pivots and multipliers, 2 ms nt floats; a cyclic plan adds q
        plan = rectsolver.plan_rect(make_rect(m, n, x_pair, y_pair,
                                              kappa=-1.0))
        ms, nt = plan.shape
        arrays = [getattr(plan, f.name) for f in dataclasses.fields(plan)]
        assert sum(a.size for a in arrays
                   if isinstance(a, np.ndarray)) == 2 * ms * nt
        big = [a for a in plan.sm or () if np.size(a) >= ms * nt]
        assert len(big) == (1 if plan.cyclic and ms > 2 else 0)


class TestFactoredSolve:
    def test_standard_example(self):
        x = factored(np.full(3, -2.0), 1.0, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(x, [-0.75, -0.5, -0.25])

    def test_zero_rhs(self):
        x = factored(np.full(6, -2.0), 1.0, np.zeros(6))
        assert not x.any()

    def test_cyclic_m4(self):
        x = factored(np.full(4, -3.0), 1.0, np.ones(4), cyclic=True)
        np.testing.assert_allclose(x, [-1.0, -1.0, -1.0, -1.0])

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
    def test_cyclic_matches_dense(self, m, rng):
        # m = 2 wraps both corners onto the single off-diagonal pair
        diag = -3.0 + 0.1 * rng.standard_normal(m)
        rhs = rng.standard_normal(m)
        x = factored(diag, 1.0, rhs, cyclic=True)
        np.testing.assert_allclose(
            x, np.linalg.solve(dense_tridiag(diag, 1.0, True), rhs),
            atol=1e-11)

    def test_corner_modified_ends(self):
        # a Neumann sweep axis adds +off at both diagonal ends
        x = factored([-3.0, -4.0, -3.0], 1.0, np.ones(3))
        M = np.array([[-3.0, 1, 0], [1, -4.0, 1], [0, 1, -3.0]])
        np.testing.assert_allclose(x, np.linalg.solve(M, np.ones(3)))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_singular_cyclic_flagged(self, m):
        # the periodic second difference has the constant null vector
        assert column_factors(np.full(m, -2.0), 1.0, cyclic=True)[-1].all()

    def test_zero_pivot_flagged(self):
        assert column_factors([1.0, 1.0], 1.0)[-1].all()

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_columns_solve_independently(self, cyclic, rng):
        m, nt = 6, 5
        diag = -3.0 + 0.2 * rng.standard_normal((m, nt))
        rhs = rng.standard_normal((m, nt))
        beta, lower, off, sm, bad = rectsolver._factor(diag, 0.7, cyclic,
                                                       1e-13)
        assert not bad.any()
        x = rectsolver._factored_solve(beta, lower, off, sm, rhs)
        for k in range(nt):
            M = dense_tridiag(diag[:, k], 0.7, cyclic)
            np.testing.assert_allclose(x[:, k],
                                       np.linalg.solve(M, rhs[:, k]),
                                       atol=1e-12)
