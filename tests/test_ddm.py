import dataclasses

import numpy as np
import pytest

from fftddm import bench, ddm, krylov, oracle, rectsolver
from fftddm.errors import ValidationError
from fftddm.geometry import (BoundaryKind, CompositeDomain, GridField,
                             RectSubdomain, make_interface, validate)

from conftest import make_rect

D = BoundaryKind.DIRICHLET
N = BoundaryKind.NEUMANN
P = BoundaryKind.PERIODIC
I = BoundaryKind.INTERFACE


def two_rect_composite(n=3):
    """Two unit squares side by side, one vertical interface."""
    h = 1.0 / n
    a = dataclasses.replace(
        make_rect(n, n, dx=h, dy=h, sid=0),
        edge_bc={"west": D, "east": I, "south": D, "north": D})
    b = dataclasses.replace(
        make_rect(n, n, dx=h, dy=h, sid=1), origin=(1.0, 0.0),
        edge_bc={"west": I, "east": D, "south": D, "north": D})
    comp = CompositeDomain(subdomains=[a, b],
                           interfaces=[make_interface(0, a, "east", b, "west")])
    validate(comp).require()
    return comp


class TestApplyR:
    def test_zero_maps_to_zero(self):
        comp = two_rect_composite()
        cm = ddm.make_coupling(comp, comp.interfaces[0], 0)
        assert cm.to_id == 1 and not cm.apply(np.zeros(9)).any()

    def test_constant_field_puts_delta_on_the_adjacent_line(self):
        comp = two_rect_composite()
        cm = ddm.make_coupling(comp, comp.interfaces[0], 0)
        grid = cm.apply(np.ones(9)).reshape(3, 3)
        delta = comp.subdomains[0].delta_x
        np.testing.assert_allclose(grid[0], delta)   # west line of rect 1
        assert not grid[1:].any()

    def test_matches_dense_R(self, rng):
        comp = two_rect_composite()
        cm = ddm.make_coupling(comp, comp.interfaces[0], 0)
        R = oracle.assemble_coupling_matrix(comp, 0, 1)
        v = rng.standard_normal(9)
        np.testing.assert_allclose(cm.apply(v), R @ v, atol=1e-13)

    def test_wrong_length_rejected(self):
        comp = two_rect_composite()
        cm = ddm.make_coupling(comp, comp.interfaces[0], 0)
        with pytest.raises(ValidationError):
            cm.apply(np.zeros(8))

    @pytest.mark.parametrize("kn", [1, 2])
    def test_transpose_symmetry_on_the_cross(self, kn, rng):
        comp = bench.build_cross(k_n=kn).composite
        for iface in comp.interfaces:
            a, b = iface.side_a[0], iface.side_b[0]
            fwd = ddm.make_coupling(comp, iface, a)
            bwd = ddm.make_coupling(comp, iface, b)
            u = rng.standard_normal(comp.subdomain(a).size)
            v = rng.standard_normal(comp.subdomain(b).size)
            lhs = np.dot(fwd.apply(u), v)
            rhs = np.dot(u, bwd.apply(v))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def dense_schur_blocks(comp, cid):
    A2 = oracle.assemble_rect_matrix(comp.subdomain(cid))
    S = np.zeros_like(A2)
    for iface in comp.interfaces_of(cid):
        oid = iface.other_side(cid)[0]
        Rci = oracle.assemble_coupling_matrix(comp, oid, cid)
        Ric = oracle.assemble_coupling_matrix(comp, cid, oid)
        Ai = oracle.assemble_rect_matrix(comp.subdomain(oid))
        S += Rci @ np.linalg.solve(Ai, Ric)
    return A2, S


class TestSchurOperator:
    def test_zero_in_zero_out(self):
        op = ddm.build_schur_operator(bench.build_cross(k_n=1).composite)
        z = np.zeros(op.size)
        assert not op.schur(z).any()
        assert not op.preconditioned(z).any()

    def test_one_interface_composite_is_a_single_product(self, rng):
        comp = two_rect_composite()
        op = ddm.build_schur_operator(comp)
        cid = op.coupled_id
        _, S = dense_schur_blocks(comp, cid)
        v = rng.standard_normal(op.size)
        np.testing.assert_allclose(op.schur(v), S @ v, atol=1e-12)

    @pytest.mark.parametrize("kn", [1, 2])
    def test_dense_equivalence_on_the_cross(self, kn):
        comp = bench.build_cross(k_n=kn).composite
        op = ddm.build_schur_operator(comp)
        A2, S = dense_schur_blocks(comp, op.coupled_id)
        Nc = op.size
        eye = np.eye(Nc)
        Sn = np.column_stack([op.schur(eye[:, j]) for j in range(Nc)])
        assert np.abs(Sn - S).max() <= 1e-9
        Pn = np.column_stack([op.preconditioned(eye[:, j])
                              for j in range(Nc)])
        Pd = eye - np.linalg.solve(A2, S)
        assert np.abs(Pn - Pd).max() <= 1e-9

    def test_zero_coupling_rig_gives_identity(self, rng):
        comp = two_rect_composite()
        iface = comp.interfaces[0]
        zeroed = dataclasses.replace(iface, coupling=0.0)
        rig = CompositeDomain(subdomains=comp.subdomains, interfaces=[zeroed])
        op = ddm.build_schur_operator(rig)
        v = rng.standard_normal(op.size)
        np.testing.assert_allclose(op.preconditioned(v), v, atol=1e-13)

    def test_center_designation_on_the_cross(self):
        comp = bench.build_cross(k_n=1).composite
        assert ddm.designate_center(comp) == bench.CENTER

    def test_center_designation_two_rectangles(self):
        assert ddm.designate_center(two_rect_composite()) == 0


class TestDdmSolve:
    def test_zero_rhs(self):
        comp = bench.build_cross(k_n=2).composite
        f = {s.id: np.zeros(s.size) for s in comp.subdomains}
        fields, report = ddm.ddm_solve(comp, f)
        assert report.converged and report.iterations == 0
        for s in comp.subdomains:
            assert not fields[s.id].values.any()

    @pytest.mark.parametrize("kn", [1, 2])
    def test_matches_global_dense_lu(self, kn, rng):
        comp = bench.build_cross(k_n=kn).composite
        G = oracle.assemble_global_matrix(comp)
        offs = oracle.global_offsets(comp)
        fvec = rng.standard_normal(G.shape[0])
        f = {sid: fvec[a:b] for sid, (a, b) in offs.items()}
        fields, _ = ddm.ddm_solve(comp, f, krylov.GmresConfig(tol=1e-12))
        want = oracle.dense_lu_solve(G, fvec)
        got = np.concatenate([fields[s.id].values for s in comp.subdomains])
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: bench.build_cross(k_n=2).composite,
                     id="cross-k2"),
        pytest.param(lambda: star_mixed(4), id="star-k4"),
        pytest.param(lambda: star_composite(
            LINE_OPERATOR_CASES["perpendicular"][0]), id="perpendicular"),
        pytest.param(lambda: star_composite(
            LINE_OPERATOR_CASES["x-transform"][0]), id="x-transform"),
    ])
    def test_back_substitution_residual(self, build, rng):
        # each arm must satisfy its local system with the center's interface
        # contribution moved to the right-hand side
        comp = build()
        f = {s.id: rng.standard_normal(s.size) for s in comp.subdomains}
        fields, _ = ddm.ddm_solve(comp, f, krylov.GmresConfig(tol=1e-12))
        cid = ddm.designate_center(comp)
        for iface in comp.interfaces:
            oid = iface.other_side(cid)[0]
            cm = ddm.make_coupling(comp, iface, cid)
            sub = comp.subdomain(oid)
            res = rectsolver.apply_rect_operator(sub, fields[oid].values) \
                + cm.apply(fields[cid].values) - f[oid]
            assert np.abs(res).max() <= 1e-9 * max(np.abs(f[oid]).max(), 1.0)

    def test_single_rectangle_composite(self, rng):
        sub = make_rect(4, 4, dx=0.2, dy=0.2)
        comp = CompositeDomain(subdomains=[sub], interfaces=[])
        f = {0: rng.standard_normal(16)}
        fields, report = ddm.ddm_solve(comp, f)
        assert report.converged
        want = oracle.dense_lu_solve(oracle.assemble_rect_matrix(sub), f[0])
        np.testing.assert_allclose(fields[0].values, want, atol=1e-11)
        assert report.wall_time > 0.0
        res = np.linalg.norm(
            rectsolver.apply_rect_operator(sub, fields[0].values) - f[0])
        assert report.true_residual == pytest.approx(res, rel=1e-12)
        assert report.true_relative_residual == pytest.approx(
            res / np.linalg.norm(f[0]), rel=1e-12)
        assert report.true_relative_residual <= 1e-12

    def test_two_rectangle_composite(self, rng):
        comp = two_rect_composite()
        G = oracle.assemble_global_matrix(comp)
        offs = oracle.global_offsets(comp)
        fvec = rng.standard_normal(G.shape[0])
        f = {sid: fvec[a:b] for sid, (a, b) in offs.items()}
        fields, _ = ddm.ddm_solve(comp, f, krylov.GmresConfig(tol=1e-12))
        want = oracle.dense_lu_solve(G, fvec)
        got = np.concatenate([fields[s.id].values for s in comp.subdomains])
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    def test_rhs_length_mismatch_rejected(self):
        comp = two_rect_composite()
        f = {0: np.zeros(9), 1: np.zeros(8)}
        with pytest.raises(ValidationError):
            ddm.ddm_solve(comp, f)

    def test_missing_rhs_rejected(self):
        comp = two_rect_composite()
        with pytest.raises(ValidationError, match="subdomain 1"):
            ddm.ddm_solve(comp, {0: np.zeros(9)})


def star_composite(arms, m=4, n=6, dx=0.25, dy=0.2, kappa=-3.0,
                   center_half=()):
    """Center m x n with an arm on each edge named in `arms`.

    `arms` maps a center edge to (depth, outer kind, flank kind, half-cell
    edges of the arm).  Center edges without an arm are Dirichlet.
    """
    def rect(sid, origin, mm, nn, bc, half=()):
        return RectSubdomain(id=sid, origin=origin, m=mm, n=nn, dx=dx, dy=dy,
                             edge_bc=bc, kappa=kappa,
                             half_cell_dirichlet=frozenset(half))

    facing = {"west": "east", "east": "west", "south": "north",
              "north": "south"}
    flanks = {"west": ("south", "north"), "east": ("south", "north"),
              "south": ("west", "east"), "north": ("west", "east")}
    center = rect(0, (0.0, 0.0), m, n,
                  {e: I if e in arms else D for e in facing}, center_half)
    subs, ifaces = [center], []
    for sid, (edge, (depth, outer, flank, half)) in enumerate(
            sorted(arms.items()), start=1):
        bc = {edge: outer, facing[edge]: I}
        bc.update({e: flank for e in flanks[edge]})
        origin = {"west": (-depth * dx, 0.0), "east": (m * dx, 0.0),
                  "south": (0.0, -depth * dy), "north": (0.0, n * dy)}[edge]
        mm, nn = (depth, n) if edge in ("west", "east") else (m, depth)
        arm = rect(sid, origin, mm, nn, bc, half)
        subs.append(arm)
        ifaces.append(make_interface(len(ifaces), center, edge, arm,
                                     facing[edge]))
    comp = CompositeDomain(subdomains=subs, interfaces=ifaces)
    validate(comp).require()
    return comp


def star_mixed(k):
    """The benchmark's mixed star: x-transformed center, PP-flanked west
    arm, NN-flanked east arm, all-Dirichlet south arm transformed across
    its interface, dy = 0.75 dx, kappa = -50."""
    dx = 1.0 / (4 * k)
    return star_composite(
        {"west": (k, D, P, ("west",)), "east": (3 * k, D, N, ("east",)),
         "south": (k, D, D, ())},
        m=2 * k, n=2 * k, dx=dx, dy=0.75 * dx, kappa=-50.0,
        center_half=("north",))


# composites covering the arm orientations the cross never takes
LINE_OPERATOR_CASES = {
    # all-DD arm on the center's south edge: transformed across its line
    "perpendicular": ({"south": (3, D, D, ()),
                       "west": (2, D, N, ())}, {}),
    # west arm's line is its last sweep row, east arm's its row 0
    "sweep-rows-0-and-last": ({"west": (3, D, N, ("west",)),
                               "east": (4, D, N, ("east",))}, {}),
    # half-cell outer edges force the transposed x transform
    "x-transform": ({"south": (3, D, N, ("south",)),
                     "north": (2, D, N, ("north",)),
                     "east": (3, D, D, ("south", "north"))}, {}),
    # periodic flanks: a cyclic sweep along the south line, and a PP
    # transform along the west line
    "cyclic-sweep": ({"south": (3, D, P, ()), "west": (2, D, P, ())}, {}),
    # an isotropic grid without shift, center transformed along x
    "x-center": ({"west": (2, D, N, ()), "east": (2, D, N, ()),
                  "south": (2, D, N, ())},
                 {"dx": 0.25, "dy": 0.25, "kappa": 0.0,
                  "center_half": ("north",)}),
}


def full_arm_schur(op, p):
    """The Schur term as one full rectangle solve per arm."""
    out = np.zeros(op.size)
    for nb in op.neighbors:
        q = rectsolver.solve_rect(nb.plan, nb.from_center.apply(p))
        out += nb.to_center.apply(q.values)
    return out


class TestLineOperators:
    @pytest.mark.parametrize("name", sorted(LINE_OPERATOR_CASES))
    def test_dense_parity(self, name):
        arms, kw = LINE_OPERATOR_CASES[name]
        comp = star_composite(arms, **kw)
        op = ddm.build_schur_operator(comp)
        A2, S = dense_schur_blocks(comp, 0)
        eye = np.eye(op.size)
        Sn = np.column_stack([op.schur(eye[:, j]) for j in range(op.size)])
        assert np.abs(Sn - S).max() <= 1e-12 * np.abs(S).max()
        np.testing.assert_allclose(op.diagonal(), np.diag(A2 - S),
                                   rtol=1e-12, atol=0)

    def test_cases_cover_every_orientation(self):
        kinds = set()
        for arms, kw in LINE_OPERATOR_CASES.values():
            comp = star_composite(arms, **kw)
            for iface in comp.interfaces:
                arm, edge = iface.other_side(0)
                plan = rectsolver.plan_rect(comp.subdomain(arm))
                across = (edge in ("west", "east")) == (
                    plan.transform_axis == "x")
                row = "first" if edge in ("west", "south") else "last"
                kinds.add((plan.transform_axis,
                           "across" if across else row, plan.cyclic))
        assert kinds >= {("y", "first", False), ("y", "last", False),
                         ("x", "first", False), ("x", "last", False),
                         ("y", "across", False), ("x", "across", False),
                         ("y", "across", True)}

    @pytest.mark.parametrize("comp", [
        pytest.param(bench.build_cross(k_n=16).composite, id="cross-k16"),
        pytest.param(star_mixed(8), id="star-k8"),
    ])
    def test_matches_full_arm_solves(self, comp, rng):
        op = ddm.build_schur_operator(comp)
        for _ in range(3):
            p = rng.standard_normal(op.size)
            want = full_arm_schur(op, p)
            assert np.abs(op.schur(p) - want).max() \
                <= 1e-12 * np.abs(want).max()

    def test_eliminate_arms_takes_fields_or_arrays(self, rng):
        comp = bench.build_cross(k_n=2).composite
        op = ddm.build_schur_operator(comp)
        f = {s.id: rng.standard_normal(s.size) for s in comp.subdomains}
        a = ddm.eliminate_arms(op, f)
        b = ddm.eliminate_arms(
            op, {sid: GridField(sid, v) for sid, v in f.items()})
        want = f[op.coupled_id].copy()
        for nb in op.neighbors:
            sid = nb.plan.subdomain.id
            want -= nb.to_center.apply(
                rectsolver.solve_rect(nb.plan, f[sid]).values)
        np.testing.assert_allclose(a.values, want, atol=1e-13)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.subdomain_id == op.coupled_id

    @pytest.mark.parametrize("name", ["perpendicular", "cyclic-sweep"])
    def test_ddm_solve_matches_global_dense_lu(self, name, rng):
        comp = star_composite(LINE_OPERATOR_CASES[name][0])
        G = oracle.assemble_global_matrix(comp)
        offs = oracle.global_offsets(comp)
        fvec = rng.standard_normal(G.shape[0])
        f = {sid: fvec[a:b] for sid, (a, b) in offs.items()}
        fields, _ = ddm.ddm_solve(comp, f, krylov.GmresConfig(tol=1e-12))
        want = oracle.dense_lu_solve(G, fvec)
        got = np.concatenate([fields[s.id].values for s in comp.subdomains])
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


def spectral_cases():
    """Composites covering both center transform axes and center lines
    along and across the transform axis."""
    cases = [pytest.param(star_composite(arms, **kw), id=name)
             for name, (arms, kw) in sorted(LINE_OPERATOR_CASES.items())]
    cases.append(pytest.param(star_mixed(8), id="star-k8"))
    cases.append(pytest.param(bench.build_cross(k_n=4).composite,
                              id="cross-k4"))
    return cases


def nodal_preconditioned(op, p):
    """(I - A_c^{-1} S) p by a full center solve, in nodal values."""
    return p - rectsolver.solve_rect(op.center_plan, op.schur(p)).values


class TestSpectralOperator:
    @pytest.mark.parametrize("comp", spectral_cases())
    def test_matches_nodal_form(self, comp, rng):
        op = ddm.build_schur_operator(comp)
        for _ in range(3):
            p_hat = rng.standard_normal(op.size)
            want = op.to_spectral(nodal_preconditioned(op, op.to_nodal(p_hat)))
            got = op.spectral_preconditioned(p_hat)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            p = rng.standard_normal(op.size)
            want = nodal_preconditioned(op, p)
            assert np.abs(op.preconditioned(p) - want).max() \
                <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("comp", spectral_cases())
    def test_transform_is_orthogonal(self, comp, rng):
        op = ddm.build_schur_operator(comp)
        p = rng.standard_normal(op.size)
        p_hat = op.to_spectral(p)
        assert np.linalg.norm(p_hat) == pytest.approx(np.linalg.norm(p),
                                                      rel=1e-13)
        np.testing.assert_allclose(op.to_nodal(p_hat), p, rtol=0, atol=1e-13)
        want = op.to_spectral(
            rectsolver.solve_rect(op.center_plan, p).values)
        assert np.abs(op.spectral_rhs(p) - want).max() \
            <= 1e-12 * np.abs(want).max()

    def test_cases_cover_both_axes_and_line_kinds(self):
        kinds = set()
        for param in spectral_cases():
            (comp,) = param.values
            op = ddm.build_schur_operator(comp)
            kinds |= {(op.center_plan.transform_axis,
                       "across" if nb.across else "along")
                      for nb in op.neighbors}
        assert kinds == {(axis, kind) for axis in ("x", "y")
                         for kind in ("along", "across")}
