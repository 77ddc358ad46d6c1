import dataclasses

import numpy as np
import pytest

from fftddm import bench, ddm, krylov, oracle, rectsolver, transforms
from fftddm.errors import ValidationError
from fftddm.geometry import (BoundaryKind, CompositeDomain, GridField,
                             RectSubdomain, line_indices, make_interface,
                             validate)

from conftest import make_rect, rect_row

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


def assert_matches_global_dense_lu(comp, rng):
    """ddm_solve of a random right-hand side agrees with dense LU of the
    global matrix."""
    G = oracle.assemble_global_matrix(comp)
    offs = oracle.global_offsets(comp)
    fvec = rng.standard_normal(G.shape[0])
    f = {sid: fvec[a:b] for sid, (a, b) in offs.items()}
    fields, _ = ddm.ddm_solve(comp, f, krylov.GmresConfig(tol=1e-12))
    want = oracle.dense_lu_solve(G, fvec)
    got = np.concatenate([fields[s.id].values for s in comp.subdomains])
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


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


class TestSchurOperator:
    def test_zero_in_zero_out(self):
        op = ddm.build_schur_operator(bench.build_cross(k_n=1).composite)
        z = np.zeros(op.size)
        assert not op.schur(z).any()
        assert not op.spectral_preconditioned(z).any()

    def test_one_interface_composite_is_a_single_product(self, rng):
        comp = two_rect_composite()
        op = ddm.build_schur_operator(comp)
        cid = op.coupled_id
        _, S = oracle.assemble_schur_blocks(comp, cid)
        v = rng.standard_normal(op.size)
        np.testing.assert_allclose(op.schur(v), S @ v, atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, -50.0, 3.0])
    @pytest.mark.parametrize("kn", [1, 2])
    def test_dense_equivalence_on_the_cross(self, kn, kappa):
        comp = bench.build_cross(k_n=kn, kappa=kappa).composite
        op = ddm.build_schur_operator(comp)
        A2, S = oracle.assemble_schur_blocks(comp, op.coupled_id)
        Nc = op.size
        eye = np.eye(Nc)
        Sn = np.column_stack([op.schur(eye[:, j]) for j in range(Nc)])
        assert np.abs(Sn - S).max() <= 1e-9
        Pn = np.column_stack([nodal_preconditioned(op, eye[:, j])
                              for j in range(Nc)])
        Pd = eye - np.linalg.solve(A2, S)
        assert np.abs(Pn - Pd).max() <= 1e-9

    def test_single_rectangle_has_no_neighbors(self, rng):
        sub = make_rect(4, 6, "NN", "PP", kappa=-1.0)
        op = ddm.build_schur_operator(
            CompositeDomain(subdomains=[sub], interfaces=[]))
        assert op.coupled_id == 0 and op.neighbors == ()
        assert op.along_rows.size == 0 and op.across_q.shape == (0, 6)
        p = rng.standard_normal(op.size)
        np.testing.assert_array_equal(op.spectral_preconditioned(p), p)
        assert not op.schur(p).any()

    def test_center_designation_on_the_cross(self):
        comp = bench.build_cross(k_n=1).composite
        assert comp.center == bench.CENTER
        assert ddm.build_schur_operator(comp).coupled_id == bench.CENTER

    def test_center_designation_two_rectangles(self):
        comp = two_rect_composite()
        assert comp.center == 0
        assert ddm.build_schur_operator(comp).coupled_id == 0

    def test_no_center_rejected_without_validate(self):
        # a chain of four has two coupled subdomains sharing an interface
        with pytest.raises(ValidationError, match="every interface"):
            ddm.build_schur_operator(rect_row(4, (0, 1, 2)))


class TestDdmSolve:
    def test_zero_rhs(self):
        comp = bench.build_cross(k_n=2).composite
        f = {s.id: np.zeros(s.size) for s in comp.subdomains}
        fields, report = ddm.ddm_solve(comp, f)
        assert report.converged and report.iterations == 0
        for s in comp.subdomains:
            assert not fields[s.id].values.any()

    @pytest.mark.parametrize("kappa", [0.0, -50.0, 3.0])
    @pytest.mark.parametrize("kn", [1, 2])
    def test_matches_global_dense_lu(self, kn, kappa, rng):
        assert_matches_global_dense_lu(
            bench.build_cross(k_n=kn, kappa=kappa).composite, rng)

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
        cid = comp.center
        for iface in comp.interfaces:
            oid = iface.other_side(cid)[0]
            cm = ddm.make_coupling(comp, iface, cid)
            sub = comp.subdomain(oid)
            res = rectsolver.apply_rect_operator(sub, fields[oid].values) \
                + cm.apply(fields[cid].values) - f[oid]
            assert np.abs(res).max() <= 1e-9 * max(np.abs(f[oid]).max(), 1.0)

    @pytest.mark.parametrize("x_pair", ["DD", "NN", "PP"])
    @pytest.mark.parametrize("y_pair", ["DD", "NN", "PP"])
    def test_single_rectangle_composite(self, x_pair, y_pair, rng):
        # a center without neighbors: empty line batches through every
        # transform kernel, and GMRES sees the identity
        sub = make_rect(4, 6, x_pair, y_pair, dx=0.2, dy=0.25, kappa=-3.0)
        comp = CompositeDomain(subdomains=[sub], interfaces=[])
        f = {0: rng.standard_normal(sub.size)}
        fields, report = ddm.ddm_solve(comp, f)
        assert report.converged and report.iterations == 1
        want = oracle.dense_lu_solve(oracle.assemble_rect_matrix(sub), f[0])
        np.testing.assert_allclose(fields[0].values, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
        assert report.wall_time > 0.0
        res = np.linalg.norm(
            rectsolver.apply_rect_operator(sub, fields[0].values) - f[0])
        assert report.true_residual == pytest.approx(res, rel=1e-12)
        assert report.true_relative_residual == pytest.approx(
            res / np.linalg.norm(f[0]), rel=1e-12)
        assert report.true_relative_residual <= 1e-12

    def test_single_rectangle_honours_the_preconditioner(self, rng):
        sub = make_rect(4, 4, dx=0.2, dy=0.2)
        comp = CompositeDomain(subdomains=[sub], interfaces=[])
        f = {0: rng.standard_normal(sub.size)}
        cfg = krylov.GmresConfig(tol=1e-12, preconditioner="identity")
        fields, report = ddm.ddm_solve(comp, f, cfg)
        assert report.converged and report.iterations > 1
        want = oracle.dense_lu_solve(oracle.assemble_rect_matrix(sub), f[0])
        np.testing.assert_allclose(fields[0].values, want, rtol=0,
                                   atol=1e-9 * np.abs(want).max())

    def test_two_rectangle_composite(self, rng):
        assert_matches_global_dense_lu(two_rect_composite(), rng)

    def test_rhs_length_mismatch_rejected(self):
        comp = two_rect_composite()
        f = {0: np.zeros(9), 1: np.zeros(8)}
        with pytest.raises(ValidationError):
            ddm.ddm_solve(comp, f)

    def test_missing_rhs_rejected(self):
        comp = two_rect_composite()
        with pytest.raises(ValidationError, match="subdomain 1"):
            ddm.ddm_solve(comp, {0: np.zeros(9)})

    @pytest.mark.parametrize("sid,value", [(bench.CENTER, np.nan),
                                           (bench.SOUTH, np.inf)],
                             ids=["nan-center", "inf-arm"])
    def test_nonfinite_rhs_rejected_before_solving(self, sid, value):
        # a NaN reaching GMRES would run every restart before failing
        case = bench.build_cross(k_n=4)
        f = {s.id: np.ones(s.size) for s in case.composite.subdomains}
        f[sid][3] = value
        with pytest.raises(ValidationError, match=f"subdomain {sid} is not"):
            ddm.ddm_solve(case.composite, f)


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
    # half-cell flanks: y-transformed arms whose lines, across their
    # transform, have no transform of their own
    "half-cell-flanks": ({"south": (3, D, D, ("west", "east")),
                          "north": (2, D, D, ("west", "east"))}, {}),
}


def recording(func, calls):
    """`func`, appending its first argument to `calls` on each call."""
    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return func(*args, **kwargs)
    return wrapper


def block_kind(plan, edge):
    """How an arm's interface block is applied: 'plan-axis' by the plan's
    own line transforms, 'line-axis' by a transform planned for the line,
    'sweep' by a rank-one sweep of the arm."""
    made, swept = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "make_plan",
                   recording(transforms.make_plan, made))
        mp.setattr(rectsolver, "sweep", recording(rectsolver.sweep, swept))
        block, _, _ = rectsolver.interface_operator(plan, edge)
        block(np.ones(line_indices(plan.subdomain, edge).size))
    if swept:
        return "sweep"
    return "line-axis" if made else "plan-axis"


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
        _, S = oracle.assemble_schur_blocks(comp, 0)
        eye = np.eye(op.size)
        Sn = np.column_stack([op.schur(eye[:, j]) for j in range(op.size)])
        assert np.abs(Sn - S).max() <= 1e-12 * np.abs(S).max()

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

    def test_cases_cover_every_block_kind(self):
        kinds = set()
        for arms, kw in LINE_OPERATOR_CASES.values():
            comp = star_composite(arms, **kw)
            for iface in comp.interfaces:
                arm, edge = iface.other_side(0)
                plan = rectsolver.plan_rect(comp.subdomain(arm))
                kinds.add((plan.transform_axis, block_kind(plan, edge)))
        assert {kind for _, kind in kinds} == {"plan-axis", "line-axis",
                                               "sweep"}
        assert {("x", "sweep"), ("y", "sweep")} <= kinds

    @pytest.mark.parametrize("comp,exact_ids", [
        pytest.param(bench.build_cross(k_n=8).composite, [], id="cross-k8"),
        pytest.param(star_mixed(8), [2], id="star-k8"),  # south
    ])
    def test_one_sweep_per_preconditioned_apply(self, comp, exact_ids,
                                                monkeypatch):
        # every arm block here has a line transform; only the center sweeps.
        # An arm that D carries exactly (the star's south arm) costs nothing
        # per apply: no block, and no line transform of the center.
        op = ddm.build_schur_operator(comp)
        applied, swept, transformed = [], [], []

        def counted(nb):
            def block(v):
                applied.append(nb.plan.subdomain.id)
                return nb.block(v)
            return dataclasses.replace(nb, block=block)

        op = dataclasses.replace(
            op, neighbors=tuple(map(counted, op.neighbors)))
        op.solution(np.ones(op.size))   # D's columns, built on first use
        counting = recording(rectsolver.sweep, swept)
        monkeypatch.setattr(rectsolver, "sweep", counting)
        monkeypatch.setattr(ddm, "sweep", counting)
        for name in ("apply_Q", "apply_Qt"):
            monkeypatch.setattr(transforms, name, recording(
                getattr(transforms, name), transformed))
        op.spectral_preconditioned(np.ones(op.size))
        assert swept == [op.center_plan]
        assert [nb.plan.subdomain.id for nb in op.neighbors
                if nb.slot is None] == exact_ids
        assert sorted(applied) == sorted(
            nb.plan.subdomain.id for nb in op.neighbors
            if nb.slot is not None)
        center_lines = transformed.count(op.center_plan.y_plan)
        assert center_lines == (2 if op.along_rows.size else 0)

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

    @pytest.mark.parametrize("sid,size", [
        (bench.CENTER, 1), (bench.CENTER, None), (bench.SOUTH, None)],
        ids=["center-too-long", "center-missing", "arm-missing"])
    def test_eliminate_arms_rejects_bad_fields(self, sid, size):
        comp = bench.build_cross(k_n=2).composite
        op = ddm.build_schur_operator(comp)
        f = {s.id: np.ones(s.size) for s in comp.subdomains}
        if size is None:
            del f[sid]
        else:
            f[sid] = np.ones(f[sid].size + size)
        with pytest.raises(ValidationError, match=f"subdomain {sid}"):
            ddm.eliminate_arms(op, f)

    @pytest.mark.parametrize("name", ["perpendicular", "cyclic-sweep"])
    def test_ddm_solve_matches_global_dense_lu(self, name, rng):
        assert_matches_global_dense_lu(
            star_composite(LINE_OPERATOR_CASES[name][0]), rng)

    def test_exact_folds_leave_a_direct_solve(self, rng):
        # both arms' lines are the one-row center's sweep row, with the
        # center's transform: T - D is the Schur complement, and GMRES
        # sees the identity
        comp = star_composite({"west": (2, D, D, ()), "east": (3, D, D, ())},
                              m=1, n=4)
        op = ddm.build_schur_operator(comp)
        assert [nb.slot for nb in op.neighbors] == [None, None]
        assert_matches_global_dense_lu(comp, rng)
        f = {s.id: rng.standard_normal(s.size) for s in comp.subdomains}
        _, report = ddm.ddm_solve(comp, f)
        assert report.iterations == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_tiny_star_matches_global_dense_lu(self, k, rng):
        # arms sweep one to six rows (the cross at k_n = 1, with one- and
        # two-row sweeps, is in TestDdmSolve)
        assert_matches_global_dense_lu(star_mixed(k), rng)


def spectral_cases():
    """Composites covering both center transform axes and center lines
    along and across the transform axis."""
    cases = [pytest.param(star_composite(arms, **kw), id=name)
             for name, (arms, kw) in sorted(LINE_OPERATOR_CASES.items())]
    cases.append(pytest.param(star_mixed(8), id="star-k8"))
    # one sweep row: an exact and an approximate arm fold on the same row
    cases.append(pytest.param(star_composite(
        {"west": (2, D, N, ()), "east": (3, D, D, ())}, m=1, n=4),
        id="one-row"))
    cases.append(pytest.param(bench.build_cross(k_n=4).composite,
                              id="cross-k4"))
    return cases


def nodal_preconditioned(op, p):
    """(I - A_c^{-1} S) p by a full center solve, in nodal values."""
    return p - rectsolver.solve_rect(op.center_plan, op.schur(p)).values


def to_spectral(op, p):
    """Q^T p: the center's spectral coefficients, flat."""
    return rectsolver.to_spectral(op.center_plan, p).reshape(-1)


def dense_spectral(comp, op):
    """The center's system in spectral coefficients from the dense oracle:
    (Q, T, S_hat, D) with Q taking flat spectral rows to flat nodal values,
    T = Q^T A_c Q, S_hat = Q^T S Q and D the operator's fold."""
    plan = op.center_plan
    sub = plan.subdomain
    ms, nt = plan.shape
    Q = np.kron(np.eye(ms),
                oracle.assemble_eigvector_matrix(plan.y_plan.bc, nt))
    if plan.transform_axis == "x":      # spectral rows run along y
        Q = Q[np.arange(sub.size).reshape(sub.n, sub.m).T.reshape(-1)]
    A2, S = oracle.assemble_schur_blocks(comp, op.coupled_id)
    D = np.zeros((ms, nt))
    D[op.fold_rows] = op.fold_d
    return Q, Q.T @ A2 @ Q, Q.T @ S @ Q, np.diag(D.reshape(-1))


def dense_folded_operator(comp, op):
    """T^{-1} (T - S_hat) (T - D)^{-1} T from the dense oracle."""
    _, T, S_hat, D = dense_spectral(comp, op)
    return np.linalg.solve(T, T - S_hat) @ np.linalg.solve(T - D, T)


def arm_symbols(comp, op):
    """(d, weight * Q_c^T B Q_c, exact) of each arm on a sweep row of the
    center, B the arm's block and Q_c the center's line transform."""
    plan = op.center_plan
    Qc = oracle.assemble_eigvector_matrix(plan.y_plan.bc, plan.y_plan.n)
    for nb, iface in zip(op.neighbors, comp.interfaces_of(op.coupled_id)):
        if not nb.across:
            edge = iface.other_side(op.coupled_id)[1]
            block, t_c, exact = rectsolver.interface_operator(nb.plan, edge,
                                                              plan)
            B = np.column_stack([block(e) for e in np.eye(plan.y_plan.n)])
            yield (None if t_c is None else nb.weight * t_c,
                   nb.weight * Qc.T @ B @ Qc, exact)


class TestSpectralOperator:
    @pytest.mark.parametrize("comp", spectral_cases())
    def test_matches_dense_reference(self, comp, rng):
        op = ddm.build_schur_operator(comp)
        Q, T, S_hat, D = dense_spectral(comp, op)
        M = dense_folded_operator(comp, op)
        f = rng.standard_normal(op.size)
        f_hat = Q.T @ f
        for _ in range(3):
            y = rng.standard_normal(op.size)
            want = M @ y
            got = op.spectral_preconditioned(y)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            x = np.linalg.solve(T - D, T @ y)
            got = op.solution(y).reshape(-1)
            assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()
            want = f_hat - (T - S_hat) @ x
            got = op.spectral_residual(y, f_hat)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("comp", spectral_cases())
    def test_transform_is_orthogonal(self, comp, rng):
        op = ddm.build_schur_operator(comp)
        p = rng.standard_normal(op.size)
        p_hat = to_spectral(op, p)
        assert np.linalg.norm(p_hat) == pytest.approx(np.linalg.norm(p),
                                                      rel=1e-13)
        np.testing.assert_allclose(op.to_nodal(p_hat), p, rtol=0, atol=1e-13)
        want = to_spectral(op, rectsolver.solve_rect(op.center_plan, p).values)
        f_hat, b_hat = op.spectral_rhs(p)
        np.testing.assert_array_equal(f_hat, p_hat)
        assert np.abs(b_hat - want).max() <= 1e-12 * np.abs(want).max()

    def test_cases_cover_both_axes_and_line_kinds(self):
        kinds, folds = set(), set()
        for param in spectral_cases():
            (comp,) = param.values
            op = ddm.build_schur_operator(comp)
            kinds |= {(op.center_plan.transform_axis,
                       "across" if nb.across else "along")
                      for nb in op.neighbors}
            folds |= {"none" if d is None else "exact" if exact else "approx"
                      for d, _, exact in arm_symbols(comp, op)}
        assert kinds == {(axis, kind) for axis in ("x", "y")
                         for kind in ("along", "across")}
        assert folds == {"none", "exact", "approx"}

    def test_exact_symbol_is_the_arm_in_the_center_basis(self):
        comp = star_mixed(8)
        op = ddm.build_schur_operator(comp)
        (d, block, exact), = arm_symbols(comp, op)
        assert exact
        assert np.abs(block - np.diag(d)).max() <= 1e-13 * np.abs(d).max()
        np.testing.assert_array_equal(op.fold_d, [d])

    def test_symbol_near_the_diagonal_on_the_cross(self):
        # NN arms against the DD center: t at the center's eigenvalues
        # stands in for the diagonal of the arm's term in the center basis
        comp = bench.build_cross(k_n=16).composite
        op = ddm.build_schur_operator(comp)
        symbols = list(arm_symbols(comp, op))
        assert len(symbols) == 2
        for d, block, exact in symbols:
            assert not exact
            diag = np.diag(block)
            assert np.abs(d - diag).max() <= 0.03 * np.abs(diag).max()
        assert sorted(op.fold_rows) == [0, op.center_plan.shape[0] - 1]
