import dataclasses

import numpy as np
import pytest

from fftddm import bench, ddm, krylov, oracle, rectsolver, transforms
from fftddm.errors import SingularOperatorError, ValidationError
from fftddm.geometry import (BoundaryKind, CompositeDomain, GridField,
                             RectSubdomain, edge_end, line_indices,
                             make_interface, validate)

from conftest import interface_block, make_rect, rect_row

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
        delta = comp.subdomains[0].delta("x")
        np.testing.assert_allclose(grid[0], delta)   # west line of rect 1
        assert not grid[1:].any()

    def test_matches_dense_R(self, rng):
        comp = two_rect_composite()
        cm = ddm.make_coupling(comp, comp.interfaces[0], 0)
        R = oracle.assemble_coupling_matrix(comp, 0, 1)
        v = rng.standard_normal(9)
        np.testing.assert_allclose(cm.apply(v), R @ v, atol=1e-13)

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


def assert_spectral_parity(comp, op):
    """`spectral_apply` is T - S_hat from the dense oracle, column by
    column, to rounding of the Schur term S_hat."""
    _, T, S_hat, _ = dense_spectral(comp, op)
    K = np.column_stack([op.spectral_apply(e) for e in np.eye(op.size)])
    assert np.abs(K - (T - S_hat)).max() <= 1e-12 * np.abs(S_hat).max()


def preconditioned(op, y):
    """P y, P the fft GMRES operator, through the interface coordinates:
    the coordinates of y itself, taken by the operator and expanded."""
    apply, rhs, _, expand = op.coordinates(op.eigenbasis[1].ravel() * y)
    return expand(apply(rhs))


class TestSchurOperator:
    def test_zero_in_zero_out(self):
        op = ddm.build_schur_operator(bench.build_cross(k_n=1).composite)
        z = np.zeros(op.size)
        assert not op.spectral_apply(z).any()
        assert not preconditioned(op, z).any()

    def test_one_interface_composite_is_a_single_product(self):
        comp = two_rect_composite()
        assert_spectral_parity(comp, ddm.build_schur_operator(comp))

    @pytest.mark.parametrize("kappa", [0.0, -50.0, 3.0])
    @pytest.mark.parametrize("kn", [1, 2])
    def test_dense_equivalence_on_the_cross(self, kn, kappa):
        comp = bench.build_cross(k_n=kn, kappa=kappa).composite
        op = ddm.build_schur_operator(comp)
        assert_spectral_parity(comp, op)
        M = dense_folded_operator(comp, op)
        P = np.column_stack([preconditioned(op, e) for e in np.eye(op.size)])
        assert np.abs(P - M).max() <= 1e-12 * np.abs(M).max()

    def test_single_rectangle_has_no_neighbors(self, rng):
        sub = make_rect(4, 6, "NN", "PP", kappa=-1.0)
        comp = CompositeDomain(subdomains=[sub], interfaces=[])
        op = ddm.build_schur_operator(comp)
        assert op.coupled_id == 0 and op.neighbors == ()
        assert op.along_rows.size == 0 and op.across_q.shape == (0, 6)
        p = rng.standard_normal(op.size)
        # no interface coordinates: b's alone, which P leaves as it is
        apply, rhs, _, _ = op.coordinates(p)
        np.testing.assert_array_equal(apply(rhs), rhs)
        assert rhs.tolist() == [1.0]
        # no Schur term: spectral_apply is T alone, diag(mu + lambda)
        _, mu = rectsolver.sweep_basis(op.center_plan)
        np.testing.assert_array_equal(op.spectral_apply(p), (
            mu[:, None] + op.center_plan.y_plan.eigenvalues).reshape(-1) * p)
        _, T, S_hat, _ = dense_spectral(comp, op)
        assert not S_hat.any()
        want = T @ p
        assert np.abs(op.spectral_apply(p) - want).max() \
            <= 1e-12 * np.abs(want).max()

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
        assert report.true_relative_residual == 0.0
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
        assert report.true_relative_residual == pytest.approx(
            res / np.linalg.norm(f[0]), rel=1e-12)
        assert report.true_relative_residual <= 1e-12

    @pytest.mark.parametrize("x_pair,y_pair", [("NN", "NN"), ("PP", "NN"),
                                               ("PP", "PP")])
    def test_singular_single_rectangle_rejected(self, x_pair, y_pair):
        # the center is planned without sweep factors, and still checked:
        # all-Neumann or periodic with kappa = 0 leaves mode (0, 0) at 0
        sub = make_rect(4, 6, x_pair, y_pair, dx=0.2, dy=0.25)
        comp = CompositeDomain(subdomains=[sub], interfaces=[])
        with pytest.raises(SingularOperatorError, match=r"modes \[0\] "):
            ddm.ddm_solve(comp, {0: np.ones(sub.size)})
        with pytest.raises(SingularOperatorError):
            ddm.build_schur_operator(comp)

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

    @pytest.mark.parametrize("as_field", [False, True],
                             ids=["array", "GridField"])
    @pytest.mark.parametrize("sid", [bench.CENTER, bench.SOUTH],
                             ids=["center", "arm"])
    def test_complex_rhs_rejected(self, sid, as_field):
        # the imaginary part was dropped with a warning, and the solve
        # returned the real part's solution
        case = bench.build_cross(k_n=2)
        f = {s.id: np.ones(s.size) for s in case.composite.subdomains}
        f[sid] = f[sid] + 1j
        with pytest.raises(ValidationError, match=f"subdomain {sid} are co"):
            ddm.ddm_solve(case.composite, {
                k: GridField(k, v) if as_field else v for k, v in f.items()})


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
    # transform, take a shifted sine transform of their own
    "half-cell-flanks": ({"south": (3, D, D, ("west", "east")),
                          "north": (2, D, D, ("west", "east"))}, {}),
    # half-cell ends on both axes of each arm, which transforms y by a
    # shifted sine basis: the south arm's line runs across that transform
    # and takes a shifted sine transform of its own, the west arm's along it
    "half-cell-both-axes": ({"south": (3, D, D, ("south", "west")),
                             "west": (2, D, D, ("west", "north"))}, {}),
    # a one-row center: two approximate arms on its one sweep row
    "one-row-two-arms": ({"west": (2, D, N, ()), "east": (3, D, N, ())},
                         {"m": 1, "n": 4}),
}


def recording(func, calls):
    """`func`, appending its first argument to `calls` on each call."""
    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return func(*args, **kwargs)
    return wrapper


def block_kind(plan, edge):
    """How an arm's interface block is applied: 'plan-axis' by the plan's
    own line transforms, 'line-axis' by a transform planned for the line;
    with '-half' where that transform has half-cell ends."""
    made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "make_plan",
                   recording(transforms.make_plan, made))
        line_plan, t, _, _ = rectsolver.interface_operator(plan, edge)
        interface_block(line_plan, t,
                        np.ones(line_indices(plan.subdomain, edge).size))
    kind = "line-axis" if made else "plan-axis"
    return kind + "-half" if any(line_plan.ends) else kind


def arm_lines(comp, op):
    """(neighbor, its interface edge, across, weight) for each arm of `op`,
    from the composite: whether the center's line runs across the center's
    transform axis, and the product of the two couplings."""
    for nb, iface in zip(op.neighbors, comp.interfaces_of(op.coupled_id)):
        sid, edge = iface.other_side(op.coupled_id)
        axis, _ = edge_end(iface.other_side(sid)[1])
        coupling = comp.coupling(iface)
        yield (nb, edge, axis == op.center_plan.transform_axis,
               coupling * coupling)


def exact_arms(comp, op):
    """Ids of the arms whose line transform is the center's: D carries them
    exactly."""
    return [nb.plan.subdomain.id
            for nb, edge, across, _ in arm_lines(comp, op) if not across
            and rectsolver.interface_operator(nb.plan, edge,
                                              op.center_plan)[3]]


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
        assert_spectral_parity(comp, ddm.build_schur_operator(comp))

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
        assert {kind for _, kind in kinds} == {
            "plan-axis", "line-axis", "plan-axis-half", "line-axis-half"}
        assert {("x", "line-axis-half"), ("y", "line-axis-half"),
                ("y", "plan-axis-half")} <= kinds

    @pytest.mark.parametrize("comp,exact_ids,calls", [
        pytest.param(bench.build_cross(k_n=8).composite, [], 6, id="cross-k8"),
        pytest.param(star_mixed(8), [2], 4, id="star-k8"),  # south
    ] + [pytest.param(star_composite(arms, **kw), None, None, id=name)
         for name, (arms, kw) in sorted(LINE_OPERATOR_CASES.items())])
    def test_no_sweep_per_apply(self, comp, exact_ids, calls, monkeypatch):
        # every arm line has a line transform, and T is diagonal in the
        # center's eigenbasis: an apply sweeps nothing.  An arm that D
        # carries exactly (the star's south arm) costs nothing per apply:
        # no group, and no line transform of the center.
        op = ddm.build_schur_operator(comp)
        exact = exact_arms(comp, op)
        assert exact_ids is None or exact == exact_ids
        # each other arm holds one slot of one group
        slots = sorted((batch, int(s)) for batch, group, *_ in op.groups
                       for s in group)
        assert len(slots) == len(op.neighbors) - len(exact)
        assert slots == [(0, i) for i in range(op.along_rows.size)] \
            + [(1, i) for i in range(len(op.across_q))]
        op.solution(np.ones(op.size))   # D's columns, built on first use
        dense = op._dense_maps          # and the arms' maps, if dense
        swept = []
        counting = recording(rectsolver.sweep, swept)
        monkeypatch.setattr(rectsolver, "sweep", counting)
        # also where ddm would import it by name
        monkeypatch.setattr(ddm, "sweep", counting, raising=False)
        coordinate_apply, rhs, _, _ = op.coordinates(np.ones(op.size))
        for apply, v in ((coordinate_apply, rhs),
                         (op.spectral_apply, np.ones(op.size))):
            transformed = []
            for name in ("apply_Q", "apply_Qt"):
                monkeypatch.setattr(transforms, name, recording(
                    getattr(transforms, name), transformed))
            fused = apply(v)
            assert swept == []
            # where every transform is a dense product, each arm's map is
            # one product; past the dense cuts an apply takes the line
            # transforms, forced here by dropping the maps
            assert dense is None or transformed == []
            monkeypatch.setitem(op.__dict__, "_dense_maps", None)
            np.testing.assert_allclose(apply(v), fused, rtol=0,
                                       atol=1e-13 * np.abs(fused).max())
            monkeypatch.setitem(op.__dict__, "_dense_maps", dense)
            assert swept == []
            center_lines = transformed.count(op.center_plan.y_plan)
            assert center_lines == (2 if op.along_rows.size else 0)
            # one line transform each way per group, none for an exact arm
            for *_, line_plan, _ in op.groups:
                assert transformed.count(line_plan) == 2
            assert len(transformed) == center_lines + 2 * len(op.groups)
            assert calls is None or len(transformed) == calls

    @pytest.mark.parametrize("comp", [
        pytest.param(bench.build_cross(k_n=8).composite, id="cross-k8"),
        pytest.param(star_mixed(8), id="star-k8"),
    ])
    def test_one_full_transform_each_way_per_arm(self, comp, rng,
                                                  monkeypatch):
        # each arm is swept once, read on its line and back-substituted
        # from that sweep and a line source: one full forward and one full
        # inverse transform (each a whole grid) per arm, beside the
        # center's one of each
        calls = {"to_spectral": [], "to_nodal": []}
        for name, seen in calls.items():
            counting = recording(getattr(rectsolver, name), seen)
            monkeypatch.setattr(rectsolver, name, counting)
            monkeypatch.setattr(ddm, name, counting, raising=False)
        f = {s.id: rng.standard_normal(s.size) for s in comp.subdomains}
        ddm.ddm_solve(comp, f)
        ids = sorted(s.id for s in comp.subdomains)
        for seen in calls.values():
            assert sorted(plan.subdomain.id for plan in seen) == ids

    @pytest.mark.parametrize("comp", [
        pytest.param(bench.build_cross(k_n=16).composite, id="cross-k16"),
        pytest.param(star_mixed(8), id="star-k8"),
    ])
    def test_matches_full_arm_solves(self, comp, rng):
        # beyond the dense oracle's sizes: Q^T (A_c - S) Q x_hat with S as
        # full arm solves, to rounding of the Schur term
        op = ddm.build_schur_operator(comp)
        center = op.center_plan.subdomain
        for _ in range(3):
            x_hat = rng.standard_normal(op.size)
            p = op.to_nodal(x_hat)
            schur = to_spectral(op, full_arm_schur(op, p))
            want = to_spectral(op, rectsolver.apply_rect_operator(center, p))
            want -= schur
            assert np.abs(op.spectral_apply(x_hat) - want).max() \
                <= 1e-12 * np.abs(schur).max()

    def test_shared_line_transforms_match_per_arm_blocks(self, monkeypatch):
        # on the cross the west/east and the south/north arms each share a
        # line transform: an apply on the line transforms (past the dense
        # cuts; forced here) makes 6 calls, not the 10 of one transform pair
        # per arm, and solves as if it made them
        case = bench.build_cross(k_n=8)
        op = ddm.build_schur_operator(case.composite)
        assert sorted(len(slots) for _, slots, *_ in op.groups) == [2, 2]
        per_arm = dataclasses.replace(op, groups=tuple(
            (batch, slots[i:i + 1], line_plan, scale[i:i + 1])
            for batch, slots, line_plan, scale in op.groups
            for i in range(len(slots))))
        f = ddm.eliminate_arms(op, bench.rhs_fields(case))
        cfg = krylov.GmresConfig(m=80, tol=1e-10)
        (p, rep), (want, want_rep) = (krylov.solve_coupled(o, f, cfg)
                                      for o in (op, per_arm))
        assert rep.iterations == want_rep.iterations
        assert np.abs(p.values - want.values).max() \
            <= 1e-13 * np.abs(want.values).max()
        for o, calls in ((op, 6), (per_arm, 10)):
            apply, rhs, _, _ = o.coordinates(np.ones(o.size))
            transformed = []
            for name in ("apply_Q", "apply_Qt"):
                monkeypatch.setattr(transforms, name, recording(
                    getattr(transforms, name), transformed))
            monkeypatch.setitem(o.__dict__, "_dense_maps", None)
            apply(rhs)
            monkeypatch.undo()
            assert len(transformed) == calls

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

    @pytest.mark.parametrize("name", ["perpendicular", "cyclic-sweep",
                                      "one-row-two-arms"])
    def test_ddm_solve_matches_global_dense_lu(self, name, rng):
        arms, kw = LINE_OPERATOR_CASES[name]
        assert_matches_global_dense_lu(star_composite(arms, **kw), rng)

    def test_exact_folds_leave_a_direct_solve(self, rng):
        # both arms' lines are the one-row center's sweep row, with the
        # center's transform: T - D is the Schur complement, and GMRES
        # sees the identity
        comp = star_composite({"west": (2, D, D, ()), "east": (3, D, D, ())},
                              m=1, n=4)
        op = ddm.build_schur_operator(comp)
        assert exact_arms(comp, op) == [1, 2]
        assert op.groups == () and op.along_rows.size == 0
        assert op.across_q.shape == (0, 4)
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


def to_spectral(op, p):
    """(W (x) Q)^T p: the center's eigenbasis coefficients, flat."""
    W = op.eigenbasis[0]
    return (W.T @ rectsolver.to_spectral(op.center_plan, p)).reshape(-1)


def dense_spectral(comp, op):
    """The center's system in eigenbasis coefficients from the dense
    oracle: (Q, T, S_hat, D) with Q taking flat coefficients to flat nodal
    values, T = Q^T A_c Q, S_hat = Q^T S Q and D the operator's fold.  Q is
    the line transform's Q_t (x) I conjugated by P = W (x) I_nt, W the
    sweep axis's eigenvectors, so D = P^T diag(d) P is not diagonal."""
    plan = op.center_plan
    sub = plan.subdomain
    ms, nt = plan.shape
    P = np.kron(op.eigenbasis[0], np.eye(nt))
    Q = np.kron(np.eye(ms),
                oracle.assemble_eigvector_matrix(plan.y_plan.bc, nt))
    if plan.transform_axis == "x":      # spectral rows run along y
        Q = Q[np.arange(sub.size).reshape(sub.n, sub.m).T.reshape(-1)]
    Q = Q @ P
    A2, S = dense_schur(comp, op.coupled_id)
    D = np.zeros((ms, nt))
    D[op.fold_rows] = op.fold_d
    return Q, Q.T @ A2 @ Q, Q.T @ S @ Q, P.T @ np.diag(D.reshape(-1)) @ P


def dense_schur(comp, cid):
    """(A_c, S) of subdomain `cid` from the dense global matrix G: A_c its
    diagonal block, S = G_co G_oo^{-1} G_oc over all other blocks o."""
    G = oracle.assemble_global_matrix(comp)
    c = np.zeros(len(G), dtype=bool)
    c[slice(*oracle.global_offsets(comp)[cid])] = True
    return G[c][:, c], G[c][:, ~c] @ np.linalg.solve(G[~c][:, ~c],
                                                     G[~c][:, c])


def dense_folded_operator(comp, op):
    """T^{-1} (T - S_hat) (T - D)^{-1} T from the dense oracle."""
    _, T, S_hat, D = dense_spectral(comp, op)
    return np.linalg.solve(T, T - S_hat) @ np.linalg.solve(T - D, T)


def arm_symbols(comp, op):
    """(d, weight * Q_c^T B Q_c, exact) of each arm on a sweep row of the
    center, B the arm's block and Q_c the center's line transform."""
    plan = op.center_plan
    Qc = oracle.assemble_eigvector_matrix(plan.y_plan.bc, plan.y_plan.n)
    for nb, edge, across, weight in arm_lines(comp, op):
        if not across:
            line_plan, t, t_c, exact = rectsolver.interface_operator(
                nb.plan, edge, plan)
            B = np.column_stack([interface_block(line_plan, t, e)
                                 for e in np.eye(plan.y_plan.n)])
            yield weight * t_c, weight * Qc.T @ B @ Qc, exact


class TestSpectralOperator:
    @pytest.mark.parametrize("comp", spectral_cases())
    def test_matches_dense_reference(self, comp, rng):
        op = ddm.build_schur_operator(comp)
        _, T, S_hat, D = dense_spectral(comp, op)
        M = dense_folded_operator(comp, op)
        for _ in range(3):
            y = rng.standard_normal(op.size)
            want = M @ y
            got = preconditioned(op, y)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            x = np.linalg.solve(T - D, T @ y)
            got = op.solution(y).reshape(-1)
            assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()
            want = (T - S_hat) @ x
            got = op.spectral_apply(op.solution(y))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("comp", spectral_cases())
    def test_transform_is_orthogonal(self, comp, rng):
        op = ddm.build_schur_operator(comp)
        p = rng.standard_normal(op.size)
        p_hat = to_spectral(op, p)
        assert np.linalg.norm(p_hat) == pytest.approx(np.linalg.norm(p),
                                                      rel=1e-13)
        np.testing.assert_allclose(op.to_nodal(p_hat), p, rtol=0, atol=1e-13)
        # the operator's center plan has no sweep factors: plan them here
        center = rectsolver.plan_rect(op.center_plan.subdomain)
        want = to_spectral(op, rectsolver.solve_rect(center, p).values)
        f_hat = op.spectral_rhs(p)
        np.testing.assert_array_equal(f_hat, p_hat)
        b_hat = op.eigenbasis[2].ravel() * f_hat     # T^{-1}: the center solve
        assert np.abs(b_hat - want).max() <= 1e-12 * np.abs(want).max()

    def test_cases_cover_both_axes_and_line_kinds(self):
        kinds, folds = set(), set()
        for param in spectral_cases():
            (comp,) = param.values
            op = ddm.build_schur_operator(comp)
            kinds |= {(op.center_plan.transform_axis,
                       "across" if across else "along")
                      for _, _, across, _ in arm_lines(comp, op)}
            folds |= {"exact" if exact else "approx"
                      for _, _, exact in arm_symbols(comp, op)}
        assert kinds == {(axis, kind) for axis in ("x", "y")
                         for kind in ("along", "across")}
        assert folds == {"exact", "approx"}

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


RANDOM_STARS = 120
KAPPAS = (-50.0, -3.0, 0.0, 2.0)


def random_star(seed):
    """A valid star composite drawn from `seed`: a center of 1-6 by 1-6
    nodes with 1-4 arms of depth 1-4, each with Dirichlet, Neumann or
    periodic flanks; half-cell Dirichlet ends, each with probability one
    half, on the arms' outer edges and Dirichlet flanks and on the
    center's free edges; dx != dy and kappa from KAPPAS."""
    rng = np.random.default_rng(seed)
    m, n = (int(c) for c in rng.integers(1, 7, size=2))
    flanks = {"west": ("south", "north"), "east": ("south", "north"),
              "south": ("west", "east"), "north": ("west", "east")}
    arms = {}
    for edge in map(str, rng.permutation(list(flanks))[:rng.integers(1, 5)]):
        length = n if edge in ("west", "east") else m
        kinds = (D, N, P) if length % 2 == 0 else (D, N)
        flank = kinds[rng.integers(len(kinds))]
        half = [e for e in (edge,) + (flanks[edge] if flank is D else ())
                if rng.random() < 0.5]
        arms[edge] = (int(rng.integers(1, 5)), D, flank, tuple(half))
    center_half = tuple(e for e in flanks
                        if e not in arms and rng.random() < 0.5)
    dx, dy = rng.uniform(0.1, 0.3, size=2)
    return star_composite(arms, m=m, n=n, dx=dx, dy=dy,
                          kappa=KAPPAS[rng.integers(len(KAPPAS))],
                          center_half=center_half)


class TestRandomStars:
    @pytest.mark.parametrize("seed", range(RANDOM_STARS))
    def test_matches_global_dense_lu(self, seed, rng):
        assert_matches_global_dense_lu(random_star(seed), rng)

    def test_sample_covers_the_arm_kinds(self):
        # every block kind, with and without half-cell ends on both of the
        # arm's axes, every flank kind and every kappa
        kinds, flanks, kappas = set(), set(), set()
        for seed in range(RANDOM_STARS):
            comp = random_star(seed)
            kappas.add(comp.subdomain(0).kappa)
            for iface in comp.interfaces_of(0):
                arm, edge = iface.other_side(0)
                sub = comp.subdomain(arm)
                plan = rectsolver.plan_rect(sub)
                both = all(any(rectsolver._half(sub, a)) for a in "xy")
                kinds.add((block_kind(plan, edge), both))
                flanks.add(sub.axis_pair("y" if edge in ("west", "east")
                                         else "x"))
        # an arm with half-cell ends on both axes has them on its line too
        assert kinds == {("plan-axis", False), ("line-axis", False),
                         ("line-axis-half", False), ("plan-axis-half", True),
                         ("line-axis-half", True)}
        assert flanks == {"DD", "NN", "PP"} and kappas == set(KAPPAS)
