import csv
import dataclasses
import json

import numpy as np
import pytest

from fftddm import bench, cli, ddm, krylov, oracle
from fftddm.errors import ValidationError
from fftddm.geometry import BoundaryKind, validate

L = 1.0 / 7.0
D = BoundaryKind.DIRICHLET
I = BoundaryKind.INTERFACE


class TestBuildCross:
    @pytest.mark.parametrize("kn,total", [(1, 34), (2, 136), (64, 139264)])
    def test_total_unknowns(self, kn, total):
        assert bench.build_cross(k_n=kn).total_nodes == total

    def test_center_shape_matches_2Lx4L(self):
        case = bench.build_cross(k_n=3)
        center = case.composite.subdomain(bench.CENTER)
        assert (center.m, center.n) == (6, 12)
        assert center.extent() == pytest.approx((L, 3 * L, 2 * L, 6 * L))

    def test_four_interfaces_all_touch_center(self):
        comp = bench.build_cross(k_n=2).composite
        assert len(comp.interfaces) == 4
        for iface in comp.interfaces:
            assert bench.CENTER in (iface.side_a[0], iface.side_b[0])

    def test_composite_is_valid(self):
        assert validate(bench.build_cross(k_n=5).composite).ok

    def test_kn_zero_rejected(self):
        with pytest.raises(ValidationError):
            bench.build_cross(k_n=0)


class TestPsiCoefficients:
    @pytest.mark.parametrize("x,want", [
        (0.0, 0.0), (L, np.pi / 2), (3 * L, 3 * np.pi / 2), (7 * L, 3 * np.pi)])
    def test_psi_x_endpoints(self, x, want):
        case = bench.build_cross(k_n=1)
        assert bench._psi_x(case, x) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("y,want", [
        (0.0, 0.0), (2 * L, np.pi / 2), (6 * L, 3 * np.pi / 2),
        (7 * L, 2 * np.pi)])
    def test_psi_y_endpoints(self, y, want):
        case = bench.build_cross(k_n=1)
        assert bench._psi_y(case, y) == pytest.approx(want, abs=1e-12)


def dirichlet_cross(k_n):
    """The cross with half-cell Dirichlet data on every outer edge."""
    comp = bench.build_cross(k_n=k_n).composite
    subs = [dataclasses.replace(
        sub, edge_bc={e: k if k is I else D for e, k in sub.edge_bc.items()},
        half_cell_dirichlet=frozenset(
            e for e, k in sub.edge_bc.items() if k is not I))
        for sub in comp.subdomains]
    return dataclasses.replace(comp, subdomains=subs)


@pytest.fixture(scope="module")
def case():
    return bench.build_cross(k_n=4)


class TestManufacturedSolution:
    def test_dirichlet_faces_vanish(self, case):
        ys = np.linspace(2 * L, 6 * L, 33)
        xs = np.linspace(L, 3 * L, 33)
        for x in (0.0, 7 * L):
            p = bench.manufactured_solution(case, np.full_like(ys, x), ys)
            assert np.abs(p).max() <= 1e-10
        for y in (0.0, 7 * L):
            p = bench.manufactured_solution(case, xs, np.full_like(xs, y))
            assert np.abs(p).max() <= 1e-10

    def test_neumann_faces_have_zero_normal_derivative(self, case):
        ys = np.linspace(0.0, 2 * L, 17)
        for x in (L, 3 * L):
            dpdx = bench._psi_x_prime(case, x) \
                * np.cos(bench._psi_x(case, x)) \
                * np.sin(bench._psi_y(case, ys))
            assert np.abs(dpdx).max() <= 1e-10
        xs = np.linspace(0.0, L, 9)
        for y in (2 * L, 6 * L):
            dpdy = bench._psi_y_prime(case, y) \
                * np.cos(bench._psi_y(case, y)) \
                * np.sin(bench._psi_x(case, xs))
            assert np.abs(dpdy).max() <= 1e-10

    def test_rhs_matches_finite_difference_laplacian(self, case):
        h = 1e-4
        x, y = 2.0 * L, 4.0 * L  # domain center
        p = lambda a, b: bench.manufactured_solution(case, a, b)
        lap = (p(x + h, y) + p(x - h, y) + p(x, y + h) + p(x, y - h)
               - 4 * p(x, y)) / (h * h)
        assert bench.manufactured_rhs(case, x, y) == pytest.approx(
            float(lap), abs=1e-5)

    def test_outside_point_rejected(self, case):
        with pytest.raises(ValidationError):
            bench.manufactured_solution(case, 0.0, 0.0)  # corner notch

    def test_kappa_shifts_the_rhs_by_kappa_p(self):
        plain = bench.build_cross(k_n=1)
        shifted = bench.build_cross(k_n=1, kappa=2.0)
        x, y = 2.0 * L, 4.0 * L
        diff = bench.manufactured_rhs(shifted, x, y) \
            - bench.manufactured_rhs(plain, x, y)
        assert diff == pytest.approx(
            2.0 * bench.manufactured_solution(plain, x, y), rel=1e-12)


class TestConvergence:
    # k_n need not double: the order divides by log(k_n / previous k_n)
    @pytest.mark.parametrize("kn_list", [[2, 4, 8, 16], [8, 12]])
    def test_errors_decrease_and_order_near_two(self, kn_list):
        rows = bench.run_convergence(kn_list)
        errs = [r["linf_error"] for r in rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert rows[-1]["observed_order"] == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("kn_list", [[8, 4], [8, 8]])
    def test_unsorted_sweep_rejected(self, kn_list):
        with pytest.raises(ValidationError):
            bench.run_convergence(kn_list)

    def test_all_dirichlet_half_cell_cross_is_second_order(self):
        # every outer edge half-cell Dirichlet, flanks included, so each arm
        # has half-cell ends on both axes; u = sin(7 pi x) sin(7 pi y)
        # vanishes on every outer edge, each on a multiple of L = 1/7
        errors = []
        for kn in (8, 16, 32, 64):
            comp = dirichlet_cross(kn)
            exact, f = {}, {}
            for sub in comp.subdomains:
                X, Y = np.meshgrid(sub.x_nodes(), sub.y_nodes(),
                                   indexing="ij")
                exact[sub.id] = np.sin(7 * np.pi * X) * np.sin(7 * np.pi * Y)
                f[sub.id] = -2.0 * (7 * np.pi) ** 2 * exact[sub.id].ravel()
            fields, _ = ddm.ddm_solve(comp, f)
            errors.append(max(np.abs(fields[sid].values - u.ravel()).max()
                              for sid, u in exact.items()))
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert np.all((1.9 <= orders) & (orders <= 2.1)), orders

    def test_kn2_matches_dense_global_solve(self):
        case = bench.build_cross(k_n=2)
        comp = case.composite
        fields, _ = bench.solve_case(case, krylov.GmresConfig(tol=1e-12))
        G = oracle.assemble_global_matrix(comp)
        offs = oracle.global_offsets(comp)
        f = bench.rhs_fields(case)
        fvec = np.concatenate([f[s.id].values for s in comp.subdomains])
        want = oracle.dense_lu_solve(G, fvec)
        got = np.concatenate([fields[s.id].values for s in comp.subdomains])
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


class TestScalingHelpers:
    def test_fit_exponent_on_synthetic_power_law(self):
        kns = [8, 16, 32, 64]
        iters = [3.0 * k ** 0.5 for k in kns]
        assert bench.fit_exponent(kns, iters) == pytest.approx(0.5, abs=1e-12)

    def test_nested_tolerance_needs_at_least_as_many_iterations(self):
        rows = bench.run_scaling([4, 8], tol_list=(1e-7, 1e-10), m=80)
        by_tol = {}
        for r in rows:
            by_tol.setdefault(r["tol"], {})[r["k_n"]] = r["iterations"]
        for kn in (4, 8):
            assert by_tol[1e-10][kn] >= by_tol[1e-7][kn]


class TestEmitters:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        bench.emit_csv([], path, header=["a", "b"])
        assert path.read_text() == "a,b\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        bench.emit_csv([{"a": 1, "b": 0.5}], path)
        assert path.read_text() == "a,b\n1,0.5\n"

    def test_deterministic_bytes(self, tmp_path):
        rows = [{"x": np.pi, "n": 7}, {"x": 1.0 / 3.0, "n": 8}]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        bench.emit_csv(rows, p1)
        bench.emit_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert "3.1415926535897931" in p1.read_text()

    def test_field_dump_shape(self, tmp_path):
        case = bench.build_cross(k_n=1)
        fields, _ = bench.solve_case(case)
        path = tmp_path / "field.csv"
        bench.emit_field(case, fields, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + case.total_nodes
        # the same bytes as formatting each value through emit_csv
        ref = tmp_path / "ref.csv"
        bench.emit_csv(
            ({"x": x, "y": y, "value": v}
             for sub in case.composite.subdomains
             for x, y, v in zip(*bench._node_grid(sub),
                                fields[sub.id].values)),
            ref, header=["x", "y", "value"])
        assert path.read_bytes() == ref.read_bytes()


class TestCli:
    def test_solve_writes_outputs(self, tmp_path, capsys):
        rc = cli.main(["solve", "--kn", "4", "--m", "40", "--tol", "1e-9",
                       "--out", str(tmp_path)])
        assert rc == 0
        for name in ("solution.csv", "report.csv", "residual_history.csv"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "report.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert 0.0 < float(row["true_relative_residual"]) <= 1e-9
        checks = int(row["residual_checks"])
        assert checks >= 1
        out = capsys.readouterr().out
        assert "true relative residual" in out and f"({checks} checks)" in out

    def test_convergence_subcommand(self, tmp_path, capsys):
        rc = cli.main(["convergence", "--kn-list", "2,4",
                       "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "convergence.csv").read_text()
        assert text.startswith("k_n,h,linf_error")
        assert len(text.splitlines()) == 3

    def test_precond_compare_subcommand(self, tmp_path):
        rc = cli.main(["precond-compare", "--kn-list", "2", "--m-list", "20",
                       "--precond", "fft,identity", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "precond_compare.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_precond_compare_repeated_kn(self, tmp_path):
        rc = cli.main(["precond-compare", "--kn-list", "2,2", "--m-list", "20",
                       "--precond", "fft", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "precond_compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            with open(tmp_path / row["history_file"], newline="") as fh:
                history = list(csv.DictReader(fh))
            assert len(history) == 1 + int(row["iterations"])

    def test_scaling_subcommand(self, tmp_path):
        rc = cli.main(["scaling", "--kn-list", "2,4", "--tol-list", "1e-7",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "scaling.csv").exists()
        assert (tmp_path / "timing.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["precond-compare", "--kappa", "-50"],
        ["scaling", "--kappa", "-50"],
    ], ids=lambda argv: f"{argv[0]}{argv[1]}")
    def test_unread_options_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_invalid_kn_fails_with_json_error(self, capsys):
        rc = cli.main(["solve", "--kn", "0"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["error"] == {"type": "ValidationError",
                                    "message": "k_n must be >= 1"}
