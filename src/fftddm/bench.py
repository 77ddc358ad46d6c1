"""Cross-domain benchmark: case construction, studies, CSV output.

The benchmark domain is a plus-shaped union of five rectangles of overall
extent 7L x 7L with L = 1/7: a 2L x 4L center with four arms.  Outer edges
carry zero Dirichlet data on the arm-end faces and zero Neumann data on
the arm flanks.  The manufactured solution

    p(x, y) = sin(psi_x(x)) sin(psi_y(y))

uses cubic phase polynomials pinned so that p vanishes on every Dirichlet
face and its normal derivative vanishes on every Neumann face; the
right-hand side is its Laplacian (plus kappa * p when a Helmholtz shift
is requested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConvergenceError, ValidationError
from .geometry import (BoundaryKind, CompositeDomain, GridField,
                       RectSubdomain, make_interface, validate)
from . import ddm, krylov

D = BoundaryKind.DIRICHLET
N = BoundaryKind.NEUMANN
I = BoundaryKind.INTERFACE

# subdomain ids inside the cross
CENTER, WEST, EAST, SOUTH, NORTH = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class CrossCase:
    L: float
    k_n: int
    kappa: float
    composite: CompositeDomain

    @property
    def h(self) -> float:
        return self.L / self.k_n

    @property
    def total_nodes(self) -> int:
        return sum(s.size for s in self.composite.subdomains)


def build_cross(k_n: int = 1, kappa: float = 0.0) -> CrossCase:
    """Five-rectangle cross of extent 7L x 7L with L = 1/7, at grid
    density k_n nodes per length L and Helmholtz shift kappa."""
    if k_n < 1:
        raise ValidationError("k_n must be >= 1")
    L = 1.0 / 7.0
    h = L / k_n
    k = k_n

    def rect(sid, origin, m, n, bc, half=()):
        return RectSubdomain(id=sid, origin=origin, m=m, n=n, dx=h, dy=h,
                             edge_bc=bc, kappa=kappa,
                             half_cell_dirichlet=frozenset(half))

    center = rect(CENTER, (L, 2 * L), 2 * k, 4 * k,
                  {"west": I, "east": I, "south": I, "north": I})
    west = rect(WEST, (0.0, 2 * L), k, 4 * k,
                {"west": D, "east": I, "south": N, "north": N},
                half=("west",))
    east = rect(EAST, (3 * L, 2 * L), 4 * k, 4 * k,
                {"west": I, "east": D, "south": N, "north": N},
                half=("east",))
    south = rect(SOUTH, (L, 0.0), 2 * k, 2 * k,
                 {"west": N, "east": N, "south": D, "north": I},
                 half=("south",))
    north = rect(NORTH, (L, 6 * L), 2 * k, k,
                 {"west": N, "east": N, "south": I, "north": D},
                 half=("north",))

    interfaces = [
        make_interface(0, west, "east", center, "west"),
        make_interface(1, center, "east", east, "west"),
        make_interface(2, south, "north", center, "south"),
        make_interface(3, center, "north", north, "south"),
    ]
    comp = CompositeDomain(subdomains=[center, west, east, south, north],
                           interfaces=interfaces)
    validate(comp).require()
    return CrossCase(L=L, k_n=k_n, kappa=kappa, composite=comp)


# ---------------------------------------------------------------------------
# manufactured solution

def _psi(case: CrossCase, t, axis: str, order: int = 0):
    """The order-th derivative of the phase cubic psi_x or psi_y at t,

        psi(t) = t (c1 + c3 (t - r1) (t - r2)),

    with c1 = pi/(2L), c3 = -pi/(336 L^3), r = (L, 3L) on x and
    c1 = pi/(4L), c3 = pi/(140 L^3), r = (2L, 6L) on y.  These take
    psi_x through (pi/2, 3pi/2, 3pi) at x = (L, 3L, 7L) and psi_y through
    (pi/2, 3pi/2, 2pi) at y = (2L, 6L, 7L)."""
    L = case.L
    if axis == "x":
        c1, c3, r1, r2 = np.pi / (2 * L), -np.pi / (336 * L**3), L, 3 * L
    else:
        c1, c3, r1, r2 = np.pi / (4 * L), np.pi / (140 * L**3), 2 * L, 6 * L
    s = Polynomial([0.0, 1.0])
    psi = s * (c1 + c3 * (s - r1) * (s - r2))
    return psi.deriv(order)(t)


_psi_x = partial(_psi, axis="x")
_psi_x_prime = partial(_psi, axis="x", order=1)
_psi_y = partial(_psi, axis="y")
_psi_y_prime = partial(_psi, axis="y", order=1)


def _require_inside(case: CrossCase, x, y, tol: float = 1e-12):
    """Raise unless every (x, y) lies in the closed cross-shaped union."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    for sub in case.composite.subdomains:
        x0, x1, y0, y1 = sub.extent()
        ok |= ((x >= x0 - tol) & (x <= x1 + tol)
               & (y >= y0 - tol) & (y <= y1 + tol))
    if not ok.all():
        raise ValidationError("point lies outside the cross domain")


def manufactured_solution(case: CrossCase, x, y):
    """Analytic p(x, y); raises if a point is outside the domain."""
    _require_inside(case, x, y)
    return np.sin(_psi_x(case, x)) * np.sin(_psi_y(case, y))


def manufactured_rhs(case: CrossCase, x, y):
    """Laplacian of the analytic solution, plus kappa * p if shifted."""
    _require_inside(case, x, y)
    ax, px, ppx = (_psi(case, x, "x", k) for k in range(3))
    ay, py, ppy = (_psi(case, y, "y", k) for k in range(3))
    sx, cx = np.sin(ax), np.cos(ax)
    sy, cy = np.sin(ay), np.cos(ay)
    f = (ppx * cx - px * px * sx) * sy + sx * (ppy * cy - py * py * sy)
    if case.kappa:
        f = f + case.kappa * sx * sy
    return f


def _node_grid(sub: RectSubdomain):
    """(x, y) coordinate arrays over the rectangle in flat node order."""
    X, Y = np.meshgrid(sub.x_nodes(), sub.y_nodes(), indexing="ij")
    return X.ravel(), Y.ravel()


def _fields(case: CrossCase, fn) -> dict:
    """{id: GridField of fn(case, x, y) at the subdomain's nodes}."""
    return {sub.id: GridField(sub.id, fn(case, *_node_grid(sub)))
            for sub in case.composite.subdomains}


def exact_fields(case: CrossCase) -> dict:
    return _fields(case, manufactured_solution)


def rhs_fields(case: CrossCase) -> dict:
    return _fields(case, manufactured_rhs)


def solve_case(case: CrossCase, cfg: krylov.GmresConfig | None = None):
    """Solve the cross with its manufactured RHS; (fields, report)."""
    return ddm.ddm_solve(case.composite, rhs_fields(case), cfg)


def error_norms(case: CrossCase, fields: dict) -> tuple:
    """(L-infinity, L2) node errors against the manufactured solution."""
    exact = exact_fields(case)
    sup, sq, count = 0.0, 0.0, 0
    for sid, fld in fields.items():
        diff = fld.values - exact[sid].values
        sup = max(sup, float(np.abs(diff).max(initial=0.0)))
        sq += float(diff @ diff)
        count += diff.size
    return sup, np.sqrt(sq / max(count, 1))


# ---------------------------------------------------------------------------
# studies

def run_convergence(kn_list, kappa: float = 0.0) -> list:
    """Rows of (k_n, h, linf_error, l2_error, observed_order) of the cross
    at each k_n (strictly increasing), solved with the default GmresConfig;
    the order is log(e_prev / e) / log(k_n / k_prev) in the max norm."""
    kn_list = list(kn_list)
    if any(a >= b for a, b in zip(kn_list, kn_list[1:])):
        raise ValidationError("k_n sweep must be strictly increasing")
    rows = []
    for kn in kn_list:
        case = build_cross(k_n=kn, kappa=kappa)
        fields, _ = solve_case(case)
        linf, l2 = error_norms(case, fields)
        order = (np.log(rows[-1]["linf_error"] / linf)
                 / np.log(kn / rows[-1]["k_n"]) if rows else float("nan"))
        rows.append({"k_n": kn, "h": case.h, "linf_error": linf,
                     "l2_error": l2, "observed_order": order})
    return rows


def run_precond_compare(kn_list, m_list, tol: float = 1e-7,
                        preconditioners=("fft", "identity"),
                        max_restarts: int = 40):
    """Rows of (k_n, m, preconditioner, iterations, converged, history)
    from the cross's center system at each k_n, m and preconditioner;
    `history` is the run's residual-history array.

    Non-convergence is recorded with the iteration cap and flagged, never
    raised.
    """
    rows = []
    for kn in kn_list:
        case = build_cross(k_n=kn)
        op = ddm.build_schur_operator(case.composite)
        rhs = ddm.eliminate_arms(op, rhs_fields(case))
        for m in m_list:
            for precond in preconditioners:
                cfg = krylov.GmresConfig(m=m, tol=tol,
                                         max_restarts=max_restarts,
                                         preconditioner=precond)
                try:
                    _, rep = krylov.solve_coupled(op, rhs, cfg)
                    iters, conv, hist = rep.iterations, rep.converged, \
                        rep.residual_history
                except ConvergenceError as exc:
                    iters, conv, hist = exc.report.iterations, False, \
                        exc.report.residual_history
                rows.append({"k_n": kn, "m": m, "preconditioner": precond,
                             "iterations": iters, "converged": int(conv),
                             "history": np.asarray(hist)})
    return rows


def fit_exponent(kns, iters) -> float:
    """Least-squares slope of log(iterations) against log(k_n)."""
    x = np.log(np.asarray(kns, dtype=float))
    y = np.log(np.asarray(iters, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def run_scaling(kn_list, tol_list=(1e-7, 1e-10), m: int = 80):
    """Rows of (tol, k_n, iterations, fitted_exponent per tol) of the
    fft-preconditioned cross solve."""
    rows = []
    for tol in tol_list:
        kns, counts = [], []
        for kn in kn_list:
            case = build_cross(k_n=kn)
            cfg = krylov.GmresConfig(m=m, tol=tol, preconditioner="fft")
            _, rep = solve_case(case, cfg)
            kns.append(kn)
            counts.append(rep.iterations)
        expo = fit_exponent(kns, counts) if len(kns) >= 2 else float("nan")
        for kn, it in zip(kns, counts):
            rows.append({"tol": tol, "k_n": kn, "iterations": it,
                         "fitted_exponent": expo})
    return rows


def run_timing(kn_list, tol: float = 1e-7, m: int = 80, repeats: int = 5):
    """Rows of (k_n, iterations, seconds_per_iteration) of the fft cross
    solve: over `repeats`, the median of `solve_coupled`'s time over its
    iterations, after one warm-up solve on the operator built once."""
    rows = []
    for kn in kn_list:
        case = build_cross(k_n=kn)
        op = ddm.build_schur_operator(case.composite)
        rhs = ddm.eliminate_arms(op, rhs_fields(case))
        cfg = krylov.GmresConfig(m=m, tol=tol, preconditioner="fft")
        krylov.solve_coupled(op, rhs, cfg)  # warm-up
        per_iter = []
        iters = 0
        for _ in range(repeats):
            start = time.perf_counter()
            _, rep = krylov.solve_coupled(op, rhs, cfg)
            elapsed = time.perf_counter() - start
            iters = rep.iterations
            per_iter.append(elapsed / max(rep.iterations, 1))
        rows.append({"k_n": kn, "iterations": iters,
                     "seconds_per_iteration": float(np.median(per_iter))})
    return rows


# ---------------------------------------------------------------------------
# output

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def emit_csv(rows, path, header=None) -> None:
    """Write dict rows as CSV with a header; deterministic formatting.
    Given a `header`, `rows` may be any iterable, e.g. a generator."""
    if header is None:
        header = list(rows[0].keys()) if rows else []
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in header) + "\n")


def emit_field(case: CrossCase, fields: dict, path) -> None:
    """Dump a solution as (x, y, value) rows in node order, formatted as
    `emit_csv` formats floats."""
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,value\n")
        for sub in case.composite.subdomains:
            x, y = _node_grid(sub)
            fh.writelines("%.17g,%.17g,%.17g\n" % row for row in zip(
                x.tolist(), y.tolist(), fields[sub.id].values.tolist()))


def emit_history(history, path) -> None:
    """Per-iteration relative residuals as CSV, one row per iteration."""
    rows = ({"iteration": i, "relative_residual": r}
            for i, r in enumerate(np.asarray(history, dtype=float)))
    emit_csv(rows, path, header=["iteration", "relative_residual"])
