"""Direct O(N log N) Helmholtz-Poisson solver on a single rectangle.

Pipeline: eigenbasis transform along one axis, one tridiagonal solve per
spectral mode along the other axis, inverse transform.  The transform
axis must carry one of the pure pair forms (plain Dirichlet/interface,
Neumann, periodic); the solve axis tolerates arbitrary per-end diagonal
modifications, which is where half-cell Dirichlet edges and Neumann
corner terms in the sweep direction land.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms
from .errors import SingularOperatorError, ValidationError
from .geometry import GridField, RectSubdomain, edge_axis

_PIVOT_RTOL = 1e-13


def _transformable(sub: RectSubdomain, axis: str) -> bool:
    pair = sub.axis_pair(axis)
    if pair != "DD":
        return True
    lo, hi = (("west", "east") if axis == "x" else ("south", "north"))
    return sub.end_modifier(lo) == 0.0 and sub.end_modifier(hi) == 0.0


@dataclass(frozen=True)
class RectPlan:
    """Prepared factorizations for one rectangle; immutable and shareable."""

    subdomain: RectSubdomain
    transform_axis: str          # 'y' (default) or 'x' (field transposed)
    y_plan: transforms.SpectralPlan
    solve_pair: str              # BC pair along the sweep axis
    off: float                   # off-diagonal of the per-mode tridiagonal
    beta: np.ndarray             # (ms, nt) pivots of the per-mode LU
    lower: np.ndarray            # (ms, nt) subdiagonal multipliers
    cyclic: bool
    sm: tuple | None             # cyclic wrap correction, see _factor

    @property
    def x_solver_kind(self) -> str:
        if self.cyclic:
            return "cyclic"
        return "corner-modified" if self.solve_pair == "NN" else "standard-tridiagonal"


def _factor_tridiag(diag: np.ndarray, off: float, tol: float):
    """Vectorized LU of tridiag(off, diag[i], off) per column; returns
    (beta, lower, bad-column mask), a column being bad when one of its
    pivots is below tol.
    """
    beta = np.empty_like(diag)
    lower = np.zeros_like(diag)
    beta[0] = diag[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, diag.shape[0]):
            lower[i] = off / beta[i - 1]
            beta[i] = diag[i] - off * lower[i]
    return beta, lower, ~np.all(np.abs(beta) >= tol, axis=0)


def _tridiag_solve(beta, lower, off, rhs):
    """Solve with the factors from _factor_tridiag; rhs is (ms, nt).

    Both sweeps update row views in place, two ufunc calls per row with
    positional outputs and no temporaries; the pivots divide the whole
    array once, between them.
    """
    x = np.array(rhs, dtype=float)
    tmp = np.empty(x.shape[1:])
    mul, sub = np.multiply, np.subtract
    prev = x[0]
    for row, mult in zip(x[1:], lower[1:]):
        sub(row, mul(mult, prev, tmp), row)
        prev = row
    x /= beta
    prev = x[-1]
    for row, mult in zip(x[-2::-1], (off / beta)[-2::-1]):
        sub(row, mul(mult, prev, tmp), row)
        prev = row
    return x


def _factor(diag: np.ndarray, off: float, cyclic: bool, tol: float):
    """Per-column factors of tridiag(off, diag, off), with wrap-around
    corners `off` when cyclic; returns (beta, lower, off, sm, bad-column
    mask), the first four for _factored_solve.

    Two cyclic rows wrap onto each other, which doubles the coupling.
    Past two rows the corners are a Sherman-Morrison rank-one correction,
    sm = (q, denom, gamma); otherwise sm is None.
    """
    if not cyclic or diag.shape[0] <= 2:
        off = 2.0 * off if cyclic else off
        beta, lower, bad = _factor_tridiag(diag, off, tol)
        return beta, lower, off, None, bad
    gamma = np.where(np.abs(diag[0]) > tol, -diag[0], off)
    bdiag = diag.copy()
    bdiag[0] -= gamma
    bdiag[-1] -= off * off / gamma
    beta, lower, bad = _factor_tridiag(bdiag, off, tol)
    u = np.zeros_like(diag)
    u[0], u[-1] = gamma, off
    q = _tridiag_solve(beta, lower, off, u)
    denom = 1.0 + q[0] + (off / gamma) * q[-1]
    return beta, lower, off, (q, denom, gamma), bad | (np.abs(denom) < 1e-12)


def _factored_solve(beta, lower, off, sm, rhs):
    """Solve with the factors from _factor; rhs is (ms, nt)."""
    x = _tridiag_solve(beta, lower, off, rhs)
    if sm is not None:
        q, denom, gamma = sm
        x = x - q * ((x[0] + (off / gamma) * x[-1]) / denom)
    return x


def plan_rect(subdomain: RectSubdomain) -> RectPlan:
    """Build the spectral plan and the per-mode tridiagonal factorizations.

    Raises SingularOperatorError for a singular operator (e.g. an
    all-Neumann rectangle with kappa = 0).
    """
    sub = subdomain
    if _transformable(sub, "y"):
        axis = "y"
    elif _transformable(sub, "x"):
        axis = "x"
    else:
        raise ValidationError(
            f"subdomain {sub.id}: neither axis is in a pure transformable "
            f"form (half-cell Dirichlet on both axes?)")

    if axis == "y":
        nt, ms = sub.n, sub.m
        delta_t, delta_s = sub.delta_y, sub.delta_x
        lo, hi = "west", "east"
    else:
        nt, ms = sub.m, sub.n
        delta_t, delta_s = sub.delta_x, sub.delta_y
        lo, hi = "south", "north"
    t_pair = sub.axis_pair("y" if axis == "y" else "x")
    s_pair = sub.axis_pair("x" if axis == "y" else "y")

    plan = transforms.make_plan(t_pair, nt, delta_t, delta_s, sub.kappa)
    lam = plan.eigenvalues

    diag = np.tile(lam, (ms, 1))
    cyclic = s_pair == "PP"
    if cyclic:
        if ms % 2:
            raise ValidationError(
                f"subdomain {sub.id}: periodic sweep axis needs an even count")
    else:
        diag[0] += sub.end_modifier(lo)
        diag[-1] += sub.end_modifier(hi)

    tol = _PIVOT_RTOL * max(np.abs(lam).max(), delta_s)
    beta, lower, off, sm, bad = _factor(diag, delta_s, cyclic, tol)

    if np.any(bad):
        raise SingularOperatorError(
            f"subdomain {sub.id}: operator singular in spectral modes "
            f"{np.nonzero(bad)[0].tolist()} (all-Neumann/periodic with "
            f"kappa = 0?)")
    return RectPlan(subdomain=sub, transform_axis=axis, y_plan=plan,
                    solve_pair=s_pair, off=off, beta=beta, lower=lower,
                    cyclic=cyclic, sm=sm)


def solve_rect(plan: RectPlan, f: GridField) -> GridField:
    """Solve A p = f on the rectangle; returns p as a new GridField."""
    sub = plan.subdomain
    if not isinstance(f, GridField):
        f = GridField(sub.id, f)
    if f.subdomain_id != sub.id:
        raise ValidationError(
            f"field belongs to subdomain {f.subdomain_id}, plan to {sub.id}")
    if f.values.size != sub.size:
        raise ValidationError(
            f"field length {f.values.size} != {sub.m} x {sub.n}")

    values = to_nodal(plan, sweep(plan, to_spectral(plan, f.values)))
    return GridField(subdomain_id=sub.id, values=values)


def to_spectral(plan: RectPlan, values: np.ndarray) -> np.ndarray:
    """Q^T of flat nodal values: spectral rows (ms, nt), one per sweep
    position, each holding the nt transform coefficients."""
    grid = np.asarray(values, dtype=float).reshape(plan.subdomain.m,
                                                   plan.subdomain.n)
    if plan.transform_axis == "x":
        grid = grid.T
    return transforms.apply_Qt(plan.y_plan, grid)


def to_nodal(plan: RectPlan, phat: np.ndarray) -> np.ndarray:
    """Q of spectral rows (ms, nt), or their flat form: flat nodal values."""
    out = transforms.apply_Q(plan.y_plan, np.reshape(phat, plan.beta.shape))
    if plan.transform_axis == "x":
        out = out.T
    return out.reshape(-1)


def q_row(plan: RectPlan, j: int) -> np.ndarray:
    """Row j of the transform matrix Q: the coefficients that give the
    nodal value at transform position j, Q^T e_j."""
    unit = np.zeros(plan.y_plan.n)
    unit[j] = 1.0
    return transforms.apply_Qt(plan.y_plan, unit)


def sweep(plan: RectPlan, fhat: np.ndarray) -> np.ndarray:
    """Per-mode tridiagonal (or cyclic) solve of spectral rows (ms, nt)."""
    return _factored_solve(plan.beta, plan.lower, plan.off, plan.sm, fhat)


def interface_operator(plan: RectPlan, edge: str):
    """Block of A^{-1} on the node line next to the interface `edge`.

    Returns a function taking values on that line, in tangential order,
    to the same line of A^{-1} applied to them, without a full solve:

    * line along the transform axis (a sweep row j): Q diag(t) Q^T with
      t_k = (T_k^{-1})_jj, two line transforms per apply.  For the last
      row t = 1/beta[-1]; for row 0 it is the last pivot of the same
      elimination run from the far end.  An interface row is never on a
      periodic sweep axis, so no cyclic correction enters.
    * line across the transform axis (a transform column j): the line
      values v are swept as v (x) Q[j, :] and contracted with Q[j, :],
      one transform-free sweep per apply.
    """
    ms, nt = plan.beta.shape
    first = edge in ("west", "south")
    if edge_axis(edge) == plan.transform_axis:
        q = q_row(plan, 0 if first else nt - 1)
        return lambda v: sweep(plan, np.outer(v, q)) @ q
    if first:
        lam = plan.y_plan.eigenvalues
        far = "east" if edge == "west" else "north"
        piv = lam + plan.subdomain.end_modifier(far)
        for _ in range(ms - 1):     # an interface edge has no end modifier
            piv = lam - plan.off * plan.off / piv
        t = 1.0 / piv
    else:
        t = 1.0 / plan.beta[-1]
    return lambda v: transforms.apply_Q(
        plan.y_plan, t * transforms.apply_Qt(plan.y_plan, v))


def rect_diagonal(sub: RectSubdomain) -> np.ndarray:
    """Diagonal of the rectangle operator, in closed form (flat)."""
    d = np.full((sub.m, sub.n), -2.0 * (sub.delta_x + sub.delta_y) + sub.kappa)
    d[0] += sub.end_modifier("west")
    d[-1] += sub.end_modifier("east")
    d[:, 0] += sub.end_modifier("south")
    d[:, -1] += sub.end_modifier("north")
    return d.reshape(-1)


def apply_rect_operator(sub: RectSubdomain, values: np.ndarray) -> np.ndarray:
    """Matrix-vector product with the rectangle operator (5-point stencil
    with the subdomain's boundary modifications); used for residual checks
    and unpreconditioned iteration."""
    G = np.asarray(values, dtype=float).reshape(sub.m, sub.n)
    dx, dy = sub.delta_x, sub.delta_y
    out = (-2.0 * (dx + dy) + sub.kappa) * G
    # y neighbours
    out[:, 1:] += dy * G[:, :-1]
    out[:, :-1] += dy * G[:, 1:]
    if sub.axis_pair("y") == "PP":
        out[:, 0] += dy * G[:, -1]
        out[:, -1] += dy * G[:, 0]
    else:
        out[:, 0] += sub.end_modifier("south") * G[:, 0]
        out[:, -1] += sub.end_modifier("north") * G[:, -1]
    # x neighbours
    out[1:, :] += dx * G[:-1, :]
    out[:-1, :] += dx * G[1:, :]
    if sub.axis_pair("x") == "PP":
        out[0, :] += dx * G[-1, :]
        out[-1, :] += dx * G[0, :]
    else:
        out[0, :] += sub.end_modifier("west") * G[0, :]
        out[-1, :] += sub.end_modifier("east") * G[-1, :]
    return out.reshape(-1)
