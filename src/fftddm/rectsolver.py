"""Direct O(N log N) Helmholtz-Poisson solver on a single rectangle.

Pipeline: eigenbasis transform along one axis, one tridiagonal solve per
spectral mode along the other axis, inverse transform.  The transform
axis must carry one of the pure pair forms (plain Dirichlet/interface,
Neumann, periodic); the solve axis tolerates arbitrary per-end diagonal
modifications, which is where half-cell Dirichlet edges and Neumann
corner terms in the sweep direction land.  The tridiagonal solves are a
twisted factorization, eliminated from both ends toward a middle row: a
sweep takes ms / 2 sequential steps, each on every mode at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms
from .errors import SingularOperatorError, ValidationError
from .geometry import (AXIS_EDGES, OPPOSITE, GridField, RectSubdomain,
                       edge_end, field_values)

_PIVOT_RTOL = 1e-13


def _transformable(sub: RectSubdomain, axis: str) -> bool:
    return sub.axis_pair(axis) != "DD" or not any(
        map(sub.end_modifier, AXIS_EDGES[axis]))


@dataclass(frozen=True)
class RectPlan:
    """Prepared factorizations for one rectangle; immutable and shareable."""

    subdomain: RectSubdomain
    transform_axis: str          # 'y' (default) or 'x' (field transposed)
    y_plan: transforms.SpectralPlan
    solve_pair: str              # BC pair along the sweep axis
    off: float                   # off-diagonal of the per-mode tridiagonal
    beta: np.ndarray             # (ms, nt) twisted pivots, folded
    lower: np.ndarray            # (ms, nt) multipliers off / beta, folded
    cyclic: bool
    sm: tuple | None             # cyclic wrap correction, see _factor

    @property
    def shape(self) -> tuple:
        """(ms, nt): sweep positions by transform modes."""
        return self.beta.shape

    @property
    def x_solver_kind(self) -> str:
        if self.cyclic:
            return "cyclic"
        return "corner-modified" if self.solve_pair == "NN" else "standard-tridiagonal"


def _fold(a: np.ndarray, unfold: bool = False) -> np.ndarray:
    """Rows 0, ms-1, 1, ms-2, ... of `a` as a new array, row i beside row
    ms-1-i; with `unfold`, the inverse: folded rows back in natural order."""
    ms = a.shape[0]
    top, bottom = slice(None, (ms + 1) // 2), slice(None, (ms - 1) // 2, -1)
    out = np.empty(a.shape)
    if unfold:
        out[top], out[bottom] = a[0::2], a[1::2]
    else:
        out[0::2], out[1::2] = a[top], a[bottom]
    return out


def _factor_tridiag(diag: np.ndarray, off: float, tol: float):
    """Twisted factorization of tridiag(off, diag[i], off) per column:
    LU pivots for rows 0..h-1, UL pivots for rows ms-1..h+1 and the twist
    pivot of row h = ms // 2, where both eliminations meet.

    Returns (beta, lower, bad-column mask), beta the pivots and lower the
    multipliers off / beta, both folded (_fold); a column is bad when one
    of its pivots, the twist pivot included, is below tol.  Each step
    eliminates rows i and ms-1-i together: two ufunc calls on one (2, nt)
    block, with positional outputs; the multipliers follow in one call.
    """
    ms, nt = diag.shape
    h = ms // 2
    beta = _fold(diag)
    b2 = beta[:2 * h].reshape(h, 2, nt)
    tmp = np.empty((2, nt))
    off2 = off * off
    twist = slice(max(2 * h - 2, 0), ms - 1)  # the rows beside the twist
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for prev, b in zip(b2, b2[1:]):
            np.subtract(b, np.divide(off2, prev, tmp), b)
        beta[-1] -= (off2 / beta[twist]).sum(axis=0)
        lower = off / beta
    return beta, lower, ~np.all(np.abs(beta) >= tol, axis=0)


def _tridiag_solve(beta, lower, rhs):
    """Solve with the folded factors from _factor_tridiag; rhs and the
    result are (ms, nt) in natural row order.

    Forward steps from both ends, the twist row, one division by the
    pivots, then back steps toward both ends; each step is two ufunc
    calls on one (2, nt) block, with positional outputs.
    """
    ms, nt = beta.shape
    h = ms // 2
    x = _fold(rhs)
    x2, l2 = (a[:2 * h].reshape(h, 2, nt) for a in (x, lower))
    tmp = np.empty((2, nt))
    mul, sub = np.multiply, np.subtract
    for prev, low, row in zip(x2, l2, x2[1:]):
        sub(row, mul(low, prev, tmp), row)
    twist = slice(max(2 * h - 2, 0), ms - 1)
    x[-1] -= (lower[twist] * x[twist]).sum(axis=0)
    x /= beta
    x[twist] -= lower[twist] * x[-1]
    for nxt, low, row in zip(x2[::-1], l2[-2::-1], x2[-2::-1]):
        sub(row, mul(low, nxt, tmp), row)
    return _fold(x, unfold=True)


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
    q = _tridiag_solve(beta, lower, u)
    denom = 1.0 + q[0] + (off / gamma) * q[-1]
    return beta, lower, off, (q, denom, gamma), bad | (np.abs(denom) < 1e-12)


def _factored_solve(beta, lower, off, sm, rhs):
    """Solve with the factors from _factor; rhs is (ms, nt)."""
    x = _tridiag_solve(beta, lower, rhs)
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
    for axis, s_axis in (("y", "x"), ("x", "y")):
        if _transformable(sub, axis):
            break
    else:
        raise ValidationError(
            f"subdomain {sub.id}: neither axis is in a pure transformable "
            f"form (half-cell Dirichlet on both axes?)")

    delta_s = sub.delta(s_axis)
    s_pair = sub.axis_pair(s_axis)
    plan = transforms.make_plan(sub.axis_pair(axis), sub.count(axis),
                                sub.delta(axis), delta_s, sub.kappa)
    lam = plan.eigenvalues

    diag = np.tile(lam, (sub.count(s_axis), 1))
    cyclic = s_pair == "PP"
    if cyclic:
        if len(diag) % 2:
            raise ValidationError(
                f"subdomain {sub.id}: periodic sweep axis needs an even count")
    else:
        for row, edge in zip((0, -1), AXIS_EDGES[s_axis]):
            diag[row] += sub.end_modifier(edge)

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
    """Solve A p = f on the rectangle, `f` a GridField or flat array
    (checked by `field_values`); returns p as a new GridField."""
    sub = plan.subdomain
    values = to_spectral(plan, field_values(sub, f))
    return GridField(sub.id, to_nodal(plan, sweep(plan, values)))


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
    out = transforms.apply_Q(plan.y_plan, np.reshape(phat, plan.shape))
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


def interface_operator(plan: RectPlan, edge: str,
                       center: RectPlan | None = None):
    """Block of A^{-1} on the node line next to the interface `edge`.

    Returns (block, t_c, exact).  `block` takes values on that line, in
    tangential order, to the same line of A^{-1} applied to them, without
    a full solve.  Where the line's axis is transformable the block is
    Q diag(t) Q^T, two line transforms per apply, with t_k = (T_k^{-1})_jj,
    T_k the mode-k tridiagonal across the line and j the line's place on
    it.  Q is the plan's own transform for a line along its transform axis
    (a sweep row), else a plan made for the line's axis; t is the last
    pivot of the pivot-only elimination run from the far edge.

    Given the plan of a center whose sweep row is the facing line, t_c is
    t at the center's line eigenvalues moved into this rectangle's frame
    (normal-axis diagonal and kappa), from the same pivot loop: about the
    diagonal of Q_c^T block Q_c, and exactly that matrix, diag(t), when
    the line's transform is the center's (`exact`).  Else t_c is None.

    An interface's normal axis is never periodic, so no cyclic correction
    enters.  A line across the transform axis whose flanks are half-cell
    Dirichlet has no transform: its values v are swept as v (x) Q[j, :]
    and contracted with Q[j, :], one transform-free sweep per apply.
    """
    sub = plan.subdomain
    normal, end = edge_end(edge)
    line = "y" if normal == "x" else "x"
    off = sub.delta(normal)
    if normal != plan.transform_axis:
        line_plan = plan.y_plan
    elif _transformable(sub, line):
        line_plan = transforms.make_plan(sub.axis_pair(line), sub.count(line),
                                         sub.delta(line), off, sub.kappa)
    else:
        q = q_row(plan, end * (plan.y_plan.n - 1))  # first or last position
        return lambda v: sweep(plan, np.outer(v, q)) @ q, None, False
    lam = line_plan.eigenvalues[None]
    exact = center is not None and center.y_plan.bc == line_plan.bc
    if center is not None and not exact:
        c = center.subdomain
        shift = 2.0 * (c.delta(normal) - off) + sub.kappa - c.kappa
        lam = np.concatenate([lam, center.y_plan.eigenvalues[None] + shift])
    piv = lam + sub.end_modifier(OPPOSITE[edge])
    for _ in range(sub.count(normal) - 1):  # interface edges: no modifier
        np.divide(off * off, piv, piv)
        np.subtract(lam, piv, piv)
    t = 1.0 / piv[0]
    return (lambda v: transforms.apply_Q(
        line_plan, t * transforms.apply_Qt(line_plan, v)),
        None if center is None else 1.0 / piv[-1], exact)


def _add_axis_terms(sub: RectSubdomain, axis: str, g, o):
    """o += the stencil's neighbour, wrap and end terms along `axis`, on
    views g, o whose first index runs along that axis."""
    d = sub.delta(axis)
    o[1:] += d * g[:-1]
    o[:-1] += d * g[1:]
    if sub.axis_pair(axis) == "PP":
        o[0] += d * g[-1]
        o[-1] += d * g[0]
    else:
        for row, edge in zip((0, -1), AXIS_EDGES[axis]):
            o[row] += sub.end_modifier(edge) * g[row]


def apply_spectral(plan: RectPlan, rows: np.ndarray) -> np.ndarray:
    """T rows = Q^T A Q rows: the per-mode tridiagonals times spectral
    rows (ms, nt), or their flat form; returns (ms, nt)."""
    rows = np.reshape(rows, plan.shape)
    out = plan.y_plan.eigenvalues * rows
    _add_axis_terms(plan.subdomain, "x" if plan.transform_axis == "y"
                    else "y", rows, out)
    return out


def apply_rect_operator(sub: RectSubdomain, values: np.ndarray) -> np.ndarray:
    """Matrix-vector product with the rectangle operator (5-point stencil
    with the subdomain's boundary modifications); used for residual checks
    and unpreconditioned iteration."""
    G = np.asarray(values, dtype=float).reshape(sub.m, sub.n)
    out = (-2.0 * (sub.delta_x + sub.delta_y) + sub.kappa) * G
    for axis, g, o in (("y", G.T, out.T), ("x", G, out)):  # axis first
        _add_axis_terms(sub, axis, g, o)
    return out.reshape(-1)
