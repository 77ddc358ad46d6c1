"""Direct O(N log N) Helmholtz-Poisson solver on a single rectangle.

Pipeline: eigenbasis transform along one axis, one tridiagonal solve per
spectral mode along the other axis (a twisted factorization: ms / 2
sequential steps, each on every mode), inverse transform.  Every axis has
a transform (`transforms.make_plan`), a shifted sine basis where a
Dirichlet end is half-cell; y is transformed unless only y has half-cell
ends or only x is periodic.  The sweep axis takes its end modifiers on
the diagonal.  A torus, the one rectangle that sweeps a periodic axis,
is solved through that axis's transform instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms
from .errors import SingularOperatorError
from .geometry import (AXIS_EDGES, OPPOSITE, GridField, RectSubdomain,
                       edge_end, field_values)

_PIVOT_RTOL = 1e-13


def _half(sub: RectSubdomain, axis: str) -> tuple:
    """(first, last): 1 at each half-cell Dirichlet end of `axis`."""
    return tuple(int(sub.end_modifier(e) < 0) for e in AXIS_EDGES[axis])


@dataclass(frozen=True)
class RectPlan:
    """Prepared factorizations for one rectangle; immutable and shareable.
    A torus, and any plan from `plan_eigenbasis`, holds no factors (beta,
    lower None): `sweep` solves it through its sweep axis's transform."""

    subdomain: RectSubdomain
    transform_axis: str          # 'y' (default) or 'x' (field transposed)
    y_plan: transforms.SpectralPlan
    solve_pair: str              # BC pair along the sweep axis
    beta: np.ndarray             # (ms, nt) twisted pivots, folded
    lower: np.ndarray            # (ms, nt) multipliers off / beta, folded

    @property
    def shape(self) -> tuple:
        """(ms, nt): sweep positions by transform modes."""
        return self.subdomain.size // self.y_plan.n, self.y_plan.n


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
    pivot of row h = ms // 2, where both eliminations meet.  Returns
    (beta, lower, bad-column mask): the pivots and the multipliers off /
    beta, both folded (_fold); a column is bad when a pivot is below tol.
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
    result are (ms, nt) in natural row order.  Forward steps from both
    ends, the twist row, then back steps toward both ends."""
    ms, nt = beta.shape
    h = ms // 2
    x = _fold(rhs)
    x2, l2 = (list(a[:2 * h].reshape(h, 2 * nt)) for a in (x, lower))
    tmp = np.empty(2 * nt)
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


def _sweep_plan(sub: RectSubdomain, transform_axis: str):
    """The transform of the other axis, the sweep axis, planned with the
    normal delta -delta_s: its eigenvalues are those of A_s, the per-mode
    tridiagonal less its diagonal lambda_n (`sweep_basis`)."""
    axis = "x" if transform_axis == "y" else "y"
    off = sub.delta(axis)
    return transforms.make_plan(sub.axis_pair(axis), sub.count(axis), off,
                                -off, 0.0, _half(sub, axis))


def _plan(sub: RectSubdomain, factor: bool) -> RectPlan:
    """The transforms, and with `factor` the sweep factors unless the sweep
    axis is periodic (a torus); without them the operator is checked on T's
    eigenvalues mu_k + lambda_n (`sweep_basis`)."""
    # transform x where only y has half-cell ends, or only x is periodic
    axis, s_axis = ("x", "y") if (
        any(_half(sub, "y")) and not any(_half(sub, "x"))
        or sub.axis_pair("x") == "PP" != sub.axis_pair("y")) else ("y", "x")
    off, s_pair, ms = sub.delta(s_axis), sub.axis_pair(s_axis), \
        sub.count(s_axis)
    plan = transforms.make_plan(sub.axis_pair(axis), sub.count(axis),
                                sub.delta(axis), off, sub.kappa,
                                _half(sub, axis))
    lam = plan.eigenvalues
    tol = _PIVOT_RTOL * max(np.abs(lam).max(), off)
    beta = lower = None
    if factor and s_pair != "PP":
        diag = np.tile(lam, (ms, 1))
        for row, edge in zip((0, -1), AXIS_EDGES[s_axis]):
            diag[row] += sub.end_modifier(edge)
        beta, lower, bad = _factor_tridiag(diag, off, tol)
    else:
        mu = _sweep_plan(sub, axis).eigenvalues
        bad = ~np.all(np.abs(np.add.outer(mu, lam)) >= tol, axis=0)
    if np.any(bad):
        raise SingularOperatorError(
            f"subdomain {sub.id}: operator singular in spectral modes "
            f"{np.nonzero(bad)[0].tolist()} (all-Neumann/periodic with "
            f"kappa = 0?)")
    return RectPlan(subdomain=sub, transform_axis=axis, y_plan=plan,
                    solve_pair=s_pair, beta=beta, lower=lower)


def plan_rect(subdomain: RectSubdomain) -> RectPlan:
    """Build the spectral plan and the per-mode tridiagonal factorizations;
    raises SingularOperatorError if singular (e.g. all-Neumann, kappa 0)."""
    return _plan(subdomain, True)


def plan_eigenbasis(subdomain: RectSubdomain) -> RectPlan:
    """`plan_rect` without the factors, for a system solved in its 2D
    eigenbasis (`sweep_basis`): `sweep` solves it in that basis."""
    return _plan(subdomain, False)


def solve_rect(plan: RectPlan, f: GridField) -> GridField:
    """Solve A p = f on the rectangle, `f` a GridField or flat array
    (checked by `field_values`); returns p as a new GridField."""
    sub = plan.subdomain
    return GridField(sub.id, to_nodal(plan, sweep(
        plan, to_spectral(plan, field_values(sub, f)))))


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


def line_place(plan: RectPlan, edge: str) -> tuple:
    """(j, q) of the node line next to `edge`: sweep row j (q None), or
    transform position j, read by q = Q^T e_j."""
    normal, end = edge_end(edge)
    if normal != plan.transform_axis:
        return end * (plan.shape[0] - 1), None
    j = end * (plan.y_plan.n - 1)
    return j, transforms.apply_Qt(plan.y_plan, np.eye(1, plan.y_plan.n, j)[0])


def read_line(plan: RectPlan, edge: str, phat: np.ndarray) -> np.ndarray:
    """Nodal values on the line next to `edge` of spectral rows phat."""
    j, q = line_place(plan, edge)
    return transforms.apply_Q(plan.y_plan, phat[j]) if q is None else phat @ q


def line_spectral(plan: RectPlan, edge: str, g: np.ndarray) -> np.ndarray:
    """`to_spectral` of values g on the line next to `edge`, 0 elsewhere."""
    j, q = line_place(plan, edge)
    if q is None:       # Q^T g in sweep row j
        return np.outer(np.eye(1, plan.shape[0], j),
                        transforms.apply_Qt(plan.y_plan, g))
    return np.outer(g, q)


def sweep(plan: RectPlan, fhat: np.ndarray) -> np.ndarray:
    """Per-mode tridiagonal solve of spectral rows (ms, nt); a plan without
    factors divides by T's eigenvalues in its sweep axis's transform."""
    if plan.beta is not None:
        return _tridiag_solve(plan.beta, plan.lower, fhat)
    s = _sweep_plan(plan.subdomain, plan.transform_axis)
    t = np.add.outer(plan.y_plan.eigenvalues, s.eigenvalues)
    return transforms.apply_Q(s, transforms.apply_Qt(s, fhat.T) / t).T


def sweep_basis(plan: RectPlan) -> tuple:
    """(W, mu): orthonormal eigenvectors, as the columns of W (ms, ms), and
    eigenvalues of the sweep-axis matrix A_s, the per-mode tridiagonal less
    its diagonal lambda_n: T_n = W diag(mu + lambda_n) W^T.  Both are the
    closed forms of the axis's own transform (a DD axis's W the cached
    `transforms.sine_matrix`, shifted at a half-cell end), planned with the
    normal delta -delta_s, which cancels the diagonal -2 delta_s that A_s
    lacks."""
    s = _sweep_plan(plan.subdomain, plan.transform_axis)
    return (transforms.sine_matrix(s.n, *s.ends) if s.bc == "DD"
            else transforms.apply_Qt(s, np.eye(s.n)), s.eigenvalues)


def interface_operator(plan: RectPlan, edge: str,
                       center: RectPlan | None = None):
    """A^{-1} on the node line next to the interface `edge`, in line form.

    Returns (line_plan, t, t_c, exact).  A^{-1} takes values on that
    line, in tangential order, to the same line as Q diag(t) Q^T, Q the
    transform of `line_plan` (the plan's own for a sweep row, else one
    made for the line's axis), t_k = (T_k^{-1})_jj, T_k the mode-k
    tridiagonal across the line (never periodic) and j the line's place on
    it: the last pivot of the elimination run from the far edge.  Given
    the plan of a center whose sweep row is the facing line, t_c is t at
    the center's line eigenvalues moved into this rectangle's frame: about
    the diagonal of Q_c^T Q diag(t) Q^T Q_c, and exactly t when the line's
    transform is the center's (`exact`: same pair and ends); else None.
    """
    sub = plan.subdomain
    normal = edge_end(edge)[0]
    line = "y" if normal == "x" else "x"
    off = sub.delta(normal)
    line_plan = plan.y_plan if normal != plan.transform_axis else \
        transforms.make_plan(sub.axis_pair(line), sub.count(line),
                             sub.delta(line), off, sub.kappa, _half(sub, line))
    lam = line_plan.eigenvalues[None]
    exact = center is not None and (center.y_plan.bc, center.y_plan.ends) \
        == (line_plan.bc, line_plan.ends)
    if center is not None and not exact:
        c = center.subdomain
        shift = 2.0 * (c.delta(normal) - off) + sub.kappa - c.kappa
        lam = np.concatenate([lam, center.y_plan.eigenvalues[None] + shift])
    piv = lam + sub.end_modifier(OPPOSITE[edge])
    for _ in range(sub.count(normal) - 1):  # interface edges: no modifier
        np.divide(off * off, piv, piv)
        np.subtract(lam, piv, piv)
    return (line_plan, 1.0 / piv[0],
            None if center is None else 1.0 / piv[-1], exact)


def apply_rect_operator(sub: RectSubdomain, values: np.ndarray) -> np.ndarray:
    """Matrix-vector product with the rectangle operator (5-point stencil
    with the subdomain's boundary modifications): the nodal reference for
    residual checks outside the solver."""
    G = np.asarray(values, dtype=float).reshape(sub.m, sub.n)
    out = (-2.0 * (sub.delta("x") + sub.delta("y")) + sub.kappa) * G
    for axis, g, o in (("y", G.T, out.T), ("x", G, out)):  # axis first
        d = sub.delta(axis)
        o[1:] += d * g[:-1]
        o[:-1] += d * g[1:]
        if sub.axis_pair(axis) == "PP":
            o[0] += d * g[-1]
            o[-1] += d * g[0]
        else:
            for row, edge in zip((0, -1), AXIS_EDGES[axis]):
                o[row] += sub.end_modifier(edge) * g[row]
    return out.reshape(-1)
