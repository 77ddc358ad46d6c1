"""Direct O(N log N) Helmholtz-Poisson solver on a single rectangle.

Pipeline: eigenbasis transform along one axis, one tridiagonal solve per
spectral mode along the other axis, inverse transform.  Every axis has a
transform (`transforms.make_plan`), a shifted sine basis where a Dirichlet
end is half-cell; y is transformed unless only y has half-cell ends, as a
half-cell transform is a dense product.  The sweep axis takes its end
modifiers (half-cell Dirichlet, Neumann corners) on the diagonal.  The
tridiagonal solves are a twisted factorization, eliminated from both ends
toward a middle row: a sweep takes ms / 2 sequential steps, each on every
mode at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transforms
from .errors import SingularOperatorError, ValidationError
from .geometry import (AXIS_EDGES, OPPOSITE, GridField, RectSubdomain,
                       edge_end, field_values)

_PIVOT_RTOL = 1e-13


def _half(sub: RectSubdomain, axis: str) -> tuple:
    """(first, last): 1 at each half-cell Dirichlet end of `axis`."""
    return tuple(int(sub.end_modifier(e) < 0) for e in AXIS_EDGES[axis])


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
    calls on a pair of rows, flat, with positional outputs.
    """
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
    axis, s_axis = ("x", "y") if any(_half(sub, "y")) and not any(
        _half(sub, "x")) else ("y", "x")
    delta_s = sub.delta(s_axis)
    s_pair = sub.axis_pair(s_axis)
    plan = transforms.make_plan(sub.axis_pair(axis), sub.count(axis),
                                sub.delta(axis), delta_s, sub.kappa,
                                _half(sub, axis))
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


def sweep(plan: RectPlan, fhat: np.ndarray) -> np.ndarray:
    """Per-mode tridiagonal (or cyclic) solve of spectral rows (ms, nt)."""
    return _factored_solve(plan.beta, plan.lower, plan.off, plan.sm, fhat)


def sweep_basis(plan: RectPlan) -> tuple:
    """(W, mu): orthonormal eigenvectors, as the columns of W (ms, ms), and
    eigenvalues of the sweep-axis matrix A_s, the per-mode tridiagonal less
    its diagonal lambda_n: T_n = W diag(mu + lambda_n) W^T.

    Both are the closed forms of the axis's own transform, planned with
    the normal delta -delta_s, which cancels the diagonal -2 delta_s that
    A_s lacks.  A DD axis's W is the cached `transforms.sine_matrix`,
    shifted by half a spacing at a half-cell end.  A two-row cyclic axis
    doubles the coupling, as its PP transform does.
    """
    sub = plan.subdomain
    axis = "x" if plan.transform_axis == "y" else "y"
    ms, off, ends = sub.count(axis), sub.delta(axis), _half(sub, axis)
    s_plan = transforms.make_plan(plan.solve_pair, ms, off, -off, 0.0, ends)
    return (transforms.sine_matrix(ms, *ends) if plan.solve_pair == "DD"
            else transforms.apply_Qt(s_plan, np.eye(ms)), s_plan.eigenvalues)


def interface_operator(plan: RectPlan, edge: str,
                       center: RectPlan | None = None):
    """A^{-1} on the node line next to the interface `edge`, in line form.

    Returns (line_plan, t, t_c, exact).  A^{-1} takes values on that
    line, in tangential order, to the same line as Q diag(t) Q^T, Q the
    transform of `line_plan`, with t_k = (T_k^{-1})_jj, T_k the mode-k
    tridiagonal across the line and j the line's place on it.  Q is the
    plan's own transform for a line along its transform axis (a sweep
    row), else one made for the line's axis, half-cell ends included; t
    is the last pivot of the pivot-only elimination run from the far edge.

    Given the plan of a center whose sweep row is the facing line, t_c is
    t at the center's line eigenvalues moved into this rectangle's frame
    (normal-axis diagonal and kappa), from the same pivot loop: about the
    diagonal of Q_c^T Q diag(t) Q^T Q_c, and exactly t when the line's
    transform is the center's (`exact`: same pair and ends).  Else t_c
    is None.  An interface's normal axis is never periodic, so no cyclic
    correction enters.
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
