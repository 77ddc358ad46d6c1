"""Schur-complement domain decomposition over a composite of rectangles.

One "coupled" subdomain (the center) talks to any number of "independent"
neighbors through interface coupling maps R.  Eliminating the neighbors
gives a system on the center alone,

    (A_c - sum_i R_{c,i} A_i^{-1} R_{i,c}) p_c = f_c - sum_i R_{c,i} q_i,

with A_i q_i = f_i.  Each term R_{c,i} A_i^{-1} R_{i,c} only maps the
center's node line at the interface to the same line, so it is applied as
a small line operator built from the arm's rectangle plan
(`rectsolver.interface_operator`): two transforms along the line, in the
plan's own transform or in one planned for the line's axis, unless the
line's flanks are half-cell Dirichlet, which leaves a rank-one sweep of
the arm.  Each arm takes two FFT rectangle solves per composite solve:
A_i^{-1} f_i to reduce the center's right-hand side, and
p_i = A_i^{-1}(f_i - R_{i,c} p_c) once p_c is known.

The center's transform Q is orthogonal, so the fft-preconditioned system
(I - A_c^{-1} S) p = A_c^{-1} f' is solved on the spectral coefficients
p_hat = Q^T p, where it reads T^{-1} (T - Q^T S Q) p_hat = T^{-1} Q^T f'
with T^{-1} the per-mode sweep.  An arm on a sweep row r of the center
adds a per-mode diagonal d to D at row r, and GMRES runs that system
right-preconditioned by (T - D)^{-1} T (Chan & Resasco's modified fast
solver): p_hat = (T - D)^{-1} T y, y + sum_r c_r y[r].  An arm whose line
transform is the center's is diag(d) exactly and drops out of the
per-iteration operator.  Only the interface lines leave the Fourier basis:
a line along the transform axis is one line transform each way, a line
across it one product with a row of Q and a rank-one update back.
Full-field transforms run twice per solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ValidationError
from .geometry import (CompositeDomain, GridField, Interface, edge_end,
                       field_values, line_indices)
from .rectsolver import (RectPlan, apply_rect_operator, apply_spectral,
                         interface_operator, plan_rect, q_row, solve_rect,
                         sweep)
from . import krylov, rectsolver, transforms


@dataclass(frozen=True)
class CouplingMap:
    """Sparse interface map R taking a field on from_id into rows on to_id.

    from_idx[k] and to_idx[k] are paired flat node indices on the two
    adjacent node lines; every carried weight is the same `coupling`.
    """

    from_id: int
    to_id: int
    from_size: int
    to_size: int
    from_idx: np.ndarray
    to_idx: np.ndarray
    coupling: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        if values.shape != (self.from_size,):
            raise ValidationError(
                f"field length {values.shape} does not match subdomain "
                f"{self.from_id} (size {self.from_size})")
        out = np.zeros(self.to_size)
        out[self.to_idx] = self.coupling * values[self.from_idx]
        return out


def make_coupling(comp: CompositeDomain, iface: Interface,
                  from_id: int) -> CouplingMap:
    """Coupling map across `iface` leaving the subdomain `from_id`."""
    to_id, to_edge = iface.other_side(from_id)
    from_edge = iface.other_side(to_id)[1]
    sub_f, sub_t = comp.subdomain(from_id), comp.subdomain(to_id)
    return CouplingMap(from_id=from_id, to_id=to_id,
                       from_size=sub_f.size, to_size=sub_t.size,
                       from_idx=line_indices(sub_f, from_edge),
                       to_idx=line_indices(sub_t, to_edge),
                       coupling=comp.coupling(iface))


@dataclass(frozen=True)
class _Neighbor:
    plan: RectPlan
    to_center: CouplingMap      # R_{c,i}: neighbor line -> center rows
    from_center: CouplingMap    # R_{i,c}: center line -> neighbor rows
    line: np.ndarray            # center nodes paired with the arm's line
    weight: float               # coupling of R_{c,i} times that of R_{i,c}
    block: Callable             # A_i^{-1} restricted to the arm's line
    across: bool                # line across the center's transform axis
    slot: int | None            # place in SchurOperator's batch; None: in D


@dataclass(frozen=True)
class SchurOperator:
    """Matrix-free (A_c - sum S) on the coupled subdomain, FFT-backed.

    Each interface line is a whole center edge.  In the center's spectral
    rows (ms, nt), a line along the transform axis is a sweep row; a line
    across it is transform column j, read through `across_q[slot]`, row j
    of Q.  An arm on sweep row r adds d = weight * t_c
    (`rectsolver.interface_operator`) to D there (`fold_rows`, `fold_d`);
    unless D carries it exactly, it is applied per iteration on row
    `along_rows[slot]` with its d in `along_d[slot]`.
    """

    coupled_id: int
    center_plan: RectPlan
    neighbors: tuple
    along_rows: np.ndarray
    along_d: np.ndarray
    across_q: np.ndarray
    fold_rows: np.ndarray
    fold_d: np.ndarray

    @property
    def size(self) -> int:
        return self.center_plan.subdomain.size

    def schur(self, p: np.ndarray) -> np.ndarray:
        """sum_i R_{c,i} A_i^{-1} R_{i,c} p; one line operator per neighbor."""
        p = np.asarray(p, dtype=float)
        out = np.zeros(self.size)
        for nb in self.neighbors:
            out[nb.line] += nb.weight * nb.block(p[nb.line])
        return out

    def unpreconditioned(self, p: np.ndarray) -> np.ndarray:
        """(A_c - sum S) p."""
        p = np.asarray(p, dtype=float)
        return (apply_rect_operator(self.center_plan.subdomain, p)
                - self.schur(p))

    def to_nodal(self, p_hat: np.ndarray) -> np.ndarray:
        """Q p_hat: the center's nodal values, flat."""
        return rectsolver.to_nodal(self.center_plan, p_hat)

    def spectral_rhs(self, f: np.ndarray) -> tuple:
        """(Q^T f, T^{-1} Q^T f), flat."""
        f_hat = rectsolver.to_spectral(self.center_plan, f)
        return f_hat.reshape(-1), sweep(self.center_plan, f_hat).reshape(-1)

    @cached_property
    def _fold_columns(self) -> np.ndarray:
        """c_r = (T - D)^{-1} d_r e_r for each fold row r, (rows, ms, nt):
        Woodbury from z_r = T^{-1} d_r e_r, one sweep each, and the
        per-mode capacitance I - G with G[i, j] = z_j[r_i]."""
        plan, rows = self.center_plan, self.fold_rows
        z = np.zeros((rows.size,) + plan.shape)
        z[np.arange(rows.size), rows] = self.fold_d
        z = np.reshape([sweep(plan, e) for e in z], z.shape)
        cap = np.eye(rows.size) - np.moveaxis(z[:, rows], 2, 0).swapaxes(1, 2)
        return np.einsum("imn,nij->jmn", z, np.linalg.inv(cap), order="C")

    def solution(self, y: np.ndarray) -> np.ndarray:
        """x_hat = (T - D)^{-1} T y = y + sum_r c_r y[r], spectral rows."""
        y = np.reshape(y, self.center_plan.shape)
        x = np.einsum("jmn,jn->mn", self._fold_columns, y[self.fold_rows])
        x += y
        return x

    def _folded_schur(self, x: np.ndarray) -> np.ndarray:
        """(Q^T S Q - D) x for x = x_hat in spectral rows.  The lines along
        the transform axis are read and written back by one batch of line
        transforms each way, the lines across it by one product with their
        rows of Q each way; arms carried exactly by D are skipped."""
        plan, rows = self.center_plan, self.along_rows
        lines = (transforms.apply_Q(plan.y_plan, x[rows]) if rows.size
                 else x[rows], (x @ self.across_q.T).T)
        out = tuple(np.empty_like(v) for v in lines)
        for nb in self.neighbors:       # batch 0 along, batch 1 across
            if nb.slot is not None:
                v = lines[nb.across][nb.slot]
                out[nb.across][nb.slot] = nb.weight * nb.block(v)
        s_hat = out[1].T @ self.across_q
        if rows.size:
            back = transforms.apply_Qt(plan.y_plan, out[0])
            for row, s in zip(rows, back - self.along_d * x[rows]):
                s_hat[row] += s
        return s_hat

    def spectral_preconditioned(self, y: np.ndarray) -> np.ndarray:
        """y - T^{-1} (Q^T S Q - D) x_hat with x_hat = (T - D)^{-1} T y, on
        flat spectral coefficients: T^{-1} (T - Q^T S Q), the paper's
        left-preconditioned operator, right-preconditioned by
        (T - D)^{-1} T; one sweep."""
        s_hat = self._folded_schur(self.solution(y))
        return np.reshape(y, -1) - sweep(self.center_plan, s_hat).reshape(-1)

    def spectral_residual(self, y: np.ndarray, f_hat: np.ndarray):
        """Q^T f - (T - Q^T S Q) x_hat for the iterate y, flat: the true
        residual of p = Q x_hat in spectral coefficients, with no full
        transform."""
        x = self.solution(y)
        s_hat = self._folded_schur(x)
        s_hat += np.reshape(f_hat, x.shape) - apply_spectral(
            self.center_plan, x)
        s_hat[self.fold_rows] += self.fold_d * x[self.fold_rows]
        return s_hat.reshape(-1)


def build_schur_operator(comp: CompositeDomain) -> SchurOperator:
    """The Schur operator on `comp.center`; a composite that is not a star
    raises ValidationError."""
    coupled_id = comp.center
    center_plan = plan_rect(comp.subdomain(coupled_id))
    ms, nt = center_plan.shape
    neighbors, along, across_q, fold = [], [], [], {}
    for iface in comp.interfaces_of(coupled_id):
        other, edge = iface.other_side(coupled_id)
        plan = plan_rect(comp.subdomain(other))
        to_c, from_c = (make_coupling(comp, iface, sid)
                        for sid in (other, coupled_id))
        # the center's edge is sweep row 0 or ms - 1, or column 0 or nt - 1
        axis, end = edge_end(iface.other_side(other)[1])
        across = axis == center_plan.transform_axis
        weight = to_c.coupling * from_c.coupling
        block, t_c, exact = interface_operator(
            plan, edge, None if across else center_plan)
        row, d = end * (ms - 1), np.zeros(nt)
        if t_c is not None:
            d = weight * t_c
            fold[row] = fold.get(row, 0.0) + d
        slot = None if exact else len(across_q if across else along)
        if across:
            across_q.append(q_row(center_plan, end * (nt - 1)))
        elif not exact:
            along.append((row, d))
        neighbors.append(_Neighbor(
            plan=plan, to_center=to_c, from_center=from_c,
            line=from_c.from_idx, weight=weight, block=block, across=across,
            slot=slot))
    return SchurOperator(
        coupled_id=coupled_id, center_plan=center_plan,
        neighbors=tuple(neighbors),
        along_rows=np.array([r for r, _ in along], dtype=int),
        along_d=np.reshape([d for _, d in along], (len(along), nt)),
        across_q=np.reshape(across_q, (len(across_q), nt)),
        fold_rows=np.array(list(fold), dtype=int),
        fold_d=np.reshape(list(fold.values()), (len(fold), nt)))


def eliminate_arms(op: SchurOperator, f: dict) -> GridField:
    """The center's reduced right-hand side,
    f' = f_c - sum_i R_{c,i} A_i^{-1} f_i.

    `f` maps subdomain id to a GridField or flat array.
    """
    f_prime = field_values(op.center_plan.subdomain,
                           f.get(op.coupled_id)).copy()
    for nb in op.neighbors:
        f_prime -= nb.to_center.apply(
            solve_rect(nb.plan, f.get(nb.plan.subdomain.id)).values)
    return GridField(op.coupled_id, f_prime)


def ddm_solve(comp: CompositeDomain, f, gmres_cfg=None):
    """Solve the composite system; returns ({id: GridField}, SolveReport).

    `f` maps subdomain id to a GridField (or flat array) of right-hand
    sides.  The coupled subdomain is `CompositeDomain.center`.  A single
    rectangle is a center without neighbors: the fft-preconditioned GMRES
    sees the identity and returns A_c^{-1} f after one step.
    """
    from .geometry import validate
    validate(comp).require()
    if gmres_cfg is None:
        gmres_cfg = krylov.GmresConfig()

    rhs = {sub.id: field_values(sub, f.get(sub.id))
           for sub in comp.subdomains}
    op = build_schur_operator(comp)
    p_c, report = krylov.solve_coupled(op, eliminate_arms(op, rhs), gmres_cfg)

    fields = {op.coupled_id: p_c}
    for nb in op.neighbors:
        # back-substitution: p_i = A_i^{-1} (f_i - R_{i,c} p_c)
        sid = nb.plan.subdomain.id
        fields[sid] = solve_rect(
            nb.plan, rhs[sid] - nb.from_center.apply(p_c.values))
    return fields, report
