"""Schur-complement domain decomposition over a composite of rectangles.

One "coupled" subdomain (the center) talks to any number of "independent"
neighbors through interface coupling maps R.  Eliminating the neighbors
gives a system on the center alone,

    (A_c - sum_i R_{c,i} A_i^{-1} R_{i,c}) p_c = f_c - sum_i R_{c,i} q_i,

with A_i q_i = f_i.  Each term R_{c,i} A_i^{-1} R_{i,c} only maps the
center's node line at the interface to the same line, where it is weight
Q diag(t) Q^T (`rectsolver.interface_operator`), Q a line transform
shared by the arms whose lines take it: one transform each way and one
stacked multiply per group.  Each arm takes two FFT rectangle solves per
composite solve: A_i^{-1} f_i to reduce the center's right-hand side, and
p_i = A_i^{-1}(f_i - R_{i,c} p_c) after.

The center's mode-n tridiagonal is A_s + lambda_n I, with A_s = W diag(mu)
W^T in closed form (`rectsolver.sweep_basis`), so its system is solved on
the orthogonal eigenbasis coefficients p~ = (W (x) Q)^T p as (T - S) p~ =
f~ (`SchurOperator.spectral_apply`), T = diag(mu_k + lambda_n), with the
nodal residual norms; T^{-1}, one elementwise product, is the fft
preconditioner.  An arm on sweep row r adds w_r w_r^T (x) diag(d) to the
fold D, w_r = W^T e_r, and the fft GMRES runs right-preconditioned by
(T - D)^{-1} T (Chan & Resasco's modified fast solver): p~ = y + sum_r c_r
(w_r^T y).  An arm whose line transform is the center's is d exactly and
drops out of the per-iteration operator.  Only the interface lines leave
the eigenbasis: a line along the transform axis is W[r] p~ and one line
transform each way, a line across it W (p~ q_j), q_j a row of Q; one
product writes all lines back.  An iteration sweeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .geometry import (CompositeDomain, GridField, Interface, edge_end,
                       field_values, line_indices, validate)
from .rectsolver import (RectPlan, interface_operator, plan_rect, q_row,
                         solve_rect)
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


@dataclass(frozen=True)
class SchurOperator:
    """Matrix-free A_c - sum S in the center's eigenbasis, FFT-backed.

    Each interface line is a whole center edge.  A line along the
    transform axis is a sweep row; a line across it is transform column
    j, read through a row of `across_q`, row j of Q.  An arm on sweep row
    r adds d = weight * t_c (weight the product of its couplings) to the
    fold there (`fold_rows`, `fold_d`); unless the fold carries it
    exactly, it is applied per iteration on a row of `along_rows`, with d
    in that row of `along_d`.  `groups` holds (batch 0 along or 1 across,
    slots in that batch, line_plan, scale) per shared line transform, scale
    the arms' weight * t stacked (arms, L): Q diag(scale) Q^T, one multiply
    (`rectsolver.interface_operator`).
    """

    coupled_id: int
    center_plan: RectPlan
    neighbors: tuple
    along_rows: np.ndarray
    along_d: np.ndarray
    across_q: np.ndarray
    fold_rows: np.ndarray
    fold_d: np.ndarray
    groups: tuple

    @property
    def size(self) -> int:
        return self.center_plan.subdomain.size

    @cached_property
    def eigenbasis(self) -> tuple:
        """(W, t, 1 / t), built on first use: the eigenvectors W of the
        center's sweep axis (`rectsolver.sweep_basis`) and T's eigenvalues
        t = mu_k + lambda_n, (ms, nt), in the basis W (x) Q."""
        W, mu = rectsolver.sweep_basis(self.center_plan)
        t = mu[:, None] + self.center_plan.y_plan.eigenvalues
        return W, t, 1.0 / t

    def to_nodal(self, p: np.ndarray) -> np.ndarray:
        """(W (x) Q) p: the center's nodal values, flat."""
        W = self.eigenbasis[0]
        return rectsolver.to_nodal(self.center_plan,
                                   W @ np.reshape(p, self.center_plan.shape))

    def spectral_rhs(self, f: np.ndarray) -> tuple:
        """((W (x) Q)^T f, T^{-1} of it), flat."""
        W, _, r = self.eigenbasis
        f_t = W.T @ rectsolver.to_spectral(self.center_plan, f)
        return f_t.reshape(-1), (r * f_t).reshape(-1)

    @cached_property
    def _fold_columns(self) -> np.ndarray:
        """c_r = (T - D)^{-1} d_r w_r for each fold row r, (rows, ms, nt),
        with w_r = W^T e_r and D = sum_r w_r w_r^T (x) diag(d_r): Woodbury
        from z_r = T^{-1} d_r w_r, elementwise, and the per-mode
        capacitance I - G with G[i, j] = w_ri^T z_j."""
        W, _, r = self.eigenbasis
        w = W[self.fold_rows]
        z = r * w[:, :, None] * self.fold_d[:, None, :]
        cap = np.eye(len(w)) - np.einsum("ik,jkn->nij", w, z)
        return np.einsum("imn,nij->jmn", z, np.linalg.inv(cap), order="C")

    def solution(self, y: np.ndarray) -> np.ndarray:
        """x = (T - D)^{-1} T y = y + sum_r c_r (w_r^T y), (ms, nt)."""
        y = np.reshape(y, self.center_plan.shape)
        x = np.einsum("jmn,jn->mn", self._fold_columns,
                      self.eigenbasis[0][self.fold_rows] @ y)
        x += y
        return x

    def _folded_schur(self, x: np.ndarray) -> np.ndarray:
        """(S - D) x, S the arms' term.  Lines along the transform axis are
        rows W[r] x, taken to nodal values by one batch of line transforms;
        lines across it are W (x across_q^T).  One product writes them all
        back; arms carried exactly by D are skipped."""
        plan, rows, W = self.center_plan, self.along_rows, self.eigenbasis[0]
        xr = W[rows] @ x
        lines = (transforms.apply_Q(plan.y_plan, xr) if rows.size else xr,
                 (W @ (x @ self.across_q.T)).T)
        for batch, slots, line_plan, scale in self.groups:
            v = lines[batch][slots]
            lines[batch][slots] = transforms.apply_Q(
                line_plan, scale * transforms.apply_Qt(line_plan, v))
        if rows.size:
            xr = transforms.apply_Qt(plan.y_plan, lines[0]) - self.along_d * xr
        return np.hstack([W[rows].T, W.T @ lines[1].T]) \
            @ np.vstack([xr, self.across_q])

    def spectral_preconditioned(self, y: np.ndarray) -> np.ndarray:
        """y - T^{-1} (S - D) x with x = (T - D)^{-1} T y, on flat
        eigenbasis coefficients: T^{-1} (T - S), the paper's
        left-preconditioned operator, right-preconditioned by
        (T - D)^{-1} T; T^{-1} is one elementwise product."""
        s = self._folded_schur(self.solution(y))
        return np.reshape(y, -1) - (self.eigenbasis[2] * s).reshape(-1)

    def spectral_apply(self, x: np.ndarray) -> np.ndarray:
        """(T - S) x = (W (x) Q)^T (A_c - sum S) (W (x) Q) x on flat
        eigenbasis coefficients: the coupled system in the center's
        basis, with no full transform."""
        x = np.reshape(x, self.center_plan.shape)
        W, t, _ = self.eigenbasis
        w = W[self.fold_rows]
        out = t * x - self._folded_schur(x)
        out -= w.T @ (self.fold_d * (w @ x))
        return out.reshape(-1)


def build_schur_operator(comp: CompositeDomain) -> SchurOperator:
    """The Schur operator on `comp.center`; a composite that is not a star
    raises ValidationError."""
    coupled_id = comp.center
    center_plan = plan_rect(comp.subdomain(coupled_id))
    ms, nt = center_plan.shape
    neighbors, along, across_q, fold, groups = [], [], [], {}, {}
    for iface in comp.interfaces_of(coupled_id):
        other, edge = iface.other_side(coupled_id)
        plan = plan_rect(comp.subdomain(other))
        to_c, from_c = (make_coupling(comp, iface, sid)
                        for sid in (other, coupled_id))
        neighbors.append(_Neighbor(plan, to_c, from_c))
        # the center's edge is sweep row 0 or ms - 1, or column 0 or nt - 1
        axis, end = edge_end(iface.other_side(other)[1])
        across = axis == center_plan.transform_axis
        weight = to_c.coupling * from_c.coupling
        line_plan, t, t_c, exact = interface_operator(
            plan, edge, None if across else center_plan)
        row, d = end * (ms - 1), np.zeros(nt)
        if t_c is not None:
            d = weight * t_c
            fold[row] = fold.get(row, 0.0) + d
        if exact:
            continue
        # a transform is fixed by its kind, length and half-cell ends
        key = (int(across), line_plan.bc, line_plan.n, line_plan.ends)
        group = groups.setdefault(key, ([], line_plan, []))
        batch = across_q if across else along
        group[0].append(len(batch))
        group[2].append(weight * t)
        batch.append(q_row(center_plan, end * (nt - 1)) if across
                     else (row, d))
    return SchurOperator(
        coupled_id=coupled_id, center_plan=center_plan,
        neighbors=tuple(neighbors),
        along_rows=np.array([r for r, _ in along], dtype=int),
        along_d=np.reshape([d for _, d in along], (len(along), nt)),
        across_q=np.reshape(across_q, (len(across_q), nt)),
        fold_rows=np.array(list(fold), dtype=int),
        fold_d=np.reshape(list(fold.values()), (len(fold), nt)),
        groups=tuple((b, np.array(s), p, np.array(c))
                     for (b, *_), (s, p, c) in groups.items()))


def eliminate_arms(op: SchurOperator, f: dict) -> GridField:
    """The center's reduced right-hand side,
    f' = f_c - sum_i R_{c,i} A_i^{-1} f_i.

    `f` maps subdomain id to a GridField or flat array.
    """
    center = op.center_plan.subdomain
    f_prime = field_values(center, f.get(center.id)).copy()
    for nb in op.neighbors:
        f_prime -= nb.to_center.apply(
            solve_rect(nb.plan, f.get(nb.plan.subdomain.id)).values)
    return GridField(op.coupled_id, f_prime)


def ddm_solve(comp: CompositeDomain, f, gmres_cfg=None):
    """Solve the composite system; returns ({id: GridField}, SolveReport).

    `f` maps subdomain id to a GridField (or flat array) of right-hand
    sides.  The coupled subdomain is the center; a single rectangle is a
    center without neighbors: the fft-preconditioned GMRES sees the
    identity and returns A_c^{-1} f after one step.
    """
    validate(comp).require()

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
