"""Schur-complement domain decomposition over a composite of rectangles.

One "coupled" subdomain (the center) talks to any number of "independent"
neighbors through interface coupling maps R.  Eliminating the neighbors
gives a system on the center alone,

    (A_c - sum_i R_{c,i} A_i^{-1} R_{i,c}) p_c = f_c - sum_i R_{c,i} q_i,

with A_i q_i = f_i.  Each term R_{c,i} A_i^{-1} R_{i,c} only maps the
center's node line at the interface to the same line, where it is weight
Q diag(t) Q^T (`rectsolver.interface_operator`), Q a line transform
shared by the arms whose lines take it.  Each arm takes two FFT rectangle
solves per composite solve: A_i^{-1} f_i to reduce the center's
right-hand side, and p_i = A_i^{-1}(f_i - R_{i,c} p_c) after.

The center's system is solved on its eigenbasis coefficients p~ = (W (x)
Q)^T p as (T - S) p~ = f~, T = diag(mu_k + lambda_n) (`sweep_basis`).
The fft GMRES runs the paper's T^{-1} (T - S), right-preconditioned by
(T - D)^{-1} T (Chan & Resasco's modified fast solver), D the arms'
symbols folded onto their sweep rows.  That operator is y - T^{-1} (S -
D) x, and S - D writes only the interface lines, so GMRES runs on the
coordinates of b and of T^{-1} W^T at each interface node, a basis of
1 + |interface| vectors, each stored with its dual (`coordinates`).  An
iteration expands two such vectors onto the eigenbasis, one for the
operator and one for a dual and norm, reads the arms' lines (one stored
product per line where every transform is dense) and sweeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (CompositeDomain, GridField, Interface, edge_end,
                       field_values, line_indices, validate)
from .rectsolver import RectPlan, interface_operator, plan_rect, solve_rect
from . import krylov, rectsolver, transforms


@dataclass(frozen=True)
class CouplingMap:
    """Sparse interface map R taking a field on from_id into rows on to_id.

    from_idx[k] and to_idx[k] are paired flat node indices on the two
    adjacent node lines; every carried weight is the same `coupling`.
    """

    from_id: int
    to_id: int
    to_size: int
    from_idx: np.ndarray
    to_idx: np.ndarray
    coupling: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.to_size)
        out[self.to_idx] = self.coupling * values[self.from_idx]
        return out


def make_coupling(comp: CompositeDomain, iface: Interface,
                  from_id: int) -> CouplingMap:
    """Coupling map across `iface` leaving the subdomain `from_id`."""
    to_id, to_edge = iface.other_side(from_id)
    from_edge = iface.other_side(to_id)[1]
    sub_f, sub_t = comp.subdomain(from_id), comp.subdomain(to_id)
    return CouplingMap(from_id=from_id, to_id=to_id, to_size=sub_t.size,
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

    Each interface line is a whole center edge: a sweep row along the
    transform axis, else transform column j, read through row j of Q (a
    row of `across_q`).  An arm on sweep row r adds d = weight * t_c
    (weight the product of its couplings) to the fold there (`fold_rows`,
    `fold_d`); unless the fold carries it exactly, it is applied per
    iteration on a row of `along_rows`, d in that row of `along_d`.
    `groups` holds (batch 0 along or 1 across, slots in that batch,
    line_plan, scale) per shared line transform, scale the arms' weight *
    t stacked (arms, L): Q diag(scale) Q^T (`interface_operator`).
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

    def spectral_rhs(self, f: np.ndarray) -> np.ndarray:
        """(W (x) Q)^T f, flat."""
        return (self.eigenbasis[0].T @ rectsolver.to_spectral(
            self.center_plan, f)).reshape(-1)

    @cached_property
    def _fold_columns(self) -> tuple:
        """(w, c): w_r = W^T e_r and c_r = (T - D)^{-1} d_r w_r per fold row
        r, (rows, ms) and (rows, ms, nt), D = sum_r w_r w_r^T (x) diag(d_r):
        Woodbury from z_r = T^{-1} d_r w_r and the capacitance I - G,
        G[i, j] = w_ri^T z_j."""
        W, _, r = self.eigenbasis
        w = W[self.fold_rows]
        z = r * w[:, :, None] * self.fold_d[:, None, :]
        cap = np.eye(len(w)) - np.einsum("ik,jkn->nij", w, z)
        return w, np.einsum("imn,nij->jmn", z, np.linalg.inv(cap), order="C")

    def solution(self, y: np.ndarray) -> np.ndarray:
        """x = (T - D)^{-1} T y = y + sum_r c_r (w_r^T y), (ms, nt)."""
        y = np.reshape(y, self.center_plan.shape)
        w, c = self._fold_columns
        x = np.einsum("jmn,jn->mn", c, w @ y)
        x += y
        return x

    @cached_property
    def _interface(self) -> tuple:
        """(R, I, A, B, Qj, W[R], W[I]): the along arms' distinct rows R,
        the other rows I, A and B summing each along and across arm onto
        its line, and the across arms' distinct rows Qj of Q.  Coordinates
        (z, l) stand for G (ms, nt) with rows z on R and l Qj on I: a basis
        of the interface nodes, whose corners go with R."""
        R, a = np.unique(self.along_rows, return_inverse=True)
        Qj, b = np.unique(self.across_q, axis=0, return_inverse=True)
        I = np.setdiff1d(np.arange(self.center_plan.shape[0]), R)
        W = self.eigenbasis[0]
        return (R, I, np.eye(R.size)[a], np.eye(len(Qj))[b.ravel()], Qj,
                W[R], W[I])

    def _line_maps(self, xr: np.ndarray, xq: np.ndarray) -> tuple:
        """The along lines' (S - D) rows from their eigenbasis rows W[R] x,
        and the across lines' nodal values from x Qj^T, (..., lines, n):
        each arm's line transforms, summed onto its line."""
        A, B = self._interface[2:4]
        xr, y_plan = A @ xr, self.center_plan.y_plan
        lines = (transforms.apply_Q(y_plan, xr) if A.size else xr,
                 B @ xq @ self.eigenbasis[0].T)
        for batch, slots, line_plan, scale in self.groups:
            v = lines[batch][..., slots, :]
            lines[batch][..., slots, :] = transforms.apply_Q(
                line_plan, scale * transforms.apply_Qt(line_plan, v))
        if A.size:
            xr = transforms.apply_Qt(y_plan, lines[0]) - self.along_d * xr
        return A.T @ xr, B.T @ lines[1]

    @cached_property
    def _dense_maps(self):
        """`_line_maps` as one matrix per line, (lines, n, n), where every
        line transform is a dense product, n no longer than a dense sine
        transform's (a build costs n^3 per line); else None."""
        plans = [self.center_plan.y_plan] + [g[2] for g in self.groups]
        if any(plan.twiddles[0].ndim != 2 or plan.n > transforms._DENSE_DST
               for plan in plans):
            return None
        (ms, nt), (R, *_, Qj) = self.center_plan.shape, self._interface[:5]
        return [K.transpose(1, 0, 2).copy() for K in self._line_maps(*(
            np.broadcast_to(np.eye(n)[:, None], (n, k, n))
            for n, k in ((nt, len(R)), (ms, len(Qj)))))]

    def _gather(self, x: np.ndarray) -> np.ndarray:
        """The coordinates (0, z, l) of T^{-1} (S - D) x: lines W[R] x
        along the transform axis, and W (x Qj^T) across it, each through
        its arms' maps (`_line_maps`); exact arms skipped."""
        R, I, _, _, Qj, WR = self._interface[:6]
        xs, maps = (WR @ x, (x @ Qj.T).T), self._dense_maps
        z, lines = (np.matmul(v[:, None], K)[:, 0] for v, K in zip(
            xs, maps)) if maps else self._line_maps(*xs)
        return np.concatenate([[0.0], (z + lines[:, R].T @ Qj).ravel(),
                               lines[:, I].T.ravel()])

    def _scatter(self, c: np.ndarray) -> np.ndarray:
        """W^T G, (ms, nt), of flat coordinates c = (c_0, z, l), c_0 unread:
        one product [W[R]^T, W[I]^T l] [z; Qj]."""
        Qj, WR, WI = self._interface[4:7]
        z = c[1:1 + len(WR) * Qj.shape[1]].reshape(len(WR), Qj.shape[1])
        l = c[1 + z.size:].reshape(len(WI), len(Qj))
        return np.concatenate([WR.T, WI.T @ l], axis=1) \
            @ np.concatenate([z, Qj])

    def coordinates(self, f: np.ndarray) -> tuple:
        """fft GMRES on coordinates c = (c_0, z, l) of Phi c = c_0 b + T^{-1}
        W^T G, b = T^{-1} (f - W^T G_f), G_f the interface part of flat
        eigenbasis coefficients f.  P y = y - T^{-1} (S - D) (T - D)^{-1} T y
        maps Phi's range into itself.  Returns (c -> the coordinates of
        P Phi c, (1, G_f), c -> (the dual Phi^T Phi c, ||Phi c||), c ->
        Phi c)."""
        Qj, WR, WI = self._interface[4:7]
        _, t, r = self.eigenbasis

        def read(u):            # the interface coordinates of W u, (ms, nt)
            return [(WR @ u).ravel(), (WI @ (u @ Qj.T)).ravel()]

        rhs = np.concatenate([[1.0], *read(f.reshape(t.shape))])
        b = r * (f.reshape(t.shape) - self._scatter(rhs))

        def expand(c):
            return (r * self._scatter(c) + c[0] * b).reshape(-1)

        def dual(c):            # Phi^T of the expanded vector, and its norm
            v = expand(c)
            return np.concatenate([[b.ravel() @ v], *read(
                r * v.reshape(t.shape))]), np.sqrt(v @ v)

        return (lambda c: c - self._gather(self.solution(expand(c))),
                rhs, dual, expand)

    def spectral_apply(self, x: np.ndarray) -> np.ndarray:
        """(T - S) x = (W (x) Q)^T (A_c - sum S) (W (x) Q) x on flat
        eigenbasis coefficients: the coupled system in the center's
        basis, with no full transform."""
        x = np.reshape(x, self.center_plan.shape)
        W, t, _ = self.eigenbasis
        w = W[self.fold_rows]
        out = t * x - self._scatter(self._gather(x))
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
        # across: row j of Q, Q^T e_j, reads the line's nodal values
        batch.append(transforms.apply_Qt(center_plan.y_plan, np.eye(
            1, nt, end * (nt - 1))[0]) if across else (row, d))
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
