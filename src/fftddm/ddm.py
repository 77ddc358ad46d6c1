"""Schur-complement domain decomposition over a composite of rectangles.

One "coupled" subdomain (the center) talks to any number of "independent"
neighbors through interface coupling maps R.  Eliminating the neighbors
gives a system on the center alone,

    (A_c - sum_i R_{c,i} A_i^{-1} R_{i,c}) p_c = f_c - sum_i R_{c,i} q_i,

with A_i q_i = f_i.  Each term R_{c,i} A_i^{-1} R_{i,c} only maps the
center's node line at the interface to the same line, so it is applied as
a small line operator built from the arm's rectangle plan
(`rectsolver.interface_operator`).  Each arm takes two FFT rectangle
solves per composite solve: A_i^{-1} f_i to reduce the center's
right-hand side, and p_i = A_i^{-1}(f_i - R_{i,c} p_c) once p_c is known.

The center's transform Q is orthogonal, so the fft-preconditioned system
(I - A_c^{-1} S) p = A_c^{-1} f' is solved on the spectral coefficients
p_hat = Q^T p, where it reads (I - T^{-1} Q^T S Q) p_hat = T^{-1} Q^T f'
with T^{-1} the per-mode sweep.  Only the interface lines leave the
Fourier basis there: a line along the transform axis is one line
transform each way, a line across it one product with a row of Q and a
rank-one update back.  Full-field transforms run twice per solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .geometry import (CompositeDomain, GridField, Interface, RectSubdomain,
                       edge_axis, line_indices)
from .rectsolver import (RectPlan, apply_rect_operator, interface_operator,
                         plan_rect, q_row, rect_diagonal, solve_rect, sweep)
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
    to_id = iface.other_side(from_id)[0]
    sub_f = comp.subdomain(from_id)
    sub_t = comp.subdomain(to_id)
    perm = np.asarray(iface.index_map)
    if iface.side_a[0] == from_id:
        from_line = line_indices(sub_f, iface.side_a[1])
        to_line = line_indices(sub_t, iface.side_b[1])[perm]
    else:
        from_line = line_indices(sub_f, iface.side_b[1])[perm]
        to_line = line_indices(sub_t, iface.side_a[1])
    return CouplingMap(from_id=from_id, to_id=to_id,
                       from_size=sub_f.size, to_size=sub_t.size,
                       from_idx=from_line, to_idx=to_line,
                       coupling=iface.coupling)


@dataclass(frozen=True)
class _Neighbor:
    plan: RectPlan
    to_center: CouplingMap      # R_{c,i}: neighbor line -> center rows
    from_center: CouplingMap    # R_{i,c}: center line -> neighbor rows
    line: np.ndarray            # center nodes paired with the arm's line
    weight: float               # coupling of R_{c,i} times that of R_{i,c}
    block: Callable             # A_i^{-1} restricted to the arm's line
    across: bool                # line across the center's transform axis
    slot: int                   # the line's place in SchurOperator's batch


@dataclass(frozen=True)
class SchurOperator:
    """Matrix-free (A_c - sum S) on the coupled subdomain, FFT-backed.

    Each interface line is a whole center edge.  In the center's spectral
    rows (ms, nt), a line along the transform axis is sweep row
    `along_rows[slot]`; a line across it is transform column j, read
    through `across_q[slot]`, row j of Q.
    """

    coupled_id: int
    center: RectSubdomain
    center_plan: RectPlan
    neighbors: tuple
    along_rows: np.ndarray
    across_q: np.ndarray

    @property
    def size(self) -> int:
        return self.center.size

    def schur(self, p: np.ndarray) -> np.ndarray:
        """sum_i R_{c,i} A_i^{-1} R_{i,c} p; one line operator per neighbor."""
        p = np.asarray(p, dtype=float)
        out = np.zeros(self.size)
        for nb in self.neighbors:
            out[nb.line] += nb.weight * nb.block(p[nb.line])
        return out

    def diagonal(self) -> np.ndarray:
        """diag(A_c - sum S): the center stencil's closed form minus each
        line operator's diagonal, probed with unit vectors on the line."""
        d = rect_diagonal(self.center)
        for nb in self.neighbors:
            probes = [nb.block(e) for e in np.eye(nb.line.size)]
            d[nb.line] -= nb.weight * np.diag(probes)
        return d

    def unpreconditioned(self, p: np.ndarray) -> np.ndarray:
        """(A_c - sum S) p."""
        p = np.asarray(p, dtype=float)
        return apply_rect_operator(self.center, p) - self.schur(p)

    def preconditioned(self, p: np.ndarray) -> np.ndarray:
        """(I - A_c^{-1} sum S) p = Q M_hat Q^T p; see spectral_preconditioned."""
        return self.to_nodal(self.spectral_preconditioned(self.to_spectral(p)))

    def to_spectral(self, p: np.ndarray) -> np.ndarray:
        """Q^T p: the center's spectral coefficients, flat."""
        return rectsolver.to_spectral(self.center_plan, p).reshape(-1)

    def to_nodal(self, p_hat: np.ndarray) -> np.ndarray:
        """Q p_hat: the center's nodal values, flat."""
        return rectsolver.to_nodal(self.center_plan, p_hat)

    def spectral_rhs(self, f: np.ndarray) -> np.ndarray:
        """Q^T A_c^{-1} f = T^{-1} Q^T f, flat."""
        plan = self.center_plan
        return sweep(plan, rectsolver.to_spectral(plan, f)).reshape(-1)

    def spectral_preconditioned(self, p_hat: np.ndarray) -> np.ndarray:
        """M_hat p_hat = p_hat - T^{-1} Q^T (sum S) Q p_hat on flat spectral
        coefficients.  The lines along the transform axis are read and
        written back by one batch of line transforms each way, the lines
        across it by one product with their rows of Q each way; then one
        sweep."""
        plan = self.center_plan
        p_hat = np.asarray(p_hat, dtype=float)
        rows = p_hat.reshape(plan.beta.shape)
        lines = (transforms.apply_Q(plan.y_plan, rows[self.along_rows]),
                 (rows @ self.across_q.T).T)
        out = tuple(np.empty_like(v) for v in lines)
        for nb in self.neighbors:       # batch 0 along, batch 1 across
            v = lines[nb.across][nb.slot]
            out[nb.across][nb.slot] = nb.weight * nb.block(v)
        s_hat = out[1].T @ self.across_q
        for row, s in zip(self.along_rows,
                          transforms.apply_Qt(plan.y_plan, out[0])):
            s_hat[row] += s
        return p_hat - sweep(plan, s_hat).reshape(-1)


def designate_center(comp: CompositeDomain) -> int:
    """Pick the coupled subdomain: the unique one with >= 2 interfaces.

    When every subdomain has a single interface (two-rectangle case) the
    lowest id is promoted so the star layout still applies.
    """
    coupled = sorted(comp.coupled_ids)
    if len(coupled) > 1:
        raise ValidationError(f"more than one coupled subdomain: {coupled}")
    if coupled:
        return coupled[0]
    if not comp.interfaces:
        raise ValidationError("composite has no interfaces")
    return min(s.id for s in comp.subdomains)


def build_schur_operator(comp: CompositeDomain) -> SchurOperator:
    """The Schur operator on the center, `designate_center`'s choice."""
    coupled_id = designate_center(comp)
    center = comp.subdomain(coupled_id)
    center_plan = plan_rect(center)
    ms, nt = center_plan.beta.shape
    neighbors, along_rows, across_q = [], [], []
    for iface in comp.interfaces_of(coupled_id):
        other, edge = iface.other_side(coupled_id)
        plan = plan_rect(comp.subdomain(other))
        to_c, from_c = (make_coupling(comp, iface, sid)
                        for sid in (other, coupled_id))
        across = edge_axis(edge) == center_plan.transform_axis
        batch = across_q if across else along_rows
        neighbors.append(_Neighbor(
            plan=plan, to_center=to_c, from_center=from_c,
            line=from_c.from_idx[np.argsort(from_c.to_idx)],
            weight=to_c.coupling * from_c.coupling,
            block=interface_operator(plan, edge), across=across,
            slot=len(batch)))
        # the center's edge is sweep row 0 or ms - 1, or column 0 or nt - 1
        first = iface.other_side(other)[1] in ("west", "south")
        index = 0 if first else (nt if across else ms) - 1
        batch.append(q_row(center_plan, index) if across else index)
    return SchurOperator(
        coupled_id=coupled_id, center=center, center_plan=center_plan,
        neighbors=tuple(neighbors), along_rows=np.array(along_rows, dtype=int),
        across_q=np.reshape(across_q, (len(across_q), nt)))


def eliminate_arms(op: SchurOperator, f: dict) -> GridField:
    """The center's reduced right-hand side,
    f' = f_c - sum_i R_{c,i} A_i^{-1} f_i.

    `f` maps subdomain id to a GridField or flat array.
    """
    fc = f[op.coupled_id]
    f_prime = np.array(fc.values if isinstance(fc, GridField) else fc,
                       dtype=float)
    for nb in op.neighbors:
        f_prime -= nb.to_center.apply(
            solve_rect(nb.plan, f[nb.plan.subdomain.id]).values)
    return GridField(op.coupled_id, f_prime)


def ddm_solve(comp: CompositeDomain, f, gmres_cfg=None):
    """Solve the composite system; returns ({id: GridField}, SolveReport).

    `f` maps subdomain id to a GridField (or flat array) of right-hand
    sides.  The coupled subdomain is `designate_center`'s choice.
    Single-rectangle composites bypass the Schur machinery.
    """
    from .geometry import validate
    validate(comp).require()
    if gmres_cfg is None:
        gmres_cfg = krylov.GmresConfig()

    rhs = {}
    for sub in comp.subdomains:
        if sub.id not in f:
            raise ValidationError(f"no right-hand side for subdomain {sub.id}")
        fi = f[sub.id]
        vals = np.asarray(fi.values if isinstance(fi, GridField) else fi,
                          dtype=float)
        if vals.shape != (sub.size,):
            raise ValidationError(
                f"rhs for subdomain {sub.id} has length {vals.size}, "
                f"expected {sub.size}")
        rhs[sub.id] = vals

    if not comp.interfaces:
        (sub,) = comp.subdomains
        plan = plan_rect(sub)
        start = time.perf_counter()
        p = solve_rect(plan, rhs[sub.id])
        wall_time = time.perf_counter() - start
        res = np.linalg.norm(apply_rect_operator(sub, p.values) - rhs[sub.id])
        f_norm = np.linalg.norm(rhs[sub.id])
        report = krylov.SolveReport(
            converged=True, iterations=0, residual_history=np.zeros(1),
            wall_time=wall_time, true_residual=res,
            true_relative_residual=res / f_norm if f_norm else 0.0)
        return {sub.id: p}, report

    op = build_schur_operator(comp)
    p_c, report = krylov.solve_coupled(op, eliminate_arms(op, rhs), gmres_cfg)

    fields = {op.coupled_id: p_c}
    for nb in op.neighbors:
        # back-substitution: p_i = A_i^{-1} (f_i - R_{i,c} p_c)
        sid = nb.plan.subdomain.id
        fields[sid] = solve_rect(
            nb.plan, rhs[sid] - nb.from_center.apply(p_c.values))
    return fields, report
