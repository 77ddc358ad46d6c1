"""Correctness gate, computed from outside the solver.

The global operator is rebuilt from two public pieces: the rectangle
stencil `rectsolver.apply_rect_operator` on each diagonal block and the
interface maps `ddm.make_coupling(...).apply` off the diagonal.  Before it
is trusted, `self_check` compares it with the dense oracle matrix, and
compares `ddm_solve` with a dense LU solve, on desk-size composites.

Gate bounds (a returned solution fails when either is exceeded):

* RESIDUAL_GATE = 1e-3 on the global ||f - A p|| / ||f||.  GMRES stops on
  the *preconditioned* relative residual (tol 1e-7), and the true relative
  residual can exceed that by up to the condition number of the center
  block (about 1e5 at k_n = 128).  At seed the true values are 5.0e-5 on
  cross-k128, and on seeded right-hand sides a median of about 1.3e-7
  (cross-k16-stream) and 4e-7 (star-mixed), with single solves up to
  1.3e-6; the metric `true_rel_residual` reports them.  A wrong answer
  has a residual of order 1, far above the gate.
* ERROR_GATE = 1e-3 on max |p - u| / max |u| against a known solution u:
  the analytic one on the cross (second-order discretisation error, 1.3e-5
  at k_n = 128) or a discrete one with f = A u.
"""

from __future__ import annotations

import numpy as np

from fftddm import ddm, krylov, oracle, rectsolver
from fftddm.geometry import CompositeDomain, GridField

RESIDUAL_GATE = 1e-3
ERROR_GATE = 1e-3
# dense-oracle parity of the global operator: same stencil, summed in
# another order
PARITY_RTOL = 1e-12
# ddm_solve against dense LU at tol 1e-7 on desk-size composites
DENSE_SOLVE_RTOL = 1e-5


class GlobalOperator:
    """y = A x over all subdomains of a composite, x and y keyed by id."""

    def __init__(self, comp: CompositeDomain):
        self.subdomains = list(comp.subdomains)
        self.couplings = [ddm.make_coupling(comp, iface, sid)
                          for iface in comp.interfaces
                          for sid in (iface.side_a[0], iface.side_b[0])]

    def apply(self, x: dict) -> dict:
        y = {s.id: rectsolver.apply_rect_operator(s, x[s.id])
             for s in self.subdomains}
        for cmap in self.couplings:
            y[cmap.to_id] += cmap.apply(x[cmap.from_id])
        return y

    def rel_residual(self, f: dict, p: dict) -> float:
        """||f - A p|| / ||f|| in the global 2-norm."""
        ap = self.apply({sid: g.values for sid, g in p.items()})
        num = sum(float(np.sum((f[sid].values - ap[sid]) ** 2)) for sid in ap)
        den = sum(float(np.sum(f[sid].values ** 2)) for sid in ap)
        return float(np.sqrt(num / den))


def rel_error_linf(p: dict, exact: dict) -> float:
    err = max(float(np.abs(p[sid].values - u.values).max())
              for sid, u in exact.items())
    scale = max(float(np.abs(u.values).max()) for u in exact.values())
    return err / scale


def all_finite(p: dict) -> bool:
    return all(np.all(np.isfinite(g.values)) for g in p.values())


def self_check(composites, rng) -> list:
    """Problems found on desk-size composites; an empty list means the gate
    can be trusted and ddm_solve agrees with dense LU there."""
    problems = []
    for label, comp in composites:
        A = oracle.assemble_global_matrix(comp)
        gop = GlobalOperator(comp)
        x = {s.id: rng.standard_normal(s.size) for s in comp.subdomains}
        stacked = np.concatenate([x[s.id] for s in comp.subdomains])
        dense = A @ stacked
        y = gop.apply(x)
        ours = np.concatenate([y[s.id] for s in comp.subdomains])
        gap = np.abs(dense - ours).max() / np.abs(dense).max()
        if not gap <= PARITY_RTOL:
            problems.append(f"{label}: global operator differs from the "
                            f"dense oracle by {gap:.2e}")
            continue
        f = {s.id: GridField(s.id, rng.standard_normal(s.size))
             for s in comp.subdomains}
        ref = oracle.dense_lu_solve(
            A, np.concatenate([f[s.id].values for s in comp.subdomains]))
        try:
            p, _ = ddm.ddm_solve(comp, f, krylov.GmresConfig(tol=1e-7))
        except Exception as exc:  # reported as a problem, not fatal
            problems.append(f"{label}: ddm_solve raised {exc!r}")
            continue
        got = np.concatenate([p[s.id].values for s in comp.subdomains])
        gap = np.abs(got - ref).max() / np.abs(ref).max()
        if not gap <= DENSE_SOLVE_RTOL:
            problems.append(f"{label}: ddm_solve differs from dense LU by "
                            f"{gap:.2e}")
    return problems
