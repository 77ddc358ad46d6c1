"""Restarted GMRES (`gmres`) and the coupled interface system's solve.

`solve_coupled` solves the center's system in the eigenbasis that makes
A_c diagonal, with the true relative residual ||f' - (A_c - S) p|| /
||f'|| as `check`, under one of two preconditioners:

  * fft       the paper's A_c^{-1} (A_c - S) p = A_c^{-1} f', A_c^{-1} one
              elementwise product, right-preconditioned by the arms' fold,
              on the interface coordinates (`ddm.SchurOperator.coordinates`)
  * identity  none: (A_c - S) p = f', the baseline without a preconditioner
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError
from .geometry import GridField, field_values

PRECONDITIONERS = ("identity", "fft")

_BREAKDOWN = 1e-14


@dataclass(frozen=True)
class GmresConfig:
    m: int = 80
    tol: float = 1e-10
    max_restarts: int = 200
    preconditioner: str = "fft"

    def __post_init__(self):
        for name in ("m", "max_restarts"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer)) or value < 1):
                raise ValidationError(f"{name} must be an integer >= 1")
        if not 0 < self.tol < 1:
            raise ValidationError("tolerance must lie in (0, 1)")
        if self.preconditioner not in PRECONDITIONERS:
            raise ValidationError(
                f"unknown preconditioner {self.preconditioner!r}; "
                f"expected one of {PRECONDITIONERS}")


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    residual_history: np.ndarray
    wall_time: float
    # check(x) of the returned x, ||(A_c - S) p - f'|| / ||f'|| in
    # solve_coupled; NaN when GMRES has no check
    true_relative_residual: float = field(default=float("nan"))
    # (iteration, true relative residual) of each check GMRES made
    residual_checks: tuple = ()


def _update(V: np.ndarray, H: np.ndarray, g: list, k: int):
    """V[:k]^T y for H[:k, :k] y = g[:k]; NaN if that triangle is singular."""
    try:
        return V[:k].T @ np.linalg.solve(H[:k, :k], g[:k])
    except np.linalg.LinAlgError:
        return np.full(V.shape[1], np.nan)


def gmres(operator, rhs: np.ndarray, cfg: GmresConfig | None = None,
          check=None, dual=None):
    """Restarted GMRES from x = 0, with Givens-rotation least squares;
    returns (solution, SolveReport).

    `operator` maps a length-N vector to a length-N vector; residuals in
    the report are 2-norms relative to the initial one.  `check`, if
    given, maps an iterate to its true relative residual.  Once GMRES's
    estimate meets its inner tolerance (first tol) it forms the iterate
    and asks: a passing check returns it at once; a failing one scales
    the inner tolerance by tol / check and the cycle goes on.  At a
    cycle's end the explicit residual must meet tol and the check pass,
    unless it failed on that very iterate.  A breakdown or a non-finite
    estimate ends the restarts, a non-finite check or explicit residual
    the solve.  Short of tol, raises ConvergenceError carrying the report
    and the solution.  The report's true relative residual is the
    passing check's value, or one more check of a solution short of tol.

    `dual`, if given, maps coordinates c of a vector to its dual d, so
    that <c', c> = c' . d, to its norm h (c . d cancels in a badly scaled
    basis) and to what the operator reads of the expanded vector, e: GMRES
    then runs on coordinates, keeps each basis vector c / h with its dual,
    formed after its Gram-Schmidt pass, and applies operator(c / h, e, h).
    Else vectors are their own duals.
    """
    cfg = cfg or GmresConfig()
    rhs = np.asarray(rhs, dtype=float)
    N = rhs.size
    x = np.zeros(N)
    start = time.perf_counter()

    def paired(c):              # (c, d) stacked, read as [:N] and [-N:],
        if dual is None:        # ||c||, and the operator's further
            return c, math.sqrt(c @ c), ()      # arguments for c / ||c||
        d, c_norm, e = dual(c)
        return np.concatenate([c, d]), c_norm, (e, c_norm)

    # r the residual of x, never written in place, and `ex` the operator's
    # further arguments for the next basis vector
    r, r_norm, ex = paired(rhs)
    r0_norm = r_norm
    history = [1.0 if r0_norm else 0.0]
    checks = []
    inner = cfg.tol
    m = min(cfg.m, N)

    def report(converged: bool, true: float = np.nan):
        return SolveReport(converged=converged, iterations=len(history) - 1,
                           residual_history=np.asarray(history),
                           wall_time=time.perf_counter() - start,
                           true_relative_residual=true,
                           residual_checks=tuple(checks))

    def failure(x, value=None):
        """ConvergenceError for x, `value` check(x) if already known."""
        if value is None:
            value = np.nan if check is None else check(x)
        true = f", true {checks[-1][1]:.3e} when checked" if checks else ""
        return ConvergenceError(
            f"GMRES did not reach tol={cfg.tol} in {len(history) - 1} "
            f"iterations (relative residual {history[-1]:.3e}{true})",
            report=report(False, value), solution=x)

    def checked(x) -> bool:
        """Whether check(x) meets tol; tightens `inner` when it does not,
        and ends the solve when it is not finite."""
        nonlocal inner
        value = check(x)
        checks.append((len(history) - 1, value))
        if not math.isfinite(value):
            raise failure(x, value)
        if value > cfg.tol:
            inner *= cfg.tol / value
        return value <= cfg.tol

    if r0_norm == 0.0:
        return x, report(True, np.nan if check is None else 0.0)
    for _ in range(cfg.max_restarts):
        V, tmp = np.empty((m + 1, r.size)), np.empty(N)
        H = np.zeros((m + 1, m))
        V[0] = r / r_norm
        g = [r_norm] + [0.0] * m
        cs, sn = [0.0] * m, [0.0] * m

        for k in range(m):
            w = np.array(operator(V[k, :N], *ex), dtype=float)  # a copy
            # A v_k lies mostly along v_{k-1} and v_k: one product takes those
            # out, one classical pass the rest of the basis, a second only
            # when the first leaves at most 1/sqrt(2) (DGKS)
            col, i = np.zeros(k + 2), max(k - 1, 0)
            col[i:k + 1] = h = V[i:k + 1, -N:] @ w
            w -= np.matmul(h, V[i:k + 1, :N], out=tmp)
            for _ in range(2):
                h = V[:k + 1, -N:] @ w
                w -= np.matmul(h, V[:k + 1, :N], out=tmp)
                col[:k + 1] += h
                w_pair, h_next, ex = paired(w)  # w's dual, once per pass
                if h_next * h_next > h @ h:
                    break
            w_norm = math.sqrt(h_next * h_next + col @ col)  # ||A v_k||
            col[k + 1] = h_next

            # apply accumulated Givens rotations to the new column, on
            # Python floats: indexing numpy scalars costs more than the math
            col = col.tolist()
            for i in range(k):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            rho = math.hypot(col[k], col[k + 1])
            cs[k] = col[k] / rho if rho else 1.0
            sn[k] = col[k + 1] / rho if rho else 0.0
            col[k], col[k + 1] = rho, 0.0
            H[:k + 2, k] = col
            g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
            history.append(abs(g[k + 1]) / r0_norm)

            if stop := (h_next <= _BREAKDOWN * w_norm or h_next == 0.0
                        or not math.isfinite(history[-1])):
                break
            np.multiply(w_pair, 1.0 / h_next, out=V[k + 1])
            if history[-1] <= inner:
                if check is None:
                    break
                x_k = x + _update(V[:, :N], H, g, k + 1)
                if checked(x_k):
                    return x_k, report(True, checks[-1][1])

        # a check that failed at the cycle's last step is not repeated
        last_checked = checks and checks[-1][0] == len(history) - 1
        x = x + _update(V[:, :N], H, g, k + 1)
        r, r_norm, ex = paired(rhs - operator(x))
        if not math.isfinite(r_norm):   # never accept a non-finite iterate
            history[-1] = r_norm / r0_norm
            raise failure(x)
        if (r_norm / r0_norm <= cfg.tol or stop and history[-1] <= cfg.tol
                ) and (check is None or not last_checked and checked(x)):
            history[-1] = r_norm / r0_norm
            return x, report(True, checks[-1][1] if checks else np.nan)
        if stop:  # stalled or not finite: no progress possible
            break

    raise failure(x)


def solve_coupled(op, f_prime: GridField, cfg: GmresConfig | None = None):
    """Solve the coupled-subdomain system for a finite f' on the coupled
    subdomain (`field_values`); returns (GridField, SolveReport)."""
    cfg = cfg or GmresConfig()
    f = field_values(op.center_plan.subdomain, f_prime)
    f_norm = np.linalg.norm(f)
    f_hat = op.spectral_rhs(f)
    if cfg.preconditioner == "fft":   # on interface coordinates
        operator, rhs, dual, expand = op.coordinates(f_hat)
        x_hat = lambda c: op.solution(expand(c))
    else:  # identity
        operator, rhs, dual, x_hat = op.spectral_apply, f_hat, None, np.asarray
    last = [None, None]     # the last checked iterate and its x_hat

    def check(y):
        last[:] = y, x_hat(y)
        return np.linalg.norm(f_hat - op.spectral_apply(last[1])) / f_norm

    def nodal(y):
        return op.to_nodal(last[1] if y is last[0] else x_hat(y))

    try:
        y, report = gmres(operator, rhs, cfg=cfg, check=check, dual=dual)
    except ConvergenceError as err:
        err.solution = nodal(err.solution)
        raise
    return GridField(op.coupled_id, nodal(y)), report
