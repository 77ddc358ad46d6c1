"""Restarted GMRES and companions for the coupled interface system.

The workhorse is `gmres`, a standard restarted GMRES with two-pass
classical Gram-Schmidt Arnoldi (each pass two matrix-vector products
with the basis) and Givens-rotation least squares.  `solve_coupled`
wires it to a Schur operator under one of three preconditioners:

  * fft       solve (I - A_c^{-1} S) p = A_c^{-1} f'  (transformed system),
              on the center's spectral coefficients Q^T p; Q is orthogonal,
              so iterates and residual norms are those of the nodal form
  * identity  solve (A_c - S) p = f'
  * jacobi    diagonally scale (A_c - S) by its diagonal,
              `SchurOperator.diagonal`
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, ValidationError
from .geometry import GridField

PRECONDITIONERS = ("identity", "jacobi", "fft")

_BREAKDOWN = 1e-14


@dataclass(frozen=True)
class GmresConfig:
    m: int = 80
    tol: float = 1e-10
    max_restarts: int = 200
    preconditioner: str = "fft"

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("restart length m must be >= 1")
        if not self.tol > 0:
            raise ValidationError("tolerance must be positive")
        if self.max_restarts < 1:
            raise ValidationError("max_restarts must be >= 1")
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
    true_residual: float = field(default=float("nan"))
    # ||(A_c - S) p - f'|| / ||f'||, set by solve_coupled
    true_relative_residual: float = field(default=float("nan"))


def gmres(operator, rhs: np.ndarray, x0: np.ndarray | None = None,
          cfg: GmresConfig | None = None):
    """Restarted GMRES; returns (solution, SolveReport).

    `operator` is any callable mapping a length-N vector to a length-N
    vector.  Residuals in the report are 2-norms relative to the initial
    residual.  Raises ConvergenceError (report attached) if max_restarts
    cycles do not reach tol.
    """
    if cfg is None:
        cfg = GmresConfig()
    rhs = np.asarray(rhs, dtype=float)
    N = rhs.size
    x = np.zeros(N) if x0 is None else np.asarray(x0, dtype=float).copy()
    start = time.perf_counter()

    r = rhs - operator(x) if x.any() else rhs.copy()
    r0_norm = np.linalg.norm(r)
    if r0_norm == 0.0:
        report = SolveReport(converged=True, iterations=0,
                             residual_history=np.zeros(1),
                             wall_time=time.perf_counter() - start)
        return x, report

    history = [1.0]
    total_iters = 0
    m = min(cfg.m, N)

    for _ in range(cfg.max_restarts):
        beta = np.linalg.norm(r)
        if beta / r0_norm <= cfg.tol:
            break
        V = np.empty((m + 1, N))
        H = np.zeros((m + 1, m))
        V[0] = r / beta
        g = np.zeros(m + 1)
        g[0] = beta
        cs = [0.0] * m
        sn = [0.0] * m
        k_used = 0
        breakdown = False

        for k in range(m):
            # copy: the operator may hand back its input (e.g. identity)
            w = np.array(operator(V[k]), dtype=float)
            w_norm = np.linalg.norm(w)
            # classical Gram-Schmidt, always twice ("twice is enough")
            basis = V[:k + 1]
            for _ in range(2):
                h = basis @ w
                w -= h @ basis
                H[:k + 1, k] += h
            h_next = np.linalg.norm(w)
            H[k + 1, k] = h_next

            # apply accumulated Givens rotations to the new column, on
            # Python floats: indexing numpy scalars costs more than the math
            col = H[:k + 2, k].tolist()
            for i in range(k):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            rho = math.hypot(col[k], col[k + 1])
            cs[k] = col[k] / rho if rho else 1.0
            sn[k] = col[k + 1] / rho if rho else 0.0
            col[k], col[k + 1] = rho, 0.0
            H[:k + 2, k] = col
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]

            total_iters += 1
            k_used = k + 1
            history.append(abs(g[k + 1]) / r0_norm)

            if h_next <= _BREAKDOWN * w_norm or h_next == 0.0:
                breakdown = True
                break
            V[k + 1] = w / h_next
            if history[-1] <= cfg.tol:
                break

        # solve the triangular system and update x
        y = np.zeros(k_used)
        for i in range(k_used - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1:k_used] @ y[i + 1:k_used]) / H[i, i]
        x = x + V[:k_used].T @ y

        r = rhs - operator(x)
        rel = np.linalg.norm(r) / r0_norm
        if rel <= cfg.tol or (breakdown and history[-1] <= cfg.tol):
            history[-1] = rel
            report = SolveReport(converged=True, iterations=total_iters,
                                 residual_history=np.asarray(history),
                                 wall_time=time.perf_counter() - start,
                                 true_residual=np.linalg.norm(r))
            return x, report
        if breakdown:
            # stalled with a nonzero residual: no further progress possible
            break

    report = SolveReport(converged=False, iterations=total_iters,
                         residual_history=np.asarray(history),
                         wall_time=time.perf_counter() - start,
                         true_residual=np.linalg.norm(rhs - operator(x)))
    err = ConvergenceError(
        f"GMRES did not reach tol={cfg.tol} in {total_iters} iterations "
        f"(relative residual {report.residual_history[-1]:.3e})",
        report=report)
    err.solution = x
    raise err


def solve_coupled(op, f_prime: GridField, cfg: GmresConfig | None = None):
    """Solve the coupled-subdomain system; returns (GridField, SolveReport)."""
    if cfg is None:
        cfg = GmresConfig()
    if f_prime.subdomain_id != op.coupled_id:
        raise ValidationError("right-hand side is not on the coupled subdomain")
    f = np.asarray(f_prime.values, dtype=float)

    to_nodal = lambda x: x
    if cfg.preconditioner == "fft":
        operator = op.spectral_preconditioned
        rhs = op.spectral_rhs(f)
        to_nodal = op.to_nodal
    elif cfg.preconditioner == "identity":
        operator = op.unpreconditioned
        rhs = f
    else:  # jacobi
        d = op.diagonal()
        operator = lambda v: op.unpreconditioned(v) / d
        rhs = f / d

    f_norm = np.linalg.norm(f)

    def nodal(x, report):
        """x in nodal values, and the report with ||(A_c - S) x - f'||."""
        x = to_nodal(x)
        res = np.linalg.norm(op.unpreconditioned(x) - f)
        return x, replace(report, true_residual=res,
                          true_relative_residual=res / f_norm if f_norm
                          else 0.0)

    try:
        x, report = nodal(*gmres(operator, rhs, cfg=cfg))
    except ConvergenceError as err:
        err.solution, err.report = nodal(err.solution, err.report)
        raise
    return GridField(op.coupled_id, x), report
