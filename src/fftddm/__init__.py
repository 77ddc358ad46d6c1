"""FFT-accelerated Schur-complement solver for Helmholtz-Poisson problems
on composite domains built from axis-aligned rectangles.

Layers, bottom up:

  geometry    rectangles, interfaces, composite validation
  transforms  FFT-realized eigenbasis transforms per boundary pair
  rectsolver  direct solver on a single rectangle (transform + tridiagonal)
  ddm         interface couplings and the matrix-free Schur operator
  krylov      restarted GMRES and its preconditioners
  oracle      dense brute-force references used by the tests
  bench       cross-shaped benchmark with a manufactured solution, CLI studies
"""

from .errors import (ConvergenceError, FftDdmError, SingularOperatorError,
                     ValidationError)
from .geometry import (BoundaryKind, CompositeDomain, GridField, Interface,
                       RectSubdomain, load_composite, make_interface, validate)
from .rectsolver import plan_rect, solve_rect
from .ddm import build_schur_operator, ddm_solve
from .krylov import GmresConfig, SolveReport, gmres
from .bench import build_cross, manufactured_rhs, manufactured_solution

__all__ = [
    "BoundaryKind", "CompositeDomain", "ConvergenceError", "FftDdmError",
    "GmresConfig", "GridField", "Interface", "RectSubdomain", "SolveReport",
    "SingularOperatorError", "ValidationError", "build_cross",
    "build_schur_operator", "ddm_solve", "gmres", "load_composite",
    "make_interface", "manufactured_rhs", "manufactured_solution",
    "plan_rect", "solve_rect", "validate",
]

__version__ = "0.1.0"
