"""The benchmark's workloads: composites, solver settings and right-hand sides.

Every workload is a closed loop: one caller solves one right-hand side with
`ddm.ddm_solve`, waits for the answer, checks it, then sends the next.  All
inputs are made here from the run's seed; the solver receives only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from fftddm import bench, krylov
from fftddm.geometry import (BoundaryKind, CompositeDomain, GridField,
                             RectSubdomain, make_interface)

import check

D = BoundaryKind.DIRICHLET
N = BoundaryKind.NEUMANN
P = BoundaryKind.PERIODIC
I = BoundaryKind.INTERFACE

TOL = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    composite: CompositeDomain
    cfg: krylov.GmresConfig
    # traced solves whose counts are averaged; the counts repeat exactly
    count_solves: int
    # solve the first problem untimed before the timed loop
    warm_up: bool
    # rng -> iterator of (rhs fields, known solution fields or None)
    problems: Callable

    @property
    def unknowns(self) -> int:
        return sum(s.size for s in self.composite.subdomains)

    @property
    def center_size(self) -> int:
        return max(s.size for s in self.composite.subdomains
                   if s.id in self.composite.coupled_ids)

    def working_set_bytes(self) -> int:
        """Estimate from array sizes: right-hand side, solution, arm
        pre-solves and back-substitutions (4 fields), the per-mode
        tridiagonal factors (2 fields) and one Krylov basis of m + 1
        center vectors."""
        basis = (min(self.cfg.m, self.center_size) + 1) * self.center_size
        return 8 * (6 * self.unknowns + basis)


def build_star(k: int, kappa: float = -50.0) -> CompositeDomain:
    """Four-rectangle star that takes every path the cross never takes.

    center 2k x 2k: half-cell Dirichlet north edge, so its y axis is not a
                    pure pair and the solver transforms the transposed x axis
    west   k x 2k:  periodic flanks (PP real-Fourier transform)
    east   3k x 2k: Neumann flanks (NN transform)
    south  2k x k:  ghost-node Dirichlet on its outer edges; its transform
                    axis (y) is perpendicular to its interface
    The grid is anisotropic (dy = 0.75 dx) and kappa shifts the diagonal.
    """
    dx = 1.0 / (4 * k)
    dy = 0.75 * dx
    x0, y0 = k * dx, k * dy

    def rect(sid, origin, m, n, bc, half=()):
        return RectSubdomain(id=sid, origin=origin, m=m, n=n, dx=dx, dy=dy,
                             edge_bc=bc, kappa=kappa,
                             half_cell_dirichlet=frozenset(half))

    center = rect(0, (x0, y0), 2 * k, 2 * k,
                  {"west": I, "east": I, "south": I, "north": D},
                  half=("north",))
    west = rect(1, (0.0, y0), k, 2 * k,
                {"west": D, "east": I, "south": P, "north": P},
                half=("west",))
    east = rect(2, (x0 + 2 * k * dx, y0), 3 * k, 2 * k,
                {"west": I, "east": D, "south": N, "north": N},
                half=("east",))
    south = rect(3, (x0, 0.0), 2 * k, k,
                 {"west": D, "east": D, "south": D, "north": I})
    interfaces = [
        make_interface(0, west, "east", center, "west"),
        make_interface(1, center, "east", east, "west"),
        make_interface(2, south, "north", center, "south"),
    ]
    return CompositeDomain(subdomains=[center, west, east, south],
                           interfaces=interfaces)


def _normal_fields(comp: CompositeDomain, rng) -> dict:
    return {s.id: GridField(s.id, rng.standard_normal(s.size))
            for s in comp.subdomains}


# seed of the known-solution problem; fixed so that error_linf measures the
# same problem in every run, as the cross's manufactured solution does
REFERENCE_SEED = 0


def _seeded_problems(comp: CompositeDomain):
    """First a known discrete solution u with f = A u, then a stream of
    standard-normal right-hand sides drawn from the run's seed."""
    gop = check.GlobalOperator(comp)

    def problems(rng):
        u = _normal_fields(comp, np.random.default_rng(REFERENCE_SEED))
        au = gop.apply({sid: g.values for sid, g in u.items()})
        yield {sid: GridField(sid, v) for sid, v in au.items()}, u
        while True:
            yield _normal_fields(comp, rng), None
    return problems


def _cross_k128() -> Workload:
    case = bench.build_cross(k_n=128)
    f = bench.rhs_fields(case)
    exact = bench.exact_fields(case)

    def problems(rng):
        # the manufactured right-hand side has an analytic solution; the
        # seed is not needed
        while True:
            yield f, exact
    return Workload(
        name="cross-k128",
        composite=case.composite,
        cfg=krylov.GmresConfig(m=80, tol=TOL, preconditioner="fft"),
        count_solves=1, warm_up=False, problems=problems)


def _cross_k16_stream() -> Workload:
    case = bench.build_cross(k_n=16)
    return Workload(
        name="cross-k16-stream",
        composite=case.composite,
        cfg=krylov.GmresConfig(m=80, tol=TOL, preconditioner="fft"),
        count_solves=20, warm_up=True, problems=_seeded_problems(case.composite))


def _star_mixed() -> Workload:
    comp = build_star(96)
    return Workload(
        name="star-mixed",
        composite=comp,
        cfg=krylov.GmresConfig(m=10, tol=TOL, preconditioner="fft"),
        count_solves=3, warm_up=True, problems=_seeded_problems(comp))


WORKLOADS = {
    "cross-k128": _cross_k128,
    "cross-k16-stream": _cross_k16_stream,
    "star-mixed": _star_mixed,
}


def make(name: str) -> Workload:
    return WORKLOADS[name]()


def problem_stream(workload: Workload, seed: int):
    return workload.problems(np.random.default_rng(seed))
