"""Rectangles, boundary conditions, composite domains and field layout.

A rectangle carries `m` interior x-lines of `n` nodes each; fields are
linearized x-line by x-line, so node (i, j) (1-based) sits at flat index
(i-1)*n + (j-1).  Nodes are cell-centered: node (i, j) is at
(x0 + (i-1/2)*dx, y0 + (j-1/2)*dy), which keeps interface node lines on
both sides of a shared edge exactly one spacing apart and never places an
unknown on the interface line itself.

Dirichlet edges come in two flavours:

* ghost-node (default): the boundary value lives one full spacing outside
  the first node line and the axis matrix is the plain Toeplitz form.
  Interface edges behave identically (their "boundary value" is the
  neighbouring subdomain's node line, moved into the coupling operator).
* half-cell (``half_cell_dirichlet``): the value is imposed on the cell
  boundary half a spacing from the first node line; the diagonal of the
  near-boundary row gains an extra -delta.  Composite benchmarks use this
  flavour on exterior edges so the discrete boundary sits on the true
  geometric boundary.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import ValidationError

EDGES = ("west", "east", "south", "north")

# geometric coincidence tolerance, relative to one grid spacing
_GEOM_RTOL = 1e-9


class BoundaryKind(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    PERIODIC = "periodic"
    INTERFACE = "interface"


def edge_axis(edge: str) -> str:
    """Axis normal to the given edge: 'x' for west/east, 'y' for south/north."""
    if edge in ("west", "east"):
        return "x"
    if edge in ("south", "north"):
        return "y"
    raise ValueError(f"unknown edge {edge!r}")


@dataclass(frozen=True)
class RectSubdomain:
    """One uniform rectangle grid.

    m, n are interior node counts along x and y; dx, dy the spacings;
    kappa the Helmholtz shift added to the operator diagonal.
    """

    id: int
    origin: tuple[float, float]
    m: int
    n: int
    dx: float
    dy: float
    edge_bc: Mapping[str, BoundaryKind]
    kappa: float = 0.0
    half_cell_dirichlet: frozenset = frozenset()

    @property
    def delta_x(self) -> float:
        return 1.0 / (self.dx * self.dx)

    @property
    def delta_y(self) -> float:
        return 1.0 / (self.dy * self.dy)

    @property
    def size(self) -> int:
        return self.m * self.n

    def x_nodes(self) -> np.ndarray:
        return self.origin[0] + (np.arange(1, self.m + 1) - 0.5) * self.dx

    def y_nodes(self) -> np.ndarray:
        return self.origin[1] + (np.arange(1, self.n + 1) - 0.5) * self.dy

    def extent(self) -> tuple[float, float, float, float]:
        """(x0, x1, y0, y1) of the cell-centered rectangle."""
        x0, y0 = self.origin
        return (x0, x0 + self.m * self.dx, y0, y0 + self.n * self.dy)

    def axis_pair(self, axis: str) -> str:
        """BC pair on an axis after mapping Interface -> Dirichlet.

        Returns 'DD', 'NN' or 'PP'; raises ValidationError on a mixed pair.
        """
        lo, hi = (("west", "east") if axis == "x" else ("south", "north"))
        kinds = []
        for e in (lo, hi):
            k = self.edge_bc[e]
            kinds.append(BoundaryKind.DIRICHLET if k is BoundaryKind.INTERFACE else k)
        if kinds[0] is not kinds[1]:
            raise ValidationError(
                f"subdomain {self.id}: mixed {kinds[0].value}/{kinds[1].value} "
                f"pair on the {axis} axis is not supported"
            )
        return {
            BoundaryKind.DIRICHLET: "DD",
            BoundaryKind.NEUMANN: "NN",
            BoundaryKind.PERIODIC: "PP",
        }[kinds[0]]

    def end_modifier(self, edge: str) -> float:
        """Extra diagonal term (units of the axis delta) at the node line
        adjacent to `edge`: +delta for Neumann, -delta for half-cell
        Dirichlet, 0 otherwise."""
        delta = self.delta_x if edge_axis(edge) == "x" else self.delta_y
        kind = self.edge_bc[edge]
        if kind is BoundaryKind.NEUMANN:
            return +delta
        if kind is BoundaryKind.DIRICHLET and edge in self.half_cell_dirichlet:
            return -delta
        return 0.0


@dataclass
class GridField:
    """Interior-node scalar field on one rectangle (flat, x-line major)."""

    subdomain_id: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()


def line_indices(subdomain: RectSubdomain, edge: str) -> np.ndarray:
    """Flat indices of the node line adjacent to `edge`, in tangential order."""
    m, n = subdomain.m, subdomain.n
    if edge == "west":
        return np.arange(n)
    if edge == "east":
        return (m - 1) * n + np.arange(n)
    if edge == "south":
        return np.arange(m) * n
    if edge == "north":
        return np.arange(m) * n + (n - 1)
    raise ValueError(f"unknown edge {edge!r}")


@dataclass(frozen=True)
class Interface:
    """A shared edge between two rectangles.

    `index_map[k]` pairs node k of side_a's boundary-adjacent line with
    node index_map[k] of side_b's line.  `coupling` is 1/spacing^2 in the
    direction normal to the interface.
    """

    id: int
    side_a: tuple[int, str]
    side_b: tuple[int, str]
    coupling: float
    index_map: np.ndarray

    def other_side(self, subdomain_id: int) -> tuple[int, str]:
        if self.side_a[0] == subdomain_id:
            return self.side_b
        if self.side_b[0] == subdomain_id:
            return self.side_a
        raise KeyError(f"subdomain {subdomain_id} not on interface {self.id}")


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self):
        if not self.ok:
            raise ValidationError("; ".join(self.violations))


@dataclass
class CompositeDomain:
    subdomains: list
    interfaces: list

    def subdomain(self, sid: int) -> RectSubdomain:
        for s in self.subdomains:
            if s.id == sid:
                return s
        raise KeyError(f"no subdomain with id {sid}")

    def interfaces_of(self, sid: int) -> list:
        return [f for f in self.interfaces
                if f.side_a[0] == sid or f.side_b[0] == sid]

    @property
    def coupled_ids(self) -> set:
        return {s.id for s in self.subdomains if len(self.interfaces_of(s.id)) >= 2}


def _edge_line_geometry(sub: RectSubdomain, edge: str):
    """(interface-line coordinate, tangential node coordinates, spacing)."""
    x0, x1, y0, y1 = sub.extent()
    if edge == "west":
        return x0, sub.y_nodes(), sub.dy
    if edge == "east":
        return x1, sub.y_nodes(), sub.dy
    if edge == "south":
        return y0, sub.x_nodes(), sub.dx
    return y1, sub.x_nodes(), sub.dx


def _check_subdomain(sub: RectSubdomain, report: ValidationReport):
    if sub.m < 1 or sub.n < 1:
        report.violations.append(f"subdomain {sub.id}: empty grid ({sub.m} x {sub.n})")
        return
    if sub.dx <= 0 or sub.dy <= 0:
        report.violations.append(f"subdomain {sub.id}: nonpositive spacing")
        return
    for axis, count in (("x", sub.m), ("y", sub.n)):
        try:
            pair = sub.axis_pair(axis)
        except ValidationError as exc:
            report.violations.append(str(exc))
            continue
        if pair == "PP" and count % 2:
            report.violations.append(
                f"subdomain {sub.id}: periodic {axis} axis needs an even "
                f"node count, got {count}"
            )
    for edge in EDGES:
        if edge not in sub.edge_bc:
            report.violations.append(f"subdomain {sub.id}: missing BC on {edge}")


def _check_interface(comp: CompositeDomain, iface: Interface,
                     report: ValidationReport):
    try:
        sub_a = comp.subdomain(iface.side_a[0])
        sub_b = comp.subdomain(iface.side_b[0])
    except KeyError as exc:
        report.violations.append(f"interface {iface.id}: {exc}")
        return
    opposite = {"west": "east", "east": "west", "south": "north", "north": "south"}
    edge_a, edge_b = iface.side_a[1], iface.side_b[1]
    if opposite.get(edge_a) != edge_b:
        report.violations.append(
            f"interface {iface.id}: edges {edge_a}/{edge_b} do not face each other"
        )
        return
    for sub, edge in ((sub_a, edge_a), (sub_b, edge_b)):
        if sub.edge_bc[edge] is not BoundaryKind.INTERFACE:
            report.violations.append(
                f"interface {iface.id}: subdomain {sub.id} edge {edge} "
                f"is {sub.edge_bc[edge].value}, not interface"
            )
    line_a, tan_a, h_a = _edge_line_geometry(sub_a, edge_a)
    line_b, tan_b, h_b = _edge_line_geometry(sub_b, edge_b)
    tol = _GEOM_RTOL * max(h_a, h_b)
    if abs(line_a - line_b) > tol:
        report.violations.append(
            f"interface {iface.id}: edges are not coincident "
            f"({line_a} vs {line_b})"
        )
    if len(tan_a) != len(tan_b):
        report.violations.append(f"interface {iface.id}: interface node mismatch "
                                 f"({len(tan_a)} vs {len(tan_b)})")
        return
    if abs(h_a - h_b) > tol:
        report.violations.append(
            f"interface {iface.id}: spacing mismatch along the interface")
    imap = np.asarray(iface.index_map)
    if imap.shape != (len(tan_a),) or sorted(imap) != list(range(len(tan_a))):
        report.violations.append(
            f"interface {iface.id}: index_map is not a permutation of the line")
    elif np.max(np.abs(tan_a - tan_b[imap])) > tol:
        report.violations.append(
            f"interface {iface.id}: paired nodes are not coincident")
    # normal spacing and coupling
    axis = edge_axis(edge_a)
    deltas = ((sub_a.delta_x, sub_b.delta_x) if axis == "x"
              else (sub_a.delta_y, sub_b.delta_y))
    for sid, d in zip((sub_a.id, sub_b.id), deltas):
        if not np.isclose(iface.coupling, d, rtol=1e-9):
            report.violations.append(
                f"interface {iface.id}: coupling {iface.coupling} does not "
                f"match 1/spacing^2 = {d} of subdomain {sid}")


def validate(composite: CompositeDomain) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises."""
    report = ValidationReport()
    ids = [s.id for s in composite.subdomains]
    if len(set(ids)) != len(ids):
        report.violations.append("duplicate subdomain ids")
        return report
    for sub in composite.subdomains:
        _check_subdomain(sub, report)
    if report.violations:
        return report

    seen_edges = {}
    for iface in composite.interfaces:
        _check_interface(composite, iface, report)
        for side in (iface.side_a, iface.side_b):
            if side in seen_edges:
                report.violations.append(
                    f"edge {side} referenced by interfaces "
                    f"{seen_edges[side]} and {iface.id}")
            seen_edges[side] = iface.id
    for sub in composite.subdomains:
        for edge in EDGES:
            if sub.edge_bc.get(edge) is BoundaryKind.INTERFACE \
                    and (sub.id, edge) not in seen_edges:
                report.violations.append(
                    f"subdomain {sub.id} edge {edge} marked interface but "
                    f"no interface record references it")

    # connectivity of the interface graph
    if len(composite.subdomains) > 1:
        adj = {s.id: set() for s in composite.subdomains}
        for iface in composite.interfaces:
            a, b = iface.side_a[0], iface.side_b[0]
            if a in adj and b in adj:
                adj[a].add(b)
                adj[b].add(a)
        stack, seen = [ids[0]], {ids[0]}
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != set(ids):
            report.violations.append("interface graph is not connected")

    # star topology: neighbours of any coupled subdomain are all independent
    for sid in composite.coupled_ids:
        for iface in composite.interfaces_of(sid):
            nb = iface.other_side(sid)[0]
            if len(composite.interfaces_of(nb)) != 1:
                report.violations.append(
                    f"coupled subdomains {sid} and {nb} share an interface; "
                    f"only one layer of coupling is supported")
    return report


def make_interface(iface_id: int, sub_a: RectSubdomain, edge_a: str,
                   sub_b: RectSubdomain, edge_b: str) -> Interface:
    """Build an Interface with coupling and index_map derived from geometry."""
    _, tan_a, _ = _edge_line_geometry(sub_a, edge_a)
    _, tan_b, _ = _edge_line_geometry(sub_b, edge_b)
    if len(tan_a) != len(tan_b):
        raise ValidationError(
            f"interface {iface_id}: interface node mismatch "
            f"({len(tan_a)} vs {len(tan_b)})")
    index_map = np.argsort(tan_b)[np.argsort(np.argsort(tan_a))]
    delta = sub_a.delta_x if edge_axis(edge_a) == "x" else sub_a.delta_y
    return Interface(id=iface_id, side_a=(sub_a.id, edge_a),
                     side_b=(sub_b.id, edge_b), coupling=delta,
                     index_map=index_map)


_BC_NAMES = {k.value: k for k in BoundaryKind}


def _values(sec, key: str, kinds: tuple) -> list:
    """The whitespace-separated values of `key`, one per type in `kinds`."""
    tokens = sec[key].split()
    if len(tokens) != len(kinds):
        raise ValueError(f"{key} = {sec[key]!r} needs {len(kinds)} values")
    return [kind(t) for kind, t in zip(kinds, tokens)]


def _edge(name: str) -> str:
    if name not in EDGES:
        raise ValueError(f"unknown edge {name!r}")
    return name


def load_composite(path) -> CompositeDomain:
    """Read a composite domain from a plain-text key-value config file.

    See README for the schema: one ``[subdomain <id>]`` section per
    rectangle and one ``[interface <id>]`` section per shared edge.
    Coupling strengths and node pairings are derived from the geometry.
    A malformed file raises ValidationError naming the section.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        parser.read_file(fh)

    try:
        default_kappa = parser.getfloat("domain", "kappa", fallback=0.0)
    except ValueError as exc:
        raise ValidationError(f"config section [domain]: {exc}") from None

    subdomains = []
    iface_specs = []
    for section in parser.sections():
        kind, *ids = section.split() or [""]
        if kind == "domain":
            continue
        if kind not in ("subdomain", "interface"):
            raise ValidationError(f"unknown config section {section!r}")
        sec = parser[section]
        try:
            if len(ids) != 1:
                raise ValueError("the section name needs one id")
            sid = int(ids[0])
            if kind == "interface":
                iface_specs.append((section, sid) + tuple(
                    _values(sec, key, (int, _edge))
                    for key in ("first", "second")))
                continue
            ox, oy = _values(sec, "origin", (float, float))
            m, n = _values(sec, "cells", (int, int))
            dx, dy = _values(sec, "spacing", (float, float))
            bc = {}
            for edge in EDGES:
                name = sec[edge].strip().lower()
                if name not in _BC_NAMES:
                    raise ValueError(f"unknown boundary kind {name!r}")
                bc[edge] = _BC_NAMES[name]
            half = frozenset(map(_edge, sec.get("half_cell_dirichlet",
                                                "").split()))
            kappa = sec.getfloat("kappa", default_kappa)
        except KeyError as exc:
            raise ValidationError(
                f"config section [{section}]: missing key {exc}") from None
        except ValueError as exc:
            raise ValidationError(
                f"config section [{section}]: {exc}") from None
        subdomains.append(RectSubdomain(
            id=sid, origin=(ox, oy), m=m, n=n, dx=dx, dy=dy, edge_bc=bc,
            kappa=kappa, half_cell_dirichlet=half))

    comp = CompositeDomain(subdomains=subdomains, interfaces=[])
    for section, iid, (sa, ea), (sb, eb) in iface_specs:
        try:
            sub_a, sub_b = comp.subdomain(sa), comp.subdomain(sb)
        except KeyError as exc:
            raise ValidationError(
                f"config section [{section}]: {exc.args[0]}") from None
        comp.interfaces.append(make_interface(iid, sub_a, ea, sub_b, eb))
    return comp
