"""Rectangles, boundary conditions, composite domains and field layout.

A rectangle carries `m` interior x-lines of `n` nodes each; fields are
linearized x-line by x-line, so node (i, j) (1-based) sits at flat index
(i-1)*n + (j-1).  Nodes are cell-centered: node (i, j) is at
(x0 + (i-1/2)*dx, y0 + (j-1/2)*dy), which keeps interface node lines on
both sides of a shared edge exactly one spacing apart and never places an
unknown on the interface line itself.

Dirichlet edges come in two flavours:

* ghost-node (default): the boundary value lives one full spacing outside
  the first node line (the plain Toeplitz axis matrix).  Interface edges
  behave identically, the neighbor's node line moved into the coupling.
* half-cell (``half_cell_dirichlet``): the value is imposed on the cell
  boundary half a spacing from the first node line, whose diagonal gains
  an extra -delta; the benchmarks' exterior edges use it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import ValidationError

EDGES = ("west", "east", "south", "north")
# the (low, high) edges bounding each axis, and the edge facing each edge
AXIS_EDGES = {"x": EDGES[:2], "y": EDGES[2:]}
OPPOSITE = dict(west="east", east="west", south="north", north="south")

# geometric coincidence tolerance, relative to one grid spacing
_GEOM_RTOL = 1e-9


class BoundaryKind(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    PERIODIC = "periodic"
    INTERFACE = "interface"


def edge_end(edge: str) -> tuple[str, int]:
    """(axis normal to `edge`, end): end 0 for the axis's low edge (west,
    south), 1 for its high edge (east, north)."""
    for axis, pair in AXIS_EDGES.items():
        if edge in pair:
            return axis, pair.index(edge)
    raise ValidationError(f"unknown edge {edge!r}")


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

    def delta(self, axis: str) -> float:
        """1/spacing^2 along `axis`."""
        h = self.dx if axis == "x" else self.dy
        return 1.0 / (h * h)

    def count(self, axis: str) -> int:
        """Number of nodes along `axis`."""
        return self.m if axis == "x" else self.n

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
        a, b = (BoundaryKind.DIRICHLET if k is BoundaryKind.INTERFACE else k
                for k in (self.edge_bc[e] for e in AXIS_EDGES[axis]))
        if a is not b:
            raise ValidationError(f"subdomain {self.id}: mixed {a.value}/"
                                  f"{b.value} pair on the {axis} axis is not "
                                  f"supported")
        return {"dirichlet": "DD", "neumann": "NN", "periodic": "PP"}[a.value]

    def end_modifier(self, edge: str) -> float:
        """Extra diagonal term (units of the axis delta) at the node line
        adjacent to `edge`: +delta for Neumann, -delta for half-cell
        Dirichlet, 0 otherwise."""
        delta = self.delta(edge_end(edge)[0])
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
        if np.iscomplexobj(self.values):
            raise ValidationError(
                f"values on subdomain {self.subdomain_id} are complex")
        self.values = np.asarray(self.values, dtype=float).ravel()


def field_values(sub: RectSubdomain, f) -> np.ndarray:
    """The flat values of `f`, a GridField or array given for `sub` (None
    when missing); ValidationError names the subdomain if `f` is missing,
    on another subdomain, complex, of the wrong length or not finite."""
    name = f"right-hand side for subdomain {sub.id}"
    if f is None:
        raise ValidationError(f"no {name}")
    if isinstance(f, GridField) and f.subdomain_id != sub.id:
        raise ValidationError(f"{name} is on subdomain {f.subdomain_id}")
    values = (f if isinstance(f, GridField) else GridField(sub.id, f)).values
    if values.size != sub.size:
        raise ValidationError(f"{name} has length {values.size}, expected "
                              f"{sub.m} x {sub.n}")
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} is not finite")
    return values


def line_indices(subdomain: RectSubdomain, edge: str) -> np.ndarray:
    """Flat indices of the node line adjacent to `edge`, in tangential order."""
    axis, end = edge_end(edge)
    m, n = subdomain.m, subdomain.n
    if axis == "x":
        return end * (m - 1) * n + np.arange(n)
    return np.arange(m) * n + end * (n - 1)


@dataclass(frozen=True)
class Interface:
    """A shared edge between two rectangles.

    Node k of side_a's boundary-adjacent line pairs with node k of side_b's
    line, both in tangential order.  The weight across it is
    `CompositeDomain.coupling`.
    """

    id: int
    side_a: tuple[int, str]
    side_b: tuple[int, str]

    def other_side(self, subdomain_id: int) -> tuple[int, str]:
        if self.side_a[0] == subdomain_id:
            return self.side_b
        if self.side_b[0] == subdomain_id:
            return self.side_a
        raise ValidationError(
            f"subdomain {subdomain_id} not on interface {self.id}")


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
        raise ValidationError(f"no subdomain with id {sid}")

    def interfaces_of(self, sid: int) -> list:
        return [f for f in self.interfaces
                if f.side_a[0] == sid or f.side_b[0] == sid]

    @property
    def coupled_ids(self) -> set:
        return {s.id for s in self.subdomains if len(self.interfaces_of(s.id)) >= 2}

    @property
    def center(self) -> int:
        """The star's center: the lowest id among the subdomains that every
        interface touches (every subdomain when there are no interfaces).
        A lone rectangle is a center without neighbors."""
        hubs = [s.id for s in self.subdomains
                if len(self.interfaces_of(s.id)) == len(self.interfaces)]
        if not hubs:
            raise ValidationError("no subdomain touches every interface; "
                                  "only one layer of coupling is supported")
        return min(hubs)

    def coupling(self, iface: Interface) -> float:
        """The weight across `iface`: 1/spacing^2 normal to it."""
        sid, edge = iface.side_a
        return self.subdomain(sid).delta(edge_end(edge)[0])


def _edge_line_geometry(sub: RectSubdomain, edge: str):
    """(interface-line coordinate, tangential node coordinates, spacing)."""
    axis, end = edge_end(edge)
    x0, x1, y0, y1 = sub.extent()
    if axis == "x":
        return (x0, x1)[end], sub.y_nodes(), sub.dy
    return (y0, y1)[end], sub.x_nodes(), sub.dx


def _check_subdomain(sub: RectSubdomain, report: ValidationReport):
    bc = sub.edge_bc or {}
    missing = [e for e in EDGES if not isinstance(bc.get(e), BoundaryKind)]
    if missing:
        report.violations.append(
            f"subdomain {sub.id}: missing BC on {', '.join(missing)}")
        return
    if not all(isinstance(c, (int, np.integer)) and c >= 1
               for c in (sub.m, sub.n)):
        report.violations.append(f"subdomain {sub.id}: node counts must be "
                                 f"positive integers, got {sub.m} x {sub.n}")
        return
    if not all(map(math.isfinite, (sub.dx, sub.dy, sub.kappa))):
        report.violations.append(f"subdomain {sub.id}: non-finite spacing "
                                 f"or kappa ({sub.dx}, {sub.dy}, {sub.kappa})")
        return
    if sub.dx <= 0 or sub.dy <= 0:
        report.violations.append(f"subdomain {sub.id}: nonpositive spacing")
        return
    bad = [e for e in sub.half_cell_dirichlet
           if bc.get(e) is not BoundaryKind.DIRICHLET]
    if bad:
        report.violations.append(
            f"subdomain {sub.id}: half_cell_dirichlet names "
            f"{', '.join(sorted(map(repr, bad)))}, not a Dirichlet edge")
    for axis in AXIS_EDGES:
        try:
            pair = sub.axis_pair(axis)
        except ValidationError as exc:
            report.violations.append(str(exc))
            continue
        if pair == "PP" and sub.count(axis) % 2:
            report.violations.append(
                f"subdomain {sub.id}: periodic {axis} axis needs an even "
                f"node count, got {sub.count(axis)}")


def _check_interface(comp: CompositeDomain, iface: Interface,
                     report: ValidationReport):
    try:
        sub_a = comp.subdomain(iface.side_a[0])
        sub_b = comp.subdomain(iface.side_b[0])
    except ValidationError as exc:
        report.violations.append(f"interface {iface.id}: {exc}")
        return
    edge_a, edge_b = iface.side_a[1], iface.side_b[1]
    if OPPOSITE.get(edge_a) != edge_b:
        report.violations.append(f"interface {iface.id}: edges {edge_a}/"
                                 f"{edge_b} do not face each other")
        return
    for sub, edge in ((sub_a, edge_a), (sub_b, edge_b)):
        if sub.edge_bc[edge] is not BoundaryKind.INTERFACE:
            report.violations.append(
                f"interface {iface.id}: subdomain {sub.id} edge {edge} "
                f"is {sub.edge_bc[edge].value}, not interface")
    line_a, tan_a, h_a = _edge_line_geometry(sub_a, edge_a)
    line_b, tan_b, h_b = _edge_line_geometry(sub_b, edge_b)
    tol = _GEOM_RTOL * max(h_a, h_b)
    if abs(line_a - line_b) > tol:
        report.violations.append(
            f"interface {iface.id}: edges are not coincident "
            f"({line_a} vs {line_b})")
    if len(tan_a) != len(tan_b):
        report.violations.append(f"interface {iface.id}: interface node mismatch "
                                 f"({len(tan_a)} vs {len(tan_b)})")
        return
    if abs(h_a - h_b) > tol:
        report.violations.append(
            f"interface {iface.id}: spacing mismatch along the interface")
    if np.max(np.abs(tan_a - tan_b)) > tol:
        report.violations.append(
            f"interface {iface.id}: paired nodes are not coincident")
    normal = edge_end(edge_a)[0]
    if not np.isclose(sub_a.delta(normal), sub_b.delta(normal), rtol=1e-9):
        report.violations.append(
            f"interface {iface.id}: spacing mismatch normal to the interface")


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

    # a star: every subdomain has an interface, and one touches them all
    if len(ids) > 1 and not all(map(composite.interfaces_of, ids)):
        report.violations.append("interface graph is not connected")
    try:
        composite.center
    except ValidationError as exc:
        report.violations.append(str(exc))
    return report


def make_interface(iface_id: int, sub_a: RectSubdomain, edge_a: str,
                   sub_b: RectSubdomain, edge_b: str) -> Interface:
    """An Interface of two named edges; `validate` checks their nodes."""
    return Interface(id=iface_id, side_a=(sub_a.id, _edge(edge_a)),
                     side_b=(sub_b.id, _edge(edge_b)))


_BC_NAMES = {k.value: k for k in BoundaryKind}


def _values(sec, key: str, kinds: tuple) -> list:
    """The whitespace-separated values of `key`, one per type in `kinds`."""
    tokens = sec[key].split()
    if len(tokens) != len(kinds):
        raise ValueError(f"{key} = {sec[key]!r} needs {len(kinds)} values")
    return [kind(t) for kind, t in zip(kinds, tokens)]


def _edge(name: str) -> str:
    edge_end(name)  # raises on an unknown edge
    return name


def load_composite(path) -> CompositeDomain:
    """Read a composite domain from a plain-text key-value config file.

    See README for the schema: one ``[subdomain <id>]`` section per
    rectangle and one ``[interface <id>]`` section per shared edge.
    Interface weights are derived from the geometry.  A malformed file
    raises ValidationError naming the section, or the file if it does not
    parse as sections of keys.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValidationError(f"config file {path}: {exc}") from None

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
        except (ValueError, ValidationError) as exc:
            raise ValidationError(
                f"config section [{section}]: {exc}") from None
        subdomains.append(RectSubdomain(
            id=sid, origin=(ox, oy), m=m, n=n, dx=dx, dy=dy, edge_bc=bc,
            kappa=kappa, half_cell_dirichlet=half))

    comp = CompositeDomain(subdomains=subdomains, interfaces=[])
    for section, iid, (sa, ea), (sb, eb) in iface_specs:
        try:
            sub_a, sub_b = comp.subdomain(sa), comp.subdomain(sb)
        except ValidationError as exc:
            raise ValidationError(
                f"config section [{section}]: {exc}") from None
        comp.interfaces.append(make_interface(iid, sub_a, ea, sub_b, eb))
    return comp
