import dataclasses

import numpy as np
import pytest

from fftddm import bench
from fftddm.errors import ValidationError
from fftddm.geometry import (AXIS_EDGES, OPPOSITE, BoundaryKind,
                             CompositeDomain, edge_end, line_indices,
                             load_composite, make_interface, validate)

from conftest import make_rect, rect_row

D = BoundaryKind.DIRICHLET
N = BoundaryKind.NEUMANN
I = BoundaryKind.INTERFACE


class TestEdgeTables:
    @pytest.mark.parametrize("edge,want", [
        ("west", ("x", 0)), ("east", ("x", 1)),
        ("south", ("y", 0)), ("north", ("y", 1))])
    def test_edge_end(self, edge, want):
        assert edge_end(edge) == want
        axis, end = want
        assert AXIS_EDGES[axis][end] == edge
        assert edge_end(OPPOSITE[edge]) == (axis, 1 - end)

    @pytest.mark.parametrize("axis,count,delta", [("x", 3, 4.0),
                                                  ("y", 5, 16.0)])
    def test_count_and_delta_along_an_axis(self, axis, count, delta):
        sub = make_rect(3, 5, dx=0.5, dy=0.25)
        assert (sub.count(axis), sub.delta(axis)) == (count, delta)


class TestLineIndices:
    def test_west_line_is_first_x_line(self):
        sub = make_rect(3, 4)
        np.testing.assert_array_equal(line_indices(sub, "west"), [0, 1, 2, 3])

    def test_south_line_strides_by_n(self):
        sub = make_rect(3, 4)
        np.testing.assert_array_equal(line_indices(sub, "south"), [0, 4, 8])

    @pytest.mark.parametrize("edge,want", [
        ("west", [0, 1, 2, 3, 4]), ("east", [10, 11, 12, 13, 14]),
        ("south", [0, 5, 10]), ("north", [4, 9, 14])],
        ids=["west", "east", "south", "north"])
    def test_every_edge_on_a_non_square_grid(self, edge, want):
        # x-line major: node (i, j), 1-based, sits at (i - 1) * n + (j - 1)
        np.testing.assert_array_equal(line_indices(make_rect(3, 5), edge),
                                      want)


class TestValidate:
    def test_single_all_dirichlet_rectangle_ok(self):
        comp = CompositeDomain(subdomains=[make_rect(3, 3)], interfaces=[])
        assert validate(comp).ok

    @pytest.mark.parametrize("kn", [1, 2, 4])
    def test_cross_ok(self, kn):
        comp = bench.build_cross(k_n=kn).composite
        report = validate(comp)
        assert report.ok, report.violations
        assert comp.coupled_ids == {bench.CENTER}

    def test_mismatched_interface_lines_rejected(self):
        # make_interface pairs the edges by name; validate checks the nodes
        a = dataclasses.replace(
            make_rect(2, 3, sid=0),
            edge_bc={"west": D, "east": I, "south": D, "north": D})
        b = dataclasses.replace(
            make_rect(2, 4, sid=1), origin=(2.0, 0.0),
            edge_bc={"west": I, "east": D, "south": D, "north": D})
        comp = CompositeDomain(
            subdomains=[a, b],
            interfaces=[make_interface(0, a, "east", b, "west")])
        assert validate(comp).violations == [
            "interface 0: interface node mismatch (3 vs 4)"]

    def test_non_integer_node_counts_reported(self):
        sub = dataclasses.replace(make_rect(2, 2), n=2.5)
        comp = CompositeDomain(subdomains=[sub], interfaces=[])
        assert validate(comp).violations == [
            "subdomain 0: node counts must be positive integers, got 2 x 2.5"]
        with pytest.raises(ValidationError, match="got 5.0 x 10.0"):
            bench.build_cross(k_n=2.5)

    @pytest.mark.parametrize("field", ["dx", "dy", "kappa"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_spacing_or_kappa_reported(self, field, value):
        sub = dataclasses.replace(make_rect(4, 4), **{field: value})
        comp = CompositeDomain(subdomains=[sub], interfaces=[])
        (violation,) = validate(comp).violations
        assert "non-finite spacing or kappa" in violation

    @pytest.mark.parametrize("half,named", [
        (("west", "bogus"), "'bogus'"),     # no such edge
        (("west", "south"), "'south'"),     # a Neumann edge
    ])
    def test_half_cell_on_a_non_dirichlet_edge_reported(self, half, named):
        sub = make_rect(4, 4, x_pair="DD", y_pair="NN", kappa=-1.0,
                        half=half)
        comp = CompositeDomain(subdomains=[sub], interfaces=[])
        (violation,) = validate(comp).violations
        assert "half_cell_dirichlet" in violation and named in violation
        assert "'west'" not in violation

    def test_half_cell_on_an_interface_edge_reported(self):
        comp = bench.build_cross(k_n=1).composite
        center = dataclasses.replace(comp.subdomain(bench.CENTER),
                                     half_cell_dirichlet=frozenset(["west"]))
        broken = CompositeDomain(
            subdomains=[center] + [s for s in comp.subdomains
                                   if s.id != bench.CENTER],
            interfaces=comp.interfaces)
        assert any("half_cell_dirichlet names 'west'," in v
                   for v in validate(broken).violations)

    def test_mixed_axis_pair_rejected(self):
        sub = make_rect(2, 2)
        bc = dict(sub.edge_bc)
        bc["west"] = N
        broken = dataclasses.replace(sub, edge_bc=bc)
        comp = CompositeDomain(subdomains=[broken], interfaces=[])
        assert not validate(comp).ok

    def test_deleting_an_interface_breaks_the_cross(self):
        comp = bench.build_cross(k_n=1).composite
        cut = CompositeDomain(subdomains=comp.subdomains,
                              interfaces=comp.interfaces[:-1])
        report = validate(cut)
        assert not report.ok
        assert any("interface" in v for v in report.violations)

    def test_normal_spacing_mismatch_rejected(self):
        # the lines and their nodes coincide, but dx is 1 on one side and
        # 0.5 on the other
        a = dataclasses.replace(
            make_rect(2, 3, sid=0),
            edge_bc={"west": D, "east": I, "south": D, "north": D})
        b = dataclasses.replace(
            make_rect(4, 3, dx=0.5, sid=1), origin=(2.0, 0.0),
            edge_bc={"west": I, "east": D, "south": D, "north": D})
        comp = CompositeDomain(
            subdomains=[a, b],
            interfaces=[make_interface(0, a, "east", b, "west")])
        assert validate(comp).violations == [
            "interface 0: spacing mismatch normal to the interface"]

    @pytest.mark.parametrize("count,links,violation", [
        (4, (0, 1, 2), "no subdomain touches every interface; "
                       "only one layer of coupling is supported"),
        (4, (0, 2), "no subdomain touches every interface; "
                    "only one layer of coupling is supported"),
        (3, (0,), "interface graph is not connected"),
    ], ids=["chain-of-four", "two-disjoint-pairs", "pair-and-isolated"])
    def test_composites_that_are_not_stars(self, count, links, violation):
        assert validate(rect_row(count, links)).violations == [violation]

    def test_shifted_interface_lines_rejected(self):
        # equal node counts, but b's line starts one node further north
        a = dataclasses.replace(
            make_rect(2, 3, sid=0),
            edge_bc={"west": D, "east": I, "south": D, "north": D})
        b = dataclasses.replace(
            make_rect(2, 3, sid=1), origin=(2.0, 1.0),
            edge_bc={"west": I, "east": D, "south": D, "north": D})
        comp = CompositeDomain(
            subdomains=[a, b],
            interfaces=[make_interface(0, a, "east", b, "west")])
        assert validate(comp).violations == [
            "interface 0: paired nodes are not coincident"]

    @pytest.mark.parametrize("bc,missing", [
        ({"west": D, "east": D, "south": D}, "north"),
        (dict.fromkeys(("west", "east", "south", "north"), "dirichlet"),
         "west, east, south, north"),
        ({"west": None, "east": D, "south": D, "north": D}, "west"),
        (None, "west, east, south, north"),
    ], ids=["absent-edge", "string-kinds", "none-kind", "no-mapping"])
    def test_missing_bc_reported_not_raised(self, bc, missing):
        sub = dataclasses.replace(make_rect(2, 2), edge_bc=bc)
        comp = CompositeDomain(subdomains=[sub], interfaces=[])
        assert validate(comp).violations == [
            f"subdomain 0: missing BC on {missing}"]


class TestCenter:
    @pytest.mark.parametrize("build,center", [
        (lambda: rect_row(1, ()), 0),
        (lambda: rect_row(2, (0,)), 0),
        (lambda: rect_row(3, (0, 1)), 1),
        (lambda: bench.build_cross(k_n=1).composite, bench.CENTER),
    ], ids=["single", "two-rectangles", "chain-of-three", "cross"])
    def test_center(self, build, center):
        comp = build()
        validate(comp).require()
        assert comp.center == center


class TestTypedErrors:
    @pytest.mark.parametrize("call,name", [
        (lambda comp: edge_end("wset"), "'wset'"),
        (lambda comp: line_indices(comp.subdomains[0], "wset"), "'wset'"),
        (lambda comp: comp.subdomain(9), "id 9"),
        (lambda comp: comp.interfaces[0].other_side(9), "subdomain 9"),
    ], ids=["edge_end", "line_indices", "subdomain", "other_side"])
    def test_unknown_edge_or_id(self, call, name):
        comp = bench.build_cross(k_n=1).composite
        with pytest.raises(ValidationError, match=name):
            call(comp)

    @pytest.mark.parametrize("m", [3, 4], ids=["3x4|2x4", "4x4|2x4"])
    @pytest.mark.parametrize("edge", ["bogus", "East"])
    @pytest.mark.parametrize("call", [
        lambda a, b, edge: make_interface(0, a, edge, b, "west"),
        lambda a, b, edge: make_interface(0, b, "west", a, edge),
        lambda a, b, edge: line_indices(a, edge),
    ], ids=["make_interface-first", "make_interface-second",
            "line_indices"])
    def test_unknown_edge_raises_at_once(self, call, edge, m):
        # whatever the node counts, the edge name is checked first
        a = make_rect(m, 4, sid=0)
        b = dataclasses.replace(make_rect(2, 4, sid=1), origin=(m, 0.0))
        with pytest.raises(ValidationError, match=f"unknown edge '{edge}'"):
            call(a, b, edge)


TWO_RECTANGLES = """
[domain]
kappa = 0.0

[subdomain 0]
origin = 0 0
cells = 3 3
spacing = 0.25 0.25
west = dirichlet
east = interface
south = dirichlet
north = dirichlet

[subdomain 1]
origin = 0.75 0
cells = 2 3
spacing = 0.25 0.25
west = interface
east = dirichlet
south = dirichlet
north = dirichlet

[interface 0]
first = 0 east
second = 1 west
"""


class TestConfigLoader:
    def test_round_trip_two_rectangles(self, tmp_path):
        cfg = tmp_path / "domain.cfg"
        cfg.write_text(TWO_RECTANGLES)
        comp = load_composite(cfg)
        assert validate(comp).ok
        assert [s.id for s in comp.subdomains] == [0, 1]
        assert comp.coupling(comp.interfaces[0]) == pytest.approx(16.0)

    def test_inline_comments_ignored(self, tmp_path):
        # the README documents the schema with trailing comments
        cfg = tmp_path / "domain.cfg"
        cfg.write_text(
            TWO_RECTANGLES.replace("cells = 3 3", "cells = 3 3  # m n")
            .replace("first = 0 east", "first = 0 east  # id, edge"))
        comp = load_composite(cfg)
        assert (comp.subdomains[0].m, comp.subdomains[0].n) == (3, 3)
        assert comp.interfaces[0].side_a == (0, "east")

    def test_unknown_boundary_kind_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("""
[subdomain 0]
origin = 0 0
cells = 2 2
spacing = 0.5 0.5
west = bogus
east = dirichlet
south = dirichlet
north = dirichlet
""")
        with pytest.raises(ValidationError, match="bogus"):
            load_composite(cfg)

    @pytest.mark.parametrize("old,new,section", [
        ("north = dirichlet\n\n[subdomain 1]", "\n[subdomain 1]",
         "subdomain 0"),
        ("cells = 2 3", "cells = 3", "subdomain 1"),
        ("second = 1 west", "second = 7 west", "interface 0"),
        ("[interface 0]", "[interface]", "interface"),
        ("second = 1 west", "second = 1 wset", "interface 0"),
        ("cells = 2 3", "cells = 2 3\nhalf_cell_dirichlet = esat",
         "subdomain 1"),
        ("kappa = 0.0", "kappa = zero", "domain"),
    ], ids=["missing-key", "one-cell-count", "unknown-subdomain",
            "interface-without-id", "misspelled-edge",
            "misspelled-half-cell-edge", "domain-kappa"])
    def test_malformed_file_names_the_section(self, tmp_path, old, new,
                                              section):
        assert old in TWO_RECTANGLES
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TWO_RECTANGLES.replace(old, new))
        with pytest.raises(ValidationError, match=rf"\[{section}\]"):
            load_composite(cfg)

    @pytest.mark.parametrize("text", [
        TWO_RECTANGLES + "\n[subdomain 0]\n",
        TWO_RECTANGLES.replace("cells = 3 3", "cells = 3 3\ncells = 3 3"),
        "kappa = 0.0\n" + TWO_RECTANGLES,
        TWO_RECTANGLES.replace("cells = 2 3", "cells 2 3"),
    ], ids=["duplicate-section", "duplicate-key", "line-before-section",
            "line-without-equals"])
    def test_unparsable_file_names_the_file(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        with pytest.raises(ValidationError, match="bad.cfg"):
            load_composite(cfg)
