import dataclasses

import numpy as np
import pytest

from fftddm import bench
from fftddm.errors import ValidationError
from fftddm.geometry import (BoundaryKind, CompositeDomain, Interface,
                             line_indices, load_composite, make_interface,
                             validate)

from conftest import make_rect

D = BoundaryKind.DIRICHLET
N = BoundaryKind.NEUMANN


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
        a = make_rect(2, 3, sid=0)
        b = dataclasses.replace(make_rect(2, 4, sid=1), origin=(2.0, 0.0))
        with pytest.raises(Exception):
            make_interface(0, a, "east", b, "west")

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

    def test_wrong_coupling_value_rejected(self):
        comp = bench.build_cross(k_n=1).composite
        iface = comp.interfaces[0]
        bad = Interface(id=iface.id, side_a=iface.side_a, side_b=iface.side_b,
                        coupling=iface.coupling * 2, index_map=iface.index_map)
        broken = CompositeDomain(subdomains=comp.subdomains,
                                 interfaces=[bad] + comp.interfaces[1:])
        assert not validate(broken).ok


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
        assert comp.interfaces[0].coupling == pytest.approx(16.0)

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
