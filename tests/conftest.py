import numpy as np
import pytest

from fftddm import transforms
from fftddm.geometry import (BoundaryKind, CompositeDomain, RectSubdomain,
                             make_interface)

D = BoundaryKind.DIRICHLET
N = BoundaryKind.NEUMANN
P = BoundaryKind.PERIODIC
I = BoundaryKind.INTERFACE

_PAIR_KIND = {"DD": D, "NN": N, "PP": P}


def make_rect(m, n, x_pair="DD", y_pair="DD", dx=1.0, dy=1.0, kappa=0.0,
              sid=0, half=()):
    """Square-pair rectangle helper used all over the tests."""
    bc = {"west": _PAIR_KIND[x_pair], "east": _PAIR_KIND[x_pair],
          "south": _PAIR_KIND[y_pair], "north": _PAIR_KIND[y_pair]}
    return RectSubdomain(id=sid, origin=(0.0, 0.0), m=m, n=n, dx=dx, dy=dy,
                         edge_bc=bc, kappa=kappa,
                         half_cell_dirichlet=frozenset(half))


def rect_row(count, links):
    """`count` unit-spaced 2 x 2 rectangles side by side along x, with an
    interface between rectangles i and i + 1 for each i in `links`."""
    subs = [RectSubdomain(
        id=i, origin=(2.0 * i, 0.0), m=2, n=2, dx=1.0, dy=1.0,
        edge_bc={"west": I if i - 1 in links else D,
                 "east": I if i in links else D, "south": D, "north": D})
        for i in range(count)]
    return CompositeDomain(subdomains=subs, interfaces=[
        make_interface(k, subs[i], "east", subs[i + 1], "west")
        for k, i in enumerate(links)])


def interface_block(line_plan, t, v):
    """The block of A^{-1} that `rectsolver.interface_operator` returns as
    (line_plan, t), applied to line values v: Q diag(t) Q^T v with Q the
    transform of `line_plan`."""
    return transforms.apply_Q(line_plan, t * transforms.apply_Qt(line_plan, v))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
