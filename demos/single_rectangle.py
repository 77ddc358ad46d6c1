"""Direct FFT solve on one rectangle.

Builds a unit square with Dirichlet walls, solves a Poisson problem with
a smooth right-hand side, and checks the residual against the stencil.
Then repeats with Neumann walls along x to show the corner-modified
tridiagonal path.
"""

import numpy as np

from fftddm.geometry import BoundaryKind, RectSubdomain
from fftddm.rectsolver import apply_rect_operator, plan_rect, solve_rect

D = BoundaryKind.DIRICHLET
N = BoundaryKind.NEUMANN


def run(m=96, n=96):
    h = 1.0 / (m + 1)
    sub = RectSubdomain(
        id=0, origin=(0.0, 0.0), m=m, n=n, dx=h, dy=h,
        edge_bc={"west": D, "east": D, "south": D, "north": D})

    X, Y = np.meshgrid(sub.x_nodes(), sub.y_nodes(), indexing="ij")
    f = np.sin(3 * np.pi * X) * np.sin(2 * np.pi * Y)

    plan = plan_rect(sub)
    p = solve_rect(plan, f.ravel())
    res = apply_rect_operator(sub, p.values) - f.ravel()
    print(f"Dirichlet square {m}x{n}: "
          f"residual {np.abs(res).max():.2e}, "
          f"max |p| {np.abs(p.values).max():.4f}")

    # Neumann along x: the sweep-axis tridiagonals get corner modifications
    sub_n = RectSubdomain(
        id=1, origin=(0.0, 0.0), m=m, n=n, dx=h, dy=h,
        edge_bc={"west": N, "east": N, "south": D, "north": D})
    plan_n = plan_rect(sub_n)
    p_n = solve_rect(plan_n, f.ravel())
    res_n = apply_rect_operator(sub_n, p_n.values) - f.ravel()
    print(f"Neumann-x square  {m}x{n}: sweep pair "
          f"'{plan_n.solve_pair}', residual {np.abs(res_n).max():.2e}")


if __name__ == "__main__":
    run()
