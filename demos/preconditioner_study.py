"""Compare GMRES preconditioners on the coupled interface system.

Runs the Schur-complement solve of the cross benchmark with the FFT
preconditioner and without one (identity), and prints their iteration
counts side by side.
"""

from fftddm import bench


def run(k_n=16, tol=1e-7):
    rows = bench.run_precond_compare([k_n], [80], tol=tol, max_restarts=25)
    print(f"cross k_n={k_n}, GMRES(80), tol={tol:g}")
    for r in rows:
        note = "" if r["converged"] else "  (cap reached)"
        print(f"  {r['preconditioner']:<9s} {r['iterations']:>5d} "
              f"iterations{note}")


if __name__ == "__main__":
    run()
