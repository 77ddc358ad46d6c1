"""Compare GMRES preconditioners on the coupled interface system.

Runs the Schur-complement solve of the cross benchmark with the FFT
preconditioner and without one (identity), and prints their iteration
counts side by side.
"""

from fftddm import bench, ddm, krylov
from fftddm.errors import ConvergenceError


def run(k_n=16, tol=1e-7):
    case = bench.build_cross(k_n=k_n)
    op = ddm.build_schur_operator(case.composite)

    # modified right-hand side on the coupled subdomain
    rhs = ddm.eliminate_arms(op, bench.rhs_fields(case))

    print(f"cross k_n={k_n}, coupled system size {op.size}, tol={tol:g}")
    for mode in ("fft", "identity"):
        cfg = krylov.GmresConfig(m=80, tol=tol, max_restarts=25,
                                 preconditioner=mode)
        try:
            _, rep = krylov.solve_coupled(op, rhs, cfg)
            note = ""
            iters = rep.iterations
        except ConvergenceError as exc:
            iters = exc.report.iterations
            note = "  (cap reached)"
        print(f"  {mode:<9s} {iters:>5d} iterations{note}")


if __name__ == "__main__":
    run()
