"""Command-line benchmark driver.

Subcommands:
  solve             one cross solve, field + report CSVs
  convergence       grid-refinement error study
  precond-compare   GMRES iteration counts per preconditioner
  scaling           iteration growth and per-iteration timing vs k_n

All outputs are CSV; exit code 0 on success, nonzero with a single
machine-readable JSON error line on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench, krylov
from .errors import FftDdmError


def _ints(text: str):
    return [int(t) for t in text.split(",") if t]


def _floats(text: str):
    return [float(t) for t in text.split(",") if t]


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


_COMMON = {
    "--out": dict(default=".", help="output directory"),
    "--kappa": dict(type=float, default=0.0,
                    help="Helmholtz shift added to the operator diagonal"),
}


def _add_common(p, *flags):
    """Add the shared options `flags` that the subcommand reads."""
    for flag in flags:
        p.add_argument(flag, **_COMMON[flag])


def cmd_solve(args) -> int:
    case = bench.build_cross(k_n=args.kn, kappa=args.kappa)
    cfg = krylov.GmresConfig(m=args.m, tol=args.tol)
    fields, report = bench.solve_case(case, cfg)
    bench.emit_field(case, fields, _out_path(args, "solution.csv"))
    linf, l2 = bench.error_norms(case, fields)
    bench.emit_csv([{
        "k_n": args.kn, "m": args.m, "tol": args.tol,
        "iterations": report.iterations, "converged": report.converged,
        "wall_time": report.wall_time, "linf_error": linf, "l2_error": l2,
        "true_relative_residual": report.true_relative_residual,
        "residual_checks": len(report.residual_checks),
    }], _out_path(args, "report.csv"))
    bench.emit_history(report.residual_history,
                       _out_path(args, "residual_history.csv"))
    print(f"solved cross k_n={args.kn}: {report.iterations} iterations, "
          f"L-inf error {linf:.3e}, true relative residual "
          f"{report.true_relative_residual:.3e} "
          f"({len(report.residual_checks)} checks)")
    return 0


def cmd_convergence(args) -> int:
    rows = bench.run_convergence(args.kn_list, kappa=args.kappa)
    bench.emit_csv(rows, _out_path(args, "convergence.csv"))
    for r in rows:
        print(f"k_n={r['k_n']:<4d} h={r['h']:.5f} "
              f"linf={r['linf_error']:.6e} order={r['observed_order']:.3f}")
    return 0


def cmd_precond_compare(args) -> int:
    rows = bench.run_precond_compare(
        args.kn_list, args.m_list, tol=args.tol,
        preconditioners=tuple(args.precond.split(",")),
        max_restarts=args.max_restarts)
    for r in rows:
        r["history_file"] = (f"history_kn{r['k_n']}_m{r['m']}_"
                             f"{r['preconditioner']}.csv")
        bench.emit_history(r.pop("history"),
                           _out_path(args, r["history_file"]))
    bench.emit_csv(rows, _out_path(args, "precond_compare.csv"))
    for r in rows:
        flag = "" if r["converged"] else "  [cap reached]"
        print(f"k_n={r['k_n']:<4d} m={r['m']:<3d} {r['preconditioner']:<9s}"
              f" iterations={r['iterations']}{flag}")
    return 0


def cmd_scaling(args) -> int:
    rows = bench.run_scaling(args.kn_list, tol_list=args.tol_list, m=args.m)
    bench.emit_csv(rows, _out_path(args, "scaling.csv"))
    timing = bench.run_timing(args.kn_list, tol=max(args.tol_list), m=args.m)
    bench.emit_csv(timing, _out_path(args, "timing.csv"))
    for r in rows:
        print(f"tol={r['tol']:g} k_n={r['k_n']:<4d} "
              f"iterations={r['iterations']} exponent={r['fitted_exponent']:.3f}")
    for r in timing:
        print(f"k_n={r['k_n']:<4d} sec/iteration="
              f"{r['seconds_per_iteration']:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fftddm",
        description="FFT-accelerated domain-decomposition benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the cross benchmark once")
    p.add_argument("--kn", type=int, required=True)
    p.add_argument("--m", type=int, default=80)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p, "--out", "--kappa")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convergence", help="grid-refinement study")
    p.add_argument("--kn-list", type=_ints, default=[4, 8, 16, 32, 64])
    _add_common(p, "--out", "--kappa")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("precond-compare",
                       help="GMRES iterations per preconditioner")
    p.add_argument("--kn-list", type=_ints, default=[8, 16])
    p.add_argument("--m-list", type=_ints, default=[80])
    p.add_argument("--precond", default="fft,identity")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--max-restarts", type=int, default=40)
    _add_common(p, "--out")
    p.set_defaults(func=cmd_precond_compare)

    p = sub.add_parser("scaling", help="iteration and timing scaling study")
    p.add_argument("--kn-list", type=_ints, default=[8, 16, 32, 64, 128])
    p.add_argument("--tol-list", type=_floats, default=[1e-7, 1e-10])
    p.add_argument("--m", type=int, default=80)
    _add_common(p, "--out")
    p.set_defaults(func=cmd_scaling)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FftDdmError, OSError, ValueError) as exc:
        line = json.dumps({"error": {"type": type(exc).__name__,
                                     "message": str(exc)}})
        print(line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
