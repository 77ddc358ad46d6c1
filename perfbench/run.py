"""Benchmark of the fftddm solver; see perfbench/README.md.

    python3 perfbench/run.py --workload cross-k128 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout: the solver is imported from its
`src/` directory, never from an installed copy.  One run builds one
workload, checks the correctness gate on desk-size composites, then
solves right-hand sides one after another for `--seconds`, checking every
solution.  `--trace 0` also times the set-up after each solve and reports
the end-to-end metrics, scaled to a reference host speed (hostspeed.py);
`--trace 1` alternates untraced and traced solves and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  Spans and a result record with the
environment go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("cross-k128", "cross-k16-stream", "star-mixed")
# native thread pools the benchmark pins to one thread before numpy loads
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# the solver's arm pools run one thread unless the caller sets another
# count: with two, a solve's wall time depends on whether the host runs the
# machine's second core at the time
SOLVER_THREADS_DEFAULT = "1"
# glibc's mallopt parameters, and the values the benchmark sets: the largest
# mmap threshold glibc accepts, and a trim threshold above any heap here
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOPT = {M_MMAP_THRESHOLD: 32 * 2 ** 20, M_TRIM_THRESHOLD: 2 ** 31 - 1}
# untraced runs time set-up and the reference work after each solve, at
# least once and for this share of the solve's wall time, so that the
# timings sample the whole run; the host's speed changes in phases of a
# few seconds
SETUP_SHARE = 0.1


@dataclass
class Outcome:
    wall: float
    cpu: float
    ok: bool
    residual: float
    error: float | None
    iterations: int


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_solver():
    """Import fftddm from this checkout's src/; None if it is not there."""
    if not (SRC / "fftddm" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(HERE)]
    import fftddm
    if Path(fftddm.__file__).resolve().parent != SRC / "fftddm":
        return None
    return fftddm


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(workload, ddm, numpy) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(index / "size").strip()
    threads_fn = getattr(ddm, "solver_threads", None)
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "SOLVER_THREADS": os.environ.get("SOLVER_THREADS"),
        "solver_threads_effective": threads_fn() if threads_fn else None,
        "pinned_threads": {k: os.environ[k] for k in PINNED_THREADS},
        "cache_sizes": caches,
        "unknowns": workload.unknowns,
        "working_set_mb": workload.working_set_bytes() / 2 ** 20,
    }


def keep_freed_memory() -> bool:
    """Make glibc's malloc keep freed blocks below 32 MiB in the process.

    By default glibc returns each freed block of a few hundred KiB or more
    to the kernel, and the next allocation faults the pages in again: a
    `cross-k128` solve takes about 245,000 minor faults and 1.1 s of system
    time that way, out of 6 s.  On a virtual machine that reports free
    pages to its host, what a fault costs depends on the host's memory
    load, not on the solver.  With this setting a solve takes about 300
    faults and 0.1 s of system time.  Returns False where there is no
    glibc `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOPT.items())


def time_setup(comp, geometry, ddm) -> float:
    """Wall time of validate + build_schur_operator on the composite."""
    start = time.perf_counter()
    geometry.validate(comp).require()
    ddm.build_schur_operator(comp)
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    for key in PINNED_THREADS:
        os.environ[key] = "1"
    os.environ.setdefault("SOLVER_THREADS", SOLVER_THREADS_DEFAULT)
    kept = keep_freed_memory()
    fftddm = import_solver()
    if fftddm is None:
        print(f"no fftddm sources under {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    import numpy
    from fftddm import bench, ddm, geometry
    import check
    import hostspeed
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    rng = numpy.random.default_rng(args.seed)
    gate_problems = check.self_check(
        [("cross k_n=2", bench.build_cross(k_n=2).composite),
         ("star k=2", workloads.build_star(2))], rng)
    for problem in gate_problems:
        print(f"self-check failed: {problem}", file=sys.stderr)

    w = workloads.make(args.workload)
    env = environment(w, ddm, numpy)
    env["malloc_keeps_freed_memory"] = kept
    env["reference_s"] = hostspeed.REFERENCE_S
    print(f"# workload {w.name}: {w.unknowns} unknowns, "
          f"m={w.cfg.m}, tol={w.cfg.tol}, closed loop, 1 caller, "
          f"{'traced' if args.trace else 'untraced'}, seed {args.seed}")
    print("# env " + json.dumps(env))
    # per round, the set-up timings, and the reference timings (wall, cpu)
    # each made right after one of them, in the same phase of the host
    setup_times, ref_rounds = [], []
    reference = hostspeed.ReferenceWork()
    gop = check.GlobalOperator(w.composite)
    problems = workloads.problem_stream(w, args.seed)

    def attempt(f, exact) -> Outcome:
        start, cpu = time.perf_counter(), time.process_time()
        try:
            p, report = ddm.ddm_solve(w.composite, f, w.cfg)
        except Exception:  # a failed solve is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            p = report = None
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        if p is None or not check.all_finite(p):
            # scored as no better than returning zero
            return Outcome(wall, cpu, False, 1.0,
                           None if exact is None else 1.0,
                           report.iterations if report else 0)
        residual = gop.rel_residual(f, p)
        error = None if exact is None else check.rel_error_linf(p, exact)
        ok = residual <= check.RESIDUAL_GATE and (
            error is None or error <= check.ERROR_GATE)
        return Outcome(wall, cpu, ok, residual, error, report.iterations)

    outcomes = []
    if w.warm_up:
        outcomes.append(attempt(*next(problems)))
    timed, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    # a round is one solve, or an untraced and a traced solve; no round
    # starts that would end more than half a round past the deadline
    deadline = time.perf_counter() + args.seconds
    last_round = 0.0
    while (time.perf_counter() + last_round / 2 < deadline
           or (tracer is not None and len(traced) < w.count_solves)):
        round_start = time.perf_counter()
        f, exact = next(problems)
        timed.append(attempt(f, exact))
        if tracer is not None:
            # the same right-hand side again, traced; interleaving the two
            # cancels host drift from the overhead figure
            tracer.solve = len(traced)
            tracer.install()
            try:
                traced.append(attempt(f, exact))
            finally:
                tracer.uninstall()
        last_round = time.perf_counter() - round_start
        if tracer is None:
            setup_end = time.perf_counter() + SETUP_SHARE * last_round
            ref_rounds.append([])
            while True:
                setup_times.append(time_setup(w.composite, geometry, ddm))
                ref_rounds[-1].append(reference.time())
                if time.perf_counter() >= setup_end:
                    break
    outcomes += timed + traced

    failed = sum(not o.ok for o in outcomes)
    walls = [o.wall for o in timed]
    residuals = [o.residual for o in outcomes]
    # the known-solution problem is the same in every run, so its error
    # compares like with like across runs and commits; the residual is
    # the mean over the seeded stream where the workload has one
    known = [o for o in outcomes if o.error is not None]
    stream = [o for o in outcomes if o.error is None] or known
    metrics = {}
    if tracer is None:
        # time metrics are scaled to the host speed at which the reference
        # work takes REFERENCE_S: each solve by the reference timings around
        # it, each set-up timing by the one made right after it
        ref_walls = [wall for r in ref_rounds for wall, _ in r]
        raw = {
            "solve_s.p50": statistics.median(walls),
            "solve_cpu_s.p50": statistics.median(o.cpu for o in timed),
            "setup_s.p50": statistics.median(setup_times),
            "reference_s.mean": statistics.fmean(ref_walls),
        }
        for name, value in raw.items():
            print(f"metric {name} = {value:.6g} s (unscaled)")
        metrics = {
            "solve_s.p50.adj": (hostspeed.scaled_median(
                walls, ref_rounds, 0), "s"),
            "solve_cpu_s.p50.adj": (hostspeed.scaled_median(
                [o.cpu for o in timed], ref_rounds, 1), "s"),
            "setup_s": (hostspeed.REFERENCE_S * statistics.median(
                s / r for s, r in zip(setup_times, ref_walls)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
            "true_rel_residual": (statistics.fmean(
                o.residual for o in stream), "ratio"),
            "error_linf": (max(o.error for o in known), "ratio"),
            "solved_frac": (1 - failed / len(outcomes), "ratio"),
        }
    else:
        counted = range(w.count_solves)
        metrics = tracing.layer_metrics(
            tracer.spans, {i: o.iterations for i, o in enumerate(traced)},
            counted)
        traced_p50 = statistics.median(o.wall for o in traced)
        untraced_p50 = statistics.median(walls)
        metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50,
                                           "ratio")
        tracer.write(OUT / f"{w.name}.spans.jsonl", set(counted))
        print(f"# traced solve_s.p50 {traced_p50:.6g} s over {len(traced)}, "
              f"untraced {untraced_p50:.6g} s over {len(walls)}")

    print(f"# {len(walls)} timed solves, {len(outcomes)} checked, "
          f"{failed} failed, {len(setup_times)} set-up timings; iterations "
          f"{sorted({o.iterations for o in outcomes})}")
    print(f"metric failed_frac = {failed / len(outcomes):.6g} ratio")
    print(f"metric true_rel_residual.all.p50 = "
          f"{statistics.median(residuals):.6g} ratio")
    print(f"metric true_rel_residual.all.max = {max(residuals):.6g} ratio")
    print(f"metric solve_s.p95 = {numpy.percentile(walls, 95):.6g} s "
          f"({len(walls)} samples)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    correct = not gate_problems and failed == 0
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct,
              "solves": [vars(o) for o in outcomes],
              "setup_times": setup_times, "reference_rounds": ref_rounds,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (OUT / f"{w.name}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
