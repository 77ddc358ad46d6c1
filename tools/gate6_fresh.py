#!/usr/bin/env python3
"""Gate 6's per-iteration cost ratios for two source trees, one fresh
process per run.

Each run starts a new Python process that imports one tree's `fftddm`
package (by `tools/interleave_timing.py`'s loader) and makes one gate-6
round: `bench.run_timing([32, 64, 128, 256], tol=1e-5, repeats=3)` and the
ratios t / (c k^2 log k) that
`tests/test_acceptance.py::test_criterion_6_per_iteration_cost` checks
against [0.5, 2.0].  The sides alternate, the first tree first in even
runs and second in odd ones.  A fresh process sees the cold start a test
run sees, which an interleaved run in one process hides, so its failure
rate is higher.  Prints each run's ratios, then each side's failing runs
and per-size median ratios.

    OMP_NUM_THREADS=1 python tools/gate6_fresh.py \\
        OLD_CHECKOUT/src/fftddm src/fftddm --runs 20 --json PATH

With `--json PATH` the per-run ratios and the summary go to PATH, under
"gate6_fresh", beside what the file already holds.  One BLAS thread is
used unless the environment sets the thread counts.  Only the standard
library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROUND = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
         "from interleave_timing import gate_round, load_bench; "
         "t, r = gate_round(load_bench(sys.argv[2], 'fftddm_run')); "
         "print(json.dumps({'ratios': r.tolist(), 'seconds': t.tolist()}))")


def fresh_round(package: str) -> dict:
    """One gate-6 round of the package directory `package`, in a new
    process: {"ratios": [...], "seconds": [...]}, one entry per k_n."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    proc = subprocess.run(
        [sys.executable, "-c", ROUND, str(HERE), str(Path(package).resolve())],
        capture_output=True, text=True, env=env)
    if proc.returncode:
        raise RuntimeError(f"gate-6 round of {package} failed:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from interleave_timing import HIGH, KNS, LOW

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("first", help="package directory, e.g. src/fftddm")
    parser.add_argument("second", help="the other package directory")
    parser.add_argument("--runs", type=int, default=20,
                        help="fresh processes per side")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the figures to PATH as JSON")
    args = parser.parse_args(argv)
    labels = ("first", "second")
    paths = dict(zip(labels, (args.first, args.second)))
    runs = {label: [] for label in labels}
    print("run side  ", "  ".join(f"k_n={k:<4d}" for k in KNS), "ok")
    for i in range(args.runs):
        for label in labels[::-1] if i % 2 else labels:
            run = fresh_round(paths[label])
            run["ok"] = LOW <= min(run["ratios"]) and max(run["ratios"]) <= HIGH
            runs[label].append(run)
            print(f"{i:3d} {label:6s}",
                  "  ".join(f"{r:8.3f}" for r in run["ratios"]),
                  "yes" if run["ok"] else "NO", flush=True)
    print()
    summary = {}
    for label in labels:
        ratios = [run["ratios"] for run in runs[label]]
        medians = [statistics.median(col) for col in zip(*ratios)]
        failing = sum(not run["ok"] for run in runs[label])
        summary[label] = {"package": paths[label], "failing_runs": failing,
                          "runs": len(ratios), "median_ratios": medians}
        print(f"{label}: failing runs {failing} of {len(ratios)} | median "
              "ratio", " ".join(f"{m:.3f}" for m in medians))
    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() \
            else {}
        doc["gate6_fresh"] = {"k_n": list(KNS), "bounds": [LOW, HIGH],
                              "summary": summary, "runs": runs}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
