"""Gate 6's per-iteration cost ratios for two source trees, interleaved.

Loads two copies of the `fftddm` package into one process under two
package names (its modules import one another only relatively) and
alternates `bench.run_timing([32, 64, 128, 256], tol=1e-5, repeats=3)`
between them, the first tree first in even rounds and second in odd ones.
Both sides thus see the same host speed phases, which move a fresh
process's small-size timings by far more than most code changes do.

Each round prints the ratios t / (c k^2 log k) that
`tests/test_acceptance.py::test_criterion_6_per_iteration_cost` checks
against [0.5, 2.0]; the summary gives each side's per-size median ratio
and seconds per iteration, and its rounds outside the bounds.

    OMP_NUM_THREADS=1 python tools/interleave_timing.py \\
        OLD_CHECKOUT/src/fftddm src/fftddm --rounds 12 --json PATH

With `--json PATH` each round's ratios and seconds per iteration and each
side's summary go to PATH, under "gate6_interleaved", beside what the file
already holds.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path

import numpy as np

KNS = (32, 64, 128, 256)
LOW, HIGH = 0.5, 2.0            # the gate's bounds on each ratio


def load_bench(path: str, name: str):
    """The `bench` module of the package directory `path`, imported as
    package `name`."""
    path = Path(path).resolve()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.bench")


def gate_round(bench) -> tuple:
    """(seconds per iteration, gate 6 ratios), each one per k_n."""
    rows = bench.run_timing(list(KNS), tol=1e-5, repeats=3)
    t = np.array([r["seconds_per_iteration"] for r in rows])
    model = np.array([k * k * np.log(k) for k in KNS])
    c = np.exp(np.mean(np.log(t / model)))
    return t, t / (c * model)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("first", help="package directory, e.g. src/fftddm")
    parser.add_argument("second", help="the other package directory")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the figures to PATH as JSON")
    args = parser.parse_args(argv)
    labels = ("first", "second")
    paths = dict(zip(labels, (args.first, args.second)))
    benches = {label: load_bench(path, f"fftddm_{label}")
               for label, path in paths.items()}
    results = {label: [] for label in labels}
    width = max(map(len, labels))
    print("round side".ljust(7 + width),
          "  ".join(f"k_n={k:<4d}" for k in KNS), "ok")
    for i in range(args.rounds):
        for label in labels[::-1] if i % 2 else labels:
            t, ratios = gate_round(benches[label])
            results[label].append((t, ratios))
            ok = LOW <= ratios.min() and ratios.max() <= HIGH
            print(f"{i:5d} {label:{width}}",
                  "  ".join(f"{r:8.3f}" for r in ratios), "yes" if ok else "NO")
    print()
    summary = {}
    for label, runs in results.items():
        t, ratios = (np.array([run[j] for run in runs]) for j in (0, 1))
        failing = sum(not (LOW <= r.min() and r.max() <= HIGH)
                      for r in ratios)
        medians = [statistics.median(col) for col in ratios.T]
        seconds = [statistics.median(col) for col in t.T]
        summary[label] = {"package": paths[label], "failing_rounds": failing,
                          "rounds": len(runs), "median_ratios": medians,
                          "median_seconds_per_iteration": seconds}
        print(f"{label}: median ratio",
              " ".join(f"{m:.3f}" for m in medians),
              "| median ms/iteration",
              " ".join(f"{1e3 * s:.3f}" for s in seconds),
              f"| failing rounds {failing} of {len(runs)}")
    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() \
            else {}
        doc["gate6_interleaved"] = {
            "k_n": list(KNS), "bounds": [LOW, HIGH], "summary": summary,
            "rounds": {label: [{"ratios": r.tolist(), "seconds": t.tolist()}
                               for t, r in runs]
                       for label, runs in results.items()}}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
