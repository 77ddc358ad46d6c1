#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, end-to-end metrics only.

Runs `perfbench/run.py` in the OLD and the NEW checkout, one after the
other, N times, swapping which side goes first in every other pair, so
both sides see the same phases of the host's speed.  For each end-to-end
metric that NEW's `BENCHMARK.json` lists, prints each side's median, the
distance between the quartiles of OLD's runs and the number of pairs in
which NEW reads better (ties count for neither side): a gain needs wins
in nine tenths of the pairs and a median difference wider than OLD's
quartile spread.  Each side's failed and attempted operations and its
runs that missed their correctness gates are printed beside the table: a
gain does not count when NEW fails a larger share of its operations than
OLD (shares, not counts: the faster side attempts more).

    python3 tools/bench_pairs.py OLD_CHECKOUT . --workload cross-k128 \\
        --pairs 10 --json BENCH_name.json

With `--json PATH` the same figures go to PATH, under the workload's name
in the object "workloads", beside any other workload the file already
holds: each metric's per-pair values, medians, quartile spreads and NEW's
wins, each side's failed share, and the host the runs saw (core count,
numpy version and the BLAS thread settings, from the runs' own
environment line).

Every run uses seed 1 and, unless `--seconds` says otherwise, the run
length of NEW's `BENCHMARK.json`.  Each run's result is the last line of
its standard output, one JSON object.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("old", "new")
SEED = 1
PAIR_METRIC = "solve_s.p50.adj"  # printed after every pair
NAN = float("nan")
ENV = "# env "                   # the run's line describing its host


def run_once(root: Path, workload: str, seconds: float) -> dict:
    """The result line of one benchmark run in the checkout `root`, its
    metrics flattened to {name: value}, with the run's environment line
    as "env"."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"run in {root} failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"]
                         for name, m in result["metrics"].items()}
    result["env"] = next((json.loads(line[len(ENV):]) for line in lines
                          if line.startswith(ENV)), {})
    return result


def spread(values: list) -> float:
    """Distance between the quartiles; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="the parent's checkout")
    parser.add_argument("new", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the figures to PATH as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = dict(zip(SIDES, (args.old, args.new)))
    bench = json.loads((args.new / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES[::-1] if i % 2 else SIDES:
            runs[side].append(run_once(roots[side], args.workload, seconds))
        last = {side: runs[side][-1] for side in SIDES}
        print(f"pair {i}: " + "  ".join(
            f"{side} {last[side]['metrics'].get(PAIR_METRIC, NAN):.4g} s"
            + ("" if last[side]["correct"] else " INCORRECT")
            for side in SIDES), flush=True)
    print(f"\n{'metric':22s} {'unit':6s} {'old p50':>11s} {'new p50':>11s} "
          f"{'change':>8s} {'old IQR':>10s} {'new wins':>9s}")
    metrics = {}
    for m in bench["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        old, new = ([run["metrics"].get(name) for run in runs[side]]
                    for side in SIDES)
        if None in old or None in new:
            print(f"{name:22s} missing from some runs")
            continue
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        o, n = statistics.median(old), statistics.median(new)
        change = f"{100 * (n - o) / o:+.1f}%" if o else "-"
        print(f"{name:22s} {m['unit']:6s} {o:11.4g} {n:11.4g} {change:>8s} "
              f"{spread(old):10.3g} {wins:4d}/{len(old)}")
        metrics[name] = {"unit": m["unit"], "better": m["better"],
                         "old": old, "new": new, "old_p50": o, "new_p50": n,
                         "old_iqr": spread(old), "new_iqr": spread(new),
                         "new_wins": wins}
    sides = {}
    print()
    for side in SIDES:
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        incorrect = sum(not run["correct"] for run in runs[side])
        sides[side] = {"failed": failed, "attempted": attempted,
                       "failed_share": failed / attempted,
                       "incorrect_runs": incorrect}
        print(f"{side}: {failed} of {attempted} operations failed "
              f"({100 * failed / attempted:.2f}%), {incorrect} of "
              f"{len(runs[side])} runs incorrect")
    worse = sides["new"]["failed_share"] > sides["old"]["failed_share"]
    if worse:
        print("new fails a larger share of operations than old: "
              "no gain counts")
    if args.json:
        env = runs["new"][0]["env"]
        # one file holds several workloads: keep the others already there
        doc = json.loads(args.json.read_text()) if args.json.exists() \
            else {}
        doc.setdefault("workloads", {})[args.workload] = {
            "pairs": args.pairs, "seconds": seconds, "seed": SEED,
            "host": {key: env.get(key) for key in ("cores", "cpu_model",
                                                   "python", "numpy",
                                                   "pinned_threads")},
            "metrics": metrics, "sides": sides,
            "new_fails_larger_share": worse}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
