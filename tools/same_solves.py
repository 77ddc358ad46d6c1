#!/usr/bin/env python3
"""Whether two source trees solve the benchmark's problems the same way.

For each workload of `perfbench/workloads.py`, solves its first problem
with `ddm.ddm_solve` and the workload's GMRES settings in the OLD and the
NEW checkout, each in a subprocess of its own tree (its `src` and
`perfbench` on the path, one BLAS thread unless the environment says
otherwise).  Prints both sides' GMRES iterations and check schedules (the
iterations at which the true residual was checked) and the largest
difference between the two sides' fields, absolute and relative to the
largest value of NEW's.  A change that claims unchanged iterates reads
the same iterations and schedules and a difference of 0.

    python3 tools/same_solves.py OLD_CHECKOUT . --workload cross-k128 \\
        --workload star-mixed

Without `--workload`, every workload that NEW's `BENCHMARK.json` lists
is solved.  Exits with status 1 when any workload differs.  Only the
standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("old", "new")
SEED = 1                        # the seed `tools/bench_pairs.py` runs with
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# run in the checkout: argv = workload name, path of the fields' .npz
CHILD = """
import json, sys
import numpy as np
sys.path[:0] = ["src", "perfbench"]
import workloads
from fftddm import ddm
w = workloads.make(sys.argv[1])
f, _ = next(workloads.problem_stream(w, int(sys.argv[3])))
fields, rep = ddm.ddm_solve(w.composite, f, w.cfg)
np.savez(sys.argv[2], **{str(sid): g.values for sid, g in fields.items()})
print(json.dumps({"iterations": rep.iterations, "converged": rep.converged,
                  "checks": [int(k) for k, _ in rep.residual_checks]}))
"""


def solve(root: Path, workload: str, out: Path) -> dict:
    """The first problem of `workload` solved in the checkout `root`: its
    report's figures, and its fields written to `out`."""
    env = dict(os.environ)
    for name in THREAD_VARS:
        env.setdefault(name, "1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, workload, str(out), str(SEED)],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"solve in {root} failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def field_difference(old: Path, new: Path) -> tuple:
    """(max |new - old|, max |new|) over every subdomain's field."""
    with np.load(old) as a, np.load(new) as b:
        if sorted(a.files) != sorted(b.files):
            return float("inf"), 0.0
        diff = max(float(np.abs(b[k] - a[k]).max()) for k in b.files)
        scale = max(float(np.abs(b[k]).max()) for k in b.files)
    return diff, scale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="the parent's checkout")
    parser.add_argument("new", type=Path, help="the change's checkout")
    parser.add_argument("--workload", action="append",
                        help="a workload name; may be repeated")
    args = parser.parse_args(argv)
    names = args.workload or [
        w["name"] for w in json.loads(
            (args.new / "BENCHMARK.json").read_text())["workloads"]]
    roots = dict(zip(SIDES, (args.old, args.new)))
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            paths = {side: Path(tmp) / f"{name}-{side}.npz" for side in SIDES}
            runs = {side: solve(roots[side].resolve(), name, paths[side])
                    for side in SIDES}
            diff, scale = field_difference(paths["old"], paths["new"])
            agree = diff == 0.0 and all(
                runs["old"][key] == runs["new"][key]
                for key in ("iterations", "checks", "converged"))
            same &= agree
            print(f"{name}: {'same' if agree else 'DIFFERENT'}")
            for side in SIDES:
                run = runs[side]
                print(f"  {side}: {run['iterations']} iterations, checks at "
                      f"{run['checks']}, converged {run['converged']}")
            print(f"  max field difference {diff:.3g} "
                  f"({diff / scale if scale else float('nan'):.3g} of the "
                  f"largest value)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
