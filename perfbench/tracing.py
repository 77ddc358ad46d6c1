"""Outside-in tracing of the solver's layers, from the benchmark's own files.

`Tracer.install` replaces each public function of a layer by a wrapper at
every name a caller looks it up by: `ddm` imports `solve_rect` and
`plan_rect` by name, so `ddm.solve_rect` is wrapped as well as
`rectsolver.solve_rect`.  Methods of `ddm.SchurOperator` are wrapped on the
class.  `uninstall` puts the originals back, so untraced solves run the
unmodified program.

Each wrapper records a span: name, tag, bytes, start, end, thread, the
solve it belongs to and the span that caused it.  Every thread keeps its
own span stack.  A span opened on a worker thread with an empty stack
(an arm solve on the Schur operator's pool) takes as parent the innermost
open span of the thread that installed the tracer, which is blocked in the
call that handed out the work.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# subdomain ids reported one by one; the cross uses 0-4, the star 0-3, and
# an id the workload lacks reads 0 so that every run has the same keys
SUBDOMAIN_IDS = range(5)
BC_PAIRS = ("DD", "NN", "PP")


class Span(NamedTuple):
    id: int
    parent: int | None
    solve: int
    name: str
    tag: object
    nbytes: int
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _transform_tag(args, kwargs, result):
    """BC pair, and the bytes read and written at the call boundary."""
    return args[0].bc, np.asarray(args[1]).nbytes + result.nbytes


def _solve_tag(args, kwargs, result):
    return args[0].subdomain.id, 0


def _gmres_tag(args, kwargs, result):
    """Bytes of one Krylov basis: (min(m, N) + 1) vectors of length N."""
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    if cfg is None:
        return None, 0
    n = int(np.size(args[1]))
    return None, 8 * (min(cfg.m, n) + 1) * n


def _no_tag(args, kwargs, result):
    return None, 0


# (module, function, span name, tagger)
FUNCTIONS = (
    ("fftddm.geometry", "validate", "geometry.validate", _no_tag),
    ("fftddm.transforms", "apply_Q", "transforms.apply_Q", _transform_tag),
    ("fftddm.transforms", "apply_Qt", "transforms.apply_Qt", _transform_tag),
    ("fftddm.rectsolver", "plan_rect", "rectsolver.plan_rect", _no_tag),
    ("fftddm.rectsolver", "solve_rect", "rectsolver.solve_rect", _solve_tag),
    ("fftddm.ddm", "build_schur_operator", "ddm.build_schur_operator", _no_tag),
    ("fftddm.ddm", "ddm_solve", "ddm.ddm_solve", _no_tag),
    ("fftddm.krylov", "gmres", "krylov.gmres", _gmres_tag),
    ("fftddm.krylov", "solve_coupled", "krylov.solve_coupled", _no_tag),
)
SCHUR_METHODS = ("schur", "center_solve", "preconditioned", "unpreconditioned")


class Tracer:
    """Spans of the traced solves; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = self._stack()
        self._patches = self._plan_patches()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        if threading.get_ident() == self._owner:
            return None
        try:
            return self._owner_stack[-1]
        except IndexError:
            return None

    def _wrap(self, fn, name, tagger):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            # next() on itertools.count and list.append are atomic under
            # the interpreter lock, so worker threads need no extra lock
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tag, nbytes = tagger(args, kwargs, result) \
                    if result is not None else (None, 0)
                self.spans.append(Span(sid, parent, self.solve, name, tag,
                                       nbytes, start, end,
                                       threading.get_ident()))
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _plan_patches(self) -> list:
        """(owner, attribute, original, wrapper) for every name by which
        the solver's modules reach a traced function."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "fftddm" or key.startswith("fftddm.")]
        patches = []
        for modname, attr, name, tagger in FUNCTIONS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name, tagger)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is fn:
                        patches.append((mod, key, fn, wrapper))
        schur_cls = getattr(sys.modules.get("fftddm.ddm"), "SchurOperator",
                            None)
        for attr in SCHUR_METHODS:
            fn = vars(schur_cls).get(attr) if schur_cls else None
            if fn is not None:
                patches.append((schur_cls, attr, fn, self._wrap(
                    fn, f"ddm.SchurOperator.{attr}", _no_tag)))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path, solves) -> None:
        """Spans of the given solves as JSON lines, times relative to the
        first span written."""
        chosen = [s for s in self.spans if s.solve in solves]
        origin = min((s.start for s in chosen), default=0.0)
        with open(path, "w") as fh:
            for s in chosen:
                row = s._asdict()
                row["start"] -= origin
                row["end"] -= origin
                fh.write(json.dumps(row) + "\n")


def _covered(parent: Span, children) -> float:
    """Length of the part of parent's interval that children cover."""
    pieces = sorted((max(c.start, parent.start), min(c.end, parent.end))
                    for c in children)
    total, reach = 0.0, parent.start
    for lo, hi in pieces:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _solve_figures(spans, iterations: int) -> dict:
    """Per-layer work and time of one ddm_solve."""
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in named(name))

    def self_time(name):
        return sum(s.duration - _covered(s, kids[s.id]) for s in named(name))

    transforms = named("transforms.apply_Q") + named("transforms.apply_Qt")
    gmres = named("krylov.gmres")
    op_calls = sum(len(kids[g.id]) for g in gmres)
    fig = {
        "geometry.validate_s": busy("geometry.validate"),
        "transforms.calls": len(transforms),
        "transforms.bytes_computed": sum(s.nbytes for s in transforms),
        "rectsolver.plan_calls": len(named("rectsolver.plan_rect")),
        "rectsolver.plan_s": busy("rectsolver.plan_rect"),
        "rectsolver.solve_calls": len(named("rectsolver.solve_rect")),
        "rectsolver.solve_s": busy("rectsolver.solve_rect"),
        "rectsolver.sweep_s": self_time("rectsolver.solve_rect"),
        "ddm.build_s": busy("ddm.build_schur_operator"),
        "ddm.schur_calls": len(named("ddm.SchurOperator.schur")),
        "ddm.schur_s": busy("ddm.SchurOperator.schur"),
        "ddm.schur_self_s": self_time("ddm.SchurOperator.schur"),
        "ddm.center_solve_s": busy("ddm.SchurOperator.center_solve"),
        "ddm.self_s": self_time("ddm.ddm_solve"),
        "krylov.iterations": iterations,
        "krylov.operator_calls": op_calls,
        # gmres starts from x0 = 0 and ends every cycle with one operator
        # apply for the true residual
        "krylov.cycles": op_calls - iterations,
        "krylov.self_s": self_time("krylov.gmres"),
        "krylov.basis_bytes_computed": max((s.nbytes for s in gmres),
                                           default=0),
    }
    for bc in BC_PAIRS:
        fig[f"transforms.{bc}.busy_s"] = sum(
            s.duration for s in transforms if s.tag == bc)
    return fig


COUNTS = {"transforms.calls": "count", "transforms.bytes_computed": "bytes",
          "rectsolver.plan_calls": "count", "rectsolver.solve_calls": "count",
          "ddm.schur_calls": "count", "krylov.iterations": "count",
          "krylov.cycles": "count", "krylov.operator_calls": "count",
          "krylov.basis_bytes_computed": "bytes"}
TIMES = ("geometry.validate_s", "transforms.DD.busy_s",
         "transforms.NN.busy_s", "transforms.PP.busy_s",
         "rectsolver.plan_s", "rectsolver.solve_s", "rectsolver.sweep_s",
         "ddm.build_s", "ddm.schur_self_s", "ddm.center_solve_s",
         "ddm.self_s", "krylov.self_s")


def layer_metrics(spans, iterations: dict, counted) -> dict:
    """Per-layer metrics, each per ddm_solve.

    `iterations` maps solve id to the GMRES iteration count its report
    gave; `counted` lists the solves whose counts are averaged (a fixed
    prefix of the run, so counts repeat exactly for a seed).  Times are
    medians over every traced solve.
    """
    by_solve = defaultdict(list)
    for s in spans:
        by_solve[s.solve].append(s)
    figs = {sid: _solve_figures(by_solve[sid], iterations[sid])
            for sid in iterations}
    head = [figs[sid] for sid in counted]

    out = {key: (sum(f[key] for f in head) / len(head), unit)
           for key, unit in COUNTS.items()}
    iters = sum(f["krylov.iterations"] for f in head)
    out["ddm.rect_solves_per_iteration"] = (
        sum(f["rectsolver.solve_calls"] for f in head) / max(iters, 1),
        "ratio")
    out["krylov.applies_per_iteration"] = (
        sum(f["krylov.operator_calls"] for f in head) / max(iters, 1),
        "ratio")

    for key in TIMES:
        out[key] = (statistics.median(f[key] for f in figs.values()), "s")
    out["krylov.self_ms_per_iteration"] = (statistics.median(
        1e3 * f["krylov.self_s"] / max(f["krylov.iterations"], 1)
        for f in figs.values()), "ms")
    out["ddm.schur_ms"] = (1e3 * sum(f["ddm.schur_s"] for f in figs.values())
                           / max(sum(f["ddm.schur_calls"]
                                     for f in figs.values()), 1), "ms")

    per_sub = defaultdict(list)
    for s in spans:
        if s.name == "rectsolver.solve_rect":
            per_sub[s.tag].append(s.duration)
    for sub in SUBDOMAIN_IDS:
        times = per_sub.get(sub, [])
        out[f"rectsolver.solve_ms.sub{sub}"] = (
            1e3 * sum(times) / len(times) if times else 0.0, "ms")
    return out
