"""Span tracing of spintrack's layers, installed from outside the package.

``Tracer.install()`` replaces every public function of the layer modules
with a timing wrapper at every name that binds it: the defining module,
each module that imported it by name (``lqg_filter.trial_normals`` as well
as ``numerics.trial_normals``), and the ``cli._COMMANDS`` dispatch table.
``uninstall()`` puts the originals back.  Nothing inside ``src/`` changes.

A span is (name, start, end, parent); spans are kept in flat arrays and
reduced when the run ends.  Self time is a span's duration minus the part
of its interval covered by its child spans.  Kernel counts are computed
from call arguments, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "numerics", "riccati", "lqg_filter", "truth_sim",
          "total_covariance", "freq", "qsme")

# Methods traced in addition to module-level functions: every normal the
# package draws outside trial_normals goes through RngStream.normals_at.
METHODS = (("numerics", "RngStream", "normals_at"),)


def _steps(dt, T):
    return int(round(T / dt))


# Counters take the call's bound arguments (defaults applied) and its result.

def _count_normals(a, result):
    return {"numerics.normals": int(result.size)}


def _count_run_ensemble(a, result):
    return {"lqg_filter.run_ensemble.trial_steps": a["trials"] * _steps(a["dt"], a["T"])}


def _count_riccati_problem(a, result):
    key = repr((a["p"], a["prior"], a["dt"], a["T"]))
    return {"riccati.integrate_estimator_riccati.problem:" + key: 1}


def _count_propagate_grid(a, result):
    return {"qsme.propagate_grid.hyp_steps": len(a["grid"].b_values)}


def _count_batched(a, result):
    return {"qsme.batched_steps": a["trajectories"] * a["n"]}


def _count_write_csv(a, result):
    return {"cli.write_csv.bytes": os.path.getsize(a["path"])}


COUNTERS = {
    "numerics.trial_normals": _count_normals,
    "numerics.RngStream.normals_at": _count_normals,
    "lqg_filter.run_ensemble": _count_run_ensemble,
    "riccati.integrate_estimator_riccati": _count_riccati_problem,
    "qsme.propagate_grid": _count_propagate_grid,
    "qsme.simulate_qnd_ensemble": _count_batched,
    "qsme.simulate_ramp_ensemble": _count_batched,
    "cli.write_csv": _count_write_csv,
}


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the union of child intervals.

    Children are clipped to their parent's interval and merged, so
    overlapping children are not counted twice.
    """
    n = len(starts)
    children = defaultdict(list)
    for i in range(n):
        if parents[i] >= 0:
            children[parents[i]].append(i)
    out = [0] * n
    for i in range(n):
        lo, hi = starts[i], ends[i]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = (hi - lo) - covered
    return out


class Tracer:
    """In-memory span recorder with wrappers for the spintrack layers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_of = array("q")
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        span = len(self.starts)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.name_of.append(nid)
        self.ends.append(0)
        self._stack.append(span)
        self.starts.append(time.perf_counter_ns())
        return span

    def _close(self, span: int):
        self.ends[span] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark itself (one op)."""
        nid = self._name_id(name)
        span = self._open(nid)
        try:
            yield
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(span)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.counts[key] += value
            return result

        return traced

    # -- installation ------------------------------------------------------

    def targets(self):
        """(qualified name, original function) for every traced callable."""
        import spintrack.cli  # noqa: F401  (imports every layer)

        for layer in LAYERS:
            mod = sys.modules[f"spintrack.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    yield f"{layer}.{attr}", obj
        for layer, cls, meth in METHODS:
            klass = getattr(sys.modules[f"spintrack.{layer}"], cls)
            yield f"{layer}.{cls}.{meth}", vars(klass)[meth]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self.wrap(name, fn)) for name, fn in self.targets()}
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "spintrack" or n.startswith("spintrack."))]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if id(fn) in wrappers and wrappers[id(fn)][0] is fn:
                            self._patches.append((obj, meth, fn))
                            setattr(obj, meth, wrappers[id(fn)][1])
        table = sys.modules["spintrack.cli"]._COMMANDS
        for verb, fn in list(table.items()):
            if id(fn) in wrappers:
                self._patches.append((table, verb, fn))
                table[verb] = wrappers[id(fn)][1]

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total_s, self_s and errors, plus kernel counts."""
        own = self_times(self.starts, self.ends, self.parents)
        per = {}
        # a recursive name counts its outermost span only in total_s
        for i in range(len(self.starts)):
            name = self.names[self.name_of[i]]
            row = per.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "errors": self.errors.get(name, 0)})
            row["calls"] += 1
            row["self_s"] += own[i] * 1e-9
            p = self.parents[i]
            while p >= 0 and self.name_of[p] != self.name_of[i]:
                p = self.parents[p]
            if p < 0:
                row["total_s"] += (self.ends[i] - self.starts[i]) * 1e-9
        counts = {}
        problems = 0
        for key, value in self.counts.items():
            if key.startswith("riccati.integrate_estimator_riccati.problem:"):
                problems += 1
            else:
                counts[key] = value
        counts["riccati.integrate_estimator_riccati.distinct"] = problems
        return {"functions": per, "counts": counts, "spans": len(self.starts)}
