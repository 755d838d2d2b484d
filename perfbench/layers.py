"""Span tracing of the mvee layers, applied from outside the package.

`Tracer` replaces the public functions listed in `SPANS` with timing
wrappers in every mvee module that imported them, so calls made inside
`solve`, `run_benchmark` and `cli.main` are seen as well as the
benchmark's own calls.  Each call becomes a span (name, start, end,
parent) kept in per-thread arrays; a span opened on a thread with no open
span (a `run_benchmark` worker) takes the caller thread's innermost open
span as its parent.  Self time is a span's duration minus the part of its
interval covered by its children (the union, so overlapping children on
two worker threads are not counted twice).

Counters that need the arguments or results of a call (flops of the O(mn)
gradient pass, step types, forced rebuilds, bytes of trace CSV written)
are taken in the same wrappers.
"""

import math
import os
import threading
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

import mvee
import mvee.cli
import mvee.harness
import mvee.linalg
import mvee.problem
import mvee.solvers
from mvee.errors import DowndateBreaksPD, SingularUpdate
from mvee.solvers import StepOutcome

# public function name -> span name.  The step functions share one span name
# because they differ only in the step rule; wa_step nests a fwk_step call.
SPANS = {
    "rank_one_modify": "linalg.rank_one_modify",
    "apply_inverse": "linalg.apply_inverse",
    "scale_factor": "linalg.scale_factor",
    "gradient_rank_one": "linalg.gradient_rank_one",
    "factor_from_weights": "linalg.factor_from_weights",
    "gradient_refresh": "linalg.gradient_refresh",
    "objective_h": "problem.objective_h",
    "lift": "problem.lift",
    "select_axis_gauss_southwell": "solvers.select_axis",
    "fwk_step": "solvers.step_rule",
    "wa_step": "solvers.step_rule",
    "cd_step": "solvers.step_rule",
    "cd_diminishing_step": "solvers.step_rule",
    "cd_backtracking_step": "solvers.step_rule",
    "rcd_pick": "solvers.step_rule",
    "rcd_step": "solvers.step_rule",
    "init_kumar_yildirim": "solvers.init",
    "init_khachiyan": "solvers.init",
    "solve": "solvers.solve",
    "gen_sample": "harness.gen_sample",
    "write_trace": "harness.write_trace",
    "run_benchmark": "harness.run_benchmark",
    "main": "cli.main",
}
MODULES = (mvee, mvee.linalg, mvee.problem, mvee.solvers, mvee.harness,
           mvee.cli)
SPAN_NAMES = tuple(dict.fromkeys(SPANS.values()))
_NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# exceptions after which solve() rebuilds the factor from the weights
FORCING_ERRORS = {"linalg.rank_one_modify": DowndateBreaksPD,
                  "linalg.gradient_rank_one": SingularUpdate}
# mirrors solve(): a convex-combination scale below this rebuilds outright
SCALE_FLOOR = 1e-14


# counters that need a call's arguments or result; run after its span closes

def _count_gradient_pass(rec, args, out):
    # each incremental step is followed by the O(mn) pass pts.T @ y
    n, m = rec.dims
    rec.counts["solvers.gradient_pass.flops_computed"] += 2 * m * n
    rec.counts["solvers.gradient_pass.bytes_computed"] += 8 * m * n


def _count_step(rec, args, out):
    if not isinstance(out, StepOutcome):
        return  # rcd_pick returns the axis
    # count each step once: wa_step returns fwk_step's outcome
    if rec.stack and rec.name[rec.stack[-1]] == _NAME_ID["solvers.step_rule"]:
        return
    rec.counts["solvers.steps." + out.step_type.value] += 1
    if out.scale < SCALE_FLOOR or not math.isfinite(out.theta_rel):
        rec.counts["linalg.rebuilds.forced_scale"] += 1


def _count_solve(rec, args, out):
    rec.counts["solvers.solves"] += 1
    rec.counts["solvers.iterations"] += out.iterations
    rec.support_final.append(int(out.u_final.support.sum()))


def _count_write_trace(rec, args, out):
    rec.counts["harness.write_trace.bytes"] += os.path.getsize(args[1])


COUNTERS = {"linalg.apply_inverse": _count_gradient_pass,
            "solvers.step_rule": _count_step,
            "solvers.solve": _count_solve,
            "harness.write_trace": _count_write_trace}


class _Recorder:
    """Spans and counters of one thread."""

    def __init__(self, index):
        self.index = index
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent_rec = array("i")
        self.parent_loc = array("q")
        self.stack = []
        self.counts = Counter()
        self.support_final = []
        self.dims = (0, 0)


class Tracer:
    """Context manager: patch the public functions on enter, restore on exit."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._recorders = []
        self._saved = []
        self._root = None

    # -- recording ---------------------------------------------------------

    def _recorder(self):
        rec = getattr(self._local, "rec", None)
        if rec is None:
            with self._lock:
                rec = _Recorder(len(self._recorders))
                self._recorders.append(rec)
            self._local.rec = rec
        return rec

    def _parent(self, rec):
        """(recorder, local index) of the span a new span on `rec` nests in."""
        if rec.stack:
            return rec.index, rec.stack[-1]
        root = self._root
        if rec is not root and root.stack:
            # worker thread: caused by the entering thread's open span
            return root.index, root.stack[-1]
        return -1, -1

    def _wrap(self, fn, span):
        name_id = _NAME_ID[span]
        forcing = FORCING_ERRORS.get(span)
        count = COUNTERS.get(span)
        local = self._local
        recorder = self._recorder
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = getattr(local, "rec", None) or recorder()
            if span == "solvers.solve":
                rec.dims = (args[0].dim, args[0].count)
            prec, ploc = self._parent(rec)
            i = len(rec.name)
            rec.name.append(name_id)
            rec.end.append(0)
            rec.parent_rec.append(prec)
            rec.parent_loc.append(ploc)
            rec.stack.append(i)
            rec.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec.end[i] = clock()
                rec.stack.pop()
                if forcing is not None and isinstance(exc, forcing):
                    rec.counts[span + ".failed"] += 1
                raise
            rec.end[i] = clock()
            rec.stack.pop()
            if count is not None:
                count(rec, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        self._root = self._recorder()
        wrapped = {}
        for module in MODULES:
            for attr, span in SPANS.items():
                fn = getattr(module, attr, None)
                if fn is None or not getattr(fn, "__module__", "").startswith("mvee"):
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(fn, span)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped[fn])
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    # -- results -------------------------------------------------------------

    def spans(self):
        """All spans as arrays: name id, thread, start, end (ns), parent index
        (-1 for none), in one global numbering."""
        offsets, total = [], 0
        for rec in self._recorders:
            offsets.append(total)
            total += len(rec.name)
        cat = lambda key, dtype: np.concatenate(
            [np.frombuffer(getattr(r, key), dtype=dtype) for r in self._recorders]
            or [np.zeros(0, dtype)])
        name = cat("name", np.int32)
        start = cat("start", np.int64)
        end = cat("end", np.int64)
        thread = np.concatenate([np.full(len(r.name), r.index)
                                 for r in self._recorders] or [np.zeros(0, int)])
        prec = cat("parent_rec", np.int32)
        ploc = cat("parent_loc", np.int64)
        parent = np.where(prec < 0, -1,
                          np.asarray(offsets, dtype=np.int64)[np.maximum(prec, 0)]
                          + ploc)
        return name, thread, start, end, parent

    def self_ns(self):
        """Self time of every span in the global numbering of spans()."""
        name, thread, start, end, parent = self.spans()
        dur = end - start
        child = np.flatnonzero(parent >= 0)
        p = parent[child]
        # children on one thread run one after another inside the parent
        cover = np.bincount(p, weights=dur[child], minlength=dur.size)
        lo = np.full(dur.size, np.iinfo(np.int64).max)
        hi = np.full(dur.size, -1)
        np.minimum.at(lo, p, thread[child])
        np.maximum.at(hi, p, thread[child])
        groups = defaultdict(list)
        for c in child[(lo != hi)[p]]:
            groups[int(parent[c])].append(c)
        for q, kids in groups.items():
            cover[q] = _union_ns(start[kids], end[kids], start[q], end[q])
        return dur - cover.astype(np.int64)

    def layer_metrics(self):
        """Per-layer totals over everything traced, keyed by metric name."""
        name, _thread, _start, _end, _parent = self.spans()
        self_s = np.bincount(name, weights=self.self_ns(),
                             minlength=len(SPAN_NAMES)) / 1e9
        calls = np.bincount(name, minlength=len(SPAN_NAMES))
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[span + ".self_s"] = float(self_s[i])
            out[span + ".calls"] = int(calls[i])
        c = Counter()
        for rec in self._recorders:
            c.update(rec.counts)
        for key in ("linalg.rank_one_modify.failed",
                    "linalg.gradient_rank_one.failed",
                    "solvers.gradient_pass.flops_computed",
                    "solvers.gradient_pass.bytes_computed",
                    "solvers.steps.add", "solvers.steps.increase",
                    "solvers.steps.decrease", "solvers.steps.drop",
                    "solvers.iterations", "harness.write_trace.bytes"):
            out[key] = int(c[key])
        forced = (c["linalg.rank_one_modify.failed"]
                  + c["linalg.gradient_rank_one.failed"]
                  + c["linalg.rebuilds.forced_scale"])
        out["linalg.rebuilds.forced"] = int(forced)
        # one factor_from_weights per solve is the initial factorisation
        out["linalg.rebuilds.scheduled"] = int(
            out["linalg.factor_from_weights.calls"] - c["solvers.solves"] - forced)
        attempts = out["linalg.rank_one_modify.calls"]
        ok = (attempts - c["linalg.rank_one_modify.failed"]
              - c["linalg.gradient_rank_one.failed"])
        out["linalg.update_ok_ratio"] = ok / attempts if attempts else 1.0
        support = [s for rec in self._recorders for s in rec.support_final]
        out["solvers.support_final"] = int(np.median(support)) if support else 0
        return out


def _union_ns(starts, ends, lo, hi):
    """Length of the union of [starts, ends) clipped to [lo, hi)."""
    covered, reach = 0, lo
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            covered += e - s
            reach = e
    return covered
