"""Span tracing of diracbag's public functions from outside the package.

``Tracer.install`` replaces every module binding of each traced public
function with a wrapper that records a span: name, start, end, parent
span and op id, plus a work count read from the arguments or result
(lane-steps, quadrature nodes, ...).  Every binding matters because
``perturb`` and ``shooting`` import ``panel_quadrature`` by name and
``perturb`` does the same for ``closed_form_mode``.  ``uninstall``
restores the original objects, so untraced ops run the unmodified
package.  Spans stay in memory until ``dump`` writes them out.

``self_times`` and ``layer_metrics`` turn the spans into the per-layer
metrics; they are pure functions of the span list, so tests can feed
them a synthetic tree.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time

import numpy as np

# Layer -> public functions that get a span.  The CLI contributes only
# main(): its self time is then parsing, validation, run-id hashing and
# serialisation.  Everything else is the module's __all__.
CLI_FUNCTIONS = ("main",)
LAYERS = ("backend", "shooting", "bagmodel", "perturb", "oracle", "cli")


# Work counts of one call, from its arguments (looked up by parameter
# name through ``arg``) and its result.
WORK = {
    "backend.propagate_batch": lambda arg, res: int(np.size(arg("eps"))) * int(arg("n_steps")),
    "backend.propagate_trace": lambda arg, res: int(arg("n_steps")),
    "bagmodel.panel_quadrature": lambda arg, res: len(res[0]),
    "bagmodel.eval_mode": lambda arg, res: int(np.size(arg("x"))),
    "perturb.unperturbed_modes": lambda arg, res: len(res),
    "shooting.find_levels": lambda arg, res: len(res.modes),
    "oracle.eigen": lambda arg, res: int(arg("op").size),
}
# Hashable tag kept per span: exact_shift retries are counted as the
# number of distinct find_levels windows it tried, minus one.
TAG = {
    "shooting.find_levels": lambda arg: tuple(float(w) for w in arg("window")),
}


class Tracer:
    """Span recorder; ``op`` names the op whose calls are being traced."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent, op, work, tag]
        self.op = None
        self._stack: list = []
        self._patches: list = []   # (module, attribute, original)
        self._warned: set = set()

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"diracbag.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = CLI_FUNCTIONS if layer == "cli" else getattr(mod, "__all__", ())
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in [m for k, m in sorted(sys.modules.items())
                    if m is not None and (k == "diracbag" or k.startswith("diracbag."))]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        measure = self._measurer(name, fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                measure(rec, args, kwargs, result)
            return result

        return wrapper

    def _measurer(self, name, fn):
        """Sets a span's work count and tag from the call, or None when the
        function has neither.  Arguments are looked up by parameter name."""
        work_of, tag_of = WORK.get(name), TAG.get(name)
        if work_of is None and tag_of is None:
            return None
        position = {p: i for i, p in enumerate(inspect.signature(fn).parameters)}

        def measure(rec, args, kwargs, result):
            def arg(key):
                return kwargs[key] if key in kwargs else args[position[key]]
            try:
                if work_of is not None:
                    rec[5] = work_of(arg, result)
                if tag_of is not None:
                    rec[6] = tag_of(arg)
            except (TypeError, KeyError, AttributeError, IndexError) as exc:
                # A changed signature must not stop the run; the count reads 0.
                if name not in self._warned:
                    self._warned.add(name)
                    print(f"perfbench: no work count for {name}: {exc!r}", file=sys.stderr)

        return measure

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON: one [name, start, end, parent,
        op, work] row per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op", "work"],
                       "spans": rows}, fh)


def self_times(spans) -> list:
    """Span duration minus the part of it that child spans cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return p
        p = spans[p][3]
    return -1


# Metric prefix -> span name, for the calls/work/self_s families.
SPAN_OF = {
    "backend.batch": "backend.propagate_batch",
    "backend.trace": "backend.propagate_trace",
    "shooting.find_levels": "shooting.find_levels",
    "shooting.exact_shift": "shooting.exact_shift",
    "bagmodel.quad": "bagmodel.panel_quadrature",
    "bagmodel.eval_mode": "bagmodel.eval_mode",
    "bagmodel.closed_form_mode": "bagmodel.closed_form_mode",
    "perturb.second_order": "perturb.second_order",
    "perturb.unperturbed_modes": "perturb.unperturbed_modes",
    "oracle.levels_refined": "oracle.levels_refined",
    "oracle.eigen": "oracle.eigen",
    "cli.main": "cli.main",
}


def op_counts(spans, op_ids) -> dict:
    """Deterministic counts summed over the spans of the given op ids."""
    ops = set(op_ids)
    idx = [i for i, s in enumerate(spans) if s[4] in ops]
    calls: dict = {}
    work: dict = {}
    for i in idx:
        name = spans[i][0]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + spans[i][5]
    fl_batch_calls = fl_lane_steps = 0
    windows: dict = {}     # exact_shift span -> find_levels windows tried
    row_built = set()      # second_order spans under which a basis row was built
    for i in idx:
        name = spans[i][0]
        if name == "backend.propagate_batch" and _ancestor(spans, i, "shooting.find_levels") >= 0:
            fl_batch_calls += 1
            fl_lane_steps += spans[i][5]
        elif name == "shooting.find_levels":
            parent = _ancestor(spans, i, "shooting.exact_shift")
            if parent >= 0:
                windows.setdefault(parent, set()).add(spans[i][6])
        elif name == "perturb.unperturbed_modes" and spans[i][5] > 1:
            # first_order asks for one level; a row asks for 2*cutoff+1.
            row_built.add(_ancestor(spans, i, "perturb.second_order"))
    so_calls = calls.get("perturb.second_order", 0)
    so_hits = sum(1 for i in idx
                  if spans[i][0] == "perturb.second_order" and i not in row_built)
    levels = work.get("shooting.find_levels", 0)
    fl_calls = calls.get("shooting.find_levels", 0)
    return {
        "calls": calls, "work": work,
        "shooting.batch_calls_per_find_levels": fl_batch_calls / fl_calls if fl_calls else 0.0,
        "shooting.lane_steps_per_level": fl_lane_steps / levels if levels else 0.0,
        "shooting.exact_shift.retries": sum(len(w) - 1 for w in windows.values()),
        "perturb.row_cache_hit_ratio": so_hits / so_calls if so_calls else 0.0,
    }


def layer_metrics(spans, traced_ops, count_ops, check_ops, count_check_ops,
                  op_wall) -> dict:
    """Per-layer metric values (without units) from the recorded spans.

    ``traced_ops`` are the op ids timed under tracing and ``op_wall`` their
    wall times.  Counts are per-op means over ``count_ops``, a fixed
    prefix, so they repeat exactly for a seed; self times are per-op
    medians over every traced op.  Oracle metrics come from the output
    checks (``check_ops``, ``count_check_ops``).
    """
    selves = self_times(spans)
    traced = set(traced_ops)
    per_op: dict = {}      # op id -> span name -> summed self time
    traced_work: dict = {}
    for s, t in zip(spans, selves):
        per = per_op.setdefault(s[4], {})
        per[s[0]] = per.get(s[0], 0.0) + t
        if s[4] in traced:
            traced_work[s[0]] = traced_work.get(s[0], 0) + s[5]
    counts = op_counts(spans, list(count_ops) + list(count_check_ops))
    calls, work = counts["calls"], counts["work"]
    n = max(1, len(count_ops))

    def median_self(span, ops):
        return statistics.median(per_op.get(op, {}).get(span, 0.0) for op in ops) if ops else 0.0

    def ns_per(span):
        w = traced_work.get(span, 0)
        spent = sum(per_op.get(op, {}).get(span, 0.0) for op in traced)
        return 1e9 * spent / w if w else 0.0

    m = {}
    for prefix, span in SPAN_OF.items():
        m[f"{prefix}.calls"] = calls.get(span, 0) / n
        ops = check_ops if prefix.startswith("oracle.") else traced_ops
        m[f"{prefix}.self_s"] = median_self(span, ops)
    for key, span in (("backend.batch.lane_steps", "backend.propagate_batch"),
                      ("backend.trace.steps", "backend.propagate_trace"),
                      ("bagmodel.quad.nodes", "bagmodel.panel_quadrature"),
                      ("bagmodel.eval_mode.points", "bagmodel.eval_mode"),
                      ("perturb.unperturbed_modes.modes", "perturb.unperturbed_modes"),
                      ("shooting.levels", "shooting.find_levels"),
                      ("oracle.eigen.rows", "oracle.eigen")):
        m[key] = work.get(span, 0) / n
    m["backend.batch.ns_per_lane_step"] = ns_per("backend.propagate_batch")
    m["backend.trace.ns_per_step"] = ns_per("backend.propagate_trace")
    m["shooting.exact_shift.retries"] = counts["shooting.exact_shift.retries"] / n
    for key in ("shooting.batch_calls_per_find_levels", "shooting.lane_steps_per_level",
                "perturb.row_cache_hit_ratio"):
        m[key] = counts[key]
    # Share of traced op wall time that is self time of each layer.
    wall = sum(op_wall)
    for layer in LAYERS:
        if layer != "oracle":
            spent = sum(t for s, t in zip(spans, selves)
                        if s[4] in traced and s[0].startswith(layer + "."))
            m[f"{layer}.share"] = spent / wall if wall else 0.0
    return m
