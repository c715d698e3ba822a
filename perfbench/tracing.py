"""Span tracing of projeq's public functions, installed from outside the package.

`Tracer.install` replaces each function and method listed in `SPANS` with
a wrapper that records one span per call: name, start, end, parent span
and the pass it belongs to. A function imported by name into another
module is replaced there too, so every caller sees the wrapper. Spans
stay in flat arrays in memory and are written out once, when the run
ends. Nothing under `src/` changes; `uninstall` restores the originals.

Self time of a span is its duration minus the time its child spans
cover. Per-layer metrics are derived from spans and from a few counters
(integrator steps, rhs calls, report bytes) read off call results.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute path, span name). Several entries may share a span
# name; a name listed in COLLAPSE opens no nested span of itself, so a
# recursive call (Expression.diff descending a tree) is one span.
SPANS = (
    ("projeq.expressions", "parse_expression", "expressions.parse"),
    ("projeq.expressions", "Num.diff", "expressions.diff"),
    ("projeq.expressions", "Var.diff", "expressions.diff"),
    ("projeq.expressions", "BinOp.diff", "expressions.diff"),
    ("projeq.expressions", "Neg.diff", "expressions.diff"),
    ("projeq.expressions", "Call.diff", "expressions.diff"),
    ("projeq.fields", "MetricField.matrix", "fields.metric_matrix"),
    ("projeq.fields", "MetricField.dmatrix", "fields.metric_dmatrix"),
    ("projeq.fields", "MetricField.d2matrix", "fields.metric_d2matrix"),
    ("projeq.fields", "EndomorphismField.matrix", "fields.endo_matrix"),
    ("projeq.fields", "EndomorphismField.dmatrix", "fields.endo_dmatrix"),
    ("projeq.curvature", "christoffel", "curvature.christoffel"),
    ("projeq.curvature", "riemann", "curvature.riemann"),
    ("projeq.pairs", "bm_residual", "pairs.bm_residual"),
    ("projeq.pairs", "pencil_spectrum", "pairs.pencil_spectrum"),
    ("projeq.pairs", "projective_weyl", "pairs.projective_weyl"),
    ("projeq.pairs", "gbar_from_l", "pairs.gbar_from_l"),
    ("projeq.pairs", "l_from_pair", "pairs.l_from_pair"),
    ("projeq.flows", "IntegralFamily.commutation_report", "flows.commutation_report"),
    ("projeq.flows", "IntegralFamily.gradients", "flows.gradients"),
    ("projeq.flows", "IntegralFamily.value", "flows.value"),
    ("projeq.flows", "interlacing_audit", "flows.interlacing_audit"),
    ("projeq.flows", "ordering_audit", "flows.ordering_audit"),
    ("projeq.geodesics", "integrate", "geodesics.integrate"),
    ("projeq.geodesics", "monitor_along", "geodesics.monitor_along"),
    ("projeq.geodesics", "Trajectory.sample", "geodesics.sample"),
    ("projeq.geodesics", "hamiltonian", "geodesics.hamiltonian"),
    ("projeq.levicivita", "LeviCivitaSpec.create", "levicivita.spec_create"),
    ("projeq.levicivita", "build_lc_pair", "levicivita.build_lc_pair"),
    ("projeq.levicivita", "split", "levicivita.split"),
    ("projeq.surfaces", "builtin_example", "surfaces.builtin_example"),
    ("projeq.surfaces", "principal_form", "surfaces.principal_form"),
    ("projeq.surfaces", "classify_model", "surfaces.classify_model"),
    ("projeq.surfaces", "killing_residual", "surfaces.killing_residual"),
    ("projeq.manifest", "Manifest.load", "manifest.load"),
    ("projeq.manifest", "Manifest.build_scene", "manifest.build_scene"),
    ("projeq.manifest", "seeded_states", "manifest.seeded_states"),
    ("projeq.reports", "write_report", "reports.write_report"),
    ("projeq.reports", "write_csv", "reports.write_csv"),
    ("projeq.sampling", "halton_points", "sampling.halton_points"),
)
COLLAPSE = frozenset({"expressions.diff"})

# A partner metric's d2matrix is recorded under its own name as well, so
# the per-call cost of the deep partner trees shows apart from g's.
GBAR_D2 = "fields.gbar_d2matrix"

CLI_COMMANDS = ("check-bm", "pair", "weyl", "split", "lc-build", "geodesic",
                "conserve", "example", "classify2d")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.pass_of = array("i")
        self.stack = []
        self.pass_id = 0
        self.counters = defaultdict(float)   # (pass, key) -> value
        self._patches = []
        self._partners = weakref.WeakSet()

    # -- recording -------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, value=1):
        self.counters[(self.pass_id, key)] += value

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        nid = self._id(name)
        stack = self.stack
        if stack and name in COLLAPSE and self.name[stack[-1]] == nid:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.pass_of.append(self.pass_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, out)
            return out

        return wrapper

    def _wrap_d2(self, fn):
        @functools.wraps(fn)
        def wrapper(metric, *args, **kwargs):
            name = GBAR_D2 if metric in self._partners else "fields.metric_d2matrix"
            return self.span(name, fn, metric, *args, **kwargs)

        return wrapper

    def _wrap_rhs(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rhs = fn(*args, **kwargs)

            def counted(t, y):
                self.count("rhs_calls")
                return rhs(t, y)

            return counted

        return wrapper

    def mark_partner(self, metric):
        self._partners.add(metric)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Point every projeq module attribute bound to `original` at `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "projeq" or modname.startswith("projeq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        # Load every module first: one imported later would bind the
        # wrappers by name and keep them after uninstall.
        importlib.import_module("projeq.cli")
        for modname, path, name in SPANS:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(raw.__func__, name)))
                elif path == "MetricField.d2matrix":
                    self._set(cls, meth, self._wrap_d2(raw))
                else:
                    self._set(cls, meth, self._wrap(raw, name))
            else:
                original = getattr(mod, path)
                self._replace_everywhere(original, self._wrap(original, name))
        rhs = sys.modules["projeq.geodesics"].geodesic_rhs
        self._replace_everywhere(rhs, self._wrap_rhs(rhs))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "pass": np.frombuffer(self.pass_of, dtype=np.int32),
        }

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- hooks: counts read off call results ----------------------------------


def _after_integrate(tracer, args, traj):
    tracer.count("steps_accepted", traj.steps_accepted)
    tracer.count("steps_rejected", traj.steps_rejected)


def _after_commutation(tracer, args, report):
    states = report["states"]
    t = len(report["t_grid"])
    tracer.count("states", states)
    tracer.count("brackets", states * (t * (t - 1) // 2 + t))


def _after_monitor(tracer, args, report):
    tracer.count("monitor_samples", report["samples"])


def _after_gbar_from_l(tracer, args, gbar):
    tracer.mark_partner(gbar)


def _after_build_lc_pair(tracer, args, out):
    if out[1] is not None:
        tracer.mark_partner(out[1])


def _after_write_report(tracer, args, path):
    tracer.count("bytes_written", os.path.getsize(path))
    header = os.path.join(os.path.dirname(path), "header.txt")
    tracer.count("bytes_written", os.path.getsize(header))


def _after_write_csv(tracer, args, _):
    tracer.count("bytes_written", os.path.getsize(args[0]))


_HOOKS = {
    "geodesics.integrate": _after_integrate,
    "flows.commutation_report": _after_commutation,
    "geodesics.monitor_along": _after_monitor,
    "pairs.gbar_from_l": _after_gbar_from_l,
    "levicivita.build_lc_pair": _after_build_lc_pair,
    "reports.write_report": _after_write_report,
    "reports.write_csv": _after_write_csv,
}


# -- aggregation ------------------------------------------------------------


def _per_pass(tracer):
    """{pass: {name: [calls, self_s, inclusive_s]}} plus matrix calls
    made under commutation_report, per pass."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_t = dur - child

    stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for nid, name in enumerate(tracer.names):
        mask = a["name"] == nid
        if not mask.any():
            continue
        for p in np.unique(a["pass"][mask]):
            sel = mask & (a["pass"] == p)
            stats[int(p)][name] = [int(sel.sum()), float(self_t[sel].sum()),
                                   float(dur[sel].sum())]

    # MetricField.matrix spans with a commutation_report ancestor
    comm = tracer._ids.get("flows.commutation_report")
    mat = tracer._ids.get("fields.metric_matrix")
    under = defaultdict(int)
    if comm is not None and mat is not None:
        names, parents, passes = a["name"], a["parent"], a["pass"]
        for idx in np.flatnonzero(names == mat):
            j = parents[idx]
            while j >= 0:
                if names[j] == comm:
                    under[int(passes[idx])] += 1
                    break
                j = parents[j]
    return stats, under


def per_layer_metrics(tracer, passes, pass_times, untraced_times):
    """Per-layer metrics for one set-up plus one pass.

    Counts come from the set-up (pass 0) plus the first measured pass;
    every measured pass repeats the same calls, which `pass_counts_equal`
    reports. Times are set-up self time plus the median over passes.
    """
    stats, under = _per_pass(tracer)
    setup = stats.get(0, {})
    measured = [stats.get(p, {}) for p in passes]

    def calls(name):
        return setup.get(name, [0])[0] + (measured[0].get(name, [0])[0] if measured else 0)

    def timed(name, col):
        per = [m.get(name, [0, 0.0, 0.0])[col] for m in measured] or [0.0]
        return setup.get(name, [0, 0.0, 0.0])[col] + float(np.median(per))

    def self_s(*names):
        return sum(timed(n, 1) for n in names)

    def incl_s(*names):
        return sum(timed(n, 2) for n in names)

    def counter(key):
        setup_v = tracer.counters.get((0, key), 0.0)
        first = tracer.counters.get((passes[0], key), 0.0) if passes else 0.0
        return setup_v + first

    def ratio(num, den):
        return num / den if den else 0.0

    d2_names = ("fields.metric_d2matrix", GBAR_D2)
    steps = counter("steps_accepted") + counter("steps_rejected")
    states = counter("states")
    m = {}
    m["expressions.parse_calls"] = (calls("expressions.parse"), "count", "lower")
    m["expressions.parse_s"] = (self_s("expressions.parse"), "s", "lower")
    m["expressions.diff_calls"] = (calls("expressions.diff"), "count", "lower")
    m["expressions.diff_s"] = (self_s("expressions.diff"), "s", "lower")
    for key, names in (("metric_matrix", ("fields.metric_matrix",)),
                       ("metric_dmatrix", ("fields.metric_dmatrix",)),
                       ("metric_d2matrix", d2_names),
                       ("endo_matrix", ("fields.endo_matrix",)),
                       ("endo_dmatrix", ("fields.endo_dmatrix",))):
        m[f"fields.{key}_calls"] = (sum(calls(n) for n in names), "count", "lower")
        m[f"fields.{key}_s"] = (self_s(*names), "s", "lower")
    m["fields.gbar_d2matrix_us"] = (
        1e6 * ratio(incl_s(GBAR_D2), calls(GBAR_D2)), "us", "lower")
    for key in ("christoffel", "riemann"):
        m[f"curvature.{key}_calls"] = (calls(f"curvature.{key}"), "count", "lower")
        m[f"curvature.{key}_s"] = (self_s(f"curvature.{key}"), "s", "lower")
    for key in ("bm_residual", "pencil_spectrum", "projective_weyl", "l_from_pair"):
        m[f"pairs.{key}_calls"] = (calls(f"pairs.{key}"), "count", "lower")
        m[f"pairs.{key}_s"] = (self_s(f"pairs.{key}"), "s", "lower")
    m["pairs.gbar_from_l_s"] = (self_s("pairs.gbar_from_l"), "s", "lower")
    m["flows.commutation_report_s"] = (self_s("flows.commutation_report"), "s", "lower")
    m["flows.gradients_calls"] = (calls("flows.gradients"), "count", "lower")
    m["flows.value_calls"] = (calls("flows.value"), "count", "lower")
    m["flows.value_s"] = (self_s("flows.value"), "s", "lower")
    m["flows.interlacing_audit_s"] = (self_s("flows.interlacing_audit"), "s", "lower")
    m["flows.ordering_audit_s"] = (self_s("flows.ordering_audit"), "s", "lower")
    under_total = under.get(0, 0) + (under.get(passes[0], 0) if passes else 0)
    m["flows.metric_builds_per_state"] = (ratio(under_total, states), "count", "lower")
    m["flows.brackets_per_s"] = (
        ratio(counter("brackets"), incl_s("flows.commutation_report")), "1/s", "higher")
    m["geodesics.integrate_s"] = (self_s("geodesics.integrate"), "s", "lower")
    m["geodesics.steps_accepted"] = (counter("steps_accepted"), "count", "lower")
    m["geodesics.steps_rejected"] = (counter("steps_rejected"), "count", "lower")
    m["geodesics.rhs_calls"] = (counter("rhs_calls"), "count", "lower")
    m["geodesics.rhs_calls_per_step"] = (ratio(counter("rhs_calls"), steps), "calls/step", "lower")
    m["geodesics.us_per_step"] = (1e6 * ratio(incl_s("geodesics.integrate"), steps), "us", "lower")
    m["geodesics.steps_per_s"] = (ratio(steps, incl_s("geodesics.integrate")), "1/s", "higher")
    m["geodesics.monitor_along_s"] = (self_s("geodesics.monitor_along"), "s", "lower")
    m["geodesics.monitor_samples_per_s"] = (
        ratio(counter("monitor_samples"), incl_s("geodesics.monitor_along")), "1/s", "higher")
    m["geodesics.sample_calls"] = (calls("geodesics.sample"), "count", "lower")
    m["geodesics.hamiltonian_calls"] = (calls("geodesics.hamiltonian"), "count", "lower")
    m["levicivita.spec_create_s"] = (self_s("levicivita.spec_create"), "s", "lower")
    m["levicivita.build_lc_pair_s"] = (self_s("levicivita.build_lc_pair"), "s", "lower")
    m["levicivita.split_s"] = (self_s("levicivita.split"), "s", "lower")
    m["surfaces.builtin_example_s"] = (self_s("surfaces.builtin_example"), "s", "lower")
    m["surfaces.principal_form_calls"] = (calls("surfaces.principal_form"), "count", "lower")
    m["surfaces.principal_form_s"] = (self_s("surfaces.principal_form"), "s", "lower")
    m["surfaces.classify_model_s"] = (self_s("surfaces.classify_model"), "s", "lower")
    m["surfaces.killing_residual_s"] = (self_s("surfaces.killing_residual"), "s", "lower")
    m["manifest.load_s"] = (self_s("manifest.load"), "s", "lower")
    m["manifest.seeded_states_s"] = (self_s("manifest.seeded_states"), "s", "lower")
    m["manifest.build_scene_calls"] = (calls("manifest.build_scene"), "count", "lower")
    for cmd in CLI_COMMANDS:
        key = cmd.replace("-", "_")
        m[f"cli.{key}_s"] = (self_s(f"cli.{cmd}"), "s", "lower")
    m["reports.write_report_s"] = (self_s("reports.write_report"), "s", "lower")
    m["reports.write_csv_s"] = (self_s("reports.write_csv"), "s", "lower")
    m["reports.bytes_written"] = (counter("bytes_written"), "bytes", "lower")
    m["sampling.halton_points_calls"] = (calls("sampling.halton_points"), "count", "lower")
    m["sampling.halton_points_s"] = (self_s("sampling.halton_points"), "s", "lower")

    traced = float(np.median(pass_times))
    untraced = float(np.median(untraced_times))
    m["trace.run_s"] = (traced, "s", "lower")
    m["trace.untraced_run_s"] = (untraced, "s", "lower")
    m["trace.overhead_s"] = (traced - untraced, "s", "lower")
    m["trace.spans_per_pass"] = (
        float(np.sum(tracer.arrays()["pass"] == passes[0])) if passes else 0.0,
        "count", "lower")
    return m


def pass_counts_equal(tracer, passes):
    """True when every measured pass made the same calls and counts."""
    stats, under = _per_pass(tracer)
    keys = {k for (_, k) in tracer.counters}

    def signature(p):
        calls = {n: v[0] for n, v in stats.get(p, {}).items()}
        counts = {k: tracer.counters.get((p, k), 0.0) for k in keys}
        return calls, counts, under.get(p, 0)

    sigs = [signature(p) for p in passes]
    for p, sig in zip(passes[1:], sigs[1:]):
        for part, first, other in zip(("calls", "counters", "matrix calls in brackets"),
                                      sigs[0], sig):
            if first != other:
                diff = ({k: (first.get(k), other.get(k)) for k in set(first) | set(other)
                         if first.get(k) != other.get(k)} if isinstance(first, dict)
                        else (first, other))
                print(f"pass {p} {part} differ from pass {passes[0]}: {diff}", file=sys.stderr)
    return all(s == sigs[0] for s in sigs[1:])
