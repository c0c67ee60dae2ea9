"""Span tracing of the cobcalc layers, installed from outside the package.

`install` replaces public functions and methods of series, fgl, quotient,
actions, operations and cli with wrappers that record one span per call:
name, start, end and parent.  Spans stay in memory as compact arrays until
`Tracer.summary` reduces them, after the timed work is over, and `dump`
writes them out.  Exact counters (pairs bound, output terms, repeated
inputs, ...) are added up in hooks that run after the wrapped call; the
hook time, and the time of reference probes taken inside a span, are kept
out of every span's self and inclusive time.

A span's self time is its duration minus the durations of its child spans.
A name's inclusive time sums only its outermost spans, so recursion (a
render inside a render) is not counted twice.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from array import array

# Verifier suites that some workload runs; each gets an inclusive-time metric.
VERIFY_SUITES = ("sop", "emb", "addphi", "multphi", "grad", "uv", "rr",
                 "diagram", "tomdieck", "f1", "soold", "fglaxioms", "il1",
                 "il3")
ACTION_SUITES = {"theorem_g_suite": "theorem_g",
                 "prop_xy_series": "prop_xy",
                 "twisted_fgl_alpha": "twisted_fgl",
                 "minors_suite": "minors"}

# Span name -> the aggregates reported for it.
SPAN_METRICS = {
    "series.mul": ("calls", "self_s"),
    "series.scale": ("calls", "self_s"),
    "series.construct": ("calls", "self_s"),
    "series.add": ("self_s",),
    "series.exact_divide": ("calls", "self_s"),
    "series.substitute": ("calls", "incl_s"),
    "series.compositional_inverse": ("calls", "incl_s"),
    "series.mul_inverse": ("calls", "incl_s"),
    "series.render": ("self_s",),
    "fgl.context": ("builds",),
    "fgl.log_t": ("builds", "incl_s"),
    "fgl.nseries": ("calls",),
    "fgl.formal_sum": ("incl_s",),
    "fgl.classes": ("incl_s",),
    "quotient.formalp": ("builds",),
    "quotient.normal_form": ("calls", "self_s"),
    "quotient.divide": ("calls", "self_s"),
    "quotient.integral": ("self_s",),
    "actions.decompose": ("calls", "self_s"),
    "actions.pi_power": ("calls", "self_s"),
    "actions.bareiss": ("calls", "self_s"),
    "operations.apply": ("calls", "self_s"),
    "operations.phi": ("calls", "self_s"),
    "operations.phi_hat": ("self_s",),
    "operations.descriptor": ("builds",),
    "operations.grid": ("builds",),
    "cli.main": ("self_s",),
    "cli.parse_element": ("incl_s",),
}
SPAN_METRICS.update({"operations.verify.%s" % s: ("incl_s",)
                     for s in VERIFY_SUITES})
SPAN_METRICS.update({"actions.suite.%s" % s: ("incl_s",)
                     for s in ACTION_SUITES.values()})

# Exact counters added up in hooks: metric name -> (unit, better).
COUNTER_METRICS = {
    "series.mul.pairs_bound": ("count", "lower"),
    "series.mul.out_terms": ("count", "lower"),
    "series.mul.fill": ("ratio", "higher"),
    "series.mul.frac_share": ("ratio", "lower"),
    "operations.apply.repeat_share": ("ratio", "lower"),
    "operations.phi.repeat_share": ("ratio", "lower"),
}

# Measured by the benchmark around the traced work, not read from spans.
RUN_METRICS = {
    "cli.import_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [("%s.%s" % (span, agg), "s" if agg.endswith("_s") else "count",
            "lower")
           for span, aggs in SPAN_METRICS.items() for agg in aggs]
    out += [(name, unit, better)
            for table in (COUNTER_METRICS, RUN_METRICS)
            for name, (unit, better) in table.items()]
    return out


class Tracer:
    """In-memory span store plus the exact counters of one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._open = []
        self._stack = []
        # per span: name id (bitwise-negated when nested in a span of the
        # same name), parent index, start, end, hook time inside the span
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hook = array("d")
        self.counts = dict.fromkeys(
            ("mul.pairs", "mul.out", "mul.frac", "apply.calls",
             "apply.repeats", "phi.calls", "phi.repeats"), 0)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(args, result) runs outside the timing."""
        nid = self._name_id(name)
        names, parents, starts, ends, hooks = (self.name, self.parent,
                                               self.start, self.end, self.hook)
        stack, open_ = self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(~nid if open_[nid] else nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            hooks.append(0.0)
            open_[nid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t_end = clock()
                stack.pop()
                open_[nid] -= 1
                ends[idx] = t_end
            if after is not None:
                after(args, result)
                t_hook = clock()
                hooks[idx] += t_hook - t_end
                ends[idx] = t_hook
            return result

        return functools.wraps(fn)(traced)

    def exclude(self, seconds):
        """Keep time the benchmark spent inside the open span out of it."""
        if self._stack:
            self.hook[self._stack[-1]] += seconds

    # ----- reduction ---------------------------------------------------------

    def aggregates(self):
        """{span name: {"calls", "self_s", "incl_s"}} over all recorded spans."""
        n = len(self.name)
        child = [0.0] * n
        subhook = list(self.hook)
        names, parents, starts, ends, hooks = (self.name, self.parent,
                                               self.start, self.end, self.hook)
        for i in range(n - 1, -1, -1):
            par = parents[i]
            if par >= 0:
                child[par] += ends[i] - starts[i]
                subhook[par] += subhook[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            outer = nid >= 0
            if not outer:
                nid = ~nid
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i] - hooks[i]
            if outer:
                incl_s[nid] += dur - subhook[i]
        return {name: {"calls": calls[k], "self_s": self_s[k],
                       "incl_s": incl_s[k]}
                for k, name in enumerate(self.names)}

    def summary(self):
        """Span aggregates and raw counters; these add up across processes."""
        agg = self.aggregates()
        out = {}
        for span, fields in SPAN_METRICS.items():
            got = agg.get(span, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for field in fields:
                key = "calls" if field == "builds" else field
                out["%s.%s" % (span, field)] = got[key]
        out.update(("count." + k, v) for k, v in self.counts.items())
        out["trace.spans"] = len(self.name)
        return out

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.name),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d",
                                 "hook:d"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end,
                        self.hook):
                arr.tofile(fh)


def finish(totals):
    """Summed summaries -> the reported layer metrics, ratios included."""
    out = {k: v for k, v in totals.items() if not k.startswith("count.")}

    def share(num, den):
        return totals["count." + num] / totals["count." + den] \
            if totals["count." + den] else 0.0
    out["series.mul.pairs_bound"] = totals["count.mul.pairs"]
    out["series.mul.out_terms"] = totals["count.mul.out"]
    out["series.mul.fill"] = share("mul.out", "mul.pairs")
    out["series.mul.frac_share"] = share("mul.frac", "mul.out")
    out["operations.apply.repeat_share"] = share("apply.repeats", "apply.calls")
    out["operations.phi.repeat_share"] = share("phi.repeats", "phi.calls")
    return out


def install(tracer):
    """Wrap the traced layers of an imported cobcalc; returns the tracer."""
    from cobcalc import actions, cli, fgl, operations, quotient, series

    wrap = tracer.wrap
    counts = tracer.counts
    GS = series.GradedSeries

    def after_mul(args, result):
        a, b = args
        counts["mul.pairs"] += len(a.terms) * len(b.terms)
        terms = result.terms
        counts["mul.out"] += len(terms)
        counts["mul.frac"] += sum(1 for c in terms.values()
                                  if type(c) is not int)

    def repeat_hook(kind):
        seen = weakref.WeakKeyDictionary()

        def after(args, _result):
            desc, e = args
            keys = seen.setdefault(desc, set())
            key = frozenset(e.terms.items())
            counts[kind + ".calls"] += 1
            if key in keys:
                counts[kind + ".repeats"] += 1
            else:
                keys.add(key)
        return after

    # series.mul is the product of two series; a product with a scalar goes
    # to scale(), which has its own span however it is called
    mul = GS.__mul__
    traced_mul = wrap("series.mul", mul, after_mul)

    def mul_or_scale(self, other):
        if isinstance(other, GS):
            return traced_mul(self, other)
        return mul(self, other)
    GS.__mul__ = GS.__rmul__ = functools.wraps(mul)(mul_or_scale)
    GS.scale = wrap("series.scale", GS.scale)
    GS.__init__ = wrap("series.construct", GS.__init__)
    GS.__add__ = wrap("series.add", GS.__add__)
    for attr in ("exact_divide", "substitute", "compositional_inverse",
                 "mul_inverse", "render"):
        setattr(GS, attr, wrap("series." + attr, getattr(GS, attr)))

    Ctx = fgl.Context
    Ctx.__init__ = wrap("fgl.context", Ctx.__init__)
    log_t_get = Ctx.log_t.fget
    log_t_build = wrap("fgl.log_t", log_t_get)

    def log_t(self):
        if self._log_t is None:
            return log_t_build(self)
        return log_t_get(self)
    Ctx.log_t = property(log_t, doc=Ctx.log_t.__doc__)
    Ctx.nseries = wrap("fgl.nseries", Ctx.nseries)
    Ctx.formal_sum = wrap("fgl.formal_sum", Ctx.formal_sum)
    fgl.pn_class = wrap("fgl.classes", fgl.pn_class)
    fgl.hypersurface_class = wrap("fgl.classes", fgl.hypersurface_class)

    FP = quotient.FormalP
    FP.__init__ = wrap("quotient.formalp", FP.__init__)
    FP.normal_form = wrap("quotient.normal_form", FP.normal_form)
    FP.divide_by_formal_p = wrap("quotient.divide", FP.divide_by_formal_p)
    FP.is_integral_mod_ideal = wrap("quotient.integral",
                                    FP.is_integral_mod_ideal)

    actions.invariant_decompose = wrap("actions.decompose",
                                       actions.invariant_decompose)
    actions.bareiss_det = wrap("actions.bareiss", actions.bareiss_det)
    actions.ShiftAction.pi_power = wrap("actions.pi_power",
                                        actions.ShiftAction.pi_power)
    for fn, short in ACTION_SUITES.items():
        setattr(actions, fn, wrap("actions.suite." + short,
                                  getattr(actions, fn)))

    OD = operations.OperationDescriptor
    OD.__init__ = wrap("operations.descriptor", OD.__init__)
    OD.apply = wrap("operations.apply", OD.apply, repeat_hook("apply"))
    OD.phi_hat = wrap("operations.phi_hat", OD.phi_hat)
    operations.symmetric_operation = wrap(
        "operations.phi", operations.symmetric_operation, repeat_hook("phi"))
    operations.grid_elements = wrap("operations.grid",
                                    operations.grid_elements)
    for suite in VERIFY_SUITES:
        orig = operations.VERIFIERS[suite]
        operations.VERIFIERS[suite] = wrap("operations.verify." + suite, orig)
        setattr(operations, orig.__name__, operations.VERIFIERS[suite])

    cli.main = wrap("cli.main", cli.main)
    cli.parse_element = wrap("cli.parse_element", cli.parse_element)
    return tracer
