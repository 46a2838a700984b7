"""Span tracer for the traced benchmark run.

``from .series import bell_dobinski`` copies the function into every module
that imports it, so the tracer replaces each wrapped function in every
``bellbound`` module namespace that holds it.  Spans are kept in memory as
(name, start, end, span_id, parent_id, attrs) and written out at the end.

A span's self time is its duration minus the part of it that its child
spans cover.  Per-layer metrics are derived from the spans after the run.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns

LAYERS = ("series", "bounds", "asymptotics", "applications", "cli")

# Public functions that get a span, by defining module.  Per-term primitives
# (series.log_term) and the optimiser body (bounds.golden_section_min) are not
# wrapped: their time is part of the caller's self time, and a span per
# evaluation would cost more than the evaluation.
SPANNED = {
    "series": ("bell_dobinski", "bell_touchard_exact"),
    "bounds": (
        "bound_report", "lower_h0_search", "lower_h_continuous",
        "upper_g_optimized", "upper_closed_form_largep",
        "lower_closed_form_largep", "regime_upper_largebeta",
        "regime_lower_largebeta", "rough_upper_triangle",
        "fitted_rough_constant",
    ),
    "asymptotics": (
        "lambert_w", "debruijn_expansion", "bell_lambert_approx",
        "bell_lambert_approx_corrected",
    ),
    "applications": (
        "exact_sum_moment", "mc_sum_moment", "rosenthal_bound",
        "schechtman_extremal", "load_instances",
    ),
}

# Optimiser objectives, counted and not spanned: each call through the
# ``bounds`` namespace adds one to the innermost open span's "evals".
COUNTED_IN_BOUNDS = ("log_stirling_zeta", "log_mgf_bound")


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _series_work(fn, args, kwargs, result) -> dict:
    q = _bound_args(fn, args, kwargs)["q"]
    return {"terms": result.terms_used, "key": [q.p, q.beta]}


def _h0_work(fn, args, kwargs, result) -> dict:
    return {"k_walk": result.k_star}


def _enum_work(fn, args, kwargs, result) -> dict:
    states = 1
    for d in _bound_args(fn, args, kwargs)["dists"]:
        states *= len(d.atoms)
    return {"states": states}


def _mc_work(fn, args, kwargs, result) -> dict:
    return {"samples": _bound_args(fn, args, kwargs)["samples"]}


# Work counters recorded on a span after its function returns.
WORK = {
    "series.bell_dobinski": _series_work,
    "bounds.lower_h0_search": _h0_work,
    "applications.exact_sum_moment": _enum_work,
    "applications.mc_sum_moment": _mc_work,
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    span_id: int
    parent_id: int | None
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.span_id, self.parent_id,
                self.attrs]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Wraps the layer functions while active (``with tracer:``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        span = Span(name, 0, 0, self._next_id,
                    self._stack[-1].span_id if self._stack else None)
        self._next_id += 1
        self._stack.append(span)
        span.start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = perf_counter_ns()
            self._stack.pop()
            self.spans.append(span)
        work = WORK.get(name)
        if work is not None:
            span.attrs.update(work(fn, args, kwargs, result))
        return result

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _count_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                attrs = self._stack[-1].attrs
                attrs["evals"] = attrs.get("evals", 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "bellbound" or name.startswith("bellbound.")}
        targets = {}
        for layer, names in SPANNED.items():
            mod = modules.get(f"bellbound.{layer}")
            if mod is None:
                continue
            for fname in names:
                fn = getattr(mod, fname, None)  # None once the library drops it
                if fn is not None:
                    targets[id(fn)] = self._span_wrapper(f"{layer}.{fname}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        bounds = modules.get("bellbound.bounds")
        if bounds is not None:
            for fname in COUNTED_IN_BOUNDS:
                fn = getattr(bounds, fname, None)
                if fn is not None:
                    self._patched.append((bounds, fname, fn))
                    setattr(bounds, fname, self._count_wrapper(fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON array per line: name, start, end, span_id, parent_id, attrs."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_json()) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """span_id -> self time: duration minus the union of the intervals its
    child spans cover, clipped to the span."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.span_id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
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
        out[s.span_id] = (s.end - s.start) - covered
    return out


def layer_errors(spans: list[Span]) -> dict[str, int]:
    """Exceptions raised out of each layer: failing spans whose caller is in
    another layer, or is the benchmark itself."""
    layer_of = {s.span_id: s.name.split(".")[0] for s in spans}
    counts = {layer: 0 for layer in LAYERS}
    for s in spans:
        if "error" not in s.attrs:
            continue
        layer = layer_of[s.span_id]
        if s.parent_id is None or layer_of.get(s.parent_id) != layer:
            counts[layer] += 1
    return counts


# Per-layer metrics, with their units.  "per op" values are divided by the
# number of traced workload operations; "per call" values by the calls made.
PER_LAYER = (
    ("series.bell_dobinski.calls", "calls/op"),
    ("series.bell_dobinski.self_ms", "ms/op"),
    ("series.bell_dobinski.terms_per_call", "terms/call"),
    ("series.bell_dobinski.ns_per_term", "ns/term"),
    ("series.bell_dobinski.repeat_frac", "frac"),
    ("bounds.lower_h0_search.self_ms", "ms/op"),
    ("bounds.lower_h0_search.k_walk", "steps/call"),
    ("bounds.lower_h_continuous.self_ms", "ms/op"),
    ("bounds.lower_h_continuous.objective_evals", "evals/call"),
    ("bounds.upper_g_optimized.self_ms", "ms/op"),
    ("bounds.upper_g_optimized.objective_evals", "evals/call"),
    ("bounds.bound_report.self_ms", "ms/op"),
    ("bounds.regime_lower_largebeta.self_ms", "ms/op"),
    ("asymptotics.lambert_w.calls", "calls/op"),
    ("asymptotics.lambert_w.self_ms", "ms/op"),
    ("applications.exact_sum_moment.self_ms", "ms/op"),
    ("applications.exact_sum_moment.states_per_call", "states/call"),
    ("applications.exact_sum_moment.ns_per_state", "ns/state"),
    ("applications.mc_sum_moment.self_ms", "ms/op"),
    ("applications.mc_sum_moment.ns_per_sample", "ns/sample"),
    ("applications.rosenthal_bound.self_ms", "ms/op"),
    ("applications.schechtman_extremal.self_ms", "ms/op"),
    ("cli.interpreter_ms", "ms/op"),
    ("cli.import_ms", "ms/op"),
    ("cli.import_numpy_ms", "ms/op"),
    ("cli.main.self_ms", "ms/op"),
    ("series.errors", "errors/op"),
    ("bounds.errors", "errors/op"),
    ("asymptotics.errors", "errors/op"),
    ("applications.errors", "errors/op"),
    ("cli.errors", "errors/op"),
    ("trace.overhead_ms", "ms/op"),
    ("trace.overhead_frac", "frac"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: int,
                  cli_timings: list[dict] = ()) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as name -> (value, sample count), without the
    trace.* overhead metrics, which need the untraced run."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def self_ns(name):
        return sum(selfs[s.span_id] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def per_op_ms(name):
        return (_ratio(self_ns(name), ops) / 1e6, calls(name))

    out: dict[str, tuple[float, int]] = {}
    sd = "series.bell_dobinski"
    seen, repeats = set(), 0
    for s in by_name[sd]:
        key = tuple(s.attrs.get("key", ()))
        repeats += key in seen
        seen.add(key)
    out[f"{sd}.calls"] = (_ratio(calls(sd), ops), calls(sd))
    out[f"{sd}.self_ms"] = per_op_ms(sd)
    out[f"{sd}.terms_per_call"] = (_ratio(attr_sum(sd, "terms"), calls(sd)), calls(sd))
    out[f"{sd}.ns_per_term"] = (_ratio(self_ns(sd), attr_sum(sd, "terms")), calls(sd))
    out[f"{sd}.repeat_frac"] = (_ratio(repeats, calls(sd)), calls(sd))

    h0 = "bounds.lower_h0_search"
    out[f"{h0}.self_ms"] = per_op_ms(h0)
    out[f"{h0}.k_walk"] = (_ratio(attr_sum(h0, "k_walk"), calls(h0)), calls(h0))
    for opt in ("bounds.lower_h_continuous", "bounds.upper_g_optimized"):
        out[f"{opt}.self_ms"] = per_op_ms(opt)
        out[f"{opt}.objective_evals"] = (_ratio(attr_sum(opt, "evals"), calls(opt)),
                                         calls(opt))
    for name in ("bounds.bound_report", "bounds.regime_lower_largebeta",
                 "asymptotics.lambert_w", "applications.exact_sum_moment",
                 "applications.mc_sum_moment", "applications.rosenthal_bound",
                 "applications.schechtman_extremal"):
        out[f"{name}.self_ms"] = per_op_ms(name)
    lw = "asymptotics.lambert_w"
    out[f"{lw}.calls"] = (_ratio(calls(lw), ops), calls(lw))
    en = "applications.exact_sum_moment"
    out[f"{en}.states_per_call"] = (_ratio(attr_sum(en, "states"), calls(en)), calls(en))
    out[f"{en}.ns_per_state"] = (_ratio(self_ns(en), attr_sum(en, "states")), calls(en))
    mc = "applications.mc_sum_moment"
    out[f"{mc}.ns_per_sample"] = (_ratio(self_ns(mc), attr_sum(mc, "samples")), calls(mc))

    n_cli = len(cli_timings)
    for key in ("interpreter_ms", "import_ms", "import_numpy_ms"):
        total = sum(t[key] for t in cli_timings)
        out[f"cli.{key}"] = (_ratio(total, n_cli), n_cli)
    out["cli.main.self_ms"] = per_op_ms("cli.main")

    for layer, count in layer_errors(spans).items():
        out[f"{layer}.errors"] = (_ratio(count, ops), count)
    return out


def time_shares(spans: list[Span], op_ns: int) -> dict[str, float]:
    """Share of the traced operations' time spent in each span name's self
    time; "(unspanned)" is the rest."""
    selfs = self_times(spans)
    totals: dict[str, int] = defaultdict(int)
    for s in spans:
        totals[s.name] += selfs[s.span_id]
    shares = {name: _ratio(ns, op_ns) for name, ns in totals.items()}
    shares["(unspanned)"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
