"""In-memory span tracer that wraps rews module attributes from outside.

Nothing under ``src/`` is edited: :func:`install` swaps module attributes
for wrappers and the function it returns puts the originals back.

Coarse layer boundaries (CLI call, case-study runner, scenario, classify,
certify, margin query, emit, chart) get one span per call.  The per-step
functions run millions of times a pass, so a call to one of them only
adds its count and duration to an aggregate under the innermost open
span.  Spans are never opened from inside a per-step function.

A span's self time is its duration minus the part of it that child spans
cover, minus the outermost per-step calls made directly under it.  A
per-step call's self time is its duration minus the per-step calls nested
in it.  Busy times are inclusive of everything nested.
"""

from __future__ import annotations

import json
import os
import time

_RAISED = object()


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "steps",
                 "step_cover")

    def __init__(self, name, layer, parent, start, end=None):
        self.name = name
        self.layer = layer
        self.parent = parent          # index into Tracer.spans, -1 for a root
        self.start = start
        self.end = end
        self.steps = {}               # per-step name -> [count, busy_s, self_s]
        self.step_cover = 0.0         # outermost per-step time directly under it

    def as_dict(self) -> dict:
        return {"name": self.name, "layer": self.layer, "parent": self.parent,
                "start": self.start, "end": self.end,
                "steps": self.steps, "step_cover": self.step_cover}


class Tracer:
    """Spans in start order, aggregates of per-step calls, and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.plant_keys = set()
        self._open = []      # indexes of open spans, innermost last
        self._nested = []    # child time of each open per-step call

    def open(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, layer, parent, self.clock()))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def record_step(self, name: str, duration: float, nested: float) -> None:
        span = self.spans[self._open[-1]]
        agg = span.steps.get(name)
        if agg is None:
            agg = span.steps[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - nested
        if self._nested:
            self._nested[-1] += duration
        else:
            span.step_cover += duration

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.as_dict() for s in self.spans],
                       "counts": self.counts}, fh)
            fh.write("\n")


def span_wrapper(tracer: Tracer, name: str, layer: str, fn, observe=None):
    """Wrap ``fn`` in a span; ``observe(tracer, span, args, result)`` sees
    the result, or ``_RAISED`` when the call raised."""
    def wrapped(*args, **kwargs):
        index = tracer.open(name, layer)
        result = _RAISED
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(index)
            if observe is not None:
                observe(tracer, tracer.spans[index], args, result)
    return wrapped


def step_wrapper(tracer: Tracer, name: str, fn, observe=None):
    """Aggregate calls of ``fn`` under the innermost open span."""
    clock = tracer.clock
    nested = tracer._nested
    record = tracer.record_step

    def wrapped(*args, **kwargs):
        nested.append(0.0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = clock() - start
            record(name, duration, nested.pop())
        if observe is not None:
            observe(tracer, result)
        return result
    return wrapped


# ---------------------------------------------------------------------------
# What is wrapped in rews


def _plant_key(scn) -> tuple:
    curve = scn.curve
    return (scn.wind_profile, scn.duration, scn.dt, scn.turbine,
            curve.lambda_grid.tobytes(), curve.cp_values.tobytes(),
            scn.controller_gain, scn.initial_omega_r)


def _observe_scenario(tracer, span, args, result):
    scn = args[0]
    steps = scn.n_steps() + 1
    key = _plant_key(scn)
    tracer.count("inputs.scheduled_steps", steps)
    if key in tracer.plant_keys:
        tracer.count("inputs.shared_steps", steps)
    tracer.plant_keys.add(key)
    if result is _RAISED:
        tracer.count("harness.failed_runs")
    elif result.stopped_early:
        tracer.count("harness.early_stops")
        tracer.count("inputs.early_stop_steps", steps)


def _observe_emit(tracer, span, args, result):
    if result is not _RAISED:
        tracer.count("harness.emit_bytes", sum(os.path.getsize(p) for p in result))


def _observe_line_chart(tracer, span, args, result):
    x, series = args[1], args[2]
    tracer.count("svgplot.points", len(x) * len(series))


def _observe_nyquist_chart(tracer, span, args, result):
    tracer.count("svgplot.points", len(args[1]))


def _observe_margin(tracer, span, args, result):
    if result is _RAISED:
        tracer.count("stability.margin_refusals")


def _observe_clamp(tracer, result):
    if result[1]:
        tracer.count("estimators.clamps")


def _observe_freq(tracer, result):
    tracer.count("stability.freq_points", result.omega_grid.size)


# (module name, attribute, span name, layer, observer)
SPAN_TARGETS = [
    ("cli", "main", "cli", "cli", None),
    ("harness", "run_case_studies", "case_studies", "harness", None),
    ("harness", "run_scenario", "scenario", "harness", _observe_scenario),
    ("harness", "classify_trace", "classify", "harness", None),
    ("harness", "emit_outputs", "emit", "harness", _observe_emit),
    ("svgplot", "line_chart", "chart", "svgplot", _observe_line_chart),
    ("svgplot", "nyquist_chart", "chart", "svgplot", _observe_nyquist_chart),
    ("stability", "certify", "certify", "stability", None),
    ("stability", "max_stable_beta", "margin", "stability", _observe_margin),
    ("stability", "max_stable_delay", "margin", "stability", _observe_margin),
]

# (owner, attribute, aggregate name, observer); owner "CpCurve" is the class.
STEP_TARGETS = [
    ("harness", "rk4_plant_step", "rk4_plant_step", None),
    ("harness", "step_estimator", "step_estimator", None),
    ("turbine", "phi", "phi", None),
    ("estimators", "phi_clamped", "phi_clamped", _observe_clamp),
    ("CpCurve", "_cp_scalar", "cp_scalar", None),
    ("stability", "frequency_response", "frequency_response", _observe_freq),
]

# Layer that owns the code of each per-step aggregate.
STEP_LAYER = {
    "rk4_plant_step": "turbine",
    "step_estimator": "estimators",
    "phi": "turbine",
    "phi_clamped": "turbine",
    "cp_scalar": "cp_model",
    "frequency_response": "stability",
}

LAYERS = ("cp_model", "turbine", "estimators", "harness", "svgplot",
          "stability", "cli")


def install(tracer: Tracer):
    """Wrap the traced rews attributes; return a function that restores them."""
    from rews import cli, estimators, harness, stability, svgplot, turbine
    from rews.cp_model import CpCurve
    owners = {"cli": cli, "estimators": estimators, "harness": harness,
              "stability": stability, "svgplot": svgplot, "turbine": turbine,
              "CpCurve": CpCurve}
    saved = []
    for owner, attr, name, layer, observe in SPAN_TARGETS:
        fn = getattr(owners[owner], attr)
        saved.append((owners[owner], attr, fn))
        setattr(owners[owner], attr, span_wrapper(tracer, name, layer, fn, observe))
    for owner, attr, name, observe in STEP_TARGETS:
        fn = getattr(owners[owner], attr)
        saved.append((owners[owner], attr, fn))
        setattr(owners[owner], attr, step_wrapper(tracer, name, fn, observe))

    def restore():
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)
    return restore


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of each span: duration minus child-span coverage minus
    the outermost per-step time recorded directly under it."""
    children = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.end - span.start
            - covered(children.get(i, ()), span.start, span.end)
            - span.step_cover
            for i, span in enumerate(spans)]


def layer_self_times(spans) -> dict:
    """Self time per layer, from span self times and per-step self times."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] = out.get(span.layer, 0.0) + own
        for name, (_, _, step_self) in span.steps.items():
            layer = STEP_LAYER[name]
            out[layer] = out.get(layer, 0.0) + step_self
    return out


def _step_totals(spans, name):
    calls, busy = 0, 0.0
    for span in spans:
        agg = span.steps.get(name)
        if agg is not None:
            calls += agg[0]
            busy += agg[1]
    return calls, busy


def _span_totals(spans, name):
    done = [s for s in spans if s.name == name]
    return len(done), sum((s.end - s.start for s in done), 0.0)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    by_layer = layer_self_times(spans)
    m = {}
    m["cp_model.calls"], m["cp_model.busy_s"] = _step_totals(spans, "cp_scalar")
    m["turbine.rk4_steps"], m["turbine.rk4_busy_s"] = _step_totals(spans, "rk4_plant_step")
    m["turbine.phi_calls"], m["turbine.phi_busy_s"] = _step_totals(spans, "phi")
    m["estimators.steps"], m["estimators.busy_s"] = _step_totals(spans, "step_estimator")
    m["estimators.clamps"] = counts.get("estimators.clamps", 0)
    m["harness.run_scenario_self_s"] = sum(
        (own for s, own in zip(spans, selfs) if s.name == "scenario"), 0.0)
    m["harness.classify_calls"], m["harness.classify_busy_s"] = _span_totals(spans, "classify")
    m["harness.early_stops"] = counts.get("harness.early_stops", 0)
    m["harness.failed_runs"] = counts.get("harness.failed_runs", 0)
    m["harness.emit_busy_s"] = _span_totals(spans, "emit")[1]
    m["harness.emit_bytes"] = counts.get("harness.emit_bytes", 0)
    m["svgplot.charts"], m["svgplot.busy_s"] = _span_totals(spans, "chart")
    m["svgplot.points"] = counts.get("svgplot.points", 0)
    m["stability.certify_calls"], m["stability.certify_busy_s"] = _span_totals(spans, "certify")
    m["stability.freq_evals"] = _step_totals(spans, "frequency_response")[0]
    m["stability.freq_points"] = counts.get("stability.freq_points", 0)
    m["stability.margin_calls"], m["stability.margin_busy_s"] = _span_totals(spans, "margin")
    in_margin = []
    for span in spans:
        parent = span.parent
        in_margin.append(parent >= 0 and (spans[parent].name == "margin"
                                          or in_margin[parent]))
    m["stability.margin_certify_calls"] = sum(
        1 for s, inside in zip(spans, in_margin) if s.name == "certify" and inside)
    m["stability.margin_refusals"] = counts.get("stability.margin_refusals", 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    scheduled = counts.get("inputs.scheduled_steps", 0)
    m["plant_shared_frac"] = counts.get("inputs.shared_steps", 0) / scheduled if scheduled else 0.0
    m["early_stop_frac"] = counts.get("inputs.early_stop_steps", 0) / scheduled if scheduled else 0.0
    m["clamp_frac"] = m["estimators.clamps"] / m["estimators.steps"] if m["estimators.steps"] else 0.0
    return m
