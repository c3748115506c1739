"""Tests of the benchmark's own logic: inputs, span arithmetic, reference check.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

import copy
import itertools

import pytest

import reference
import tracing
import workloads
from rews import harness


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_reproduces_inputs(workload):
    assert workloads.inputs_for(workload, 7) == workloads.inputs_for(workload, 7)
    assert workloads.pool_for(workload) == workloads.pool_for(workload)


@pytest.mark.parametrize("workload", ["scenario-sweep", "gain-sweep"])
def test_seeds_draw_different_inputs(workload):
    assert workloads.inputs_for(workload, 1) != workloads.inputs_for(workload, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pool_is_the_one_the_reference_covers(workload):
    ref = reference.load(workload)
    assert reference.pool_sha256(workloads.pool_for(workload)) == ref["pool_sha256"]


def test_scenario_pass_shape():
    inputs = workloads.inputs_for("scenario-sweep", 3)
    assert len(inputs) == workloads.SCENARIO_SLOTS
    # every pass schedules the same steps and never repeats a wind profile
    steps = sum(workloads.scheduled_steps(spec) for _, spec in inputs)
    other = workloads.inputs_for("scenario-sweep", 4)
    assert steps == sum(workloads.scheduled_steps(spec) for _, spec in other)
    winds = [tuple(map(tuple, spec["wind_profile"])) for _, spec in inputs]
    assert len(set(winds)) == len(winds)
    for _, spec in inputs:
        levels = [u for _, u in spec["wind_profile"]]
        assert 1 <= len(levels) <= 4 and all(4.0 <= u <= 11.0 for u in levels)
        assert 60.0 <= spec["duration"] <= 180.0


@pytest.mark.parametrize("workload", ["scenario-sweep", "gain-sweep"])
def test_every_seed_has_the_same_outcome_counts(workload):
    outcomes = workloads.reference_outcomes(workload)

    def counts(seed):
        inputs = workloads.inputs_for(workload, seed, outcomes=outcomes)
        if workload == "scenario-sweep":
            found = [outcomes["s"][i] for i, _ in inputs]
        else:
            found = ([outcomes["c"][i] for i, _ in inputs["certify"]]
                     + [outcomes["m"][i] for i, _ in inputs["margins"]])
        return tuple(found.count(c) for c in workloads.OUTCOMES)

    seen = {counts(seed) for seed in range(20)}
    assert len(seen) == 1 and seen.pop()[0] > 0


def _span(name, parent, start, end, step_cover=0.0, layer="harness"):
    span = tracing.Span(name, layer, parent, start, end)
    span.step_cover = step_cover
    return span


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)], 0.0, 1.0) == pytest.approx(0.5)
    assert tracing.covered([(-1.0, 0.2), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.3)


def test_self_times_subtract_children_and_step_cover():
    spans = [
        _span("pass", -1, 0.0, 10.0, layer="bench"),
        _span("scenario", 0, 1.0, 5.0, step_cover=2.5),
        _span("classify", 0, 5.0, 6.0),
        _span("certify", 2, 5.2, 5.6, layer="stability"),
        _span("certify", 2, 5.5, 5.9, layer="stability"),   # overlaps its sibling
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([5.0, 1.5, 0.3, 0.4, 0.4])
    spans[1].steps = {"rk4_plant_step": [10, 2.0, 1.2],
                      "phi": [40, 0.8, 0.8],
                      "step_estimator": [10, 0.5, 0.5]}
    layers = tracing.layer_self_times(spans)
    assert layers["bench"] == pytest.approx(5.0)
    assert layers["harness"] == pytest.approx(1.5 + 0.3)
    assert layers["turbine"] == pytest.approx(1.2 + 0.8)
    assert layers["estimators"] == pytest.approx(0.5)
    assert layers["stability"] == pytest.approx(0.8)


def test_tracer_nests_step_calls_under_the_open_span():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return None

    inner_w = tracing.step_wrapper(tracer, "phi", inner)

    def outer():
        inner_w()
        inner_w()

    outer_w = tracing.step_wrapper(tracer, "rk4_plant_step", outer)
    root = tracer.open("pass", "bench")          # t=0
    scn = tracer.open("scenario", "harness")     # t=1
    outer_w()                                    # t=2..7, inner calls 3-4 and 5-6
    tracer.close(scn)                            # t=8
    tracer.close(root)                           # t=9
    span = tracer.spans[scn]
    assert span.steps["phi"] == [2, 2.0, 2.0]
    assert span.steps["rk4_plant_step"] == [1, 5.0, 3.0]
    assert span.step_cover == 5.0
    assert tracing.self_times(tracer.spans) == [2.0, 2.0]


def test_install_counts_layers_and_restores():
    before = harness.run_scenario, harness.rk4_plant_step
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        root = tracer.open("pass", "bench")
        scn = harness.make_step_wind_scenario(40.0, 10.0, 0.3, duration=2.0,
                                              wind_profile=[(0.0, 7.0)])
        trace = harness.run_scenario(scn)
        tracer.close(root)
    finally:
        restore()
    assert (harness.run_scenario, harness.rk4_plant_step) == before
    m = tracing.layer_metrics(tracer)
    assert m["estimators.steps"] == len(trace) == 201
    assert m["turbine.rk4_steps"] == 200
    assert m["plant_shared_frac"] == 0.0
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    bench = tracing.layer_self_times(tracer.spans).get("bench", 0.0)
    root_span = tracer.spans[0]
    assert total + bench == pytest.approx(root_span.end - root_span.start)


TOL = {"float_rtol": 1e-9, "float_atol": 1e-12, "margin_atol": 1e-3,
       "margin_fields": ["margin", "beta_margin.value"]}


def _stored_scenario_record():
    ref = reference.load("scenario-sweep")["outputs"]
    key = next(k for k, v in ref.items() if "error" not in v)
    return ref, key


def test_reference_accepts_its_own_outputs():
    for workload in workloads.WORKLOADS:
        ref = reference.load(workload)["outputs"]
        assert reference.compare(ref, copy.deepcopy(ref), reference.load_tolerance()) == []


def test_reference_reports_a_perturbed_float():
    ref, key = _stored_scenario_record()
    got = copy.deepcopy(ref[key])
    got["u_hat"][3] *= 1 + 1e-6
    found = reference.compare(ref, {key: got}, TOL)
    assert len(found) == 1 and "u_hat[3]" in found[0]
    got["u_hat"][3] = ref[key]["u_hat"][3] * (1 + 1e-12)
    assert reference.compare(ref, {key: got}, TOL) == []


def test_reference_reports_label_and_verdict_changes():
    ref, key = _stored_scenario_record()
    got = copy.deepcopy(ref[key])
    got["label"] = "converged" if got["label"] != "converged" else "diverged"
    got["certified"] = not got["certified"]
    assert len(reference.compare(ref, {key: got}, TOL)) == 2


def test_reference_failures_and_margins():
    ref = {"a": {"error": "EnvelopeError"}, "b": {"margin": 0.5}}
    # failed in the reference, succeeds now: not a mismatch
    assert reference.compare(ref, {"a": {"margin": 1.0}}, TOL) == []
    # succeeded in the reference, fails now: a mismatch
    assert len(reference.compare(ref, {"b": {"error": "ConfigError"}}, TOL)) == 1
    # margins hold to the bisection tolerance
    assert reference.compare(ref, {"b": {"margin": 0.5009}}, TOL) == []
    assert len(reference.compare(ref, {"b": {"margin": 0.502}}, TOL)) == 1
    assert len(reference.compare(ref, {"c": {"margin": 0.5}}, TOL)) == 1
