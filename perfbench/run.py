"""rews benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload {case-studies,scenario-sweep,gain-sweep}
                             --seed N --seconds S [--trace 0|1]

Run from the checkout root.  One process, no worker threads or
processes besides the short-lived set-up probes; BLAS/OpenMP pools are
pinned to one thread.  The seed picks the inputs (see workloads.py).

``--trace 0`` times set-up in fresh processes, then repeats
passes over the same inputs for ``--seconds`` and reports medians.
``--trace 1`` does the same untraced passes, then one traced pass that
wraps rews from outside (tracing.py) and reports per-layer metrics.
Every pass is checked against the stored reference.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
report with all end-to-end metrics, input properties and provenance.
The exit code is 1 when an output is outside the reference tolerance
and 2 when the checkout has no rews sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import env

SETUP_REPEATS = 5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import rews\n"
    "rews.default_cp_curve()\n"
    "rews.default_turbine_params()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

# Workload -> what work_per_s counts.
WORK_UNIT = {"case-studies": "sim_steps_per_s",
             "scenario-sweep": "sim_steps_per_s",
             "gain-sweep": "certify_per_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("case-studies", "scenario-sweep", "gain-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Median time, in fresh processes, to import rews and load the
    default curve and turbine."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=env.ROOT,
                             env=env.child_env(), capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def warm_up(work_dir) -> None:
    """Touch every code path once (a short scenario with emission) so lazy
    imports and first-call costs stay out of the timed passes."""
    from rews import harness, stability
    scn = harness.make_step_wind_scenario(40.0, 10.0, 0.3, duration=2.0,
                                          wind_profile=[(0.0, 7.0)])
    trace = harness.run_scenario(scn)
    harness.classify_trace(trace)
    circle = harness.case_study_circle()
    stability.certify(40.0, 10.0, 0.3, circle)
    out = os.path.join(work_dir, "warm-up")
    for path in harness.emit_outputs(trace, out, circle=circle):
        os.remove(path)
    os.rmdir(out)


def percentile(values, q: int) -> float:
    """q-th percentile, inclusive method (needs two or more values)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Repeated passes over one workload's inputs, each checked by
    ``check(outputs) -> list of mismatches``."""

    def __init__(self, workload, pass_fn, inputs, check):
        self.workload = workload
        self.pass_fn = pass_fn
        self.inputs = inputs
        self.check = check
        self.results = []
        self.mismatches = []

    def one_pass(self):
        result = self.pass_fn(self.inputs, env.OUT_DIR)
        found = self.check(result.outputs)
        self.mismatches.append(found)
        for line in found[:20]:
            print(f"mismatch: {line}", file=sys.stderr)
        return result

    def repeat(self, seconds: float) -> None:
        start = time.perf_counter()
        while not self.results or time.perf_counter() - start < seconds:
            self.results.append(self.one_pass())


def operation_counts(results) -> tuple:
    """(attempted, failed) operations of a run.  Every pass repeats the same
    inputs, so these are the operations of one pass, with the most failures
    any pass had: counts that do not depend on how many passes fit in the
    run's time."""
    return results[0].attempted, max(r.failed for r in results)


def end_to_end(run: Run, setup_s) -> dict:
    """The end-to-end metrics of the untraced passes, as (value, unit)."""
    res = run.results
    pass_s = statistics.median(r.seconds for r in res)
    m = {"setup_s": (setup_s, "s"), "pass_s": (pass_s, "s")}
    if run.workload == "gain-sweep":
        work = statistics.median(r.certify_calls / r.certify_s for r in res)
        p50 = statistics.median(percentile(r.margin_latencies, 50) for r in res)
        p90 = statistics.median(percentile(r.margin_latencies, 90) for r in res)
        m["sim_steps_per_s"] = (None, "1/s")
        m["certify_per_s"] = (work, "1/s")
        m["margin_p50_ms"] = (p50 * 1e3, "ms")
        m["margin_p90_ms"] = (p90 * 1e3, "ms")
    else:
        work = statistics.median(r.scheduled_steps / r.seconds for r in res)
        m["sim_steps_per_s"] = (work, "1/s")
        m["certify_per_s"] = (None, "1/s")
        m["margin_p50_ms"] = (None, "ms")
        m["margin_p90_ms"] = (None, "ms")
    attempted, failed = operation_counts(res)
    m["failed_frac"] = (failed / attempted, "ratio")
    m["ref_mismatch"] = (max(len(found) for found in run.mismatches), "count")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    m["work_per_s"] = (work, "1/s")
    return m


def traced_pass(run: Run, seed: int):
    """One pass with every layer wrapped: its result and the per-layer
    metrics by name."""
    import tracing
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        root = tracer.open("pass", "bench")
        try:
            result = run.one_pass()
        finally:
            tracer.close(root)
    finally:
        restore()
    tracer.write(os.path.join(env.OUT_DIR, f"spans-{run.workload}-seed{seed}.json"))
    metrics = tracing.layer_metrics(tracer)
    untraced = statistics.median(r.seconds for r in run.results)
    metrics["tracing_overhead_frac"] = result.seconds / untraced - 1.0
    return result, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    try:
        env.prepare()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import reference
    import workloads

    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ref = reference.load(args.workload)
    pool = workloads.pool_for(args.workload)
    if reference.pool_sha256(pool) != ref["pool_sha256"]:
        print("error: generated input pool differs from the one the reference "
              "was captured on", file=sys.stderr)
        return 2
    os.makedirs(env.OUT_DIR, exist_ok=True)

    setup_s = measure_setup() if args.trace == 0 else None
    warm_up(env.OUT_DIR)
    tolerance = reference.load_tolerance()
    run = Run(args.workload, workloads.PASSES[args.workload],
              workloads.inputs_for(args.workload, args.seed, pool),
              lambda outputs: reference.compare(ref["outputs"], outputs, tolerance))
    run.repeat(args.seconds)
    e2e = end_to_end(run, setup_s)

    results = list(run.results)
    if args.trace:
        traced, values = traced_pass(run, args.seed)
        results.append(traced)
        declared = spec["per_layer"]
    else:
        values = {name: value for name, (value, _) in e2e.items()}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    mismatch = max(len(found) for found in run.mismatches)
    report = {
        "workload": args.workload,
        "pass_seconds": [r.seconds for r in run.results],
        "work_per_s_is": WORK_UNIT[args.workload],
        "end_to_end": {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()
                       if n != "work_per_s"},
        "provenance": env.provenance(args.seed, loadavg),
    }
    if args.workload == "gain-sweep":
        report["margin_samples_per_pass"] = len(run.results[0].margin_latencies)
    print("report " + json.dumps(report))
    attempted, failed = operation_counts(results)
    print(json.dumps({"correct": mismatch == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
