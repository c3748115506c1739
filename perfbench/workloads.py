"""Seeded inputs and timed passes for the three benchmark workloads.

Inputs come from fixed pools drawn with ``random.Random(POOL_SEED)``, so
every input has a stored reference output (see ``reference.py``).  The
run seed only chooses which pool items make up a pass, and the same seed
always gives the same pass.  rews receives the generated scenario dicts
and gain tuples and nothing else.

Failing draws stay in the stream, but the seed picks them from strata of
the pool that are fixed by the reference outcome, so every pass of a
workload attempts and fails the same number of operations, and stops the
same number of scenarios early, whatever the seed: counts that moved with
the seed would hide a change in them and make the timings spread.

A pass is timed around the calls into rews only; building the output
records that the reference check reads is cheap indexing and stays
inside the loop, while reading files back and cleaning up stay outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from rews import cli, harness, stability
from rews.exceptions import (ConfigError, CurveError, EnvelopeError,
                             GridCoverageError)

# Every error rews raises on purpose; anything else is a bug and ends the run.
REWS_ERRORS = (ConfigError, CurveError, EnvelopeError, GridCoverageError)

POOL_SEED = 20210415

# case-studies runs 6 cases plus the PI-vs-proportional comparison, each a
# 450 s scenario at dt = 0.01: the stated input size behind sim_steps_per_s.
CASE_STUDY_SCENARIOS = 8
CASE_STUDY_SCHEDULED_STEPS = CASE_STUDY_SCENARIOS * 45001

# scenario-sweep: slot i fixes the duration, the family and the wind steps,
# so a pass schedules the same number of steps whatever the seed; the
# variants of a slot differ in gains, delay and initial guess.  Slots never
# share a plant trajectory.  The seed picks the variant from the slot's
# largest class of reference outcomes (failed, stopped early, completed;
# a tie goes to the earlier class), so every pass has the same number of
# each and runs nearly the same number of steps.
SCENARIO_SLOTS = 40
SCENARIO_VARIANTS = 12
SCENARIO_DT = 0.01
FAMILIES = ("iandi", "p", "pi")
TRACE_SAMPLES = 9

# gain-sweep: certify draws span the case-study gains and delays; margin
# queries sit around the case-study operating point (gamma 40, beta 10,
# delay 0.3), half searching beta and half searching the delay.  Each half
# holds refused queries in the share the pool of that kind has (about a
# quarter overall), and a pass answers enough queries for its p90 to have
# at least ten samples beyond it.
CERTIFY_POOL = 4096
CERTIFY_PER_PASS = 2048
MARGIN_POOL = 512
MARGIN_PER_PASS = 160


@dataclass
class PassResult:
    """One pass: wall time, operation counts and the checked outputs."""

    seconds: float
    attempted: int
    failed: int
    scheduled_steps: int
    outputs: dict                      # output key -> record for the reference check
    certify_s: float = 0.0             # gain-sweep: time of the certify phase
    certify_calls: int = 0
    margin_latencies: list = field(default_factory=list)  # answered queries, s


# ---------------------------------------------------------------------------
# Inputs


def _draw_wind(rng: random.Random, duration: float) -> list:
    n_steps = rng.randint(1, 4)
    starts = [0] + sorted(rng.sample(range(5, int(duration) - 5), n_steps - 1))
    return [[float(t), round(rng.uniform(4.0, 11.0), 2)] for t in starts]


def _draw_scenario(rng: random.Random, wind: list, duration: float,
                   family: str) -> dict:
    estimator = {"family": family,
                 "gamma": round(rng.uniform(40.0, 100.0), 2),
                 "delay": round(rng.uniform(0.3, 2.0), 2)}
    if family == "pi":
        estimator["beta"] = round(rng.uniform(4.0, 200.0), 2)
    return {
        "wind_profile": wind,
        "duration": duration,
        "dt": SCENARIO_DT,
        "turbine": "default",
        "cp_curve": "default",
        "controller_gain": "optimal",
        "estimator": estimator,
        "initial": {"omega_r": "steady",
                    "u_guess": round(rng.uniform(4.0, 11.0), 2)},
    }


def scenario_pool() -> list:
    """All scenario specs, slot by slot; item ``s * VARIANTS + v`` is
    variant ``v`` of slot ``s``."""
    rng = random.Random(POOL_SEED)
    pool = []
    for slot in range(SCENARIO_SLOTS):
        duration = float(round(60 + 120 * slot / (SCENARIO_SLOTS - 1)))
        family = FAMILIES[slot % len(FAMILIES)]
        wind = _draw_wind(rng, duration)
        pool.extend(_draw_scenario(rng, wind, duration, family)
                    for _ in range(SCENARIO_VARIANTS))
    return pool


def gain_pool() -> dict:
    """Certify draws as ``[gamma, beta, delay]`` and margin queries as dicts."""
    rng = random.Random(POOL_SEED + 1)
    certify = [[round(rng.uniform(40.0, 100.0), 4),
                round(rng.uniform(0.0, 200.0), 4),
                round(rng.uniform(0.0, 2.0), 4)] for _ in range(CERTIFY_POOL)]
    margins = []
    for i in range(MARGIN_POOL):
        gamma = round(rng.uniform(30.0, 50.0), 4)
        if i % 2 == 0:
            margins.append({"kind": "beta", "gamma": gamma,
                            "delay": round(rng.uniform(0.1, 0.5), 4)})
        else:
            margins.append({"kind": "delay", "gamma": gamma,
                            "beta": round(rng.uniform(5.0, 20.0), 4)})
    return {"certify": certify, "margins": margins}


def pool_for(workload: str):
    """The whole input pool of a workload (what the reference covers)."""
    if workload == "case-studies":
        return {"argv": ["case-studies", "--out", "<tmp>"]}
    if workload == "scenario-sweep":
        return scenario_pool()
    return gain_pool()


# Reference outcomes, in the order that breaks a tie for a slot's class.
OUTCOMES = ("failed", "stopped_early", "completed")


def _draw_stratified(rng: random.Random, indices, outcome: dict, k: int) -> list:
    """``k`` of ``indices``, sorted, with refused ones in their pool share."""
    bad = [i for i in indices if outcome[i] == "failed"]
    good = [i for i in indices if outcome[i] != "failed"]
    n_bad = round(k * len(bad) / len(indices))
    return sorted(rng.sample(bad, n_bad) + rng.sample(good, k - n_bad))


def inputs_for(workload: str, seed: int, pool=None, outcomes=None):
    """The inputs of one pass, chosen from the pool by ``seed``.  ``outcomes``
    are the reference outcomes of the pool items (loaded if None)."""
    pool = pool_for(workload) if pool is None else pool
    rng = random.Random(seed)
    if workload == "case-studies":
        return pool
    if outcomes is None:
        outcomes = reference_outcomes(workload)
    if workload == "scenario-sweep":
        picks = []
        for slot in range(SCENARIO_SLOTS):
            first = slot * SCENARIO_VARIANTS
            by_class = {c: [] for c in OUTCOMES}
            for i in range(first, first + SCENARIO_VARIANTS):
                by_class[outcomes["s"][i]].append(i)
            largest = max(OUTCOMES, key=lambda c: len(by_class[c]))
            picks.append(rng.choice(by_class[largest]))
        return [(i, pool[i]) for i in picks]
    certify = _draw_stratified(rng, range(CERTIFY_POOL), outcomes["c"],
                               CERTIFY_PER_PASS)
    half = MARGIN_PER_PASS // 2
    margins = (_draw_stratified(rng, range(0, MARGIN_POOL, 2), outcomes["m"], half)
               + _draw_stratified(rng, range(1, MARGIN_POOL, 2), outcomes["m"], half))
    return {"certify": [(i, pool["certify"][i]) for i in certify],
            "margins": [(i, pool["margins"][i]) for i in margins]}


def reference_outcomes(workload: str) -> dict:
    """The stored reference outcome of every pool item, one of OUTCOMES, by
    output-key prefix (``s`` scenario, ``c`` certify, ``m`` margin query)."""
    import reference
    outcomes = {"s": {}, "c": {}, "m": {}}
    for key, record in reference.load(workload)["outputs"].items():
        if key[0] in outcomes and key[1:].isdigit():
            outcome = ("failed" if "error" in record
                       else "stopped_early" if record.get("stopped_early")
                       else "completed")
            outcomes[key[0]][int(key[1:])] = outcome
    return outcomes


def all_inputs(workload: str, pool):
    """Every pool item as one pass, for capturing the reference."""
    if workload == "case-studies":
        return pool
    if workload == "scenario-sweep":
        return list(enumerate(pool))
    return {"certify": list(enumerate(pool["certify"])),
            "margins": list(enumerate(pool["margins"]))}


def scheduled_steps(spec: dict) -> int:
    """Estimator steps a spec schedules: duration / dt + 1."""
    return int(round(spec["duration"] / spec["dt"])) + 1


# ---------------------------------------------------------------------------
# Passes


def _circle():
    return stability.circle_from_gains(harness.CASE_STUDY_K1,
                                       harness.CASE_STUDY_K2)


def run_case_studies(inputs, work_dir) -> PassResult:
    """``rews case-studies --out <tmp>`` in-process, as users run it."""
    out = tempfile.mkdtemp(prefix="case-studies-", dir=work_dir)
    argv = [out if a == "<tmp>" else a for a in inputs["argv"]]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        report = None
        if code == 0:
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        files = sorted(os.path.relpath(os.path.join(d, f), out)
                       for d, _, names in os.walk(out) for f in names)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record = ({"error": f"exit code {code}"} if code != 0
              else {"report": report, "files": files})
    return PassResult(seconds=seconds, attempted=1, failed=int(code != 0),
                      scheduled_steps=CASE_STUDY_SCHEDULED_STEPS,
                      outputs={"case-studies": record})


def scenario_record(trace, label: str, verdict) -> dict:
    n = len(trace)
    idx = sorted({round(k * (n - 1) / (TRACE_SAMPLES - 1))
                  for k in range(TRACE_SAMPLES)})
    return {
        "label": label,
        "certified": verdict.certified,
        "min_distance": verdict.min_distance,
        "steps": n,
        "stopped_early": trace.stopped_early,
        "clamps": int(trace.clamp_count[-1]),
        "u_hat": [float(trace.u_hat[i]) for i in idx],
        "omega_r": [float(trace.omega_r[i]) for i in idx],
    }


def run_scenario_sweep(inputs, work_dir) -> PassResult:
    """Each spec through scenario_from_json, run_scenario, classify_trace
    and certify; no files are written."""
    circle = _circle()
    outputs = {}
    failed = 0
    t0 = time.perf_counter()
    for index, spec in inputs:
        try:
            scn = harness.scenario_from_json(spec)
            trace = harness.run_scenario(scn)
            label = harness.classify_trace(trace)
            cfg = scn.estimator
            verdict = stability.certify(cfg.gamma, cfg.beta, cfg.delay_T,
                                        circle)
        except REWS_ERRORS as exc:
            failed += 1
            outputs[f"s{index}"] = {"error": type(exc).__name__}
            continue
        outputs[f"s{index}"] = scenario_record(trace, label, verdict)
    seconds = time.perf_counter() - t0
    return PassResult(seconds=seconds, attempted=len(inputs), failed=failed,
                      scheduled_steps=sum(scheduled_steps(s) for _, s in inputs),
                      outputs=outputs)


def run_gain_sweep(inputs, work_dir) -> PassResult:
    """Certify calls, then margin queries; no simulation.  Refused margin
    queries count as failed, whatever the reason."""
    circle = _circle()
    outputs = {}
    failed = 0
    t0 = time.perf_counter()
    for index, (gamma, beta, delay) in inputs["certify"]:
        try:
            verdict = stability.certify(gamma, beta, delay, circle)
        except REWS_ERRORS as exc:
            failed += 1
            outputs[f"c{index}"] = {"error": type(exc).__name__}
            continue
        outputs[f"c{index}"] = {"certified": verdict.certified,
                                "min_distance": verdict.min_distance}
    t1 = time.perf_counter()
    latencies = []
    for index, query in inputs["margins"]:
        start = time.perf_counter()
        try:
            if query["kind"] == "beta":
                value = stability.max_stable_beta(query["gamma"],
                                                  query["delay"], circle)
            else:
                value = stability.max_stable_delay(query["gamma"],
                                                   query["beta"], circle)
        except REWS_ERRORS as exc:
            failed += 1
            outputs[f"m{index}"] = {"error": type(exc).__name__}
            continue
        latencies.append(time.perf_counter() - start)
        outputs[f"m{index}"] = {"margin": value}
    t2 = time.perf_counter()
    n_certify = len(inputs["certify"])
    return PassResult(seconds=t2 - t0,
                      attempted=n_certify + len(inputs["margins"]),
                      failed=failed, scheduled_steps=0, outputs=outputs,
                      certify_s=t1 - t0, certify_calls=n_certify,
                      margin_latencies=latencies)


PASSES = {
    "case-studies": run_case_studies,
    "scenario-sweep": run_scenario_sweep,
    "gain-sweep": run_gain_sweep,
}
WORKLOADS = tuple(PASSES)
