"""Closed-loop scenarios: plant + quadratic torque law + estimator.

The estimator is a driven observer: the torque law acts on the measured
rotor speed, so nothing an estimator does feeds back into the plant.
:func:`run_shared_plant` is the one simulator.  It integrates the plant
once over a piecewise-constant wind schedule and drives every estimator
that shares that plant in lockstep; :func:`run_scenario` is its
one-estimator case.  The module also classifies the resulting estimate
traces, reproduces the six standard case studies, and emits the
CSV/JSON/SVG artifacts through one CSV and one JSON writer.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import stability, svgplot
from .cp_model import CpCurve, default_cp_curve, read_curve_csv
from .estimators import EstimatorConfig, Family, init_estimator, step_estimator
from .exceptions import ConfigError, CurveError, EnvelopeError
from .stability import CircleSpec, circle_from_gains
from .turbine import (TurbineParams, default_turbine_params, load_params_file,
                      optimal_torque_gain, rk4_plant_step,
                      steady_state_rotor_speed)

__all__ = [
    "Scenario",
    "SimTrace",
    "run_scenario",
    "run_shared_plant",
    "run_case_studies",
    "classify_trace",
    "case_study_circle",
    "default_sector_bounds",
    "make_step_wind_scenario",
    "scenario_from_json",
    "write_trace_csv",
    "read_trace_csv",
    "emit_outputs",
    "emit_trace",
    "emit_certificate",
    "CASE_STUDIES",
]

# Sector slopes behind the standard case-study circle (fixed constants so
# the verdicts do not depend on the locally chosen operating envelope).
CASE_STUDY_K1 = 0.016
CASE_STUDY_K2 = 0.095

# Estimate magnitude beyond which a run is cut short and marked diverged.
DIVERGENCE_GUARD = 1e3

# Trace classification thresholds (implementation choices, echoed in the
# report header): a wind segment counts as settled when the estimate
# stays within SETTLE_TOL of the true speed over its final 20%; a run
# counts as diverged when trailing window peak-to-peak amplitudes grow
# strictly over the last DIVERGE_WINDOWS windows of the final segment
# and end above the settle tolerance.
SETTLE_TOL = 0.05       # m/s
SETTLE_FRACTION = 0.2
DIVERGE_WINDOWS = 3
_SEGMENT_WINDOWS = 6

CASE_STUDIES = [
    ("case1", 40.0, 10.0, 0.3),
    ("case2", 100.0, 10.0, 0.3),
    ("case3", 100.0, 200.0, 0.3),
    ("case4", 40.0, 10.0, 0.3),
    ("case5", 40.0, 10.0, 0.6),
    ("case6", 40.0, 10.0, 2.0),
]

_STEP_WIND = [(0.0, 5.0), (150.0, 7.0), (300.0, 9.0)]
_STEP_DURATION = 450.0
_DEFAULT_DT = 0.01
_DEFAULT_U_GUESS = 8.0


@dataclass(frozen=True)
class Scenario:
    wind_profile: tuple          # ((t_start, U), ...) time-ordered, first at 0
    duration: float              # s
    dt: float                    # s, shared plant/estimator grid
    turbine: TurbineParams
    curve: CpCurve
    controller_gain: float       # K of the quadratic torque law, N m s^2
    estimator: EstimatorConfig
    initial_omega_r: float       # rad/s
    initial_u_guess: float       # m/s

    def __post_init__(self):
        profile = tuple((float(t), float(u)) for t, u in self.wind_profile)
        object.__setattr__(self, "wind_profile", profile)
        if not profile:
            raise ConfigError("wind profile must contain at least one segment")
        if profile[0][0] != 0.0:
            raise ConfigError("first wind segment must start at t = 0")
        starts = [t for t, _ in profile]
        if not all(a < b for a, b in zip(starts, starts[1:])):
            raise ConfigError("wind segments must be strictly time-ordered")
        if not all(0 < u < math.inf for _, u in profile):
            raise ConfigError("wind speeds must be positive and finite")
        if not (0 < self.duration < math.inf and 0 < self.dt < math.inf):
            raise ConfigError("duration and dt must be positive and finite")
        delay = self.estimator.delay_T
        steps = delay / self.dt
        if not (steps < math.inf
                and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)):
            raise ConfigError(f"delay {delay} is not an integer multiple of dt {self.dt}")
        if starts[-1] >= self.duration:
            raise ConfigError("last wind segment starts after the run ends")
        if not 0 < self.controller_gain < math.inf:
            raise ConfigError("controller gain must be positive and finite")
        if not self.turbine.omega_r_min <= self.initial_omega_r < math.inf:
            raise ConfigError("initial rotor speed must be finite and not "
                              "below the lower bound")

    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass
class SimTrace:
    """Uniform-grid record of one closed-loop run."""

    scenario: Scenario
    t: np.ndarray
    u_true: np.ndarray
    omega_r: np.ndarray
    omega_hat_r: np.ndarray   # NaN for the internal-state family
    eps: np.ndarray           # omega_r - omega_hat_r; NaN when undefined
    u_hat: np.ndarray
    t_g: np.ndarray
    clamp_count: np.ndarray   # cumulative feedback-path envelope clamps
    stopped_early: bool = False
    stop_time: float = None

    def __len__(self):
        return self.t.size


def run_scenario(scn: Scenario) -> SimTrace:
    """Co-simulate plant (RK4) and estimator (Euler) on the shared grid.

    The one-estimator case of :func:`run_shared_plant`.  Estimator
    divergence is recorded, not raised: the run stops early only when
    the estimate exceeds the divergence guard or goes non-finite, and
    the stop time is kept on the trace.
    """
    return run_shared_plant([scn])[0]


def _plant_key(scn: Scenario) -> tuple:
    """Everything that determines the plant trajectory."""
    return (scn.wind_profile, scn.duration, scn.dt, scn.turbine, scn.curve,
            scn.controller_gain, scn.initial_omega_r)


class _EstimatorRun:
    """Per-estimator state and record columns inside one plant pass."""

    __slots__ = ("scenario", "config", "state", "omega_hat", "u_hat",
                 "clamps", "last")

    def __init__(self, scn: Scenario, n: int):
        self.scenario = scn
        self.config = scn.estimator
        self.state = init_estimator(scn.estimator, scn.initial_omega_r,
                                    scn.initial_u_guess, scn.dt)
        self.omega_hat = np.empty(n + 1)
        self.u_hat = np.empty(n + 1)
        self.clamps = np.zeros(n + 1)
        self.last = None   # index of the guard trip, None while live


def run_shared_plant(scenarios) -> list:
    """Drive every scenario's estimator from one plant integration.

    All scenarios must share the plant: wind profile, duration, dt,
    turbine, curve, controller gain and initial rotor speed.  A mismatch
    raises :class:`ConfigError`.  At each grid step every live estimator
    is updated from the measured rotor speed, then the plant takes one
    RK4 step.  An estimator stops when its estimate exceeds the
    divergence guard or goes non-finite; the plant stops with the last
    live estimator, so an :class:`EnvelopeError` from the plant
    propagates only while some estimator is still running.  Each trace
    equals its solo :func:`run_scenario` bit for bit; the traces of one
    call share their ``t``, ``u_true``, ``omega_r`` and ``t_g`` arrays.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    first = scenarios[0]
    key = _plant_key(first)
    if any(_plant_key(scn) != key for scn in scenarios[1:]):
        raise ConfigError("scenarios in one plant pass must share wind, "
                          "duration, dt, turbine, curve, controller gain "
                          "and initial rotor speed")
    params, curve = first.turbine, first.curve
    n = first.n_steps()
    dt = first.dt
    k_gain = first.controller_gain
    gear = params.gear_ratio

    # Wind per step: the level of the last segment started by then.  The
    # plant takes it as a Python float, so the whole step loop runs on
    # Python floats rather than slower numpy scalars.
    times = np.arange(n + 1) * dt
    starts, levels = zip(*first.wind_profile)
    segment = np.searchsorted(starts, times, side="right") - 1
    u_arr = np.array(levels)[segment]
    u_step = [levels[i] for i in segment.tolist()]

    omega = np.empty(n + 1)
    t_g = np.empty(n + 1)
    runs = [_EstimatorRun(scn, n) for scn in scenarios]
    live = runs
    w = first.initial_omega_r

    for k in range(n + 1):
        tg = k_gain * (gear * w) ** 2
        omega[k] = w
        t_g[k] = tg
        tripped = False
        for run in live:
            state = run.state
            run.omega_hat[k] = state.omega_hat_r
            uh = step_estimator(params, curve, state, w, tg, run.config)
            run.u_hat[k] = uh
            run.clamps[k] = state.clamp_count
            if not math.isfinite(uh) or abs(uh) > DIVERGENCE_GUARD:
                run.last = k
                tripped = True
        if tripped:
            live = [run for run in live if run.last is None]
            if not live:
                break
        if k < n:
            w = rk4_plant_step(params, curve, w, tg, u_step[k], dt)

    traces = []
    for run in runs:
        stopped = run.last is not None
        sl = slice(0, (run.last if stopped else n) + 1)
        omega_hat = run.omega_hat[sl]
        traces.append(SimTrace(
            scenario=run.scenario,
            t=times[sl],
            u_true=u_arr[sl],
            omega_r=omega[sl],
            omega_hat_r=omega_hat,
            eps=omega[sl] - omega_hat,
            u_hat=run.u_hat[sl],
            t_g=t_g[sl],
            clamp_count=run.clamps[sl],
            stopped_early=stopped,
            stop_time=times[run.last] if stopped else None,
        ))
    return traces


def _segment_slices(trace: SimTrace):
    starts = [t for t, _ in trace.scenario.wind_profile]
    bounds = starts[1:] + [trace.scenario.duration]
    t = trace.t
    for i, (t0, t1) in enumerate(zip(starts, bounds)):
        if i == len(starts) - 1:
            idx = np.nonzero((t >= t0 - 1e-12) & (t <= t1 + 1e-12))[0]
        else:
            idx = np.nonzero((t >= t0 - 1e-12) & (t < t1 - 1e-12))[0]
        if idx.size:
            yield idx


def classify_trace(trace: SimTrace) -> str:
    """One of 'converged', 'oscillatory', 'diverged'.

    Precedence: divergence first (guard trip, or strictly growing
    trailing peak-to-peak windows at the end of the run), then the
    per-segment settling test, else oscillatory.
    """
    if trace.stopped_early:
        return "diverged"

    segments = list(_segment_slices(trace))
    if not segments:
        return "oscillatory"

    # Trailing window growth on the final segment.
    tail_idx = segments[-1]
    windows = np.array_split(tail_idx, _SEGMENT_WINDOWS)
    p2p = [float(np.ptp(trace.u_hat[w])) for w in windows if w.size > 1]
    if len(p2p) >= DIVERGE_WINDOWS:
        tail = p2p[-DIVERGE_WINDOWS:]
        if all(a < b for a, b in zip(tail, tail[1:])) and tail[-1] > SETTLE_TOL:
            return "diverged"

    settled = True
    for idx in segments:
        tail = idx[int(math.ceil(idx.size * (1.0 - SETTLE_FRACTION))):]
        if tail.size == 0:
            settled = False
            break
        dev = np.max(np.abs(trace.u_hat[tail] - trace.u_true[tail]))
        if dev >= SETTLE_TOL:
            settled = False
            break
    return "converged" if settled else "oscillatory"


def case_study_circle() -> CircleSpec:
    """Forbidden disk from the fixed case-study sector slopes."""
    return circle_from_gains(CASE_STUDY_K1, CASE_STUDY_K2)


def default_sector_bounds(params: TurbineParams, curve: CpCurve,
                          k_opt: float = None) -> stability.SectorBounds:
    """Sector bounds over the default below-rated operating envelope.

    Wind 4..11 m/s; rotor speed range from the torque law's steady-state
    map at the envelope edges; 200x200 grid.
    """
    if k_opt is None:
        k_opt = optimal_torque_gain(params, curve)
    w_lo = steady_state_rotor_speed(params, curve, k_opt, 4.0)
    w_hi = steady_state_rotor_speed(params, curve, k_opt, 11.0)
    return stability.compute_sector_bounds(
        params, curve, (w_lo, w_hi), (4.0, 11.0), grid_n=200)


def make_step_wind_scenario(gamma: float, beta: float, delay_T: float,
                            family: Family = Family.PI,
                            params: TurbineParams = None,
                            curve: CpCurve = None,
                            wind_profile=None,
                            duration: float = _STEP_DURATION,
                            dt: float = _DEFAULT_DT,
                            u_guess: float = _DEFAULT_U_GUESS) -> Scenario:
    """Stepwise-wind scenario with fixture defaults (5/7/9 m/s levels)."""
    params = params or default_turbine_params()
    curve = curve or default_cp_curve()
    profile = tuple(wind_profile or _STEP_WIND)
    k_opt = optimal_torque_gain(params, curve)
    omega0 = steady_state_rotor_speed(params, curve, k_opt, profile[0][1])
    return Scenario(
        wind_profile=profile,
        duration=duration,
        dt=dt,
        turbine=params,
        curve=curve,
        controller_gain=k_opt,
        estimator=EstimatorConfig(family=family, gamma=gamma, beta=beta,
                                  delay_T=delay_T),
        initial_omega_r=omega0,
        initial_u_guess=u_guess,
    )


def _case_row(name: str, trace: SimTrace, circle: CircleSpec) -> dict:
    """One ``report.json`` row: configuration, verdict and simulation label."""
    cfg = trace.scenario.estimator
    label = classify_trace(trace)
    verdict = stability.certify(cfg.gamma, cfg.beta, cfg.delay_T, circle)
    return {
        "name": name,
        "family": cfg.family.value,
        "gamma": cfg.gamma,
        "beta": cfg.beta,
        "delay": cfg.delay_T,
        "certified": verdict.certified,
        "min_distance": verdict.min_distance,
        "argmin_omega": verdict.argmin_omega,
        "sim_label": label,
        "concordant": not (verdict.certified and label != "converged"),
        "clamp_count": int(trace.clamp_count[-1]),
        "stopped_early": trace.stopped_early,
    }


def run_case_studies(out_dir=None) -> dict:
    """Run the six gain/delay case studies plus the PI-vs-proportional
    comparison; return a structured report, optionally emitting files.

    All eight runs share one plant pass."""
    circle = case_study_circle()
    scenarios = {name: make_step_wind_scenario(g, b, t)
                 for name, g, b, t in CASE_STUDIES}
    scenarios["pi_gamma80"] = make_step_wind_scenario(80.0, 4.0, 0.3)
    scenarios["iandi_gamma80"] = make_step_wind_scenario(
        80.0, 0.0, 0.3, family=Family.IANDI)
    traces = dict(zip(scenarios, run_shared_plant(scenarios.values())))
    rows = [_case_row(name, trace, circle) for name, trace in traces.items()]

    beta_margin = stability.max_stable_beta(40.0, 0.3, circle)
    delay_margin = stability.max_stable_delay(40.0, 10.0, circle)
    case6 = next(row for row in rows if row["name"] == "case6")
    # The delay margin must agree with case 6 (delay 2 s, refused).
    margin_inconsistent = delay_margin >= case6["delay"] and not case6["certified"]

    report = {
        "classifier": {
            "settle_tolerance_m_per_s": SETTLE_TOL,
            "settle_fraction": SETTLE_FRACTION,
            "divergence_windows": DIVERGE_WINDOWS,
            "divergence_guard_m_per_s": DIVERGENCE_GUARD,
        },
        "circle": {
            "k1": CASE_STUDY_K1,
            "k2": CASE_STUDY_K2,
            "C": circle.center,
            "R": circle.radius,
            "alpha": circle.alpha,
        },
        "cases": rows[:len(CASE_STUDIES)],
        "gain_comparison": rows[len(CASE_STUDIES):],
        "beta_margin": {"gamma": 40.0, "delay": 0.3, "value": beta_margin},
        "delay_margin": {"gamma": 40.0, "beta": 10.0, "value": delay_margin,
                         "inconsistent_with_case6": margin_inconsistent},
    }

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "report.json"), report)
        for name, trace in traces.items():
            emit_outputs(trace, os.path.join(out_dir, name), circle=circle)
    return report


# ---------------------------------------------------------------------------
# Serialization

_TRACE_COLUMNS = ["t", "u_true", "omega_r", "omega_hat_r", "eps",
                  "u_hat", "t_g", "clamp_count"]

# Rows per formatted block: bounds the Python floats alive at once.
_CSV_CHUNK = 4096


def _write_csv(path, header, columns) -> None:
    """Stream ``repr(float)`` rows of equal-length columns under ``header``;
    re-reading reproduces the values bit-exactly.

    Rows go out ``_CSV_CHUNK`` at a time: ``csv`` writes a Python float
    as its ``repr``, and ``tolist()`` of a float64 block yields Python
    floats (a numpy scalar would repr as ``np.float64(...)``)."""
    n = min(map(len, columns), default=0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, n, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, n)
            block = np.column_stack(
                [np.asarray(c[start:stop], dtype=np.float64) for c in columns])
            writer.writerows(block.tolist())


def _write_json(path, obj) -> None:
    """``obj`` as two-space-indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_trace_csv(trace: SimTrace, path) -> None:
    """Full-precision trace CSV; re-reading reproduces the arrays bit-exactly."""
    if len(trace) == 0:
        raise ConfigError("refusing to write an empty trace")
    _write_csv(path, _TRACE_COLUMNS, [getattr(trace, c) for c in _TRACE_COLUMNS])


def read_trace_csv(path) -> dict:
    """Read a trace CSV back into named float arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _TRACE_COLUMNS:
            raise ConfigError(f"{path}: unexpected trace header {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.array(rows, dtype=float)
    if data.size == 0:
        raise ConfigError(f"{path}: empty trace")
    return {name: data[:, i] for i, name in enumerate(_TRACE_COLUMNS)}


def scenario_from_json(spec: dict) -> Scenario:
    """Build a scenario from the documented JSON schema.  Missing or ill-typed
    fields raise ``ConfigError("malformed scenario: ...")``; validation
    errors (ConfigError, EnvelopeError, CurveError) keep their type."""
    try:
        profile = [(float(t), float(u)) for t, u in spec["wind_profile"]]
        duration = float(spec["duration"])
        dt = float(spec.get("dt", _DEFAULT_DT))
        est = spec["estimator"]

        turbine = spec.get("turbine", "default")
        if turbine == "default":
            params = default_turbine_params()
        elif isinstance(turbine, dict):
            params = TurbineParams(**turbine)
        else:
            params = load_params_file(os.fspath(turbine))  # open() takes an int as an fd

        curve_spec = spec.get("cp_curve", "default")
        curve = (default_cp_curve() if curve_spec == "default"
                 else read_curve_csv(os.fspath(curve_spec)))

        gain = spec.get("controller_gain", "optimal")
        k_opt = optimal_torque_gain(params, curve) if gain == "optimal" else float(gain)

        config = EstimatorConfig(
            family=Family(est.get("family", "pi")),
            gamma=float(est["gamma"]),
            beta=float(est.get("beta", 0.0)),
            delay_T=float(est.get("delay", 0.0)),
        )

        initial = spec.get("initial", {})
        omega0 = initial.get("omega_r", "steady")
        if omega0 == "steady":
            omega0 = steady_state_rotor_speed(params, curve, k_opt, profile[0][1])
        u_guess = float(initial.get("u_guess", _DEFAULT_U_GUESS))

        return Scenario(
            wind_profile=tuple(profile),
            duration=duration,
            dt=dt,
            turbine=params,
            curve=curve,
            controller_gain=k_opt,
            estimator=config,
            initial_omega_r=float(omega0),
            initial_u_guess=u_guess,
        )
    except (ConfigError, EnvelopeError, CurveError):
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"malformed scenario: {detail}") from exc


def emit_outputs(trace: SimTrace, out_dir, circle: CircleSpec) -> list:
    """Write the trace files (see :func:`emit_trace`) and the certificate
    files of the estimator's gains against ``circle`` (see
    :func:`emit_certificate`); return the written paths."""
    cfg = trace.scenario.estimator
    return emit_trace(trace, out_dir) + emit_certificate(
        cfg.gamma, cfg.beta, cfg.delay_T, circle, out_dir)[1]


def emit_trace(trace: SimTrace, out_dir) -> list:
    """Write ``trace.csv``, ``timeseries.svg`` and ``rotor_speed.svg``;
    return their paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path, wind_path, speed_path = (
        os.path.join(out_dir, name)
        for name in ("trace.csv", "timeseries.svg", "rotor_speed.svg"))
    write_trace_csv(trace, csv_path)
    svgplot.line_chart(wind_path, trace.t,
                       [("U", trace.u_true), ("U_hat", trace.u_hat)],
                       title="Wind speed estimate", xlabel="t [s]",
                       ylabel="wind speed [m/s]")
    series = [("omega_r", trace.omega_r)]
    if not np.all(np.isnan(trace.omega_hat_r)):
        series.append(("omega_hat_r", trace.omega_hat_r))
    svgplot.line_chart(speed_path, trace.t, series,
                       title="Rotor speed", xlabel="t [s]",
                       ylabel="rotor speed [rad/s]")
    return [csv_path, wind_path, speed_path]


def emit_certificate(gamma: float, beta: float, delay: float,
                     circle: CircleSpec, out_dir) -> tuple:
    """Write ``nyquist.csv``, ``verdict.json`` and ``nyquist.svg`` for one
    configuration; return ``(verdict, written paths)``."""
    verdict = stability.certify(gamma, beta, delay, circle)  # refuses bad gains first
    fr = stability.frequency_response(gamma, beta, delay,
                                      stability.default_omega_grid())
    os.makedirs(out_dir, exist_ok=True)
    csv_path, json_path, svg_path = (
        os.path.join(out_dir, name)
        for name in ("nyquist.csv", "verdict.json", "nyquist.svg"))
    g = fr.g_values
    _write_csv(csv_path, ["omega", "re", "im", "distance"],
               [fr.omega_grid, g.real, g.imag, np.abs(g - circle.center)])
    _write_json(json_path, {
        "verdict": "ConvergenceCertified" if verdict.certified else "NotCertified",
        "min_distance": verdict.min_distance,
        "argmin_omega": verdict.argmin_omega,
        "k1": circle.k1,
        "k2": circle.k2,
        "C": circle.center,
        "R": circle.radius,
        "alpha": circle.alpha,
    })
    svgplot.nyquist_chart(svg_path, g.real, g.imag, circle.center, circle.radius)
    return verdict, [csv_path, json_path, svg_path]
