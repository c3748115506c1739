"""Closed-loop scenarios: plant + quadratic torque law + estimator.

The estimator is a driven observer: the torque law acts on the measured
rotor speed, so nothing an estimator does feeds back into the plant.
:func:`run_shared_plant` is the one simulator.  It integrates the plant
once over a piecewise-constant wind schedule and drives every estimator
that shares that plant in lockstep, running each distinct scenario
once; :func:`run_scenario` is its one-estimator case.  The module also
classifies the resulting estimate traces and reproduces the six
standard case studies.  Each command writes its runs' CSV/JSON/SVG files
in one :func:`emit` call, and all their CSV files in one writer call that
formats each distinct column block once: the trace columns of one plant
pass, and the frequency grid of their certificates, once for all files.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from . import stability, svgplot
from .cp_model import CpCurve, default_cp_curve, read_curve_csv
from .estimators import EstimatorConfig, Family, init_estimator, step_estimator
from .exceptions import ConfigError, CurveError, EnvelopeError
from .stability import CircleSpec, DistanceVerdict, circle_from_gains
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
    "make_step_wind_scenario",
    "scenario_from_json",
    "read_trace_csv",
    "emit",
    "emit_outputs",
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
    initial_omega_r: float       # rad/s; None: the steady start
    initial_u_guess: float       # m/s

    def __post_init__(self):
        profile = tuple((float(t), float(u)) for t, u in self.wind_profile)
        object.__setattr__(self, "wind_profile", profile)
        if not profile:
            raise ConfigError("wind profile must contain at least one segment")
        if profile[0][0] != 0.0:
            raise ConfigError("first wind segment must start at t = 0")
        if not all(0 < u < math.inf for _, u in profile):
            raise ConfigError("wind speeds must be positive and finite")
        if not (0 < self.duration < math.inf and 0 < self.dt < math.inf):
            raise ConfigError("duration and dt must be positive and finite")
        starts = self.wind_steps()
        if not all(a < b for a, b in zip(starts, starts[1:])):
            raise ConfigError("wind segments must be strictly time-ordered")
        if starts[-1] >= self.n_steps():
            raise ConfigError("last wind segment starts after the run ends")
        delay = self.estimator.delay_T
        _grid_steps(delay, self.dt, "delay")
        if not delay < self.duration:
            raise ConfigError(f"delay {delay} is not shorter than the "
                              f"duration {self.duration}")
        if not 0 < self.controller_gain < math.inf:
            raise ConfigError("controller gain must be positive and finite")
        omega0, bound = self.initial_omega_r, self.turbine.omega_r_min
        if omega0 is None:  # the torque balance at the first wind level
            omega0 = steady_state_rotor_speed(
                self.turbine, self.curve, self.controller_gain, profile[0][1])
            object.__setattr__(self, "initial_omega_r", omega0)
        if not bound <= omega0 < math.inf:
            raise ConfigError(f"initial rotor speed {float(omega0)} must be "
                              f"finite and not below the lower bound {bound}")
        if not 0 < self.initial_u_guess < math.inf:
            raise ConfigError("initial wind speed guess must be positive and "
                              f"finite, got {float(self.initial_u_guess)}")

    def n_steps(self) -> int:
        return _grid_steps(self.duration, self.dt, "duration")

    def wind_steps(self) -> list:
        """Grid step at which each wind segment starts."""
        return [_grid_steps(t, self.dt, "wind start") for t, _ in self.wind_profile]


def _grid_steps(value: float, dt: float, what: str) -> int:
    """``value`` in whole steps of ``dt``; ConfigError unless it is one
    within 1e-9 relative."""
    steps = value / dt
    if not (abs(steps) < math.inf
            and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)):
        raise ConfigError(f"{what} {value} is not an integer multiple of dt {dt}")
    return round(steps)


@dataclass
class SimTrace:
    """Uniform-grid record of one closed-loop run.  The arrays that
    :func:`run_shared_plant` stores are read-only: traces share them."""

    scenario: Scenario
    t: np.ndarray
    u_true: np.ndarray
    omega_r: np.ndarray
    omega_hat_r: np.ndarray   # observer rotor speed
    u_hat: np.ndarray
    t_g: np.ndarray
    clamp_count: np.ndarray   # cumulative feedback-path envelope clamps
    stop_time: float = None   # guard trip time; None for a full run

    def __len__(self):
        return self.t.size

    @property
    def stopped_early(self) -> bool:
        return self.stop_time is not None

    @property
    def eps(self) -> np.ndarray:
        """Speed error ``omega_r - omega_hat_r``."""
        return self.omega_r - self.omega_hat_r


def run_scenario(scn: Scenario) -> SimTrace:
    """Co-simulate plant (RK4) and estimator (Euler) on the shared grid.

    The one-estimator case of :func:`run_shared_plant`.  Estimator
    divergence is recorded, not raised: the run stops early only when
    the estimate exceeds the divergence guard or goes non-finite, and
    the stop time is kept on the trace.
    """
    return run_shared_plant([scn])[0]


# Everything that determines the plant trajectory: all but the estimator.
_PLANT_FIELDS = tuple(f.name for f in fields(Scenario)
                      if f.name not in ("estimator", "initial_u_guess"))


def run_shared_plant(scenarios) -> list:
    """Drive every scenario's estimator from one plant integration.

    All scenarios must share the plant: every field but the estimator
    and its initial guess.  A mismatch raises :class:`ConfigError`
    naming the fields that differ.  Equal scenarios are run once.  At each
    grid step every live estimator is updated from the measured rotor
    speed, then the plant takes one RK4 step.  An estimator stops when
    its estimate exceeds the divergence guard or goes non-finite; the
    plant stops with the last live estimator, so an
    :class:`EnvelopeError` from the plant propagates only while some
    estimator is still running.  One trace is returned per scenario, in
    order, and each equals its solo :func:`run_scenario` bit for bit.
    The traces of one call share their ``t``, ``u_true``, ``omega_r``
    and ``t_g`` arrays, and equal scenarios share all of theirs, so every
    array is read-only.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    first = scenarios[0]
    differ = [name for name in _PLANT_FIELDS if any(
        getattr(scn, name) != getattr(first, name) for scn in scenarios[1:])]
    if differ:
        raise ConfigError("scenarios in one plant pass must share the plant; "
                          f"these differ: {', '.join(differ)}")
    params, curve = first.turbine, first.curve
    n = first.n_steps()
    dt = first.dt
    k_gain = first.controller_gain
    gear = params.gear_ratio

    # Wind per step: each level from its segment's start step on.  The
    # plant takes it as a Python float, so the whole step loop runs on
    # Python floats rather than slower numpy scalars.
    times = np.arange(n + 1) * dt
    levels = [u for _, u in first.wind_profile]
    u_arr = np.repeat(levels, np.diff(first.wind_steps() + [n + 1]))
    u_step = u_arr.tolist()

    omega = np.empty(n + 1)
    t_g = np.empty(n + 1)
    w = first.initial_omega_r
    # Per distinct scenario: (config, state, omega_hat, u_hat, clamps).
    runs = {scn: (scn.estimator,
                  init_estimator(scn.estimator, w, scn.initial_u_guess, dt),
                  np.empty(n + 1), np.empty(n + 1), np.zeros(n + 1))
            for scn in dict.fromkeys(scenarios)}
    stops = {}   # scenario -> step of its guard trip
    live = list(runs.items())

    for k in range(n + 1):
        gw = gear * w
        tg = k_gain * (gw * gw)  # x * x: pow() is not correctly rounded
        omega[k] = w
        t_g[k] = tg
        for scn, (config, state, omega_hat, u_hat, clamps) in live:
            omega_hat[k] = state.omega_hat_r
            uh = step_estimator(params, curve, state, w, tg, config)
            u_hat[k] = uh
            clamps[k] = state.clamp_count
            if not -DIVERGENCE_GUARD <= uh <= DIVERGENCE_GUARD:  # also NaN
                stops[scn] = k
        if len(live) + len(stops) > len(runs):  # an estimator tripped this step
            live = [run for run in live if run[0] not in stops]
            if not live:
                break
        if k < n:
            w = rk4_plant_step(params, curve, w, tg, u_step[k], dt)

    for arr in (times, u_arr, omega, t_g):
        arr.flags.writeable = False
    for _, _, *columns in runs.values():
        for arr in columns:
            arr.flags.writeable = False
    traces = []
    for scn in scenarios:
        _, _, omega_hat, u_hat, clamps = runs[scn]
        sl = slice(0, stops.get(scn, n) + 1)
        traces.append(SimTrace(
            scenario=scn,
            t=times[sl],
            u_true=u_arr[sl],
            omega_r=omega[sl],
            omega_hat_r=omega_hat[sl],
            u_hat=u_hat[sl],
            t_g=t_g[sl],
            clamp_count=clamps[sl],
            stop_time=times[stops[scn]] if scn in stops else None,
        ))
    return traces


def classify_trace(trace: SimTrace) -> str:
    """One of 'converged', 'oscillatory', 'diverged'.

    Precedence: divergence first (guard trip, or strictly growing
    trailing peak-to-peak windows at the end of the run), then the
    per-segment settling test, else oscillatory.
    """
    if trace.stopped_early:
        return "diverged"

    segments = np.split(np.arange(len(trace)), trace.scenario.wind_steps()[1:])

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


def make_step_wind_scenario(gamma: float, beta: float, delay_T: float,
                            family: Family = Family.PI,
                            wind_profile=None,
                            duration: float = _STEP_DURATION,
                            dt: float = _DEFAULT_DT) -> Scenario:
    """Stepwise-wind scenario with fixture defaults (5/7/9 m/s levels): the
    :func:`scenario_from_json` spec with every other field at its default."""
    return scenario_from_json({
        "wind_profile": wind_profile or _STEP_WIND,
        "duration": duration,
        "dt": dt,
        "estimator": {"family": Family(family).value, "gamma": gamma,
                      "beta": beta, "delay": delay_T},
    })


def _certify(trace: SimTrace, circle: CircleSpec) -> DistanceVerdict:
    """Verdict on the trace's estimator gains against ``circle``."""
    cfg = trace.scenario.estimator
    return stability.certify(cfg.gamma, cfg.beta, cfg.delay_T, circle)


def _case_row(name: str, trace: SimTrace, verdict: DistanceVerdict) -> dict:
    """One ``report.json`` row: configuration, verdict and simulation label."""
    cfg = trace.scenario.estimator
    label = classify_trace(trace)
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

    All eight runs share one plant pass, and each case is certified once
    for both its report row and its certificate files."""
    circle = case_study_circle()
    scenarios = {name: make_step_wind_scenario(g, b, t)
                 for name, g, b, t in CASE_STUDIES}
    scenarios["pi_gamma80"] = make_step_wind_scenario(80.0, 4.0, 0.3)
    scenarios["iandi_gamma80"] = make_step_wind_scenario(
        80.0, 0.0, 0.3, family=Family.IANDI)
    traces = dict(zip(scenarios, run_shared_plant(scenarios.values())))
    verdicts = {name: _certify(trace, circle) for name, trace in traces.items()}
    rows = [_case_row(name, trace, verdicts[name])
            for name, trace in traces.items()]

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
        "circle": circle.as_dict(),
        "cases": rows[:len(CASE_STUDIES)],
        "gain_comparison": rows[len(CASE_STUDIES):],
        "beta_margin": {"gamma": 40.0, "delay": 0.3, "value": beta_margin},
        "delay_margin": {"gamma": 40.0, "beta": 10.0, "value": delay_margin,
                         "inconsistent_with_case6": margin_inconsistent},
    }

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "report.json"), report)
        emit([(os.path.join(out_dir, name), trace, verdicts[name])
              for name, trace in traces.items()])
    return report


# ---------------------------------------------------------------------------
# Serialization

_TRACE_COLUMNS = ["t", "u_true", "omega_r", "omega_hat_r", "eps",
                  "u_hat", "t_g", "clamp_count"]

# Rows per formatted chunk: bounds the strings alive at once, which one
# emit call formats for every trace and certificate CSV of a command.
_CSV_CHUNK = 512


def _write_csvs(files) -> None:
    """Write ``(path, header, columns)`` files of ``repr(float)`` rows, each
    as long as its shortest column; re-reading reproduces the values
    bit-exactly.

    The files advance together ``_CSV_CHUNK`` rows at a time.  Within a
    chunk, a column block with the bytes of a block already formatted,
    in any file, reuses its strings; keying on bytes keeps ``0.0`` and
    ``-0.0`` apart.  Rows end in ``"\r\n"`` and no ``repr`` of a float
    holds a comma, quote or line break, so the bytes are those of
    ``csv.writer`` (whose headers here need no quoting either)."""
    files = [(path, header, [np.asarray(c, dtype=np.float64) for c in columns])
             for path, header, columns in files]
    lengths = [min(map(len, columns), default=0) for _, _, columns in files]
    handles = []
    try:
        for path, header, _ in files:
            handles.append(open(path, "w", newline="", encoding="utf-8"))
            handles[-1].write(",".join(header) + "\r\n")
        for start in range(0, max(lengths, default=0), _CSV_CHUNK):
            formatted = {}
            for fh, (_, _, columns), n in zip(handles, files, lengths):
                if start >= n:
                    continue
                strs = []
                for c in columns:
                    block = c[start:min(start + _CSV_CHUNK, n)]
                    key = block.tobytes()
                    if key not in formatted:  # tolist(): float, not np.float64
                        formatted[key] = list(map(repr, block.tolist()))
                    strs.append(formatted[key])
                fh.write("\r\n".join(map(",".join, zip(*strs))) + "\r\n")
    finally:
        for fh in handles:
            fh.close()


def _write_json(path, obj) -> None:
    """``obj`` as two-space-indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_trace_csv(path) -> dict:
    """Read a trace CSV back into named float arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _TRACE_COLUMNS:
            raise ConfigError(f"{path}: unexpected trace header {header}")
        rows = []
        for row in filter(None, reader):  # skips blank lines
            if len(row) != len(header):
                raise ConfigError(f"{path}: line {reader.line_num} has {len(row)} "
                                  f"fields, not {len(header)}: {','.join(row)!r}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ConfigError(f"{path}: line {reader.line_num} has a field "
                                  f"that is not a number: {','.join(row)!r}") from None
    data = np.array(rows, dtype=float)
    if data.size == 0:
        raise ConfigError(f"{path}: empty trace")
    return {name: data[:, i] for i, name in enumerate(_TRACE_COLUMNS)}


def scenario_from_json(spec: dict) -> Scenario:
    """Build a scenario from the documented JSON schema.  Missing or ill-typed
    fields raise ``ConfigError("malformed scenario: ...")``; validation
    errors (ConfigError, EnvelopeError, CurveError) keep their type."""
    try:
        profile = [(_number(t, "wind_profile start"), _number(u, "wind_profile speed"))
                   for t, u in spec["wind_profile"]]
        duration = _number(spec["duration"], "duration")
        dt = _number(spec.get("dt", _DEFAULT_DT), "dt")
        est = spec["estimator"]

        turbine = spec.get("turbine", "default")
        if turbine == "default":
            params = default_turbine_params()
        elif isinstance(turbine, dict):
            params = TurbineParams(**{key: _number(value, f"turbine.{key}")
                                      for key, value in turbine.items()})
        else:
            params = load_params_file(os.fspath(turbine))  # open() takes an int as an fd

        curve_spec = spec.get("cp_curve", "default")
        curve = (default_cp_curve() if curve_spec == "default"
                 else read_curve_csv(os.fspath(curve_spec)))

        gain = spec.get("controller_gain", "optimal")
        k_opt = (optimal_torque_gain(params, curve) if gain == "optimal"
                 else _number(gain, "controller_gain"))

        config = EstimatorConfig(
            family=Family(est.get("family", "pi")),
            gamma=_number(est["gamma"], "estimator.gamma"),
            beta=_number(est.get("beta", 0.0), "estimator.beta"),
            delay_T=_number(est.get("delay", 0.0), "estimator.delay"),
        )

        initial = spec.get("initial", {})
        omega0 = initial.get("omega_r", "steady")
        omega0 = None if omega0 == "steady" else _number(omega0, "initial.omega_r")
        u_guess = _number(initial.get("u_guess", _DEFAULT_U_GUESS), "initial.u_guess")

        return Scenario(wind_profile=profile, duration=duration, dt=dt,
                        turbine=params, curve=curve, controller_gain=k_opt,
                        estimator=config, initial_omega_r=omega0,
                        initial_u_guess=u_guess)
    except (ConfigError, EnvelopeError, CurveError):
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"malformed scenario: {detail}") from exc


def _number(value, name: str) -> float:
    """``value`` as a float if it is a real number other than a bool (a JSON
    number, or a numpy scalar from a caller in Python); TypeError for
    anything else, such as ``"7"`` or ``true``, which ``float()`` would
    take.  OverflowError for an int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def emit_outputs(trace: SimTrace, out_dir, circle: CircleSpec) -> list:
    """Certify the trace's estimator gains against ``circle`` and
    :func:`emit` the run; return its paths.  No command calls it: it
    keeps this signature for the benchmark's warm-up and tracer, which
    measure emission through it."""
    return emit([(out_dir, trace, _certify(trace, circle))])[0]


def emit(runs) -> list:
    """Write every file of the ``(out_dir, trace, verdict)`` runs; return
    each run's paths: ``trace.csv``, ``timeseries.svg`` and
    ``rotor_speed.svg`` unless ``trace`` is None, then ``nyquist.csv``,
    ``verdict.json`` and ``nyquist.svg``.  An empty trace is refused
    before any directory is made.  :func:`read_trace_csv` reproduces a
    ``trace.csv`` bit-exactly; long traces are charted at plot resolution
    (see :mod:`rews.svgplot`).  All the CSV files go out in one
    :func:`_write_csvs` call, which formats a shared column block once."""
    runs = list(runs)
    if any(trace is not None and len(trace) == 0 for _, trace, _ in runs):
        raise ConfigError("refusing to write an empty trace")
    written, csvs = [], []
    for out_dir, trace, verdict in runs:
        os.makedirs(out_dir, exist_ok=True)
        names = ("nyquist.csv", "verdict.json", "nyquist.svg")
        if trace is not None:
            names = ("trace.csv", "timeseries.svg", "rotor_speed.svg") + names
            csvs.append((os.path.join(out_dir, "trace.csv"), _TRACE_COLUMNS,
                         [getattr(trace, c) for c in _TRACE_COLUMNS]))
        paths = [os.path.join(out_dir, name) for name in names]
        written.append(paths)
        fr, circle = verdict.locus, verdict.circle
        g = fr.g_values
        csvs.append((paths[-3], ["omega", "re", "im", "distance"],
                     [fr.omega_grid, g.real, g.imag, np.abs(g - circle.center)]))
    _write_csvs(csvs)
    del csvs  # frees the eps columns before the charts: lowers peak memory
    for (_, trace, verdict), paths in zip(runs, written):
        if trace is not None:
            svgplot.line_chart(paths[1], trace.t,
                               [("U", trace.u_true), ("U_hat", trace.u_hat)],
                               title="Wind speed estimate", xlabel="t [s]",
                               ylabel="wind speed [m/s]")
            svgplot.line_chart(paths[2], trace.t,
                               [("omega_r", trace.omega_r),
                                ("omega_hat_r", trace.omega_hat_r)],
                               title="Rotor speed", xlabel="t [s]",
                               ylabel="rotor speed [rad/s]")
        g, circle = verdict.locus.g_values, verdict.circle
        _write_json(paths[-2], verdict.as_dict())
        svgplot.nyquist_chart(paths[-1], g.real, g.imag, circle.center, circle.radius)
    return written
