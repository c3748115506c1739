import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import rews
from rews import harness, stability, svgplot
from rews.estimators import Family, init_estimator, step_estimator
from rews.exceptions import ConfigError, CurveError, EnvelopeError
from rews.harness import (_CSV_CHUNK, _TRACE_COLUMNS, CASE_STUDIES, Scenario,
                          SimTrace, _write_csvs, _write_json, case_study_circle,
                          classify_trace, emit, emit_outputs, make_step_wind_scenario,
                          read_trace_csv, run_case_studies, run_scenario,
                          run_shared_plant, scenario_from_json)
from rews.stability import certify
from rews.turbine import rk4_plant_step, steady_state_rotor_speed
from rews.cli import main as cli_main
from rews.cp_model import load_cp_curve

from conftest import assert_m4


def _scenario(gamma=40.0, beta=10.0, delay_T=0.0, family=Family.PI,
              wind_profile=((0.0, 7.0),), duration=30.0, dt=0.01):
    """A scenario built from its JSON spec, every other field at its default."""
    return scenario_from_json({
        "wind_profile": wind_profile, "duration": duration, "dt": dt,
        "estimator": {"family": Family(family).value, "gamma": gamma,
                      "beta": beta, "delay": delay_T}})


def _verdict(trace):
    """The trace's estimator gains certified against the case-study disk."""
    cfg = trace.scenario.estimator
    return certify(cfg.gamma, cfg.beta, cfg.delay_T, case_study_circle())


def _drop_traces(monkeypatch):
    """Make ``harness.emit`` write the certificate files only."""
    write = harness.emit
    monkeypatch.setattr(harness, "emit", lambda runs: write(
        [(out_dir, None, verdict) for out_dir, _, verdict in runs]))


class TestScenarioValidation:
    def test_empty_profile_rejected(self):
        scn = _scenario()
        with pytest.raises(ConfigError, match="at least one"):
            Scenario(
                wind_profile=(), duration=scn.duration, dt=scn.dt,
                turbine=scn.turbine, curve=scn.curve,
                controller_gain=scn.controller_gain, estimator=scn.estimator,
                initial_omega_r=scn.initial_omega_r,
                initial_u_guess=scn.initial_u_guess)
        with pytest.raises(ConfigError, match="at least one"):
            make_step_wind_scenario(40.0, 10.0, 0.0, wind_profile=[])

    def test_first_segment_must_start_at_zero(self):
        with pytest.raises(ConfigError, match="t = 0"):
            _scenario(wind_profile=[(1.0, 7.0)])

    def test_segments_must_be_ordered(self):
        with pytest.raises(ConfigError, match="ordered"):
            _scenario(wind_profile=[(0.0, 5.0), (20.0, 7.0), (20.0, 9.0)])

    def test_wind_must_be_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            _scenario(wind_profile=[(0.0, 5.0), (10.0, -7.0)])

    def test_last_segment_inside_run(self):
        with pytest.raises(ConfigError, match="after the run ends"):
            _scenario(wind_profile=[(0.0, 5.0), (30.0, 7.0)], duration=30.0)

    def test_duration_and_wind_starts_must_be_grid_multiples(self):
        with pytest.raises(ConfigError,
                           match="duration 30.005 is not an integer multiple"):
            _scenario(duration=30.005)
        with pytest.raises(ConfigError,
                           match="wind start 10.005 is not an integer multiple"):
            _scenario(wind_profile=[(0.0, 5.0), (10.005, 7.0)])
        with pytest.raises(ConfigError, match="wind start 0.04 is not"):
            _scenario(wind_profile=[(0.0, 5.0), (0.04, 7.0)], dt=0.03,
                      duration=30.0)
        # Within 1e-9 relative of a whole step, as for the delay.
        scn = _scenario(wind_profile=[(0.0, 5.0), (18.6, 7.0)], dt=0.03)
        assert scn.wind_steps() == [0, 620]
        assert scn.n_steps() == 1000

    def test_delay_must_be_grid_multiple(self):
        with pytest.raises(ConfigError, match="multiple"):
            _scenario(delay_T=0.305)
        with pytest.raises(ConfigError, match="multiple"):
            _scenario(delay_T=0.3, dt=0.04)
        with pytest.raises(ConfigError, match="delay must be .* got inf"):
            _scenario(delay_T=math.inf)
        scn = _scenario(delay_T=0.3, dt=0.01)
        assert len(init_estimator(scn.estimator, scn.initial_omega_r,
                                  scn.initial_u_guess, scn.dt).delay_line) == 30

    @pytest.mark.parametrize("overrides", [
        {"duration": math.nan}, {"duration": math.inf}, {"dt": math.nan},
        {"dt": math.inf}, {"wind_profile": [(0.0, math.nan)]},
        {"wind_profile": [(0.0, 5.0), (10.0, math.inf)]},
        {"wind_profile": [(0.0, 5.0), (math.nan, 7.0)]},
        {"controller_gain": math.nan}, {"initial_omega_r": math.nan},
        {"initial_u_guess": math.nan}, {"initial_u_guess": math.inf},
    ], ids=["duration-nan", "duration-inf", "dt-nan", "dt-inf", "wind-nan",
            "wind-inf", "start-nan", "gain-nan", "omega-nan", "guess-nan",
            "guess-inf"])
    def test_non_finite_numbers_rejected(self, overrides):
        with pytest.raises(ConfigError):
            run_scenario(dataclasses.replace(_scenario(), **overrides))

    def test_scenarios_compare_and_hash(self):
        a = make_step_wind_scenario(40, 10, 0.3)
        # The same table, built into a second curve object.
        curve = load_cp_curve(zip(a.curve.lambda_grid, a.curve.cp_values))
        b = dataclasses.replace(a, curve=curve)
        assert a.curve is not b.curve
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_step_wind_scenario(40, 10, 0.6)

    def test_wind_at_piecewise_lookup(self):
        scn = _scenario(wind_profile=[(0.0, 5.0), (10.0, 7.0)], duration=30.0)
        trace = run_scenario(scn)

        def wind_at(t):
            k = int(round(t / scn.dt))
            assert trace.t[k] == pytest.approx(t)
            return trace.u_true[k]
        assert wind_at(0.0) == 5.0
        assert wind_at(9.99) == 5.0
        assert wind_at(10.0) == 7.0
        assert wind_at(29.0) == 7.0


class TestTimeGrid:
    # At dt = 0.03, step 620 sits at t = 18.599999999999998, just below the
    # 18.6 s wind start; plant and classifier both go by the step index.
    def _trace(self):
        return run_scenario(_scenario(
            wind_profile=[(0, 7), (18.6, 8)], duration=30, dt=0.03))

    def test_wind_switches_at_the_start_step(self):
        trace = self._trace()
        assert trace.t[620] < 18.6
        assert trace.u_true[619] == 7.0
        assert trace.u_true[620] == 8.0
        assert np.array_equal(trace.u_true,
                              np.repeat([7.0, 8.0], [620, len(trace) - 620]))

    def test_classifier_segments_equal_the_wind_map(self, monkeypatch):
        trace = self._trace()
        seen = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def split(self, idx, starts):
                parts = np.split(idx, starts)
                seen.extend(parts)
                return parts

        monkeypatch.setattr(harness, "np", RecordingNumpy())
        classify_trace(trace)
        assert len(seen) == 2
        for idx, level in zip(seen, (7.0, 8.0)):
            assert np.all(trace.u_true[idx] == level)
        assert np.array_equal(np.concatenate(seen), np.arange(len(trace)))


class TestRunScenario:
    def test_record_count(self):
        scn = _scenario(duration=30.0)
        trace = run_scenario(scn)
        assert len(trace) == int(round(30.0 / scn.dt)) + 1
        assert trace.t[0] == 0.0
        assert trace.t[1] == scn.dt
        assert trace.t[-1] == pytest.approx(30.0)

    def test_first_estimate_is_the_guess(self):
        scn = _scenario()
        trace = run_scenario(scn)
        assert trace.u_hat[0] == pytest.approx(scn.initial_u_guess, rel=1e-12)

    def test_divergence_guard_stops_early(self):
        scn = make_step_wind_scenario(
            100.0, 200.0, 0.3,
            wind_profile=[(0.0, 5.0), (30.0, 7.0), (60.0, 9.0)],
            duration=120.0)
        trace = run_scenario(scn)
        assert trace.stopped_early
        assert trace.stop_time is not None and trace.stop_time < 120.0
        assert len(trace) < scn.n_steps() + 1
        assert classify_trace(trace) == "diverged"

    def test_stop_time_is_the_one_record_of_the_stop(self):
        trace = run_scenario(make_step_wind_scenario(
            100.0, 200.0, 0.3, wind_profile=[(0.0, 5.0), (30.0, 7.0)],
            duration=120.0))
        assert trace.stopped_early and trace.stop_time == trace.t[-1]
        with pytest.raises(AttributeError):
            trace.stopped_early = False
        assert not dataclasses.replace(trace, stop_time=None).stopped_early
        assert "stopped_early" not in {f.name for f in dataclasses.fields(SimTrace)}

    def test_speed_error_is_derived_from_the_recorded_speeds(self):
        trace = run_scenario(_scenario(delay_T=0.3, duration=5.0))
        assert "eps" not in {f.name for f in dataclasses.fields(SimTrace)}
        expected = trace.omega_r - trace.omega_hat_r
        assert trace.eps.tobytes() == expected.tobytes()
        assert np.any(trace.eps != 0.0)

    def test_internal_state_family_runs_the_proportional_observer(self):
        # I&I runs the proportional observer, so with equal gains its
        # trace is the P trace, observer columns included.
        for delay in (0.0, 0.3):
            iandi, p = (run_scenario(_scenario(family=family, beta=0.0,
                                               delay_T=delay))
                        for family in (Family.IANDI, Family.EQUIV_P))
            for name in _TRACE_COLUMNS:
                assert np.array_equal(getattr(iandi, name), getattr(p, name)), name
                assert np.all(np.isfinite(getattr(iandi, name))), name


# An 11 -> 4 m/s step at t = 100 s throws the plant out of the C_p
# envelope (tip-speed ratio about 20.6) on its first step after the drop.
_DROP = dict(wind_profile=[(0.0, 11.0), (100.0, 4.0)], duration=150.0)


class TestSharedPlant:
    def test_case_studies_together_equal_solo_runs(self):
        scenarios = [make_step_wind_scenario(g, b, t)
                     for _, g, b, t in CASE_STUDIES]
        scenarios += [make_step_wind_scenario(80.0, 4.0, 0.3),
                      make_step_wind_scenario(80.0, 0.0, 0.3,
                                              family=Family.IANDI)]
        shared = run_shared_plant(scenarios)
        assert any(tr.stopped_early for tr in shared)
        for scn, together in zip(scenarios, shared):
            solo = run_scenario(scn)
            assert together.scenario is scn
            assert together.stopped_early == solo.stopped_early
            assert together.stop_time == solo.stop_time
            for name in _TRACE_COLUMNS:
                assert np.array_equal(getattr(together, name),
                                      getattr(solo, name)), name
            for name in ("omega_hat_r", "eps"):
                assert np.all(np.isfinite(getattr(together, name))), name

    def test_step_loop_runs_on_python_floats(self, monkeypatch):
        # numpy scalars give the same bits several times slower.
        seen = []

        def plant(params, curve, omega_r, t_g, u, dt):
            seen.extend((omega_r, t_g, u))
            return rk4_plant_step(params, curve, omega_r, t_g, u, dt)

        def estimator(params, curve, state, omega_r, t_g, config):
            u_hat = step_estimator(params, curve, state, omega_r, t_g, config)
            seen.extend((omega_r, t_g, u_hat))
            return u_hat

        monkeypatch.setattr(harness, "rk4_plant_step", plant)
        monkeypatch.setattr(harness, "step_estimator", estimator)
        traces = run_shared_plant([
            _scenario(duration=1.0, wind_profile=[(0.0, 7.0), (0.5, 8.0)]),
            _scenario(duration=1.0, wind_profile=[(0.0, 7.0), (0.5, 8.0)],
                      family=Family.IANDI, beta=0.0, delay_T=0.3)])
        assert len(seen) == 3 * (100 + 2 * 101)
        assert {type(x) for x in seen} == {float}
        assert all(tr.u_true.dtype == np.float64 for tr in traces)

    def test_equal_scenarios_run_once(self, monkeypatch):
        calls = []

        def counting(params, curve, state, omega_r, t_g, config):
            calls.append(state)
            return step_estimator(params, curve, state, omega_r, t_g, config)

        scenarios = [_scenario(duration=1.0, delay_T=0.3)]
        scenarios.append(dataclasses.replace(scenarios[0]))
        monkeypatch.setattr(harness, "step_estimator", counting)
        first, second = run_shared_plant(scenarios)
        assert len(calls) == scenarios[0].n_steps() + 1
        assert len({id(state) for state in calls}) == 1
        assert first.scenario is scenarios[0] and second.scenario is scenarios[1]
        for name in _TRACE_COLUMNS:
            assert np.array_equal(getattr(first, name), getattr(second, name)), name

    def test_trace_arrays_are_read_only(self):
        # Traces of one pass share arrays, so a write must not reach another.
        scn = _scenario(duration=1.0)
        traces = run_shared_plant([scn, scn, _scenario(duration=1.0, gamma=80.0)])
        fields = [f.name for f in dataclasses.fields(SimTrace)
                  if isinstance(getattr(traces[0], f.name), np.ndarray)]
        assert len(fields) == 7
        for trace in traces:
            for name in fields:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(trace, name)[0] = 1.0
        assert traces[1].omega_r[0] == scn.initial_omega_r

    def test_guard_trip_before_the_plant_leaves_the_envelope(self):
        # The long-delay loop trips the divergence guard at about 98.6 s,
        # before the drop: the run is recorded, not raised.
        trace = run_scenario(make_step_wind_scenario(40.0, 10.0, 2.0, **_DROP))
        assert trace.stopped_early
        assert trace.stop_time < 100.0
        assert classify_trace(trace) == "diverged"

    def test_plant_failure_raises_while_an_estimator_is_live(self):
        tripping = make_step_wind_scenario(40.0, 10.0, 2.0, **_DROP)
        live = make_step_wind_scenario(40.0, 10.0, 0.3, **_DROP)
        with pytest.raises(EnvelopeError):
            run_shared_plant([tripping, live])

    def test_envelope_message_uses_plain_floats(self):
        with pytest.raises(EnvelopeError) as info:
            run_scenario(make_step_wind_scenario(40.0, 10.0, 0.3, **_DROP))
        message = str(info.value)
        assert "np.float64" not in message
        assert "tip-speed ratio 20.6" in message

    def test_plant_keys_must_match(self):
        base = _scenario(duration=10.0)
        others = [
            _scenario(duration=10.0, wind_profile=[(0.0, 8.0)]),
            _scenario(duration=20.0),
            _scenario(duration=10.0, dt=0.02),
            dataclasses.replace(_scenario(duration=10.0, gamma=80.0),
                                initial_u_guess=6.0),
        ]
        assert len(run_shared_plant([base, others[-1]])) == 2
        for other in others[:-1]:
            with pytest.raises(ConfigError, match="share"):
                run_shared_plant([base, other])
        with pytest.raises(ConfigError, match="share"):
            run_shared_plant([base, Scenario(
                wind_profile=base.wind_profile, duration=base.duration,
                dt=base.dt, turbine=base.turbine, curve=base.curve,
                controller_gain=base.controller_gain * 1.01,
                estimator=base.estimator,
                initial_omega_r=base.initial_omega_r,
                initial_u_guess=base.initial_u_guess)])
        assert run_shared_plant([]) == []

    def test_plant_mismatch_names_the_fields_that_differ(self):
        base = _scenario(duration=10.0)
        other = dataclasses.replace(
            _scenario(duration=10.0, gamma=80.0, wind_profile=[(0.0, 8.0)]),
            controller_gain=base.controller_gain * 1.01,
            initial_omega_r=base.initial_omega_r, initial_u_guess=6.0)
        with pytest.raises(ConfigError, match=(
                r"^scenarios in one plant pass must share the plant; these "
                r"differ: wind_profile, controller_gain$")):
            run_shared_plant([base, base, other])


class TestClassifier:
    def test_converged_label(self):
        trace = run_scenario(_scenario(duration=60.0))
        assert classify_trace(trace) == "converged"
        tail = trace.u_hat[-100:]
        assert np.max(np.abs(tail - trace.u_true[-100:])) < 0.05

    def test_oscillatory_label(self):
        # A long loop delay sustains a limit cycle without tripping the
        # divergence guard.
        scn = make_step_wind_scenario(
            40.0, 10.0, 1.4, wind_profile=[(0.0, 5.0), (30.0, 7.0)],
            duration=120.0)
        trace = run_scenario(scn)
        assert classify_trace(trace) == "oscillatory"
        assert not trace.stopped_early


class TestConcordance:
    def test_six_reference_configs(self):
        # Certification is sufficient, not necessary: every certified
        # configuration must simulate as converged; refusals carry no
        # simulation obligation.
        circle = case_study_circle()
        for name, gamma, beta, delay in CASE_STUDIES:
            verdict = certify(gamma, beta, delay, circle)
            if verdict.certified:
                trace = run_scenario(make_step_wind_scenario(gamma, beta, delay))
                assert classify_trace(trace) == "converged", name

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP items 1 and 2: the certificate checks neither encirclement "
        "nor the sampled loop, so these are certified and diverge"))
    def test_known_unsound_certificates(self):
        # Certified against the case-study disk, yet on a 5 -> 7 m/s step the
        # PI loops trip the divergence guard at 51.12, 85.66 and 85.84 s, and
        # on a 9 -> 11 m/s step the P loop at gamma = 10000 diverges without
        # tripping it.
        circle = case_study_circle()
        step_5_7 = {"wind_profile": [(0.0, 5.0), (150.0, 7.0)], "duration": 180.0}
        step_9_11 = {"wind_profile": [(0.0, 9.0), (60.0, 11.0)], "duration": 120.0}
        configs = [(23.0, 134.0, 1.0, Family.PI, step_5_7),
                   (38.3, 48.4, 1.57, Family.PI, step_5_7),
                   (30.2, 50.3, 1.07, Family.PI, step_5_7),
                   (10000.0, 0.0, 0.0, Family.EQUIV_P, step_9_11)]
        # Every configuration is judged before the assert, so each one keeps
        # the test failing until the certificate refuses it.
        unsound = [(gamma, beta, delay)
                   for gamma, beta, delay, family, wind in configs
                   if certify(gamma, beta, delay, circle).certified
                   and classify_trace(run_scenario(make_step_wind_scenario(
                       gamma, beta, delay, family=family, **wind))) != "converged"]
        assert not unsound, unsound

    def test_randomized_configs(self):
        circle = case_study_circle()
        rng = np.random.default_rng(1234)
        profile = [(0.0, 5.0), (100.0, 7.0)]
        certified_seen = 0
        for _ in range(20):
            gamma = rng.uniform(30.0, 100.0)
            beta = rng.uniform(0.0, 15.0)
            delay = 0.01 * rng.integers(0, 51)
            if not certify(gamma, beta, delay, circle).certified:
                continue
            certified_seen += 1
            trace = run_scenario(make_step_wind_scenario(
                gamma, beta, delay, wind_profile=profile, duration=200.0))
            assert classify_trace(trace) == "converged"
        assert certified_seen > 0


class TestSerialization:
    def test_trace_csv_round_trip_bit_exact(self, tmp_path):
        trace = run_scenario(_scenario(family=Family.IANDI, beta=0.0,
                                       duration=5.0))
        emit([(tmp_path, trace, _verdict(trace))])
        data = read_trace_csv(tmp_path / "trace.csv")
        for name in _TRACE_COLUMNS:
            assert np.array_equal(data[name], getattr(trace, name)), name

    # One chunk, a chunk's end and a file ending mid-chunk at the current
    # chunk size, plus the fixed lengths 1024 and 2055 (whole chunks, and
    # several chunks ending mid-chunk, at any power-of-two size up to 1024).
    @pytest.mark.parametrize(
        "n", sorted({1, _CSV_CHUNK, 2 * _CSV_CHUNK + 7, 1024, 2055}))
    def test_write_csv_bytes_match_repr_rows(self, tmp_path, n):
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1]
        rng = np.random.default_rng(n)
        g = (rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
             + 1j * rng.normal(size=n))
        columns = [np.resize(special, n),
                   np.arange(n) - 3,           # integer-valued
                   g.real,                     # non-contiguous view
                   rng.normal(size=n)]
        header = ["special", "count", "re", "normal"]
        for cols in (columns, columns[1:2]):   # mixed, then integers alone
            expected = tmp_path / "expected.csv"
            with open(expected, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header[:len(cols)])
                for row in zip(*cols):
                    writer.writerow([repr(float(v)) for v in row])
            path = tmp_path / "out.csv"
            _write_csvs([(path, header[:len(cols)], cols)])
            assert path.read_bytes() == expected.read_bytes()
            assert path.read_bytes().count(b"\r\n") == n + 1

    def test_write_csvs_bytes_match_csv_writer(self, tmp_path):
        # Files written together share formatted blocks; each file's bytes
        # must still equal csv.writer over repr(float) of its own columns.
        n = 2 * _CSV_CHUNK + 7
        rng = np.random.default_rng(26)
        shared = rng.normal(size=n)
        zeros = np.zeros(n)
        negative_zeros = zeros.copy()
        negative_zeros[_CSV_CHUNK + 3] = -0.0
        special = np.resize([np.nan, np.inf, -np.inf, 1.0], n)
        files = {
            "a.csv": (["shared", "zero", "special"], [shared, zeros, special]),
            "b.csv": (["shared", "zero", "own"],
                      [shared, negative_zeros, rng.normal(size=n)]),
            "dup.csv": (["shared", "zero", "special"], [shared, zeros, special]),
            # Ends mid-chunk, so its blocks are shorter than the others'.
            "short.csv": (["shared", "special"],
                          [shared[:_CSV_CHUNK + 5], special[:_CSV_CHUNK + 5]]),
            "empty.csv": (["x"], [zeros[:0]]),
        }
        _write_csvs([(tmp_path / name, header, cols)
                     for name, (header, cols) in files.items()])
        for name, (header, cols) in files.items():
            expected = io.StringIO(newline="")
            writer = csv.writer(expected)
            writer.writerow(header)
            writer.writerows([repr(float(v)) for v in row] for row in zip(*cols))
            assert (tmp_path / name).read_bytes() == expected.getvalue().encode(), name
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "dup.csv").read_bytes()
        row = (tmp_path / "b.csv").read_text().splitlines()[_CSV_CHUNK + 4]
        assert row.split(",")[1] == "-0.0"

    def test_trace_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("a,b\n1,2\n", ""):  # another header, then none
            path.write_text(text)
            with pytest.raises(ConfigError, match="header"):
                read_trace_csv(path)

    def test_trace_csv_without_rows_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(_TRACE_COLUMNS) + "\n\n")
        with pytest.raises(ConfigError) as info:
            read_trace_csv(path)
        assert str(info.value) == f"{path}: empty trace"

    @pytest.mark.parametrize("row, message", [
        ("0.0,5.0,0.5", "line 3 has 3 fields, not 8: '0.0,5.0,0.5'"),
        ("0.0,5.0,0.5,0.5,0.0,x,0.0,0.0",
         "line 3 has a field that is not a number: '0.0,5.0,0.5,0.5,0.0,x,0.0,0.0'"),
    ], ids=["short-row", "not-a-number"])
    def test_trace_csv_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(_TRACE_COLUMNS) + "\n0,5,0.5,0.5,0,5,0,0\n"
                        + row + "\n")
        with pytest.raises(ConfigError) as info:
            read_trace_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_empty_trace_refused(self, tmp_path):
        trace = run_scenario(_scenario(duration=5.0))
        empty = SimTrace(
            scenario=trace.scenario,
            **{c: getattr(trace, c)[:0] for c in _TRACE_COLUMNS if c != "eps"})
        verdict = _verdict(trace)
        with pytest.raises(ConfigError):
            emit([(tmp_path / "full", trace, verdict),
                  (tmp_path / "empty", empty, verdict)])
        assert not (tmp_path / "full").exists()
        assert not (tmp_path / "empty").exists()
        with pytest.raises(ConfigError):
            emit_outputs(empty, tmp_path / "empty", circle=case_study_circle())


class TestScenarioFromJson:
    def test_defaults(self):
        scn = scenario_from_json({
            "wind_profile": [[0.0, 5.0], [30.0, 7.0]],
            "duration": 60.0,
            "estimator": {"family": "pi", "gamma": 40.0, "beta": 10.0,
                          "delay": 0.3},
        })
        assert scn.dt == 0.01
        assert scn.estimator.gamma == 40.0
        assert scn.estimator.delay_T == 0.3
        # "steady" initial speed puts the plant at the peak tip-speed ratio.
        lam0 = scn.initial_omega_r * scn.turbine.rotor_radius / 5.0
        assert lam0 == pytest.approx(scn.curve.lambda_star, rel=1e-9)

    def test_steady_start_is_the_explicit_balance(self):
        spec = {"wind_profile": [[0.0, 6.5], [20.0, 9.0]], "duration": 40.0,
                "controller_gain": 1.0,
                "estimator": {"family": "pi", "gamma": 40.0, "beta": 10.0}}
        steady = scenario_from_json(dict(spec, initial={"omega_r": "steady"}))
        assert steady == scenario_from_json(spec)
        omega0 = steady_state_rotor_speed(steady.turbine, steady.curve, 1.0, 6.5)
        explicit = scenario_from_json(dict(spec, initial={"omega_r": omega0}))
        assert explicit == steady
        assert hash(explicit) == hash(steady)
        assert steady.initial_omega_r == omega0
        # None asks the constructor for the same balance.
        assert dataclasses.replace(steady, initial_omega_r=None) == steady
        # Off the C_p peak the estimate still settles on the true wind.
        assert classify_trace(run_scenario(steady)) == "converged"

    def test_explicit_initial_conditions(self):
        scn = scenario_from_json({
            "wind_profile": [[0.0, 7.0]],
            "duration": 30.0,
            "estimator": {"family": "p", "gamma": 40.0},
            "initial": {"omega_r": 0.8, "u_guess": 6.0},
        })
        assert scn.initial_omega_r == 0.8
        assert scn.initial_u_guess == 6.0
        assert scn.estimator.family is Family.EQUIV_P

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            scenario_from_json({"duration": 30.0})

    @pytest.mark.parametrize("family, beta", [
        (Family.IANDI, 0.0), (Family.EQUIV_P, 0.0), (Family.PI, 10.0)])
    def test_step_wind_scenario_is_the_spec_with_defaults(self, family, beta):
        profile = [(0.0, 6.0), (12.0, 8.5)]
        built = make_step_wind_scenario(40.0, beta, 0.3, family=family,
                                        wind_profile=profile, duration=24.0)
        spec = {"wind_profile": [list(seg) for seg in profile],
                "duration": 24.0, "dt": 0.01, "turbine": "default",
                "cp_curve": "default", "controller_gain": "optimal",
                "estimator": {"family": family.value, "gamma": 40.0,
                              "beta": beta, "delay": 0.3},
                "initial": {"omega_r": "steady", "u_guess": 8.0}}
        assert built == scenario_from_json(spec)

    @pytest.mark.parametrize("guess", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_initial_guess_refused_when_built(self, guess):
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 30.0,
                "estimator": {"gamma": 40.0}, "initial": {"u_guess": guess}}
        with pytest.raises(ConfigError, match="initial wind speed guess"):
            scenario_from_json(spec)

    @pytest.mark.parametrize("change, message", [
        ({"duration": True}, "duration must be a number, got true"),
        ({"dt": True}, "dt must be a number, got true"),
        ({"controller_gain": True}, "controller_gain must be a number, got true"),
        ({"estimator": {"gamma": True}}, "estimator.gamma must be a number, got true"),
        ({"estimator": {"gamma": 40.0, "beta": True}},
         "estimator.beta must be a number, got true"),
        ({"estimator": {"gamma": 40.0, "delay": False}},
         "estimator.delay must be a number, got false"),
        ({"initial": {"omega_r": True}}, "initial.omega_r must be a number, got true"),
        ({"initial": {"u_guess": True}}, "initial.u_guess must be a number, got true"),
        ({"wind_profile": [[False, 7.0]]},
         "wind_profile start must be a number, got false"),
        ({"wind_profile": [[0.0, True]]},
         "wind_profile speed must be a number, got true"),
        ({"turbine": {"rho": True, "rotor_radius": 63.0, "gear_ratio": 97.0,
                      "inertia_generator": 534.116, "inertia_rotor": 3.8759228e7}},
         "turbine.rho must be a number, got true"),
    ], ids=["duration", "dt", "gain", "gamma", "beta", "delay", "omega-r",
            "u-guess", "wind-start", "wind-speed", "turbine"])
    def test_json_booleans_are_not_numbers(self, change, message):
        # float(True) is 1.0, so each of these would build a scenario.
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 10.0,
                "estimator": {"gamma": 40.0}}
        spec.update(change)
        with pytest.raises(ConfigError) as info:
            scenario_from_json(spec)
        assert str(info.value) == f"malformed scenario: {message}"

    @pytest.mark.parametrize("change, message", [
        ({"duration": "10"}, 'duration must be a number, got "10"'),
        ({"dt": "0.01"}, 'dt must be a number, got "0.01"'),
        ({"controller_gain": "1.0"}, 'controller_gain must be a number, got "1.0"'),
        ({"estimator": {"gamma": "40"}}, 'estimator.gamma must be a number, got "40"'),
        ({"estimator": {"gamma": 40.0, "beta": "10"}},
         'estimator.beta must be a number, got "10"'),
        ({"estimator": {"gamma": 40.0, "delay": "0.3"}},
         'estimator.delay must be a number, got "0.3"'),
        ({"initial": {"u_guess": "6"}}, 'initial.u_guess must be a number, got "6"'),
        ({"initial": {"omega_r": "0.8"}}, 'initial.omega_r must be a number, got "0.8"'),
        ({"wind_profile": [["0", 7.0]]}, 'wind_profile start must be a number, got "0"'),
        ({"wind_profile": [[0.0, "7"]]}, 'wind_profile speed must be a number, got "7"'),
        # A JSON integer has no range limit; float() raised OverflowError.
        ({"duration": 10 ** 400}, "int too large to convert to float"),
    ], ids=["duration", "dt", "gain", "gamma", "beta", "delay", "u-guess",
            "omega-r", "wind-start", "wind-speed", "huge-int"])
    def test_json_strings_are_not_numbers(self, change, message):
        # float() takes each string, so each built a scenario; the huge int
        # escaped as an OverflowError.
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 10.0,
                "estimator": {"gamma": 40.0}}
        spec.update(change)
        with pytest.raises(ConfigError) as info:
            scenario_from_json(spec)
        assert str(info.value) == f"malformed scenario: {message}"

    def test_numpy_scalars_are_numbers(self):
        assert (make_step_wind_scenario(np.float32(40.0), np.int64(10), 0.3)
                == make_step_wind_scenario(40.0, 10.0, 0.3))

    def test_validation_errors_keep_their_type(self, tmp_path):
        # Well-formed fields that fail validation are not parsing errors.
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 30.0,
                "estimator": {"gamma": 40.0}}
        with pytest.raises(EnvelopeError, match="torque balance"):
            scenario_from_json({**spec, "controller_gain": 1e9})
        bad_curve = tmp_path / "curve.csv"
        bad_curve.write_text("x,y\n1,2\n")
        with pytest.raises(CurveError, match="header"):
            scenario_from_json({**spec, "cp_curve": str(bad_curve)})
        with pytest.raises(ConfigError, match="t = 0"):
            scenario_from_json({**spec, "wind_profile": [[1.0, 7.0]]})


class TestEmitOutputs:
    def test_trace_artifacts(self, tmp_path):
        trace = run_scenario(_scenario(duration=5.0))
        out = tmp_path / "run"
        written = emit_outputs(trace, out, circle=case_study_circle())
        names = [p.split("/")[-1] for p in map(str, written)]
        assert names == ["trace.csv", "timeseries.svg", "rotor_speed.svg",
                         "nyquist.csv", "verdict.json", "nyquist.svg"]
        for p in written:
            assert (out / p.split("/")[-1]).exists()
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"] in ("ConvergenceCertified", "NotCertified")

    def test_report_circle_is_every_verdict_circle(self, tmp_path, monkeypatch):
        # Only the certificate files matter here, so skip the trace files.
        _drop_traces(monkeypatch)
        report = run_case_studies(out_dir=tmp_path)
        circle = json.loads((tmp_path / "report.json").read_text())["circle"]
        assert circle == report["circle"] == case_study_circle().as_dict()
        assert list(circle) == ["k1", "k2", "C", "R", "alpha"]
        assert [row["name"] for row in report["cases"]] == [
            name for name, *_ in CASE_STUDIES]
        assert [row["name"] for row in report["gain_comparison"]] == [
            "pi_gamma80", "iandi_gamma80"]
        verdicts = sorted(tmp_path.glob("*/verdict.json"))
        assert len(verdicts) == 8
        for path in verdicts:
            record = json.loads(path.read_text())
            assert {key: record[key] for key in circle} == circle, path
            # Every case's locus is judged on the default 4,000-point grid.
            rows = (path.parent / "nyquist.csv").read_bytes().count(b"\n")
            assert rows == 4001, path.parent.name
        # Case 1's certificate is the one `rews stability` writes for its gains.
        assert cli_main(["stability", "--gamma", "40", "--beta", "10", "--delay",
                         "0.3", "--out", str(tmp_path / "stability")]) == 0
        for name in ("nyquist.csv", "verdict.json", "nyquist.svg"):
            assert ((tmp_path / "stability" / name).read_bytes()
                    == (tmp_path / "case1" / name).read_bytes()), name

    def test_case_studies_certify_each_case_once(self, tmp_path, monkeypatch):
        calls = {}

        def counting(*args):
            calls[args] = calls.get(args, 0) + 1
            return certify(*args)

        monkeypatch.setattr(stability, "certify", counting)
        _drop_traces(monkeypatch)
        run_case_studies(out_dir=tmp_path)
        assert len(list(tmp_path.glob("*/verdict.json"))) == 8
        with_files = dict(calls)
        calls.clear()
        run_case_studies()
        assert with_files == calls

    def test_case_study_charts_are_drawn_at_plot_resolution(self, tmp_path,
                                                            monkeypatch):
        # Against a second run that draws every point, only the line
        # charts' points differ, and they are the M4 reduction.
        times = {}

        def recording(runs, write=emit):
            runs = list(runs)
            times.update((pathlib.Path(out).name, trace.t) for out, trace, _ in runs)
            return write(runs)

        monkeypatch.setattr(harness, "emit", recording)
        run_case_studies(out_dir=tmp_path / "m4")
        monkeypatch.setattr(svgplot._Canvas, "m4", lambda self, xs, ys: (xs, ys))
        run_case_studies(out_dir=tmp_path / "full")
        files = sorted(p.relative_to(tmp_path / "full")
                       for p in (tmp_path / "full").rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(tmp_path / "m4")
                               for p in (tmp_path / "m4").rglob("*") if p.is_file())
        assert len(files) == 8 * 6 + 1
        points = re.compile(r'points="([^"]*)"')
        for rel in files:
            m4, full = ((tmp_path / side / rel).read_text(encoding="utf-8")
                        for side in ("m4", "full"))
            if rel.name not in ("timeseries.svg", "rotor_speed.svg"):
                assert m4 == full, rel
                continue
            assert points.sub("", m4) == points.sub("", full), rel
            t = times[rel.parent.name]
            columns = np.floor(svgplot._Canvas((t.min(), t.max()), (0.0, 1.0),
                                               "", "", "").px(t))
            kept, whole = points.findall(m4), points.findall(full)
            assert len(kept) == len(whole) == 2, rel
            for k, w in zip(kept, whole):
                assert len(w.split()) == t.size > 4 * 600, rel
                assert len(k.split()) <= 4 * 601, rel
                assert_m4(k, w, columns)
        # The locus is drawn point for point.
        for path in (tmp_path / "m4").glob("*/nyquist.svg"):
            rows = (path.parent / "nyquist.csv").read_text().count("\n") - 1
            (locus,) = points.findall(path.read_text())
            assert len(locus.split()) == rows, path
        # Case 4 has case 1's configuration, so it has case 1's files.
        for name in ("trace.csv", "timeseries.svg", "rotor_speed.svg",
                     "nyquist.csv", "verdict.json", "nyquist.svg"):
            assert ((tmp_path / "m4" / "case4" / name).read_bytes()
                    == (tmp_path / "m4" / "case1" / name).read_bytes()), name
        size = sum(p.stat().st_size for p in (tmp_path / "m4").rglob("*")
                   if p.is_file())
        assert size < 45_000_000, size

    def test_each_command_writes_its_csv_files_in_one_call(self, tmp_path,
                                                           monkeypatch):
        # Every trace.csv and nyquist.csv of a command goes to one writer
        # call; recorded, not written, to keep the test fast.
        calls = []
        monkeypatch.setattr(harness, "_write_csvs", lambda files: calls.append(
            [pathlib.Path(path).relative_to(tmp_path).as_posix()
             for path, _, _ in files]))
        run_case_studies(out_dir=tmp_path / "cs")
        names = [name for name, *_ in CASE_STUDIES] + ["pi_gamma80", "iandi_gamma80"]
        assert calls == [[f"cs/{name}/{file}" for name in names
                          for file in ("trace.csv", "nyquist.csv")]]
        calls.clear()
        scn = tmp_path / "scenario.json"
        scn.write_text(json.dumps({"wind_profile": [[0.0, 7.0]], "duration": 1.0,
                                   "estimator": {"gamma": 40.0, "beta": 10.0}}))
        assert cli_main(["simulate", "--scenario", str(scn),
                         "--out", str(tmp_path / "sim")]) == 0
        assert calls == [["sim/trace.csv", "sim/nyquist.csv"]]
        calls.clear()
        assert cli_main(["stability", "--gamma", "40",
                         "--out", str(tmp_path / "st")]) == 0
        assert calls == [["st/nyquist.csv"]]

    def test_report_artifact(self, tmp_path):
        report = {"cases": [{"name": "case1", "min_distance": 26.437023491820906,
                             "certified": True}], "value": None}
        path = tmp_path / "report.json"
        _write_json(path, report)
        text = path.read_text()
        assert text == json.dumps(report, indent=2) + "\n"
        assert json.loads(text) == report


class TestReproducibility:
    def test_repeated_evaluation_is_identical(self):
        def once():
            scn = make_step_wind_scenario(40.0, 10.0, 0.3,
                                          wind_profile=[(0.0, 5.0), (30.0, 7.0)],
                                          duration=60.0)
            trace = run_scenario(scn)
            verdict = certify(40.0, 10.0, 0.3, case_study_circle())
            return trace, verdict
        t1, v1 = once()
        t2, v2 = once()
        assert np.array_equal(t1.u_hat, t2.u_hat)
        assert np.array_equal(t1.omega_r, t2.omega_r)
        assert v1 == v2


class TestCli:
    def test_simulate_command(self, tmp_path, capsys):
        spec = {
            "wind_profile": [[0.0, 5.0], [20.0, 7.0]],
            "duration": 40.0,
            "estimator": {"family": "pi", "gamma": 40.0, "beta": 10.0,
                          "delay": 0.3},
        }
        scn_path = tmp_path / "scenario.json"
        scn_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        rc = cli_main(["simulate", "--scenario", str(scn_path),
                       "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "nyquist.csv", "nyquist.svg", "rotor_speed.svg", "timeseries.svg",
            "trace.csv", "verdict.json"]
        assert "ConvergenceCertified" in capsys.readouterr().out

    def test_simulate_certifies_once(self, tmp_path, capsys, monkeypatch):
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 5.0,
                "estimator": {"family": "pi", "gamma": 40.0, "beta": 10.0,
                              "delay": 0.3}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        verdict = certify(40.0, 10.0, 0.3, case_study_circle())
        label = classify_trace(run_scenario(scenario_from_json(spec)))
        calls = []

        def counting(*args):
            calls.append(args)
            return certify(*args)

        monkeypatch.setattr(stability, "certify", counting)
        assert cli_main(["simulate", "--scenario", str(path),
                         "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == (
            f"simulation: {label}; criterion: ConvergenceCertified "
            f"(min distance {verdict.min_distance:.3f})\n")
        assert json.loads((tmp_path / "o" / "verdict.json").read_text())[
            "min_distance"] == verdict.min_distance

    @pytest.mark.parametrize("change, message", [
        ({"duration": math.nan}, "duration and dt must be positive and finite"),
        ({"duration": math.inf}, "duration and dt must be positive and finite"),
        ({"estimator": {"family": "pi", "gamma": math.inf}},
         "gamma must be positive and finite, got inf"),
        # Refused before the "steady" initial speed is solved for it, as
        # are the wind profile and the delay.
        ({"controller_gain": -1.0}, "controller gain must be positive and finite"),
        ({"controller_gain": 0.0}, "controller gain must be positive and finite"),
        ({"controller_gain": math.nan}, "controller gain must be positive and finite"),
        ({"wind_profile": []}, "wind profile must contain at least one segment"),
        ({"wind_profile": [[0.0, math.nan]]},
         "wind speeds must be positive and finite"),
        ({"wind_profile": [[0.0, -5.0]]}, "wind speeds must be positive and finite"),
        ({"wind_profile": [[0.0, -5.0]], "initial": {"omega_r": 0.8}},
         "wind speeds must be positive and finite"),
        # The balance exists, below the rotor-speed bound.
        ({"wind_profile": [[0.0, 0.5]]},
         "initial rotor speed 0.05952380952380953 must be finite and not "
         "below the lower bound 0.1"),
        ({"estimator": {"family": "pi", "gamma": 40.0, "delay": 10.0}},
         "delay 10.0 is not shorter than the duration 10.0"),
        ({"estimator": {"family": "pi", "gamma": 40.0, "delay": 100.0}},
         "delay 100.0 is not shorter than the duration 10.0"),
        # A gain far above the optimal one balances nowhere in the envelope.
        ({"controller_gain": 100.0},
         "no stable torque balance inside the tip-speed-ratio envelope"),
        # phi's u ** 3 leaves the float range.  At a 1e103 m/s wind the
        # estimator's feedback is clamped to the envelope edge of the steady
        # start, 7.5e102 m/s (a 1e102 m/s wind runs); a 1e300 rad/s start
        # puts that edge further out.
        ({"wind_profile": [[0.0, 1e103]]}, "aerodynamic torque overflows at "
         "t = 0.0 s, rotor speed 1.1904761904761907e+102 rad/s"),
        ({"initial": {"omega_r": 1e300}}, "aerodynamic torque overflows at "
         "t = 0.0 s, rotor speed 1e+300 rad/s"),
        # More steps than numpy can size an array for, refused before any
        # allocation.
        ({"duration": 1.0, "dt": 1e-300}, "duration 1.0 at dt 1e-300 is 1e+300 "
         "steps, more than an array can hold"),
    ], ids=["nan", "inf", "gamma-inf", "gain-negative", "gain-zero", "gain-nan",
            "wind-empty", "wind-nan", "wind-negative", "wind-negative-numeric",
            "wind-low", "delay-equal", "delay-longer", "gain-100",
            "wind-overflow", "start-overflow", "dt-too-fine"])
    def test_non_finite_scenario_is_a_clean_error(self, tmp_path, capsys,
                                                  recwarn, change, message):
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 10.0,
                "estimator": {"family": "pi", "gamma": 40.0}}
        spec.update(change)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))   # writes NaN / Infinity literals
        rc = cli_main(["simulate", "--scenario", str(path),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not recwarn.list
        assert not (tmp_path / "o").exists()

    def test_stability_command_exit_codes(self, tmp_path):
        out = tmp_path / "ok"
        assert cli_main(["stability", "--gamma", "40", "--beta", "10",
                         "--delay", "0.3", "--out", str(out),
                         "--require-certified"]) == 0
        out2 = tmp_path / "bad"
        assert cli_main(["stability", "--gamma", "100", "--beta", "10",
                         "--delay", "0.3", "--out", str(out2),
                         "--require-certified"]) == 2
        assert (out2 / "verdict.json").exists()

    def test_simulate_require_certified_exits_2_when_refused(self, tmp_path,
                                                             capsys):
        # Case 2's gains: the run converges, the criterion refuses them.
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({"wind_profile": [[0.0, 7.0]], "duration": 1.0,
                                   "estimator": {"family": "pi", "gamma": 100.0,
                                                 "beta": 10.0, "delay": 0.3}}))
        out = tmp_path / "o"
        rc = cli_main(["simulate", "--scenario", str(scn), "--out", str(out),
                       "--require-certified"])
        assert rc == 2
        assert "criterion: NotCertified" in capsys.readouterr().out
        assert json.loads((out / "verdict.json").read_text())["verdict"] == "NotCertified"

    def test_stability_command_matches_emit_outputs(self, tmp_path):
        circle = case_study_circle()
        trace = run_scenario(_scenario(beta=10.0, delay_T=0.3, duration=1.0))
        emit_outputs(trace, tmp_path / "emit", circle=circle)
        assert cli_main(["stability", "--gamma", "40", "--beta", "10",
                         "--delay", "0.3", "--out", str(tmp_path / "cli")]) == 0
        for name in ("nyquist.csv", "verdict.json", "nyquist.svg"):
            assert ((tmp_path / "cli" / name).read_bytes()
                    == (tmp_path / "emit" / name).read_bytes()), name

    def test_margins_command(self, capsys):
        assert cli_main(["margins", "--gamma", "40", "--delay", "0.3"]) == 0
        out = capsys.readouterr().out
        value = float(out.strip().rsplit(" ", 1)[-1])
        assert 12.0 <= value <= 16.0
        # --beta fixes the integral gain and searches the delay.
        delay = stability.max_stable_delay(40.0, 10.0, case_study_circle())
        assert cli_main(["margins", "--gamma", "40", "--beta", "10"]) == 0
        assert capsys.readouterr().out == (
            f"largest certified delay at gamma=40.0, beta=10.0: {delay:.3f}\n")

    def test_case_studies_command(self, tmp_path, capsys, monkeypatch):
        row = {"certified": True, "min_distance": 1.23456, "sim_label": "converged"}
        report = {"cases": [dict(row, name="case1"),
                            dict(row, name="case2", certified=False,
                                 min_distance=-0.5, sim_label="diverged")],
                  "gain_comparison": [dict(row, name="pi_gamma80")],
                  "beta_margin": {"value": 14.06789},
                  "delay_margin": {"value": 0.31449}}
        calls = []
        monkeypatch.setattr(harness, "run_case_studies",
                            lambda out_dir: calls.append(out_dir) or report)
        assert cli_main(["case-studies", "--out", str(tmp_path)]) == 0
        assert calls == [str(tmp_path)]
        assert capsys.readouterr().out == (
            "case1: certified=True min_distance=1.235 sim=converged\n"
            "case2: certified=False min_distance=-0.500 sim=diverged\n"
            "pi_gamma80: certified=True min_distance=1.235 sim=converged\n"
            "beta margin (gamma=40, delay=0.3): 14.068\n"
            "delay margin (gamma=40, beta=10): 0.314\n")

    @pytest.mark.parametrize("change, message", [
        ({"estimator": {"family": "pi", "beta": 10.0}},
         "malformed scenario: missing field 'gamma'"),
        ({"estimator": {"family": "bogus", "gamma": 40.0}},
         "malformed scenario: 'bogus' is not a valid Family"),
        ({"turbine": {"rho": 1.225}}, "malformed scenario: TurbineParams"),
        ({"initial": {"omega_r": "abc"}},
         'malformed scenario: initial.omega_r must be a number, got "abc"'),
        ({"estimator": {"family": "p", "gamma": 40.0, "beta": 200.0,
                        "delay": 0.3}}, "beta is a PI gain"),
        # open() would take an integer as a file descriptor (0 is stdin).
        ({"turbine": 0}, "malformed scenario: expected str"),
        ({"cp_curve": 0}, "malformed scenario: expected str"),
    ], ids=["missing-gamma", "bad-family", "incomplete-turbine",
            "bad-initial-speed", "beta-without-pi", "turbine-int",
            "cp-curve-int"])
    def test_malformed_scenario_is_a_clean_error(self, tmp_path, capsys,
                                                 change, message):
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 10.0,
                "estimator": {"family": "pi", "gamma": 40.0}}
        spec.update(change)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        rc = cli_main(["simulate", "--scenario", str(path),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["margins", "--gamma", "0", "--beta", "0"], "gamma must be"),
        (["margins", "--gamma", "-5", "--delay", "0.3"], "gamma must be"),
        (["stability", "--gamma", "0"], "gamma must be"),
        (["stability", "--gamma", "40", "--delay", "-1"], "delay must be"),
        # Valid gains whose locus the grid's last point cannot prove outside.
        (["stability", "--gamma", "1e6"], "frequency grid cannot prove the "
         "locus outside the disk above 1000.0 rad/s: |G| = 1000.0 there, not "
         "below 1/k2 = 10.526315789473685"),
        # Infinite values are named before any evaluation (which warned).
        (["stability", "--gamma", "inf", "--delay", "0.3"],
         "gamma must be positive and finite, got inf"),
        (["stability", "--gamma", "40", "--beta", "inf"],
         "beta must be non-negative and finite, got inf"),
        (["stability", "--gamma", "40", "--delay", "inf"],
         "delay must be non-negative and finite, got inf"),
        (["margins", "--gamma", "inf", "--delay", "0.3"],
         "gamma must be positive and finite, got inf"),
        (["margins", "--gamma", "40", "--delay", "inf"],
         "delay must be non-negative and finite, got inf"),
        (["margins", "--gamma", "40", "--beta", "inf"],
         "beta must be non-negative and finite, got inf"),
        # Finite values whose locus overflows, or whose delay phase has no
        # fractional bits on the grid, are refused without a warning.
        (["stability", "--gamma", "1e308"],
         "Nyquist locus of gamma=1e+308, beta=0.0, delay=0.0 is not finite"),
        (["margins", "--gamma", "1e308", "--delay", "0.3"],
         "Nyquist locus of gamma=1e+308, beta=0.0, delay=0.3 is not finite"),
        (["stability", "--gamma", "40", "--delay", "1e300"],
         "delay 1e+300 is too long"),
        (["stability", "--gamma", "40", "--delay", "1e13"],
         "delay 10000000000000.0 is too long"),
        (["margins", "--gamma", "1e200", "--delay", "0.3"],
         "frequency grid cannot prove the locus outside the disk above 1000.0"),
        # Non-finite sector slopes are named, not left to the grid search.
        (["stability", "--gamma", "40", "--beta", "10", "--delay", "0.3",
          "--k1", "nan"], "need 0 < k1 <= k2 < inf, got k1=nan, k2=0.095"),
        (["stability", "--gamma", "40", "--beta", "10", "--delay", "0.3",
          "--k2", "nan"], "need 0 < k1 <= k2 < inf, got k1=0.016, k2=nan"),
        (["stability", "--gamma", "40", "--beta", "10", "--delay", "0.3",
          "--k2", "inf"], "need 0 < k1 <= k2 < inf, got k1=0.016, k2=inf"),
        (["margins", "--gamma", "40", "--delay", "0.3", "--k1", "nan"],
         "need 0 < k1 <= k2 < inf, got k1=nan, k2=0.095"),
    ], ids=["margins-gamma-0", "margins-gamma-negative", "stability-gamma-0",
            "stability-delay-negative", "stability-grid-coverage",
            "stability-gamma-inf", "stability-beta-inf", "stability-delay-inf",
            "margins-gamma-inf", "margins-delay-inf", "margins-beta-inf",
            "stability-gamma-huge", "margins-gamma-huge", "stability-delay-huge",
            "stability-delay-1e13", "margins-gamma-overflowing-margin",
            "stability-k1-nan", "stability-k2-nan", "stability-k2-inf",
            "margins-k1-nan"])
    def test_impossible_gains_are_a_clean_error(self, tmp_path, capsys,
                                                recwarn, argv, message):
        if argv[0] == "stability":
            argv = argv + ["--out", str(tmp_path / "o")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not recwarn.list
        assert not (tmp_path / "o").exists()

    def test_bad_scenario_file_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"duration": 10.0}))
        rc = cli_main(["simulate", "--scenario", str(bad),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, text, message", [
        ("cp_curve", "lambda,cp\n2.0,0.1\n4.0,abc\n6.0,0.3\n",
         "line 3 has a field that is not a number: '4.0,abc'"),
        ("cp_curve", "lambda,cp\n2.0,0.1\n4.0\n6.0,0.3\n",
         "line 3 has fewer than two fields: '4.0'"),
        ("turbine", "rho = 1.225\nrotor_radius = sixty\n",
         "line 2: rotor_radius is not a number: 'sixty'"),
        ("turbine", "rho = 1.225\nrotor_radius = 63\ngear_ratio = 97\n"
                    "inertia_generator = 534.116\ninertia_rotor = 3.8759228e7\n"
                    "rho = 2\n", "line 6 repeats 'rho'"),
        ("turbine", "rho = 1.225\nrotor_radius 63\n",
         "line 2 is not 'key = value': 'rotor_radius 63'"),
        ("turbine", "rho = 1.225\n", "missing parameter(s) ['rotor_radius', "
         "'gear_ratio', 'inertia_generator', 'inertia_rotor']"),
    ], ids=["curve-not-a-number", "curve-short-row", "params-not-a-number",
            "params-repeated-key", "params-no-equals", "params-missing-keys"])
    def test_bad_model_file_names_its_line(self, tmp_path, capsys,
                                           field, text, message):
        model = tmp_path / "model.txt"
        model.write_text(text)
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({"wind_profile": [[0.0, 7.0]], "duration": 1.0,
                                   "estimator": {"family": "pi", "gamma": 40.0},
                                   field: str(model)}))
        rc = cli_main(["simulate", "--scenario", str(scn),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {model}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [b'{"wind_profile": [[0, 5]],', b"\xff\xfe",
                                         b"[" * 100_000],
                             ids=["truncated", "not-utf8", "deeply-nested"])
    def test_scenario_file_not_json_is_a_clean_error(self, tmp_path, capsys,
                                                     content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        rc = cli_main(["simulate", "--scenario", str(bad),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: not a JSON scenario file")
        assert not (tmp_path / "o").exists()

    def test_simulate_refuses_an_uncertifiable_locus_before_running(
            self, tmp_path, capsys):
        # The grid's last point cannot prove the locus of gamma = 1e6 outside.
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({"wind_profile": [[0.0, 7.0]], "duration": 1.0,
                                   "estimator": {"family": "p", "gamma": 1e6}}))
        rc = cli_main(["simulate", "--scenario", str(scn),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: frequency grid cannot prove the locus outside the disk above")
        assert not (tmp_path / "o").exists()

    def test_simulate_refuses_nan_slope_before_running(self, tmp_path, capsys):
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps({"wind_profile": [[0.0, 7.0]], "duration": 1.0,
                                   "estimator": {"family": "pi", "gamma": 40.0}}))
        # The slopes are checked before the scenario file is read, as the
        # stability and margins commands check them before any gain.
        for path in (scn, tmp_path / "missing.json"):
            rc = cli_main(["simulate", "--scenario", str(path), "--k1", "nan",
                           "--out", str(tmp_path / "o")])
            assert rc == 1
            assert capsys.readouterr().err == (
                "error: need 0 < k1 <= k2 < inf, got k1=nan, k2=0.095\n")
            assert not (tmp_path / "o").exists()


def test_runtime_imports_no_scipy():
    # The package's runtime needs only numpy; SciPy serves the tests and
    # the benchmark.  A fresh interpreter that builds the default model,
    # runs a short scenario and certifies it must not have loaded SciPy.
    code = (
        "import sys\n"
        "import rews\n"
        "from rews import harness, stability\n"
        "rews.default_cp_curve()\n"
        "rews.default_turbine_params()\n"
        "scn = harness.make_step_wind_scenario(40.0, 10.0, 0.3, duration=2.0,\n"
        "                                      wind_profile=[(0.0, 7.0)])\n"
        "harness.run_scenario(scn)\n"
        "stability.certify(40.0, 10.0, 0.3, harness.case_study_circle())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(pathlib.Path(rews.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[]", out.stdout
