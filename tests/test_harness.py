import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from rews import harness, stability
from rews.estimators import Family, init_estimator, step_estimator
from rews.exceptions import ConfigError, CurveError, EnvelopeError
from rews.harness import (_CSV_CHUNK, CASE_STUDIES, Scenario, SimTrace,
                          _write_csv, _write_json,
                          case_study_circle, classify_trace, emit_outputs,
                          make_step_wind_scenario, read_trace_csv,
                          run_scenario, run_shared_plant, scenario_from_json,
                          write_trace_csv)
from rews.stability import certify
from rews.turbine import rk4_plant_step
from rews.cli import main as cli_main


def _scenario(**overrides):
    kwargs = dict(gamma=40.0, beta=10.0, delay_T=0.0,
                  wind_profile=[(0.0, 7.0)], duration=30.0)
    kwargs.update(overrides)
    return make_step_wind_scenario(**kwargs)


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
        b = make_step_wind_scenario(40, 10, 0.3)
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

    def test_internal_state_family_has_no_observer_columns(self):
        scn = _scenario(family=Family.IANDI, beta=0.0)
        trace = run_scenario(scn)
        assert np.all(np.isnan(trace.omega_hat_r))
        assert np.all(np.isnan(trace.eps))


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
            for name in ("t", "u_true", "omega_r", "omega_hat_r", "eps",
                         "u_hat", "t_g", "clamp_count"):
                assert np.array_equal(getattr(together, name),
                                      getattr(solo, name), equal_nan=True), name

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
            _scenario(duration=10.0, u_guess=6.0, gamma=80.0),
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
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        data = read_trace_csv(path)
        for name in ("t", "u_true", "omega_r", "omega_hat_r", "eps",
                     "u_hat", "t_g", "clamp_count"):
            assert np.array_equal(data[name], getattr(trace, name),
                                  equal_nan=True), name

    @pytest.mark.parametrize("n", [1, _CSV_CHUNK, 2 * _CSV_CHUNK + 7])
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
            _write_csv(path, header[:len(cols)], cols)
            assert path.read_bytes() == expected.read_bytes()
            assert path.read_bytes().count(b"\r\n") == n + 1

    def test_trace_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="header"):
            read_trace_csv(path)

    def test_empty_trace_refused(self, tmp_path):
        trace = run_scenario(_scenario(duration=5.0))
        empty = SimTrace(
            scenario=trace.scenario,
            **{c: getattr(trace, c)[:0]
               for c in ("t", "u_true", "omega_r", "omega_hat_r", "eps",
                         "u_hat", "t_g", "clamp_count")})
        with pytest.raises(ConfigError):
            write_trace_csv(empty, tmp_path / "empty.csv")
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
        names = {p.split("/")[-1] for p in map(str, written)}
        assert names == {"trace.csv", "timeseries.svg", "rotor_speed.svg",
                         "nyquist.csv", "verdict.json", "nyquist.svg"}
        for p in written:
            assert (out / p.split("/")[-1]).exists()
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"] in ("ConvergenceCertified", "NotCertified")

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
        assert (out / "trace.csv").exists()
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
    ], ids=["nan", "inf", "gamma-inf"])
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

    @pytest.mark.parametrize("change, message", [
        ({"estimator": {"family": "pi", "beta": 10.0}},
         "malformed scenario: missing field 'gamma'"),
        ({"estimator": {"family": "bogus", "gamma": 40.0}},
         "malformed scenario: 'bogus' is not a valid Family"),
        ({"turbine": {"rho": 1.225}}, "malformed scenario: TurbineParams"),
        ({"initial": {"omega_r": "abc"}},
         "malformed scenario: could not convert string to float"),
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

    @pytest.mark.parametrize("argv, message", [
        (["margins", "--gamma", "0", "--beta", "0"], "gamma must be"),
        (["margins", "--gamma", "-5", "--delay", "0.3"], "gamma must be"),
        (["stability", "--gamma", "0"], "gamma must be"),
        (["stability", "--gamma", "40", "--delay", "-1"], "delay must be"),
        # Valid gains whose locus never collapses inside the widest grid.
        (["stability", "--gamma", "1e6"], "distance minimum"),
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
    ], ids=["margins-gamma-0", "margins-gamma-negative", "stability-gamma-0",
            "stability-delay-negative", "stability-grid-coverage",
            "stability-gamma-inf", "stability-beta-inf", "stability-delay-inf",
            "margins-gamma-inf", "margins-delay-inf", "margins-beta-inf"])
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
