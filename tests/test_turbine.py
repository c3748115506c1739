import dataclasses
import json
import math
import random

import numpy as np
import pytest

from rews.cli import main as cli_main
from rews.exceptions import ConfigError, EnvelopeError
from rews.harness import (make_step_wind_scenario, run_scenario,
                          scenario_from_json)
from rews.turbine import (TurbineParams, default_turbine_params,
                          load_params_file, optimal_torque_gain, phi,
                          phi_clamped, rk4_plant_step,
                          steady_state_rotor_speed)

from conftest import phi_prime_u


def _reference_rk4(params, curve, omega_r, t_g, u, dt):
    """The classic four-stage RK4 of d(omega_r)/dt = phi/N - T_g/(N J)."""
    n, j = params.gear_ratio, params.inertia_equivalent

    def rate(w):
        return phi(params, curve, w, u) / n - t_g / (n * j)

    k1 = rate(omega_r)
    k2 = rate(omega_r + 0.5 * dt * k1)
    k3 = rate(omega_r + 0.5 * dt * k2)
    k4 = rate(omega_r + dt * k3)
    return omega_r + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _envelope_message(fn, *args):
    with pytest.raises(EnvelopeError) as info:
        fn(*args)
    return str(info.value)


class TestParams:
    def test_defaults_consistent(self, params):
        assert params.swept_area == pytest.approx(math.pi * 63.0 ** 2, rel=1e-12)
        j = 534.116 + 3.8759228e7 / 97.0 ** 2
        assert params.inertia_equivalent == pytest.approx(j, rel=1e-12)

    def test_positive_fields_enforced(self):
        with pytest.raises(ConfigError):
            TurbineParams(rho=-1.0, rotor_radius=63, gear_ratio=97,
                          inertia_generator=534.116, inertia_rotor=3.9e7)

    def test_inconsistent_derived_fields_rejected(self, tmp_path):
        # The swept area and the equivalent inertia are derived, never
        # inputs: an inline turbine object or a parameter file that sets
        # one is refused.
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 1.0,
                "estimator": {"family": "pi", "gamma": 40.0}}
        base = {"rho": 1.225, "rotor_radius": 63.0, "gear_ratio": 97.0,
                "inertia_generator": 534.116, "inertia_rotor": 3.9e7}
        for key in ("swept_area", "inertia_equivalent"):
            with pytest.raises(ConfigError, match=key):
                scenario_from_json(dict(spec, turbine=dict(base, **{key: 1.0})))
            path = tmp_path / f"{key}.txt"
            path.write_text("".join(f"{k}={v}\n" for k, v in base.items())
                            + f"{key}=1.0\n")
            with pytest.raises(ConfigError, match=f"unknown parameter.*{key}"):
                load_params_file(path)
            with pytest.raises(TypeError, match=key):
                TurbineParams(**base, **{key: 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_inputs_must_be_positive_and_finite(self, params, bad):
        inputs = {name: getattr(params, name)
                  for name in ("rho", "rotor_radius", "gear_ratio",
                               "inertia_generator", "inertia_rotor", "omega_r_min")}
        for name in inputs:
            with pytest.raises(ConfigError,
                               match=f"^{name} must be positive and finite, got {bad!r}$"):
                TurbineParams(**dict(inputs, **{name: bad}))

    def test_non_finite_inputs_refused_inline_and_from_file(self, tmp_path):
        # NaN used to pass the `<= 0` check and surface as a root-finder
        # message from the steady-state rotor speed.
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 1.0,
                "estimator": {"family": "pi", "gamma": 40.0}}
        inline = {"rho": math.nan, "rotor_radius": 63.0, "gear_ratio": 97.0,
                  "inertia_generator": 534.116, "inertia_rotor": 3.9e7}
        path = tmp_path / "turbine.txt"
        path.write_text("rho=1.225\nrotor_radius=63\ngear_ratio=97\n"
                        "inertia_generator=534.116\ninertia_rotor=inf\n")
        for turbine, message in ((inline, "rho must be positive and finite, got nan"),
                                 (str(path), "inertia_rotor must be positive "
                                             "and finite, got inf")):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                scenario_from_json(dict(spec, turbine=turbine))

    @pytest.mark.parametrize("change, source, message", [
        ({"gear_ratio": 1e-170}, "inline", "inertia_equivalent must be positive "
         "and finite, got inf"),  # J_r / N**2 divided by an N**2 of 0
        ({"gear_ratio": 1e-108}, "file", "optimal torque gain must be positive "
         "and finite, got inf"),  # divided by an N**3 of 0
        ({"gear_ratio": 1e-105}, "inline", "optimal torque gain must be positive "
         "and finite, got inf"),  # named before the scenario's gain check
        ({"rotor_radius": 1e200}, "inline", "swept_area must be positive and "
         "finite, got inf"),  # R**2 raises OverflowError
        ({"rho": 1e308, "rotor_radius": 1e10}, "file", "phi_coefficient must "
         "be positive and finite, got inf"),
        ({"rho": 1e-300, "inertia_generator": 1e300}, "inline", "phi_coefficient "
         "must be positive and finite, got 0.0"),  # no aerodynamic torque at all
        # A numeric gain is not checked like the optimal one, and the steady
        # start divides by rho A R^3, which underflows to 0.
        ({"rotor_radius": 1e-100}, "inline, gain 1.0", "rho A R^3 must be "
         "positive and finite, got 0.0"),
        # ... and multiplies the gain by N**3, which overflows.
        ({"gear_ratio": 1e103}, "inline, gain 1.0", "2 K N^3 / (rho A R^3) must "
         "be positive and finite, got inf"),
    ], ids=["inertia-inf", "gain-zero-divisor", "gain-inf", "area-overflow",
            "phi-inf", "phi-zero", "balance-divisor-zero", "balance-ratio-inf"])
    def test_derived_quantities_out_of_range_refused(self, tmp_path, capsys,
                                                     change, source, message):
        turbine = {"rho": 1.225, "rotor_radius": 63.0, "gear_ratio": 97.0,
                   "inertia_generator": 534.116, "inertia_rotor": 3.8759228e7,
                   **change}
        if not message.startswith(("optimal", "rho A R^3", "2 K N^3")):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                TurbineParams(**turbine)
        if source == "file":
            path = tmp_path / "turbine.txt"
            path.write_text("".join(f"{k} = {v!r}\n" for k, v in turbine.items()))
            turbine = str(path)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "wind_profile": [[0.0, 7.0]], "duration": 1.0, "turbine": turbine,
            "controller_gain": 1.0 if source.endswith("gain 1.0") else "optimal",
            "estimator": {"family": "pi", "gamma": 40.0}}))
        out = tmp_path / "out"
        assert cli_main(["simulate", "--scenario", str(scenario),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_params_file_round_trip(self, tmp_path, params):
        path = tmp_path / "turbine.txt"
        path.write_text(
            "# fixture constants\n"
            f"rho={params.rho}\n"
            f"rotor_radius={params.rotor_radius}\n"
            f"gear_ratio={params.gear_ratio}\n"
            f"inertia_generator={params.inertia_generator}\n"
            f"inertia_rotor={params.inertia_rotor}\n")
        assert load_params_file(path) == params

    def test_params_file_line_without_equals_names_its_line(self, tmp_path):
        path = tmp_path / "turbine.txt"
        path.write_text("# constants\nrho = 1.225\nrotor_radius 63  # no '='\n")
        with pytest.raises(ConfigError) as info:
            load_params_file(path)
        assert str(info.value) == (f"{path}: line 3 is not 'key = value': "
                                   "'rotor_radius 63'")

    @pytest.mark.parametrize("text, missing", [
        ("", ["rho", "rotor_radius", "gear_ratio", "inertia_generator",
              "inertia_rotor"]),
        ("rho = 1.225\n", ["rotor_radius", "gear_ratio", "inertia_generator",
                            "inertia_rotor"]),
    ], ids=["empty", "partial"])
    def test_params_file_missing_keys_names_file_and_keys(self, tmp_path,
                                                          text, missing):
        # omega_r_min has a default, so it may be left out.
        path = tmp_path / "turbine.txt"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_params_file(path)
        assert str(info.value) == f"{path}: missing parameter(s) {missing}"
        # Through a scenario the message is the same, not a TypeError's.
        spec = {"wind_profile": [[0.0, 7.0]], "duration": 1.0, "turbine": str(path),
                "estimator": {"family": "pi", "gamma": 40.0}}
        with pytest.raises(ConfigError) as info:
            scenario_from_json(spec)
        assert str(info.value) == f"{path}: missing parameter(s) {missing}"

    def test_params_file_unknown_key(self, tmp_path):
        path = tmp_path / "turbine.txt"
        path.write_text("rho=1.2\nbogus=1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_params_file(path)


class TestPhi:
    def test_doubling_inertia_halves_phi(self, params, curve):
        doubled = TurbineParams(
            rho=params.rho, rotor_radius=params.rotor_radius,
            gear_ratio=params.gear_ratio,
            inertia_generator=2 * params.inertia_generator,
            inertia_rotor=2 * params.inertia_rotor)
        a = phi(params, curve, 1.0, 10.0)
        b = phi(doubled, curve, 1.0, 10.0)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_phi_equals_aero_torque_over_nj(self, params, curve):
        omega_r, u = 1.0, 10.0
        lam = omega_r * params.rotor_radius / u
        p_w = 0.5 * params.rho * params.swept_area * u ** 3 * curve._cp_scalar(lam)
        t_r = p_w / omega_r
        expected = t_r / (params.gear_ratio * params.inertia_equivalent)
        assert phi(params, curve, omega_r, u) == pytest.approx(expected, rel=1e-12)

    def test_phi_hand_value(self, params, curve):
        # Direct scalar evaluation at omega_r = 1, u = 8 (lambda = 7.875).
        expected = (params.rho * params.swept_area
                    / (2 * params.gear_ratio * params.inertia_equivalent)
                    * 8.0 ** 3 * curve._cp_scalar(7.875))
        assert phi(params, curve, 1.0, 8.0) == pytest.approx(expected, rel=1e-12)
        assert phi(params, curve, 1.0, 8.0) > 0

    def test_phi_envelope_errors(self, params, curve):
        # The wind, then the rotor speed, then the tip-speed ratio: NaN
        # passes the first two checks and is refused by the third.
        for omega_r, u, message in [
                (1.0, 0.0, "wind speed must be positive, got 0.0"),
                (1.0, -3.0, "wind speed must be positive, got -3.0"),
                (0.05, 8.0, "rotor speed 0.05 below the lower bound 0.1"),
                (0.01, 8.0, "rotor speed 0.01 below the lower bound 0.1"),
                (1.0, math.nan, "tip-speed ratio nan outside [2.0, 10.0]"),
                (math.nan, 8.0, "tip-speed ratio nan outside [2.0, 10.0]"),
                (1.0, 1.0, "tip-speed ratio 63.0 outside [2.0, 10.0]"),  # way out
                (1.0, math.inf, "tip-speed ratio 0.0 outside [2.0, 10.0]"),
                # One hundredth beyond each edge of the envelope.
                (1.99, 63.0, "tip-speed ratio 1.99 outside [2.0, 10.0]"),
                (10.01, 63.0, "tip-speed ratio 10.01 outside [2.0, 10.0]")]:
            assert _envelope_message(phi, params, curve, omega_r, u) == message

    def test_phi_clamped_matches_inside(self, params, curve):
        val, clamped = phi_clamped(params, curve, 1.0, 8.0)
        assert not clamped
        assert val == phi(params, curve, 1.0, 8.0)

    def test_phi_clamped_saturates_outside(self, params, curve):
        # Above the envelope the value freezes at the envelope-edge wind.
        u_hi = 1.0 * params.rotor_radius / curve.lambda_min
        val, clamped = phi_clamped(params, curve, 1.0, u_hi * 2)
        assert clamped
        assert val == pytest.approx(phi(params, curve, 1.0, u_hi), rel=1e-12)
        val_lo, clamped_lo = phi_clamped(params, curve, 1.0, 1e-6)
        assert clamped_lo
        u_lo = 1.0 * params.rotor_radius / curve.lambda_max
        assert val_lo == pytest.approx(phi(params, curve, 1.0, u_lo), rel=1e-12)

    def test_phi_clamped_refuses_a_rotor_speed_below_the_bound(self, params, curve):
        # Only the wind is clamped; a rotor speed below the bound is an error.
        with pytest.raises(EnvelopeError,
                           match=r"^rotor speed 0\.05 below the lower bound 0\.1$"):
            phi_clamped(params, curve, 0.05, 8.0)

    def test_each_input_refusal_reads_the_same_at_every_call_site(self, curve):
        # numpy scalars print as plain floats, and the bound is the params'.
        params = dataclasses.replace(default_turbine_params(), omega_r_min=0.25)
        k_opt = optimal_torque_gain(params, curve)
        slow, calm = np.float64(0.2), np.float64(-2.5)
        rotor = "rotor speed 0.2 below the lower bound 0.25"
        wind = "wind speed must be positive, got -2.5"
        assert _envelope_message(phi, params, curve, slow, 8.0) == rotor
        assert _envelope_message(phi_clamped, params, curve, slow, 8.0) == rotor
        assert _envelope_message(phi, params, curve, 1.0, calm) == wind
        assert _envelope_message(steady_state_rotor_speed,
                                 params, curve, k_opt, calm) == wind


class TestPhiPrime:
    def test_positive_above_kappa_root(self, params, curve):
        # lambda > lambda_zero implies a strictly increasing nonlinearity.
        u = 8.0
        omega = (curve.lambda_zero + 0.3) * u / params.rotor_radius
        assert phi_prime_u(params, curve, omega, u) > 0

    def test_matches_finite_differences(self, params, curve):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            omega = rng.uniform(0.5, 1.2)
            u = rng.uniform(5.0, 10.0)
            lam = omega * params.rotor_radius / u
            if not (curve.lambda_min + 0.1 < lam < curve.lambda_max - 0.1):
                continue
            h = 1e-5 * u
            fd = (phi(params, curve, omega, u + h)
                  - phi(params, curve, omega, u - h)) / (2 * h)
            assert phi_prime_u(params, curve, omega, u) == pytest.approx(fd, rel=1e-4)
            checked += 1

    def test_zero_at_kappa_root(self, params, curve):
        u = 8.0
        omega = curve.lambda_zero * u / params.rotor_radius
        slope_scale = phi_prime_u(params, curve, omega * 1.05, u)
        assert abs(phi_prime_u(params, curve, omega, u)) <= 1e-6 * slope_scale

    def test_monotone_in_u_above_condition(self, params, curve):
        # Fixed rotor speed above lambda_zero * u / R: increasing wind
        # sweeps must increase phi strictly.
        rng = np.random.default_rng(5)
        for _ in range(25):
            omega = rng.uniform(0.6, 1.1)
            lam_hi = rng.uniform(curve.lambda_zero + 0.2, curve.lambda_max)
            lam_lo = rng.uniform(curve.lambda_zero + 0.05, lam_hi)
            us = omega * params.rotor_radius / np.linspace(lam_hi, lam_lo, 10)
            vals = [phi(params, curve, omega, u) for u in us]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestController:
    def test_quadratic_law(self):
        # The recorded generator torque is K * omega_g^2 of the measured speed.
        scn = make_step_wind_scenario(40.0, 10.0, 0.3, duration=20.0,
                                      wind_profile=[(0.0, 5.0), (10.0, 7.0)])
        trace = run_scenario(scn)
        omega_g = scn.turbine.gear_ratio * trace.omega_r
        assert np.array_equal(trace.t_g, scn.controller_gain * omega_g ** 2)
        assert trace.omega_r[-1] != trace.omega_r[0]

    def test_rejects_nonpositive(self):
        scn = make_step_wind_scenario(40.0, 10.0, 0.3, duration=20.0,
                                      wind_profile=[(0.0, 7.0)])
        with pytest.raises(ConfigError, match="controller gain"):
            dataclasses.replace(scn, controller_gain=-1.0)
        with pytest.raises(ConfigError, match="rotor speed"):
            dataclasses.replace(scn, initial_omega_r=0.0)

    def test_optimal_gain_settles_at_peak_tsr(self, params, curve):
        # Long closed-loop run at constant wind must settle where the
        # tip-speed ratio sits at the curve peak.
        k_opt = optimal_torque_gain(params, curve)
        u = 8.0
        w = 0.9 * curve.lambda_star * u / params.rotor_radius
        for _ in range(60000):
            t_g = k_opt * (params.gear_ratio * w) ** 2
            w = rk4_plant_step(params, curve, w, t_g, u, 0.01)
        lam = w * params.rotor_radius / u
        assert lam == pytest.approx(curve.lambda_star, abs=1e-6)

    def test_steady_state_map_matches_peak(self, params, curve):
        # At K_opt the balance C_p / lambda^3 = C_p* / lambda_star^3 has the
        # peak knot as its root, whatever the wind.
        k_opt = optimal_torque_gain(params, curve)
        for u in np.linspace(3.0, 12.0, 2001).tolist():
            w = steady_state_rotor_speed(params, curve, k_opt, u)
            expected = curve.lambda_star * u / params.rotor_radius
            assert abs(w - expected) <= 1e-15 * expected, u

    @pytest.mark.parametrize("u", [0.0, -3.0, math.nan])
    def test_steady_state_refuses_a_non_positive_wind(self, params, curve, u):
        k_opt = optimal_torque_gain(params, curve)
        with pytest.raises(EnvelopeError,
                           match=f"^wind speed must be positive, got {u}$"):
            steady_state_rotor_speed(params, curve, k_opt, u)

    def test_steady_state_below_the_rotor_speed_bound_is_returned(self, params,
                                                                  curve):
        # The balance exists at 0.5 m/s; the scenario, not the solver,
        # refuses a start below omega_r_min.
        k_opt = optimal_torque_gain(params, curve)
        w = steady_state_rotor_speed(params, curve, k_opt, 0.5)
        expected = curve.lambda_star * 0.5 / params.rotor_radius
        assert abs(w - expected) <= 1e-15 * expected
        assert w < params.omega_r_min


class TestStepPlant:
    def test_equilibrium_fixed_point(self, params, curve):
        omega_r, u = 0.9, 8.0
        t_r = (phi(params, curve, omega_r, u)
               * params.gear_ratio * params.inertia_equivalent)
        new = rk4_plant_step(params, curve, omega_r, t_r / params.gear_ratio,
                             u, 0.01)
        assert new == pytest.approx(omega_r, abs=1e-13)

    def test_zero_torque_accelerates(self, params, curve):
        # Positive cp and no generator load: speed strictly increases.
        assert rk4_plant_step(params, curve, 0.7, 0.0, 8.0, 0.01) > 0.7

    def test_dt_must_be_positive(self):
        scn = make_step_wind_scenario(40.0, 10.0, 0.3, duration=20.0,
                                      wind_profile=[(0.0, 7.0)])
        with pytest.raises(ConfigError, match="dt must be positive"):
            dataclasses.replace(scn, dt=0.0)
        with pytest.raises(ConfigError, match="dt must be positive"):
            scenario_from_json({"wind_profile": [[0.0, 7.0]], "duration": 20.0,
                                "dt": 0.0, "estimator": {"gamma": 40.0}})

    def test_integration_order_at_least_four(self, params, curve):
        # Step-halving (Richardson) estimate of the local order inside a
        # single polynomial piece of the interpolant, where the
        # right-hand side is smooth.
        u, t_g, w0 = 7.0, 25000.0, 0.8355
        def local_diff(dt):
            one = rk4_plant_step(params, curve, w0, t_g, u, dt)
            half = rk4_plant_step(
                params, curve,
                rk4_plant_step(params, curve, w0, t_g, u, dt / 2),
                t_g, u, dt / 2)
            return abs(one - half)
        d1, d2 = local_diff(0.25), local_diff(0.125)
        observed_order = math.log2(d1 / d2) - 1.0
        assert observed_order >= 4.0

    def test_step_equals_reference_scheme_bitwise(self, params, curve):
        # Long steps and torques far from balance make the stage increments
        # comparable to omega_r, so a reordered operation in a stage shows
        # in the result instead of rounding away.  Draws whose stages leave
        # the envelope are redrawn.
        rng = random.Random(20210415)
        k_opt = optimal_torque_gain(params, curve)
        checked = 0
        while checked < 1000:
            u = rng.uniform(4.0, 11.0)
            lam = rng.uniform(curve.lambda_min + 0.5, curve.lambda_max - 0.5)
            omega_r = lam * u / params.rotor_radius
            t_g = rng.uniform(0.0, 5.0) * k_opt * (params.gear_ratio * omega_r) ** 2
            dt = rng.uniform(0.01, 20.0)
            try:
                expected = _reference_rk4(params, curve, omega_r, t_g, u, dt)
            except EnvelopeError:
                continue
            assert rk4_plant_step(params, curve, omega_r, t_g, u, dt) == expected
            checked += 1

    @pytest.mark.parametrize("omega_r, t_g, u, dt, message", [
        # The first stage is inside; a later one drops below
        # omega_r_min = 0.1 at a tip-speed ratio of 2.5, inside.
        (0.105, 5e4, 2.5, 0.05, "rotor speed 0.0994"),
        # As above, but the ratio is below lambda_min = 2 as well: the
        # rotor-speed check comes first.
        (0.1001, 5e5, 3.1, 0.01, "rotor speed 0.094"),
        # Decelerating through the lower tip-speed-ratio edge.
        (0.2565, 6e4, 8.0, 0.05, "tip-speed ratio 1.99"),
        # Unloaded and accelerating through the upper edge.
        (1.2695, 0.0, 8.0, 0.5, "tip-speed ratio 10.02"),
        # Outside at the first stage.
        (1.5, 0.0, 8.0, 0.01, "tip-speed ratio 11.8"),
        (0.9, 0.0, -1.0, 0.01, "wind speed must be positive"),
        (0.09, 0.0, 2.5, 0.01, "rotor speed 0.09 below"),
    ], ids=["rotor-speed", "rotor-speed-before-tsr", "tsr-low", "tsr-high",
            "first-stage", "wind", "first-stage-speed"])
    def test_step_leaving_the_envelope_raises_like_phi(
            self, params, curve, omega_r, t_g, u, dt, message):
        expected = _envelope_message(_reference_rk4, params, curve,
                                     omega_r, t_g, u, dt)
        assert message in expected
        assert _envelope_message(rk4_plant_step, params, curve,
                                 omega_r, t_g, u, dt) == expected
