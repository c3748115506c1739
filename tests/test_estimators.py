import dataclasses
import math

import numpy as np
import pytest

from rews import estimators
from rews.cp_model import default_cp_curve
from rews.estimators import (EstimatorConfig, Family, init_estimator,
                             step_estimator)
from rews.exceptions import ConfigError, EnvelopeError
from rews.harness import (make_step_wind_scenario, run_scenario,
                          scenario_from_json)
from rews.turbine import default_turbine_params, phi_clamped

from conftest import iandi_reference

DT = 0.01


def _steps(cfg, omega_seq, u_guess=8.0):
    """The state and the estimates emitted over the measured speeds
    ``omega_seq``, started at the first of them, with no generator torque."""
    params, curve = default_turbine_params(), default_cp_curve()
    st = init_estimator(cfg, omega_seq[0], u_guess, DT)
    return st, [step_estimator(params, curve, st, w, 0.0, cfg)
                for w in omega_seq]


class TestConfig:
    def test_family_coercion_from_string(self):
        cfg = EstimatorConfig(family="pi", gamma=40.0)
        assert cfg.family is Family.PI

    def test_rejects_bad_gains(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(family=Family.PI, gamma=0.0)
        with pytest.raises(ConfigError):
            EstimatorConfig(family=Family.PI, gamma=40.0, beta=-1.0)
        with pytest.raises(ConfigError):
            EstimatorConfig(family=Family.PI, gamma=40.0, delay_T=-0.1)
        for name, kwargs in [("gamma", {"gamma": math.inf}),
                             ("beta", {"gamma": 40.0, "beta": math.inf}),
                             ("delay", {"gamma": 40.0, "delay_T": math.inf})]:
            with pytest.raises(ConfigError,
                               match=f"{name} must be .* finite, got inf"):
                EstimatorConfig(family=Family.PI, **kwargs)

    def test_beta_only_for_pi(self):
        # Only the PI form has an integral gain; a nonzero beta elsewhere
        # would be certified for a loop that is never simulated.
        for family in (Family.IANDI, Family.EQUIV_P):
            with pytest.raises(ConfigError, match="PI gain"):
                EstimatorConfig(family=family, gamma=40.0, beta=200.0)
            assert EstimatorConfig(family=family, gamma=40.0).beta == 0.0
        assert EstimatorConfig(family=Family.PI, gamma=40.0, beta=200.0).beta == 200.0

    def test_fields_are_what_certify_takes_plus_the_family(self):
        # The sample time belongs to the scenario, not the estimator.
        names = [f.name for f in dataclasses.fields(EstimatorConfig)]
        assert names == ["family", "gamma", "beta", "delay_T"]


class TestInit:
    def test_first_output_equals_guess(self):
        omega0, guess = 0.6, 8.0
        for family, beta in [(Family.IANDI, 0.0), (Family.EQUIV_P, 0.0),
                             (Family.PI, 0.0), (Family.PI, 10.0)]:
            cfg = EstimatorConfig(family=family, gamma=40.0, beta=beta)
            _, outs = _steps(cfg, [omega0], u_guess=guess)
            assert outs[0] == pytest.approx(guess, rel=1e-12)

    def test_internal_state_map(self):
        # I&I is the proportional observer in other coordinates: its
        # internal state U_I = guess - gamma * omega_r0 is -gamma * omega_hat_r.
        gamma, omega0, guess = 80.0, 0.63, 7.3
        st = init_estimator(EstimatorConfig(family=Family.IANDI, gamma=gamma),
                            omega0, guess, DT)
        assert guess - gamma * omega0 == pytest.approx(-gamma * st.omega_hat_r,
                                                       rel=1e-15)
        assert st.integral_eps == 0.0

    def test_observer_state_map(self):
        cfg = EstimatorConfig(family=Family.PI, gamma=40.0, beta=10.0)
        st = init_estimator(cfg, 0.5, 8.0, DT)
        assert st.omega_hat_r == 0.5
        assert st.integral_eps == pytest.approx(0.8)
        # Without an integral gain the speed error alone carries the guess.
        p = init_estimator(EstimatorConfig(family=Family.EQUIV_P, gamma=40.0),
                           0.5, 8.0, DT)
        assert p.omega_hat_r == 0.5 - 8.0 / 40.0
        assert p.integral_eps == 0.0

    def test_rejects_nonpositive_inputs(self):
        cfg = EstimatorConfig(family=Family.PI, gamma=40.0)
        with pytest.raises(ConfigError):
            init_estimator(cfg, 0.5, -8.0, DT)
        with pytest.raises(ConfigError):
            init_estimator(cfg, 0.0, 8.0, DT)


def _feedback_seen(monkeypatch, cfg, omega_seq):
    """Run ``step_estimator`` over ``omega_seq``; return the emitted
    estimates and the estimate argument each step passed to ``phi``."""
    seen = []

    def recording(params, curve, omega_r, u):
        seen.append(u)
        return phi_clamped(params, curve, omega_r, u)

    monkeypatch.setattr(estimators, "phi_clamped", recording)
    st, outs = _steps(cfg, omega_seq)
    return st, outs, seen


# A speed pulse at step 2 makes the emitted estimate jump at step 2.
_PULSE = [0.6, 0.6, 0.66] + [0.6] * 9


class TestDelayBuffer:
    def test_zero_delay_is_identity(self, monkeypatch):
        for family in Family:
            cfg = EstimatorConfig(family=family, gamma=40.0, delay_T=0.0)
            st, outs, seen = _feedback_seen(monkeypatch, cfg, _PULSE)
            assert len(st.delay_line) == 0
            assert seen == outs

    def test_pulse_reappears_after_n_delay_steps(self, monkeypatch):
        for family in Family:
            cfg = EstimatorConfig(family=family, gamma=40.0, delay_T=0.05)
            _, outs, seen = _feedback_seen(monkeypatch, cfg, _PULSE)
            # The line is preloaded with the initial guess; every estimate
            # comes back out exactly n = 5 steps after it was emitted.
            assert seen[:5] == [8.0] * 5
            assert seen[5:] == outs[:-5]
            assert seen[2 + 5] == outs[2] != outs[1]

    def test_buffer_length_constant(self):
        cfg = EstimatorConfig(family=Family.PI, gamma=40.0, delay_T=0.3)
        params, curve = default_turbine_params(), default_cp_curve()
        st = init_estimator(cfg, 0.6, 8.0, DT)
        assert len(st.delay_line) == 30
        for _ in range(100):
            step_estimator(params, curve, st, 0.6, 0.0, cfg)
            assert len(st.delay_line) == 30


def _run(family, gamma, beta, delay, duration=120.0):
    scn = make_step_wind_scenario(gamma, beta, delay, family=family,
                                  duration=duration,
                                  wind_profile=[(0.0, 5.0), (60.0, 7.0)])
    return run_scenario(scn)


def _rel_gap_to_iandi_recursion(trace):
    ref = iandi_reference(trace)
    return np.max(np.abs(trace.u_hat - ref) / np.maximum(np.abs(ref), 1.0))


class TestEquivalence:
    def test_internal_and_proportional_forms_agree(self):
        # The I&I recursion, replayed on the same plant record, and the
        # proportional observer it is simulated as agree to round-off.
        assert _rel_gap_to_iandi_recursion(_run(Family.IANDI, 40.0, 0.0, 0.3)) <= 1e-12
        # Seeded draws over the scenario-sweep pool's ranges; a draw whose
        # wind drop throws the plant out of the C_p envelope has no trace.
        rng = np.random.default_rng(17)
        completed = 0
        for _ in range(10):
            gamma = round(float(rng.uniform(40.0, 100.0)), 2)
            delay = round(float(rng.uniform(0.3, 2.0)), 2)
            u = np.round(rng.uniform(4.0, 11.0, size=4), 2).tolist()
            scn = scenario_from_json({
                "wind_profile": [[0.0, u[0]], [30.0, u[1]], [60.0, u[2]]],
                "duration": 90.0,
                "estimator": {"family": "iandi", "gamma": gamma, "delay": delay},
                "initial": {"u_guess": u[3]}})
            try:
                trace = run_scenario(scn)
            except EnvelopeError:
                continue
            completed += 1
            assert _rel_gap_to_iandi_recursion(trace) <= 1e-10
        assert completed >= 5

    def test_pi_with_zero_beta_is_bitwise_proportional(self):
        a = _run(Family.EQUIV_P, 40.0, 0.0, 0.3)
        b = _run(Family.PI, 40.0, 0.0, 0.3)
        assert np.array_equal(a.u_hat, b.u_hat)
        assert np.array_equal(a.omega_hat_r, b.omega_hat_r)

    def test_determinism_bitwise(self):
        a = _run(Family.PI, 40.0, 10.0, 0.3)
        b = _run(Family.PI, 40.0, 10.0, 0.3)
        assert np.array_equal(a.u_hat, b.u_hat)
        assert np.array_equal(a.omega_r, b.omega_r)


class TestSteadyStateOffset:
    def test_integral_action_removes_the_speed_error_offset(self):
        # At a constant-wind equilibrium the proportional form needs a
        # standing speed error eps = U / gamma to hold its estimate; the
        # integral term takes that burden over and drives eps toward 0.
        p = _run(Family.EQUIV_P, 40.0, 0.0, 0.3, duration=300.0)
        pi = _run(Family.PI, 40.0, 10.0, 0.3, duration=300.0)
        eps_p = abs(float(p.eps[-1]))
        eps_pi = abs(float(pi.eps[-1]))
        u_final = float(p.u_true[-1])
        assert eps_p == pytest.approx(u_final / 40.0, rel=1e-3)
        assert eps_pi <= eps_p / 10.0
        # Both still estimate the wind itself correctly.
        assert float(p.u_hat[-1]) == pytest.approx(u_final, abs=1e-3)
        assert float(pi.u_hat[-1]) == pytest.approx(u_final, abs=1e-3)

