import math

import numpy as np
import pytest

from rews.estimators import (EstimatorConfig, Family, delayed_feedback,
                             estimator_output, init_estimator)
from rews.exceptions import ConfigError
from rews.harness import make_step_wind_scenario, run_scenario


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
            EstimatorConfig(family=Family.PI, gamma=40.0, dt=0.0)
        with pytest.raises(ConfigError):
            EstimatorConfig(family=Family.PI, gamma=40.0, delay_T=-0.1)

    def test_beta_only_for_pi(self):
        # Only the PI form has an integral gain; a nonzero beta elsewhere
        # would be certified for a loop that is never simulated.
        for family in (Family.IANDI, Family.EQUIV_P):
            with pytest.raises(ConfigError, match="PI gain"):
                EstimatorConfig(family=family, gamma=40.0, beta=200.0)
            assert EstimatorConfig(family=family, gamma=40.0).beta == 0.0
        assert EstimatorConfig(family=Family.PI, gamma=40.0, beta=200.0).beta == 200.0

    def test_delay_must_be_grid_multiple(self):
        with pytest.raises(ConfigError, match="multiple"):
            EstimatorConfig(family=Family.PI, gamma=40.0, delay_T=0.305, dt=0.01)
        cfg = EstimatorConfig(family=Family.PI, gamma=40.0, delay_T=0.3, dt=0.01)
        assert cfg.n_delay == 30


class TestInit:
    def test_first_output_equals_guess(self):
        omega0, guess = 0.6, 8.0
        for family, beta in [(Family.IANDI, 0.0), (Family.EQUIV_P, 0.0),
                             (Family.PI, 0.0), (Family.PI, 10.0)]:
            cfg = EstimatorConfig(family=family, gamma=40.0, beta=beta)
            st = init_estimator(cfg, omega0, guess)
            assert estimator_output(cfg, st, omega0) == pytest.approx(
                guess, rel=1e-12)

    def test_internal_state_map(self):
        cfg = EstimatorConfig(family=Family.IANDI, gamma=40.0)
        st = init_estimator(cfg, 0.5, 20.0)
        # u_hat_internal = guess - gamma * omega_r0, here exactly zero.
        assert st.u_hat_internal == 0.0
        assert st.omega_hat_r is None

    def test_observer_state_map(self):
        cfg = EstimatorConfig(family=Family.PI, gamma=40.0, beta=10.0)
        st = init_estimator(cfg, 0.5, 8.0)
        assert st.omega_hat_r == 0.5
        assert st.integral_eps == pytest.approx(0.8)

    def test_rejects_nonpositive_inputs(self):
        cfg = EstimatorConfig(family=Family.PI, gamma=40.0)
        with pytest.raises(ConfigError):
            init_estimator(cfg, 0.5, -8.0)
        with pytest.raises(ConfigError):
            init_estimator(cfg, 0.0, 8.0)


class TestDelayBuffer:
    def test_zero_delay_is_identity(self):
        cfg = EstimatorConfig(family=Family.PI, gamma=40.0, delay_T=0.0)
        st = init_estimator(cfg, 0.6, 8.0)
        assert len(st.delay_buffer) == 0
        assert delayed_feedback(st, 3.14) == 3.14

    def test_pulse_reappears_after_n_delay_steps(self):
        cfg = EstimatorConfig(family=Family.PI, gamma=40.0, delay_T=0.05, dt=0.01)
        st = init_estimator(cfg, 0.6, 8.0)
        outs = [delayed_feedback(st, 99.0 if k == 0 else 8.0)
                for k in range(12)]
        # Buffer preload is the initial guess; the pulse pushed at step 0
        # must come back out exactly n_delay steps later.
        assert outs[:5] == [8.0] * 5
        assert outs[5] == 99.0
        assert outs[6:] == [8.0] * 6

    def test_buffer_length_constant(self):
        cfg = EstimatorConfig(family=Family.PI, gamma=40.0, delay_T=0.3, dt=0.01)
        st = init_estimator(cfg, 0.6, 8.0)
        for k in range(100):
            delayed_feedback(st, float(k))
            assert len(st.delay_buffer) == 30


def _run(family, gamma, beta, delay, duration=120.0):
    scn = make_step_wind_scenario(gamma, beta, delay, family=family,
                                  duration=duration,
                                  wind_profile=[(0.0, 5.0), (60.0, 7.0)])
    return run_scenario(scn)


class TestEquivalence:
    def test_internal_and_proportional_forms_agree(self):
        # Same gains, same inputs: the two realizations are algebraically
        # identical and must agree to round-off over a full run.
        a = _run(Family.IANDI, 40.0, 0.0, 0.3)
        b = _run(Family.EQUIV_P, 40.0, 0.0, 0.3)
        scale = np.maximum(np.abs(a.u_hat), 1.0)
        assert np.max(np.abs(a.u_hat - b.u_hat) / scale) <= 1e-9

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

