"""End-to-end acceptance checks.

Each test prints a single ``criterion N: PASS|FAIL`` line so the suite
doubles as a human-readable scorecard when run with ``pytest -s``.
"""

import contextlib
import time

import numpy as np
import pytest

from rews.cp_model import default_cp_curve
from rews.estimators import Family
from rews.harness import (CASE_STUDIES, case_study_circle, classify_trace,
                          make_step_wind_scenario, run_case_studies,
                          run_scenario)
from rews.stability import (certify, circle_from_gains, max_stable_beta,
                            max_stable_delay)
from rews.turbine import default_turbine_params, phi, rk4_plant_step

from conftest import cp_prime, iandi_reference, locus, phi_prime_u


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {title}")
        raise
    print(f"criterion {number}: PASS - {title}")


@pytest.fixture(scope="module")
def case_report():
    t0 = time.perf_counter()
    report = run_case_studies()
    report["_elapsed_s"] = time.perf_counter() - t0
    return report


def test_criterion_1_form_equivalence():
    with criterion(1, "the I&I recursion and the proportional observer agree"):
        t0 = time.perf_counter()
        trace = run_scenario(make_step_wind_scenario(40.0, 0.0, 0.3,
                                                     family=Family.IANDI))
        a = iandi_reference(trace)
        scale = np.maximum(1.0, np.abs(a))
        assert np.max(np.abs(trace.u_hat - a) / scale) <= 1e-12
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_pi_zero_steady_state_error():
    with criterion(2, "integral action removes the steady-state speed error"):
        runs = {}
        for beta in (4.0, 0.0):
            scn = make_step_wind_scenario(
                80.0, beta, 0.3, wind_profile=[(0.0, 7.0)], duration=200.0)
            runs[beta] = run_scenario(scn)
        pi = runs[4.0]
        assert abs(float(pi.eps[-1])) <= 1e-4
        assert abs(float(pi.u_hat[-1]) - 7.0) <= 1e-3
        assert abs(float(runs[0.0].eps[-1])) >= 10.0 * abs(float(pi.eps[-1]))


def test_criterion_3_circle_geometry():
    with criterion(3, "forbidden-disk geometry from the reference slopes"):
        c = circle_from_gains(0.016, 0.095)
        assert c.center == pytest.approx(-36.513, abs=0.001)
        assert c.radius == pytest.approx(25.987, abs=0.001)
        assert c.alpha == pytest.approx(36.513, abs=0.001)


def test_criterion_4_case_verdicts_and_labels(case_report):
    with criterion(4, "case-study verdicts and simulation labels"):
        cases = {c["name"]: c for c in case_report["cases"]}
        assert cases["case1"]["certified"]
        assert cases["case4"]["certified"]
        for name in ("case2", "case3", "case6"):
            assert not cases[name]["certified"], name
        assert cases["case1"]["sim_label"] == "converged"
        # The unstable configurations oscillate with growing amplitude on
        # the one-state plant; both labels describe that behaviour.
        assert cases["case3"]["sim_label"] in ("oscillatory", "diverged")
        assert cases["case6"]["sim_label"] in ("oscillatory", "diverged")
        assert case_report["_elapsed_s"] < 60.0


def test_criterion_5_beta_margin(case_report):
    with criterion(5, "largest certified integral gain at gamma=40, delay=0.3"):
        circle = case_study_circle()
        b_max = case_report["beta_margin"]["value"]
        assert 12.0 <= b_max <= 16.0
        assert certify(40.0, b_max, 0.3, circle).certified
        assert not certify(40.0, b_max + 0.01, 0.3, circle).certified


def test_criterion_6_delay_margin(case_report):
    with criterion(6, "largest certified delay at gamma=40, beta=10"):
        circle = case_study_circle()
        t_max = case_report["delay_margin"]["value"]
        assert certify(40.0, 10.0, t_max, circle).certified
        assert not certify(40.0, 10.0, t_max + 0.01, circle).certified
        assert (t_max < 2.0
                or case_report["delay_margin"]["inconsistent_with_case6"])


def test_criterion_8_monotonicity():
    with criterion(8, "nonlinearity strictly increasing above the slope root"):
        params = default_turbine_params()
        curve = default_cp_curve()
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 100:
            w = rng.uniform(0.4, 1.3)
            lam = rng.uniform(curve.lambda_zero * 1.001, curve.lambda_max)
            u = w * params.rotor_radius / lam
            lam_targets = np.linspace(
                lam, rng.uniform(curve.lambda_zero * 1.001, lam), 10)
            us = np.unique(w * params.rotor_radius / lam_targets)
            if us.size < 10:
                continue
            vals = [phi(params, curve, w, x) for x in us]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            h = 1e-5 * u
            if curve.lambda_min < w * params.rotor_radius / (u + h) and \
               w * params.rotor_radius / (u - h) < curve.lambda_max:
                fd = (phi(params, curve, w, u + h)
                      - phi(params, curve, w, u - h)) / (2 * h)
                assert phi_prime_u(params, curve, w, u) == pytest.approx(
                    fd, rel=1e-4)
            checked += 1


def test_criterion_9_numerical_hygiene():
    with criterion(9, "integrator order, derivative accuracy, grid stability"):
        params = default_turbine_params()
        curve = default_cp_curve()

        # Integrator order by local step halving inside one smooth piece.
        u, t_g, w0 = 7.0, 25000.0, 0.8355

        def local_diff(dt):
            one = rk4_plant_step(params, curve, w0, t_g, u, dt)
            half = rk4_plant_step(
                params, curve,
                rk4_plant_step(params, curve, w0, t_g, u, dt / 2),
                t_g, u, dt / 2)
            return abs(one - half)

        order = np.log2(local_diff(0.25) / local_diff(0.125)) - 1.0
        assert order >= 4.0

        # Interpolant derivative against central differences.
        rng = np.random.default_rng(99)
        for lam in rng.uniform(curve.lambda_min + 0.1,
                               curve.lambda_max - 0.1, 25).tolist():
            fd = (curve._cp_scalar(lam + 1e-5) - curve._cp_scalar(lam - 1e-5)) / 2e-5
            assert cp_prime(curve, lam) == pytest.approx(fd, rel=1e-4)

        # Doubling the frequency resolution moves the reported minimum
        # distance by at most 0.1%.
        circle = case_study_circle()
        coarse = certify(40.0, 10.0, 0.3, circle).min_distance
        fine = np.abs(locus(40.0, 10.0, 0.3, np.logspace(-3.0, 3.0, 8000))
                      - circle.center).min()
        assert abs(fine - coarse) <= 1e-3 * coarse
