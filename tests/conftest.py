from bisect import bisect_right
from collections import deque

import numpy as np
import pytest

from rews.cp_model import default_cp_curve, load_cp_curve
from rews.exceptions import EnvelopeError
from rews.turbine import default_turbine_params, phi_clamped


@pytest.fixture(scope="session")
def curve():
    return default_cp_curve()


@pytest.fixture(scope="session")
def params():
    return default_turbine_params()


@pytest.fixture(scope="session")
def sine_curve():
    """Analytic single-peak test curve with maximizer at lambda = 6."""
    lam = np.linspace(2.1, 9.9, 33)
    cp = 0.5 * np.sin(np.pi * (lam - 2.0) / 8.0)
    return load_cp_curve(zip(lam, cp))


def sine_cp(lam):
    return 0.5 * np.sin(np.pi * (lam - 2.0) / 8.0)


def iandi_reference(trace):
    """The paper's I&I recursion, ``U_hat = U_I + gamma*omega_r`` then
    ``U_I -= dt*gamma*(phi/N - T_g/(N J))``, replayed on the rotor speed
    and generator torque that ``trace`` recorded (the plant does not
    depend on the estimator); returns its estimates."""
    scn = trace.scenario
    params, curve, dt = scn.turbine, scn.curve, scn.dt
    gamma = scn.estimator.gamma
    n, inertia = params.gear_ratio, params.inertia_equivalent
    line = deque([scn.initial_u_guess] * round(scn.estimator.delay_T / dt))
    u_internal = scn.initial_u_guess - gamma * scn.initial_omega_r
    out = []
    for omega_r, t_g in zip(trace.omega_r.tolist(), trace.t_g.tolist()):
        u_hat = u_internal + gamma * omega_r
        out.append(u_hat)
        line.append(u_hat)
        phi_val, _ = phi_clamped(params, curve, omega_r, line.popleft())
        u_internal -= dt * gamma * (phi_val / n - t_g / (n * inertia))
    return np.array(out)


def locus(gamma, beta, delay, omega):
    """The closed-form Nyquist locus ``(gamma jw + beta)/(jw)^2 e^{-jwT}`` at
    the frequencies ``omega``: the oracle for ``stability.certify``'s locus."""
    jw = 1j * np.asarray(omega, dtype=float)
    return (gamma * jw + beta) / (jw * jw) * np.exp(-jw * delay)


def over(query, curve, lam):
    """``query(curve, x)`` at every element ``x`` of the array ``lam``, in
    order, so an envelope error names the first ratio outside."""
    return np.array([query(curve, x) for x in np.asarray(lam, dtype=float).tolist()])


def segment(curve, lam):
    """Index of the PCHIP piece at ``lam``: a bisection over every knot,
    clamped to the end pieces.  The reference for the piece that
    ``CpCurve._cp_scalar`` picks by searching the interior knots."""
    breaks = curve._breaks
    return min(max(bisect_right(breaks, lam) - 1, 0), len(breaks) - 2)


def cp_prime(curve, lam):
    """dC_p/dlambda at ``lam``: the derivative of the PCHIP piece that
    ``CpCurve._cp_scalar`` evaluates there.  Refuses ``lam`` outside the
    envelope."""
    if not curve.lambda_min <= lam <= curve.lambda_max:  # also refuses NaN
        raise EnvelopeError(f"tip-speed ratio {float(lam)} outside "
                            f"[{curve.lambda_min}, {curve.lambda_max}]")
    i = segment(curve, lam)
    t = lam - curve._breaks[i]
    c0, c1, c2, _ = curve._coeffs[i]
    return (3.0 * c0 * t + 2.0 * c1) * t + c2


def kappa(curve, lam):
    """(3/lambda) C_p(lambda) - C_p'(lambda), the monotonicity term."""
    return 3.0 / lam * curve._cp_scalar(lam) - cp_prime(curve, lam)


def phi_prime_u(params, curve, omega_r, u):
    """Partial derivative of ``turbine.phi`` in the wind speed,
    (rho A R U / 2NJ) kappa(lambda): positive wherever kappa > 0, which is
    the monotonicity condition."""
    lam = omega_r * params.rotor_radius / u
    return params.phi_coefficient * params.rotor_radius * u * kappa(curve, lam)


def assert_m4(kept, full, columns):
    """``kept`` (an emitted polyline's points) is the M4 reduction of the
    every-point polyline ``full``, whose points lie in the pixel
    ``columns`` (``floor(px)`` before formatting): an in-order subsequence
    that keeps the first and last point and, in every column, at most 4
    points with the column's least and greatest y pixel."""
    kept, full = kept.split(), full.split()
    index = {point: i for i, point in enumerate(full)}
    assert len(index) == len(full), "formatted points must be distinct"
    idx = np.array([index[point] for point in kept])
    assert np.all(np.diff(idx) > 0)
    assert idx[0] == 0 and idx[-1] == len(full) - 1
    py = np.array([float(point.split(",")[1]) for point in full])
    columns = np.asarray(columns)
    for column in np.unique(columns):
        whole = np.flatnonzero(columns == column)
        drawn = idx[columns[idx] == column]
        assert 1 <= drawn.size <= 4, column
        assert py[drawn].min() == py[whole].min(), column
        assert py[drawn].max() == py[whole].max(), column
