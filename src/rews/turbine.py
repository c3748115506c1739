"""Drivetrain parameters, the torque-balance nonlinearity, and the plant.

The plant is the one-state generator-shaft model
``J * d(omega_g)/dt = T_r / N - T_g`` with ``omega_g = N * omega_r``,
integrated with a classical fixed-step 4th-order Runge-Kutta scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .cp_model import CpCurve
from .exceptions import ConfigError, EnvelopeError

__all__ = [
    "TurbineParams",
    "default_turbine_params",
    "load_params_file",
    "phi",
    "phi_clamped",
    "phi_prime_u",
    "optimal_torque_gain",
    "steady_state_rotor_speed",
    "rk4_plant_step",
]

_REL_TOL = 1e-12


@dataclass(frozen=True)
class TurbineParams:
    """Physical constants of the drivetrain (SI units)."""

    rho: float                 # air density, kg/m^3
    rotor_radius: float        # R, m
    gear_ratio: float          # N = omega_g / omega_r
    inertia_generator: float   # J_g, kg m^2
    inertia_rotor: float       # J_r, kg m^2
    swept_area: float = None   # A = pi R^2; computed when omitted
    inertia_equivalent: float = None  # J = J_g + J_r / N^2; computed when omitted
    omega_r_min: float = 0.1   # lower rotor-speed bound, rad/s

    def __post_init__(self):
        for name in ("rho", "rotor_radius", "gear_ratio",
                     "inertia_generator", "inertia_rotor", "omega_r_min"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be strictly positive")
        area = math.pi * self.rotor_radius ** 2
        if self.swept_area is None:
            object.__setattr__(self, "swept_area", area)
        elif abs(self.swept_area - area) > _REL_TOL * area:
            raise ConfigError("swept_area inconsistent with pi * R^2")
        j_eq = self.inertia_generator + self.inertia_rotor / self.gear_ratio ** 2
        if self.inertia_equivalent is None:
            object.__setattr__(self, "inertia_equivalent", j_eq)
        elif abs(self.inertia_equivalent - j_eq) > _REL_TOL * j_eq:
            raise ConfigError("inertia_equivalent inconsistent with J_g + J_r / N^2")

    @property
    def phi_coefficient(self) -> float:
        """rho * A / (2 N J), the prefactor of the nonlinearity."""
        return self.rho * self.swept_area / (
            2.0 * self.gear_ratio * self.inertia_equivalent
        )


def default_turbine_params() -> TurbineParams:
    """5 MW reference-machine constants (publicly documented values)."""
    return TurbineParams(
        rho=1.225,
        rotor_radius=63.0,
        gear_ratio=97.0,
        inertia_generator=534.116,
        inertia_rotor=3.8759228e7,
    )


def load_params_file(path) -> TurbineParams:
    """Read ``key=value`` lines (SI units, '#' comments) into TurbineParams."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: malformed line {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = float(val)
    known = {"rho", "rotor_radius", "gear_ratio", "inertia_generator",
             "inertia_rotor", "swept_area", "inertia_equivalent", "omega_r_min"}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"{path}: unknown parameter(s) {sorted(unknown)}")
    return TurbineParams(**values)


def _check_inputs(params: TurbineParams, omega_r: float, u: float) -> None:
    if u <= 0:
        raise EnvelopeError(f"wind speed must be positive, got {float(u)}")
    if omega_r < params.omega_r_min:
        raise EnvelopeError(
            f"rotor speed {float(omega_r)} below the lower bound {params.omega_r_min}"
        )


def phi(params: TurbineParams, curve: CpCurve, omega_r: float, u: float) -> float:
    """Nonlinearity: aerodynamic torque over N*J, (rho A / 2NJ) U^3/omega_r Cp.

    Raises :class:`EnvelopeError` if the implied tip-speed ratio leaves
    the curve envelope; no extrapolation.
    """
    _check_inputs(params, omega_r, u)
    lam = omega_r * params.rotor_radius / u
    curve._check_envelope(lam)
    return params.phi_coefficient * u ** 3 / omega_r * curve._cp_scalar(lam)


def phi_clamped(params: TurbineParams, curve: CpCurve,
                omega_r: float, u: float) -> tuple[float, bool]:
    """Nonlinearity with the wind-speed argument clamped to the envelope.

    Used on the estimator feedback path so diverging configurations can
    run to completion instead of crashing: a feedback sample whose
    tip-speed ratio would leave the curve envelope is clamped to the
    wind speed at the nearest envelope edge (saturating the
    nonlinearity, monotone in ``u``).  Returns ``(value, clamped_flag)``.
    """
    if omega_r < params.omega_r_min:
        raise EnvelopeError(
            f"rotor speed {float(omega_r)} below the lower bound {params.omega_r_min}"
        )
    tip_speed = omega_r * params.rotor_radius
    u_lo = tip_speed / curve.lambda_max
    u_hi = tip_speed / curve.lambda_min
    clamped = False
    if u < u_lo:
        u, clamped = u_lo, True
    elif u > u_hi:
        u, clamped = u_hi, True
    cp = curve._cp_scalar(tip_speed / u)
    return params.phi_coefficient * u ** 3 / omega_r * cp, clamped


def phi_prime_u(params: TurbineParams, curve: CpCurve,
                omega_r: float, u: float) -> float:
    """Partial derivative of the nonlinearity in the wind speed argument.

    Equals (rho A R U / 2NJ) * kappa(lambda); positive wherever
    kappa > 0, which is the monotonicity condition.
    """
    _check_inputs(params, omega_r, u)
    lam = omega_r * params.rotor_radius / u
    curve._check_envelope(lam)
    return params.phi_coefficient * params.rotor_radius * u * curve.kappa(lam)


def optimal_torque_gain(params: TurbineParams, curve: CpCurve) -> float:
    """Gain that makes the quadratic law track the peak tip-speed ratio."""
    return (params.rho * params.swept_area * params.rotor_radius ** 3
            * curve.cp_star
            / (2.0 * params.gear_ratio ** 3 * curve.lambda_star ** 3))


def steady_state_rotor_speed(params: TurbineParams, curve: CpCurve,
                             k_opt: float, u: float) -> float:
    """Rotor speed at which aerodynamic and generator torque balance.

    Solves phi(omega, u)/N = K (N omega)^2 / (N J).  The search is
    restricted to tip-speed ratios above the kappa root, where the
    aerodynamic-over-quadratic torque ratio decreases monotonically and
    the balance is unique (this is the attracting equilibrium; a second,
    repelling balance can exist at low tip-speed ratio).
    """
    n = params.gear_ratio
    j = params.inertia_equivalent

    def residual(omega):
        return (phi(params, curve, omega, u) / n
                - k_opt * n * omega ** 2 / j)

    lam_lo = max(curve.lambda_zero, curve.lambda_min) * (1 + 1e-9)
    lo = max(lam_lo * u / params.rotor_radius, params.omega_r_min)
    hi = curve.lambda_max * u / params.rotor_radius * (1 - 1e-9)
    r_lo = residual(lo)
    if r_lo == 0.0:
        return lo
    if r_lo < 0 or residual(hi) > 0:
        raise EnvelopeError(
            "no stable torque balance inside the tip-speed-ratio envelope")
    return float(brentq(residual, lo, hi, xtol=1e-12))


def rk4_plant_step(params: TurbineParams, curve: CpCurve, omega_r: float,
                   t_g: float, u: float, dt: float) -> float:
    """One classical RK4 step of ``d(omega_r)/dt = phi/N - T_g/(N J)``
    with the generator torque held over the step.

    Each stage runs the checks of :func:`phi` and raises the same
    :class:`EnvelopeError`; the terms fixed over the step are taken once,
    in the operation order of ``phi``, so the result is bit for bit the
    four-stage scheme written with ``phi``.
    """
    if u <= 0:
        _check_inputs(params, omega_r, u)  # raises phi's error
    n = params.gear_ratio
    radius = params.rotor_radius
    w_min = params.omega_r_min
    lam_lo, lam_hi = curve.lambda_min, curve.lambda_max
    aero = params.phi_coefficient * u ** 3
    load = t_g / (n * params.inertia_equivalent)
    half = 0.5 * dt
    k = []
    w = omega_r
    for step in (half, half, dt, None):
        lam = w * radius / u
        if not (w >= w_min and lam_lo <= lam <= lam_hi):
            _check_inputs(params, w, u)  # raise phi's error
            curve._check_envelope(lam)
        k.append(aero / w * curve._cp_scalar(lam) / n - load)
        if step is not None:
            w = omega_r + step * k[-1]
    k1, k2, k3, k4 = k
    return omega_r + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
