"""Drivetrain parameters, the torque-balance nonlinearity, and the plant.

The plant is the one-state generator-shaft model
``J * d(omega_g)/dt = T_r / N - T_g`` with ``omega_g = N * omega_r``,
integrated with a classical fixed-step 4th-order Runge-Kutta scheme.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .cp_model import CpCurve
from .exceptions import ConfigError, EnvelopeError

__all__ = [
    "TurbineParams",
    "default_turbine_params",
    "load_params_file",
    "phi",
    "phi_clamped",
    "optimal_torque_gain",
    "steady_state_rotor_speed",
    "rk4_plant_step",
]


@dataclass(frozen=True)
class TurbineParams:
    """Physical constants of the drivetrain (SI units).  Every input, and
    every field derived from them, must be positive and finite."""

    rho: float                 # air density, kg/m^3
    rotor_radius: float        # R, m
    gear_ratio: float          # N = omega_g / omega_r
    inertia_generator: float   # J_g, kg m^2
    inertia_rotor: float       # J_r, kg m^2
    omega_r_min: float = 0.1   # lower rotor-speed bound, rad/s
    swept_area: float = field(init=False)          # A = pi R^2
    inertia_equivalent: float = field(init=False)  # J = J_g + J_r / N^2
    phi_coefficient: float = field(init=False)     # rho A / (2 N J), phi's prefactor

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.init):
            _in_range(name, lambda: getattr(self, name))
        for name, formula in (
                ("swept_area", lambda: math.pi * self.rotor_radius ** 2),
                ("inertia_equivalent", lambda: self.inertia_generator
                 + self.inertia_rotor / self.gear_ratio ** 2),
                ("phi_coefficient", lambda: self.rho * self.swept_area
                 / (2.0 * self.gear_ratio * self.inertia_equivalent))):
            object.__setattr__(self, name, _in_range(name, formula))


def _in_range(name: str, formula) -> float:
    """``formula()``; ConfigError naming it unless it is positive and finite
    (also for NaN).  A result beyond the float range counts as inf, whether
    the arithmetic rounds to inf or raises."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):  # x ** n overflowed; a divisor underflowed
        value = math.inf
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return value


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
        for number, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {number} is not "
                                  f"'key = value': {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in values:
                raise ConfigError(f"{path}: line {number} repeats {key!r}")
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"{path}: line {number}: {key} is not a "
                                  f"number: {val!r}") from None
    inputs = [f for f in fields(TurbineParams) if f.init]
    unknown = set(values) - {f.name for f in inputs}
    if unknown:
        raise ConfigError(f"{path}: unknown parameter(s) {sorted(unknown)}")
    missing = [f.name for f in inputs
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"{path}: missing parameter(s) {missing}")
    return TurbineParams(**values)


def _wind_error(u: float) -> EnvelopeError:
    return EnvelopeError(f"wind speed must be positive, got {float(u)}")


def _rotor_speed_error(params: TurbineParams, omega_r: float) -> EnvelopeError:
    return EnvelopeError(
        f"rotor speed {float(omega_r)} below the lower bound {params.omega_r_min}")


def phi(params: TurbineParams, curve: CpCurve, omega_r: float, u: float) -> float:
    """Nonlinearity: aerodynamic torque over N*J, (rho A / 2NJ) U^3/omega_r Cp.

    Raises :class:`EnvelopeError` if the implied tip-speed ratio leaves
    the curve envelope; no extrapolation.
    """
    if u <= 0:
        raise _wind_error(u)
    if omega_r < params.omega_r_min:
        raise _rotor_speed_error(params, omega_r)
    lam = omega_r * params.rotor_radius / u
    if not curve.lambda_min <= lam <= curve.lambda_max:  # also refuses NaN
        raise EnvelopeError(f"tip-speed ratio {float(lam)} outside "
                            f"[{curve.lambda_min}, {curve.lambda_max}]")
    return params.phi_coefficient * u ** 3 / omega_r * curve._cp_scalar(lam)


def phi_clamped(params: TurbineParams, curve: CpCurve,
                omega_r: float, u: float) -> tuple[float, bool]:
    """Nonlinearity with the wind-speed argument clamped to the envelope.

    Used on the estimator feedback path so diverging configurations can
    run to completion instead of crashing: a feedback sample whose
    tip-speed ratio would leave the curve envelope is clamped to the
    wind speed at the nearest envelope edge (saturating the nonlinearity,
    which increases in ``u`` only while the tip-speed ratio stays above
    ``curve.lambda_zero``, where kappa > 0).  Returns ``(value, clamped_flag)``.
    """
    if omega_r < params.omega_r_min:
        raise _rotor_speed_error(params, omega_r)
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


def optimal_torque_gain(params: TurbineParams, curve: CpCurve) -> float:
    """Gain that makes the quadratic law track the peak tip-speed ratio;
    ConfigError unless it is positive and finite."""
    return _in_range("optimal torque gain", lambda: (
        params.rho * params.swept_area * params.rotor_radius ** 3 * curve.cp_star
        / (2.0 * params.gear_ratio ** 3 * curve.lambda_star ** 3)))


def steady_state_rotor_speed(params: TurbineParams, curve: CpCurve,
                             k_opt: float, u: float) -> float:
    """Rotor speed at which aerodynamic and generator torque balance.

    Solves phi(omega, u)/N = K (N omega)^2 / (N J), which is
    ``C_p(lambda) / lambda^3 = 2 K N^3 / (rho A R^3)``: the balance
    tip-speed ratio does not depend on the wind, and at the optimal gain
    it is ``lambda_star`` to rounding (7.500000000000001 for the default
    curve's 7.5).  The root is taken above the kappa root, where
    the aerodynamic-over-quadratic torque ratio decreases monotonically
    and the balance is unique (this is the attracting equilibrium; a
    second, repelling balance can exist at low tip-speed ratio).  Returns
    ``lambda u / R``, which may lie below ``params.omega_r_min``: the
    caller checks the bound.  ConfigError unless ``rho A R^3`` is positive
    and finite (a tiny radius underflows it to 0).
    """
    if not u > 0:  # also refuses NaN
        raise _wind_error(u)
    divisor = _in_range("rho A R^3", lambda: (
        params.rho * params.swept_area * params.rotor_radius ** 3))
    ratio = 2.0 * k_opt * params.gear_ratio ** 3 / divisor
    return curve.balance_tip_speed_ratio(ratio) * u / params.rotor_radius


def rk4_plant_step(params: TurbineParams, curve: CpCurve, omega_r: float,
                   t_g: float, u: float, dt: float) -> float:
    """One classical RK4 step of ``d(omega_r)/dt = phi/N - T_g/(N J)``
    with the generator torque held over the step; each stage evaluates
    :func:`phi` and raises its :class:`EnvelopeError`."""
    n = params.gear_ratio
    load = t_g / (n * params.inertia_equivalent)
    half = 0.5 * dt
    k1 = phi(params, curve, omega_r, u) / n - load
    k2 = phi(params, curve, omega_r + half * k1, u) / n - load
    k3 = phi(params, curve, omega_r + half * k2, u) / n - load
    k4 = phi(params, curve, omega_r + dt * k3, u) / n - load
    return omega_r + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
