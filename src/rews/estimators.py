"""Wind speed estimator realizations.

The estimator is a torque-balance observer of the drivetrain.  Its
output ``U_hat`` drives the aerodynamic torque model ``phi``; the torque
balance ``phi/n - T_g/(n J)`` then advances the estimator state by one
forward-Euler step of the scenario's sample time ``dt``.  Two update
rules realize it:

* the observer rule, ``U_hat = gamma*eps + beta*integral(eps)`` with the
  speed error ``eps = omega_r - omega_hat_r``.  ``PI`` is this rule;
  ``EQUIV_P`` (proportional correction) is the same rule with beta = 0.
* the I&I internal-state rule, ``U_hat = U_hat_I + gamma*omega_r``
  (``IANDI``).  It is algebraically the proportional observer, but it
  is kept as its own rule so that the equivalence of the two stays a
  numerical result rather than one true by construction.

An optional pure delay of T seconds (a whole number of samples) sits on
the estimate that feeds ``phi``, emulating loop latency in a digital
implementation.  A step mutates its state in place and returns the
emitted estimate; each state belongs to exactly one simulation run.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

from .cp_model import CpCurve
from .exceptions import ConfigError
from .turbine import TurbineParams, phi_clamped

__all__ = [
    "Family",
    "EstimatorConfig",
    "EstimatorState",
    "check_gains",
    "init_estimator",
    "step_estimator",
]


class Family(enum.Enum):
    IANDI = "iandi"
    EQUIV_P = "p"
    PI = "pi"


def check_gains(gamma: float, beta: float, delay_T: float) -> None:
    """Raise ConfigError unless 0 < gamma, 0 <= beta and 0 <= delay_T, all
    finite (NaN fails)."""
    if not 0 < gamma < math.inf:
        raise ConfigError(f"gamma must be positive and finite, got {float(gamma)}")
    if not 0 <= beta < math.inf:
        raise ConfigError(f"beta must be non-negative and finite, got {float(beta)}")
    if not 0 <= delay_T < math.inf:
        raise ConfigError(f"delay must be non-negative and finite, got {float(delay_T)}")


@dataclass(frozen=True)
class EstimatorConfig:
    family: Family
    gamma: float          # proportional gain, (m/s)/(rad/s)
    beta: float = 0.0     # integral gain, (m/s)/rad; PI only
    delay_T: float = 0.0  # loop delay, s

    def __post_init__(self):
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        check_gains(self.gamma, self.beta, self.delay_T)
        if self.beta != 0 and self.family is not Family.PI:
            raise ConfigError(f"beta is a PI gain; family {self.family.value!r} "
                              f"takes none, got {float(self.beta)}")


@dataclass
class EstimatorState:
    """Mutable per-run estimator state."""

    dt: float                      # sample time, s
    delay_line: deque              # estimates of the last T seconds, oldest first
    u_hat_internal: float = 0.0    # I&I internal state, m/s
    omega_hat_r: float = math.nan  # observer rotor speed, rad/s; NaN for I&I
    integral_eps: float = 0.0      # accumulated speed error, rad
    clamp_count: int = 0           # envelope clamps seen on the feedback path


def init_estimator(config: EstimatorConfig, omega_r0: float, u_guess: float,
                   dt: float) -> EstimatorState:
    """State on the sample grid ``dt`` whose first emitted estimate equals
    ``u_guess``; ``config.delay_T`` is taken as a whole number of samples."""
    if not 0 < u_guess < math.inf:
        raise ConfigError(f"initial wind speed guess must be positive and finite, "
                          f"got {float(u_guess)}")
    if not 0 < omega_r0 < math.inf:
        raise ConfigError(f"initial rotor speed must be positive and finite, "
                          f"got {float(omega_r0)}")

    n_delay = int(round(config.delay_T / dt))
    state = EstimatorState(dt=dt, delay_line=deque([u_guess] * n_delay))
    if config.family is Family.IANDI:
        state.u_hat_internal = u_guess - config.gamma * omega_r0
    elif config.beta == 0.0:
        state.omega_hat_r = omega_r0 - u_guess / config.gamma
    else:
        state.omega_hat_r = omega_r0
        state.integral_eps = u_guess / config.beta
    return state


def _torque_balance(params: TurbineParams, curve: CpCurve, state: EstimatorState,
                    omega_r: float, t_g: float, u_hat: float) -> float:
    """Queue ``u_hat`` on the delay line and return the torque balance
    ``phi/n - T_g/(n J)`` at the estimate that leaves it."""
    line = state.delay_line
    line.append(u_hat)
    phi_val, clamped = phi_clamped(params, curve, omega_r, line.popleft())
    if clamped:
        state.clamp_count += 1
    n = params.gear_ratio
    return phi_val / n - t_g / (n * params.inertia_equivalent)


def step_estimator(params: TurbineParams, curve: CpCurve, state: EstimatorState,
                   omega_r: float, t_g: float, config: EstimatorConfig) -> float:
    """One Euler update; returns the estimate emitted from the pre-update state."""
    dt = state.dt
    if config.family is Family.IANDI:
        u_hat = state.u_hat_internal + config.gamma * omega_r
        drive = _torque_balance(params, curve, state, omega_r, t_g, u_hat)
        state.u_hat_internal -= dt * config.gamma * drive
    else:
        eps = omega_r - state.omega_hat_r
        u_hat = config.gamma * eps + config.beta * state.integral_eps
        drive = _torque_balance(params, curve, state, omega_r, t_g, u_hat)
        state.integral_eps += dt * eps
        state.omega_hat_r += dt * drive
    return u_hat
