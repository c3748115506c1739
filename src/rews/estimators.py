"""Wind speed estimator realizations.

The estimator is a torque-balance observer of the drivetrain.  Its
output ``U_hat`` drives the aerodynamic torque model ``phi``; the torque
balance ``phi/n - T_g/(n J)`` then advances the estimator state by one
forward-Euler step of the scenario's sample time ``dt``.  One update
rule realizes it, the observer ``U_hat = gamma*eps + beta*integral(eps)``
with the speed error ``eps = omega_r - omega_hat_r``, in three
parametrisations: ``PI`` takes both gains, while ``EQUIV_P``
(proportional correction) and ``IANDI`` (the immersion and invariance
estimator) are both the rule with beta = 0.  The I&I internal state is
the observer's in other coordinates, ``U_hat_I = -gamma*omega_hat_r``,
and the map holds exactly for the forward-Euler updates too; the tests
check it numerically against the I&I recursion
``U_hat = U_hat_I + gamma*omega_r``.

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
    omega_hat_r: float             # observer rotor speed, rad/s
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

    delay_line = deque([u_guess] * int(round(config.delay_T / dt)))
    if config.beta == 0.0:
        return EstimatorState(dt, delay_line,
                              omega_hat_r=omega_r0 - u_guess / config.gamma)
    return EstimatorState(dt, delay_line, omega_hat_r=omega_r0,
                          integral_eps=u_guess / config.beta)


def step_estimator(params: TurbineParams, curve: CpCurve, state: EstimatorState,
                   omega_r: float, t_g: float, config: EstimatorConfig) -> float:
    """One Euler update; returns the estimate emitted from the pre-update state.

    The estimate joins the delay line, and the one leaving it drives the
    torque balance ``phi/n - T_g/(n J)``."""
    dt = state.dt
    eps = omega_r - state.omega_hat_r
    u_hat = config.gamma * eps + config.beta * state.integral_eps
    line = state.delay_line
    line.append(u_hat)
    phi_val, clamped = phi_clamped(params, curve, omega_r, line.popleft())
    if clamped:
        state.clamp_count += 1
    n = params.gear_ratio
    state.integral_eps += dt * eps
    state.omega_hat_r += dt * (phi_val / n - t_g / (n * params.inertia_equivalent))
    return u_hat
