"""Wind speed estimator realizations.

Three interchangeable forms of the torque-balance estimator:

* ``IANDI`` -- internal-state form with output map U_hat = U_hat_I + gamma*omega_r
* ``EQUIV_P`` -- rotor-speed-observer form with proportional correction
  U_hat = gamma * (omega_r - omega_hat_r); trajectory-equivalent to IANDI
* ``PI`` -- proportional plus integral correction
  U_hat = gamma*eps + beta * integral(eps)

All three run at a fixed sample time with forward-Euler state updates.
An optional pure delay of T seconds sits on the correction output that
feeds the nonlinearity, emulating loop latency in a digital
implementation.  A step mutates its state in place and returns it
together with the emitted estimate; each state belongs to exactly one
simulation run.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from .cp_model import CpCurve
from .exceptions import ConfigError
from .turbine import TurbineParams, phi_clamped

__all__ = [
    "Family",
    "EstimatorConfig",
    "EstimatorState",
    "init_estimator",
    "step_estimator",
    "delayed_feedback",
]


class Family(enum.Enum):
    IANDI = "iandi"
    EQUIV_P = "p"
    PI = "pi"


@dataclass(frozen=True)
class EstimatorConfig:
    family: Family
    gamma: float          # proportional gain, (m/s)/(rad/s)
    beta: float = 0.0     # integral gain, (m/s)/rad; PI only
    delay_T: float = 0.0  # loop delay, s
    dt: float = 0.01      # sample time, s

    def __post_init__(self):
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be positive, got {float(self.gamma)}")
        if self.beta < 0:
            raise ConfigError(f"beta must be non-negative, got {float(self.beta)}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {float(self.dt)}")
        if self.delay_T < 0:
            raise ConfigError(f"delay must be non-negative, got {float(self.delay_T)}")
        steps = self.delay_T / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigError(
                f"delay {self.delay_T} is not an integer multiple of dt {self.dt}"
            )

    @property
    def n_delay(self) -> int:
        return int(round(self.delay_T / self.dt))


@dataclass
class EstimatorState:
    """Mutable per-run estimator state; only the configured family's
    fields are populated."""

    u_hat_internal: float = None   # IANDI internal state, m/s
    omega_hat_r: float = None      # observer rotor speed, rad/s
    integral_eps: float = None     # accumulated speed error, rad
    delay_buffer: deque = field(default_factory=deque)
    clamp_count: int = 0           # envelope clamps seen on the feedback path


def init_estimator(config: EstimatorConfig, omega_r0: float,
                   u_guess: float) -> EstimatorState:
    """State whose first emitted estimate equals ``u_guess``."""
    if u_guess <= 0:
        raise ConfigError(f"initial wind speed guess must be positive, got {float(u_guess)}")
    if omega_r0 <= 0:
        raise ConfigError(f"initial rotor speed must be positive, got {float(omega_r0)}")

    state = EstimatorState()
    if config.family is Family.IANDI:
        state.u_hat_internal = u_guess - config.gamma * omega_r0
    elif config.family is Family.EQUIV_P or config.beta == 0.0:
        # PI with beta = 0 degenerates to the proportional form.
        state.omega_hat_r = omega_r0 - u_guess / config.gamma
        if config.family is Family.PI:
            state.integral_eps = 0.0
    else:
        state.omega_hat_r = omega_r0
        state.integral_eps = u_guess / config.beta

    state.delay_buffer = deque([u_guess] * config.n_delay, maxlen=config.n_delay or None)
    return state


def estimator_output(config: EstimatorConfig, state: EstimatorState,
                     omega_r: float) -> float:
    """Current wind speed estimate from the (pre-update) state."""
    if config.family is Family.IANDI:
        return state.u_hat_internal + config.gamma * omega_r
    eps = omega_r - state.omega_hat_r
    if config.family is Family.PI:
        return config.gamma * eps + config.beta * state.integral_eps
    return config.gamma * eps


def delayed_feedback(state: EstimatorState, sample: float) -> float:
    """Push the newest feedback sample, pop the one from T seconds ago."""
    buf = state.delay_buffer
    if buf.maxlen is None or buf.maxlen == 0:
        return sample
    delayed = buf[0]
    buf.append(sample)  # maxlen evicts the popped element
    return delayed


def step_estimator(params: TurbineParams, curve: CpCurve, state: EstimatorState,
                   omega_r: float, t_g: float, config: EstimatorConfig):
    """One Euler update of any family; returns ``(state, u_hat)``.

    ``u_hat`` is the estimate emitted from the pre-update state.
    """
    u_out = estimator_output(config, state, omega_r)
    u_fb = delayed_feedback(state, u_out)
    phi_val, clamped = phi_clamped(params, curve, omega_r, u_fb)
    if clamped:
        state.clamp_count += 1

    n = params.gear_ratio
    drive = phi_val / n - t_g / (n * params.inertia_equivalent)
    dt = config.dt
    if config.family is Family.IANDI:
        state.u_hat_internal -= dt * config.gamma * drive
    else:
        if config.family is Family.PI:
            state.integral_eps += dt * (omega_r - state.omega_hat_r)
        state.omega_hat_r += dt * drive
    return state, u_out
