"""Absolute-stability analysis of the estimator loop.

The loop is a Lur'e interconnection: the linear correction dynamics
``G(s) = (gamma*s + beta)/s^2 * exp(-s*T)`` in negative feedback with
the sector-bounded torque nonlinearity.  Convergence is certified when
the Nyquist locus of G stays outside the disk whose real-axis diameter
runs from -1/k1 to -1/k2.  ``certify`` is the one judge of a locus: a
minimum distance from the disk center exceeding its radius on one fixed
grid.  No function takes a grid: ``frequency_response`` always evaluates G
on ``default_omega_grid()``.
Past its ends the disk's moduli ``[1/k2, 1/k1]`` and the strictly falling
``|G(jw)|^2 = gamma^2/w^2 + beta^2/w^4`` prove the locus outside the disk
when ``|G| > 1/k1`` at the first point and ``|G| < 1/k2`` at the last.
The sector slopes k1, k2 are inputs (``harness`` holds the fixed
case-study pair); the module does not derive them from the turbine model.
The criterion is sufficient only: a refusal does not prove divergence.
The module is pure analysis and does no file I/O; ``harness`` writes its
artifacts.

Margins are first crossings, in closed form on the default grid: the
largest ``m`` with all of ``[0, m]`` certified.  They raise ConfigError when 0
is not certified or when no frequency ever enters the disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimators import check_gains
from .exceptions import ConfigError, GridCoverageError

__all__ = [
    "CircleSpec",
    "FrequencyResponse",
    "DistanceVerdict",
    "circle_from_gains",
    "frequency_response",
    "default_omega_grid",
    "certify",
    "max_stable_beta",
    "max_stable_delay",
]


@dataclass(frozen=True)
class CircleSpec:
    """Forbidden disk in the Nyquist plane: its diameter on the real axis
    runs from -1/k1 to -1/k2.  Needs ``0 < k1 <= k2 < inf``."""

    k1: float  # sector slopes, kept as given
    k2: float
    center: float = field(init=False)  # C = -(k1+k2)/(2 k1 k2)
    radius: float = field(init=False)  # R = (k2-k1)/(2 k1 k2)
    alpha: float = field(init=False)   # -C, the scaling placing the center at (-1, 0)

    def __post_init__(self):
        k1, k2 = self.k1, self.k2
        if not 0 < k1 <= k2 < np.inf:  # also refuses NaN
            raise ConfigError(f"need 0 < k1 <= k2 < inf, got k1={k1!r}, k2={k2!r}")
        center = -(k2 + k1) / (2.0 * k1 * k2)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", (k2 - k1) / (2.0 * k1 * k2))
        object.__setattr__(self, "alpha", -center)

    def as_dict(self) -> dict:
        """The disk as ``verdict.json`` and ``report.json["circle"]`` record it."""
        return {"k1": self.k1, "k2": self.k2, "C": self.center,
                "R": self.radius, "alpha": self.alpha}


@dataclass(frozen=True)
class FrequencyResponse:
    omega_grid: np.ndarray   # rad/s, always default_omega_grid()
    g_values: np.ndarray     # complex G(j omega)


@dataclass(frozen=True)
class DistanceVerdict:
    certified: bool
    min_distance: float
    argmin_omega: float
    circle: CircleSpec                                           # the disk judged against
    locus: FrequencyResponse = field(compare=False, repr=False)  # the one judged

    @property
    def label(self) -> str:
        """The verdict's name in ``verdict.json`` and the CLI output."""
        return "ConvergenceCertified" if self.certified else "NotCertified"

    def as_dict(self) -> dict:
        """The ``verdict.json`` record: the verdict, then its disk."""
        return {"verdict": self.label, "min_distance": self.min_distance,
                "argmin_omega": self.argmin_omega, **self.circle.as_dict()}


def circle_from_gains(k1: float, k2: float) -> CircleSpec:
    """Closed-form disk from sector slopes; diameter [-1/k1, -1/k2]."""
    return CircleSpec(k1, k2)


def default_omega_grid() -> np.ndarray:
    """The one grid every certificate is judged on: 4,000 log-spaced
    frequencies on ``[1e-3, 1e3]`` rad/s."""
    return np.logspace(-3.0, 3.0, 4000)


def frequency_response(gamma: float, beta: float,
                       delay_T: float) -> FrequencyResponse:
    """Evaluate G(j w) = (gamma j w + beta)/(j w)^2 * exp(-j w T) on the
    default grid.

    Raises ConfigError when the locus overflows or when ``w*T`` reaches
    2**52 on the grid (the delay phase would be all rounding)."""
    omega = default_omega_grid()
    if omega[-1] * delay_T >= 2.0 ** 52:
        raise ConfigError(f"delay {delay_T!r} is too long: omega*delay reaches "
                          f"2**52 on the grid, where its phase has no fractional bits")
    jw = 1j * omega
    with np.errstate(all="ignore"):
        g = (gamma * jw + beta) / (jw * jw) * np.exp(-jw * delay_T)
    if not np.isfinite(g).all():
        raise ConfigError(f"Nyquist locus of gamma={gamma!r}, beta={beta!r}, "
                          f"delay={delay_T!r} is not finite on the grid")
    return FrequencyResponse(omega_grid=omega, g_values=g)


def certify(gamma: float, beta: float, delay_T: float,
            circle: CircleSpec) -> DistanceVerdict:
    """Minimum distance of the locus from the disk center versus its radius.

    Gains no estimator can have raise ConfigError (rules of
    ``check_gains``); a grid end whose ``|G|`` does not prove the tail
    beyond it outside the disk (module docstring) raises
    :class:`GridCoverageError` naming that end.
    """
    check_gains(gamma, beta, delay_T)
    fr = frequency_response(gamma, beta, delay_T)
    g_low, g_high = np.abs(fr.g_values[[0, -1]]).tolist()
    if not g_low > 1.0 / circle.k1:
        raise GridCoverageError(
            "frequency grid cannot prove the locus outside the disk below "
            f"{float(fr.omega_grid[0])!r} rad/s: |G| = {g_low!r} there, "
            f"not above 1/k1 = {1.0 / circle.k1!r}")
    if not g_high < 1.0 / circle.k2:
        raise GridCoverageError(
            "frequency grid cannot prove the locus outside the disk above "
            f"{float(fr.omega_grid[-1])!r} rad/s: |G| = {g_high!r} there, "
            f"not below 1/k2 = {1.0 / circle.k2!r}")
    dist = np.abs(fr.g_values - circle.center)
    i = int(np.argmin(dist))
    return DistanceVerdict(
        certified=bool(dist[i] > circle.radius),
        min_distance=float(dist[i]),
        argmin_omega=float(fr.omega_grid[i]),
        circle=circle,
        locus=fr,
    )


def _first_crossing(entry, predicate, what: str) -> float:
    """Least positive ``entry``, backed off 0, 1, 3, 7, ... ulps until certified."""
    if not predicate(0.0):
        raise ConfigError(f"configuration not certified even at {what} = 0")
    margin = float(np.min(entry, where=entry > 0.0, initial=np.inf))
    if margin == np.inf:
        raise ConfigError(f"configuration certified for every {what}; no finite margin")
    for k in range(22):  # certify rounds differently; back off <= 2**21 ulps (5e-10)
        value = float(margin - np.spacing(margin) * (2.0 ** k - 1))
        if predicate(value):
            return value
    raise ConfigError(f"closed-form {what} margin {margin!r} is not certified")


def max_stable_beta(gamma: float, delay_T: float, circle: CircleSpec) -> float:
    """Largest ``m`` with every integral gain in ``[0, m]`` certified: with
    ``G = A + beta*B``, a frequency enters the disk at the smaller positive
    root of ``|G - C|^2 = R^2``.  Refusals as in the module docstring."""
    check_gains(gamma, 0.0, delay_T)
    b = frequency_response(0.0, 1.0, delay_T).g_values
    d = frequency_response(gamma, 0.0, delay_T).g_values - circle.center
    with np.errstate(over="ignore", invalid="ignore"):
        qb = 2.0 * (d * b.conj()).real
        qc = np.abs(d) ** 2 - circle.radius ** 2
        entry = 2.0 * qc / (np.sqrt(qb * qb - 4.0 * np.abs(b) ** 2 * qc) - qb)
    return _first_crossing(
        entry, lambda x: certify(gamma, x, delay_T, circle).certified, "beta")


def max_stable_delay(gamma: float, beta: float, circle: CircleSpec) -> float:
    """Largest ``m`` with every delay in ``[0, m]`` certified: the delay turns
    ``G0 = G(jw)|T=0`` by ``-w*T``, and a frequency is in the disk while its
    phase is in ``[a, 2pi - a]``.  Refusals as in the module docstring."""
    check_gains(gamma, beta, 0.0)
    fr = frequency_response(gamma, beta, 0.0)
    g0 = fr.g_values
    r, c_abs = np.abs(g0), -circle.center
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = np.arccos((circle.radius ** 2 - r * r - c_abs ** 2) / (2.0 * r * c_abs))
    entry = np.mod(np.angle(g0) + a, 2.0 * np.pi) / fr.omega_grid
    return _first_crossing(
        entry, lambda x: certify(gamma, beta, x, circle).certified, "delay")
