"""Absolute-stability analysis of the estimator loop.

The loop is a Lur'e interconnection: the linear correction dynamics
``G(s) = (gamma*s + beta)/s^2 * exp(-s*T)`` in negative feedback with
the sector-bounded torque nonlinearity.  Convergence is certified when
the Nyquist locus of G stays outside the disk whose real-axis diameter
runs from -1/k1 to -1/k2; numerically this is checked as a minimum
distance from the disk center exceeding its radius.  The criterion is
sufficient only: a refusal does not prove divergence.  The module is pure
analysis and does no file I/O; ``harness`` writes its artifacts.

Margins are first crossings, in closed form on the default grid: the
largest ``m`` with all of ``[0, m]`` certified.  They raise ConfigError when 0
is not certified or when no frequency ever enters the disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp_model import CpCurve
from .estimators import check_gains
from .exceptions import ConfigError, EnvelopeError, GridCoverageError
from .turbine import TurbineParams, phi

__all__ = [
    "SectorBounds",
    "CircleSpec",
    "FrequencyResponse",
    "DistanceVerdict",
    "compute_sector_bounds",
    "circle_from_sector",
    "circle_from_gains",
    "frequency_response",
    "default_omega_grid",
    "distance_criterion",
    "certify",
    "max_stable_beta",
    "max_stable_delay",
]

# Relative safety margin applied outward to raw sector extrema.
_SECTOR_MARGIN = 0.01
_GRID_LO = 1e-3
_GRID_HI = 1e3
_GRID_N = 4000
_MAX_WIDENINGS = 3


@dataclass(frozen=True)
class SectorBounds:
    """Sector slopes bounding the nonlinearity: k1*U <= Phi <= k2*U."""

    k1: float
    k2: float
    omega_r_range: tuple
    u_range: tuple
    grid_n: int

    def __post_init__(self):
        if not (0 < self.k1 < self.k2):
            raise ConfigError(f"need 0 < k1 < k2, got ({self.k1!r}, {self.k2!r})")


@dataclass(frozen=True)
class CircleSpec:
    """Forbidden disk in the Nyquist plane derived from sector slopes."""

    center: float  # real-axis coordinate C = -(k1+k2)/(2 k1 k2)
    radius: float  # R = (k2-k1)/(2 k1 k2)

    @property
    def alpha(self) -> float:  # scaling placing the center at (-1, 0)
        return -self.center

    @property
    def k1(self) -> float:
        return -1.0 / (self.center - self.radius)

    @property
    def k2(self) -> float:
        return -1.0 / (self.center + self.radius)


@dataclass(frozen=True)
class FrequencyResponse:
    omega_grid: np.ndarray   # rad/s, strictly increasing, all positive
    g_values: np.ndarray     # complex G(j omega)


@dataclass(frozen=True)
class DistanceVerdict:
    certified: bool
    min_distance: float
    argmin_omega: float


def compute_sector_bounds(params: TurbineParams, curve: CpCurve,
                          omega_r_range, u_range, grid_n: int = 200) -> SectorBounds:
    """Extremize s(omega_r, U) = Phi/U over a rectangular operating grid.

    Grid points whose tip-speed ratio leaves the curve envelope are
    skipped; the raw extrema get a 1% outward safety margin.
    """
    w_lo, w_hi = map(float, omega_r_range)
    u_lo, u_hi = map(float, u_range)
    if not (w_lo <= w_hi and u_lo <= u_hi):
        raise ConfigError("ranges must be ordered (low, high)")
    if w_lo < params.omega_r_min:
        raise EnvelopeError("rotor speed range starts below the lower bound")
    if u_lo <= 0:
        raise EnvelopeError("wind speed range must be positive")

    omegas = np.linspace(w_lo, w_hi, grid_n)
    us = np.linspace(u_lo, u_hi, grid_n)
    lam = np.outer(omegas, 1.0 / us) * params.rotor_radius
    mask = (lam >= curve.lambda_min) & (lam <= curve.lambda_max)
    if not mask.any():
        raise EnvelopeError("operating grid lies entirely outside the curve envelope")

    cp = np.where(mask, curve._cp_array(np.clip(lam, curve.lambda_min, curve.lambda_max)), np.nan)
    slope = (params.phi_coefficient
             * np.outer(1.0 / omegas, us ** 2) * cp)
    k1 = float(np.nanmin(slope))
    k2 = float(np.nanmax(slope))
    if not k2 > k1:
        raise ConfigError("degenerate sector: operating grid gives k1 == k2")
    return SectorBounds(
        k1=k1 * (1.0 - _SECTOR_MARGIN),
        k2=k2 * (1.0 + _SECTOR_MARGIN),
        omega_r_range=(w_lo, w_hi),
        u_range=(u_lo, u_hi),
        grid_n=grid_n,
    )


def circle_from_gains(k1: float, k2: float) -> CircleSpec:
    """Closed-form disk from sector slopes; diameter [-1/k1, -1/k2]."""
    if k1 <= 0 or k2 < k1:
        raise ConfigError(f"need 0 < k1 <= k2, got ({k1!r}, {k2!r})")
    center = -(k2 + k1) / (2.0 * k1 * k2)
    radius = (k2 - k1) / (2.0 * k1 * k2)
    return CircleSpec(center=center, radius=radius)


def circle_from_sector(bounds: SectorBounds) -> CircleSpec:
    return circle_from_gains(bounds.k1, bounds.k2)


def default_omega_grid(lo: float = _GRID_LO, hi: float = _GRID_HI,
                       n: int = _GRID_N) -> np.ndarray:
    return np.logspace(np.log10(lo), np.log10(hi), n)


def frequency_response(gamma: float, beta: float, delay_T: float,
                       omega_grid) -> FrequencyResponse:
    """Evaluate G(j w) = (gamma j w + beta)/(j w)^2 * exp(-j w T)."""
    omega = np.asarray(omega_grid, dtype=float)
    if omega.ndim != 1 or omega.size == 0:
        raise ConfigError("frequency grid must be a non-empty 1-D array")
    if np.any(omega <= 0):
        raise ConfigError("frequency grid must be strictly positive (double pole at 0)")
    if np.any(np.diff(omega) <= 0):
        raise ConfigError("frequency grid must be strictly increasing")
    jw = 1j * omega
    g = (gamma * jw + beta) / (jw * jw) * np.exp(-jw * delay_T)
    return FrequencyResponse(omega_grid=omega, g_values=g)


def distance_criterion(fr: FrequencyResponse,
                       circle: CircleSpec) -> DistanceVerdict:
    """Minimum distance of the locus from the disk center versus its radius.

    Raises :class:`GridCoverageError` when the minimum sits on a grid
    endpoint, unless the locus has already collapsed to the origin at
    the high-frequency end (there the distance limit is |C| > R and the
    grid value is a faithful stand-in for the infimum).
    """
    dist = np.abs(fr.g_values - circle.center)
    i = int(np.argmin(dist))
    if i == 0:
        raise GridCoverageError("distance minimum at the low-frequency grid edge")
    if i == dist.size - 1:
        tail = np.abs(fr.g_values[-1])
        if tail > 1e-3 * abs(circle.center):
            raise GridCoverageError("distance minimum at the high-frequency grid edge")
    return DistanceVerdict(
        certified=bool(dist[i] > circle.radius),
        min_distance=float(dist[i]),
        argmin_omega=float(fr.omega_grid[i]),
    )


def certify(gamma: float, beta: float, delay_T: float, circle: CircleSpec,
            omega_grid=None) -> DistanceVerdict:
    """Distance criterion with automatic grid widening on edge minima.  Gains
    no estimator can have raise ConfigError (rules of ``check_gains``)."""
    check_gains(gamma, beta, delay_T)
    if omega_grid is not None:
        return distance_criterion(
            frequency_response(gamma, beta, delay_T, omega_grid), circle)
    lo, hi, n = _GRID_LO, _GRID_HI, _GRID_N
    for _ in range(_MAX_WIDENINGS + 1):
        fr = frequency_response(gamma, beta, delay_T,
                                default_omega_grid(lo, hi, n))
        try:
            return distance_criterion(fr, circle)
        except GridCoverageError:
            lo, hi, n = lo / 10.0, hi * 10.0, n + 1000
    raise GridCoverageError(
        "distance minimum still at a grid edge after maximum widening")


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
    grid = default_omega_grid()
    b = frequency_response(0.0, 1.0, delay_T, grid).g_values
    d = frequency_response(gamma, 0.0, delay_T, grid).g_values - circle.center
    qb = 2.0 * (d * b.conj()).real
    qc = np.abs(d) ** 2 - circle.radius ** 2
    with np.errstate(invalid="ignore"):
        entry = 2.0 * qc / (np.sqrt(qb * qb - 4.0 * np.abs(b) ** 2 * qc) - qb)
    return _first_crossing(
        entry, lambda x: certify(gamma, x, delay_T, circle).certified, "beta")


def max_stable_delay(gamma: float, beta: float, circle: CircleSpec) -> float:
    """Largest ``m`` with every delay in ``[0, m]`` certified: the delay turns
    ``G0 = G(jw)|T=0`` by ``-w*T``, and a frequency is in the disk while its
    phase is in ``[a, 2pi - a]``.  Refusals as in the module docstring."""
    check_gains(gamma, beta, 0.0)
    grid = default_omega_grid()
    g0 = frequency_response(gamma, beta, 0.0, grid).g_values
    r, c_abs = np.abs(g0), -circle.center
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.arccos((circle.radius ** 2 - r * r - c_abs ** 2) / (2.0 * r * c_abs))
    entry = np.mod(np.angle(g0) + a, 2.0 * np.pi) / grid
    return _first_crossing(
        entry, lambda x: certify(gamma, beta, x, circle).certified, "delay")
