"""Absolute-stability analysis of the estimator loop.

The loop is a Lur'e interconnection: the linear correction dynamics
``G(s) = (gamma*s + beta)/s^2 * exp(-s*T)`` in negative feedback with
the sector-bounded torque nonlinearity.  Convergence is certified when
the Nyquist locus of G stays outside the disk whose real-axis diameter
runs from -1/k1 to -1/k2; numerically this is checked as a minimum
distance from the disk center exceeding its radius.  The criterion is
sufficient only: a refusal does not prove divergence.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .cp_model import CpCurve
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
    "export_nyquist_csv",
    "export_verdict_json",
]

# Relative safety margin applied outward to raw sector extrema.
_SECTOR_MARGIN = 0.01
_GRID_LO = 1e-3
_GRID_HI = 1e3
_GRID_N = 4000
_MAX_WIDENINGS = 3
_BISECT_TOL = 1e-3
_BISECT_MAX_ITER = 60


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
    alpha: float   # scaling placing the center at (-1, 0); alpha = -C

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
    return CircleSpec(center=center, radius=radius, alpha=-center)


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
    """Distance criterion with automatic grid widening on edge minima."""
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


def _bisect_threshold(predicate, hi: float, what: str) -> float:
    """Largest x in [0, hi] with predicate(x) true, assuming one switch.

    Monotonicity of the certificate is spot-checked on a coarse sample;
    a non-monotone pattern is reported instead of silently bisected.
    """
    if not predicate(0.0):
        raise ConfigError(f"configuration not certified even at {what} = 0")
    if predicate(hi):
        raise ConfigError(
            f"still certified at {what} = {hi}; enlarge the upper bracket")

    samples = np.linspace(0.0, hi, 13)
    flags = [predicate(x) for x in samples]
    if sorted(flags, reverse=True) != flags:
        raise ConfigError(
            f"certificate is not monotone in {what} on [0, {hi}]; "
            "refusing to bisect")

    lo = 0.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL:
            break
    return lo


def max_stable_beta(gamma: float, delay_T: float, circle: CircleSpec,
                    beta_hi: float = 100.0) -> float:
    """Largest integral gain the distance criterion certifies."""
    return _bisect_threshold(
        lambda b: certify(gamma, b, delay_T, circle).certified,
        beta_hi, "beta")


def max_stable_delay(gamma: float, beta: float, circle: CircleSpec,
                     t_hi: float = 10.0) -> float:
    """Largest loop delay the distance criterion certifies."""
    return _bisect_threshold(
        lambda t: certify(gamma, beta, t, circle).certified,
        t_hi, "delay")


def export_nyquist_csv(fr: FrequencyResponse, circle: CircleSpec, path) -> None:
    """Write ``omega,re,im,distance`` rows for the evaluated locus."""
    dist = np.abs(fr.g_values - circle.center)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega", "re", "im", "distance"])
        for w, g, d in zip(fr.omega_grid, fr.g_values, dist):
            writer.writerow([repr(float(w)), repr(float(g.real)),
                             repr(float(g.imag)), repr(float(d))])


def export_verdict_json(verdict: DistanceVerdict, circle: CircleSpec, path) -> None:
    record = {
        "verdict": "ConvergenceCertified" if verdict.certified else "NotCertified",
        "min_distance": verdict.min_distance,
        "argmin_omega": verdict.argmin_omega,
        "k1": circle.k1,
        "k2": circle.k2,
        "C": circle.center,
        "R": circle.radius,
        "alpha": circle.alpha,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
