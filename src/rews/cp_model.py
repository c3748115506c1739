"""Power coefficient curve C_p(lambda) and shape-derived quantities.

The curve is tabulated over tip-speed ratio and interpolated with a
monotone-preserving cubic (PCHIP), which keeps the single-peak sign
pattern of the derivative intact.  All queries outside the tabulated
tip-speed-ratio envelope are hard errors; no extrapolation.
"""

from __future__ import annotations

import csv
import importlib.resources
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .exceptions import CurveError, EnvelopeError

__all__ = [
    "CpCurve",
    "load_cp_curve",
    "read_curve_csv",
    "default_cp_curve",
]

# Tolerance for locating lambda_star on the interpolant.
_LAMBDA_STAR_TOL = 1e-12
_KAPPA_ROOT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CpCurve:
    """Immutable tabulated power coefficient with a C1 interpolant.

    Construct via :func:`load_cp_curve`; the constructor assumes the
    grid already passed validation.  Everything but the ``(lambda, cp)``
    table is derived from it, so equality and the hash go by the table.
    """

    lambda_grid: np.ndarray
    cp_values: np.ndarray
    lambda_star: float
    lambda_zero: float
    _breaks: list = field(repr=False)
    _coeffs: list = field(repr=False)

    def _table(self) -> tuple:
        return self.lambda_grid.tobytes(), self.cp_values.tobytes()

    def __eq__(self, other):
        if not isinstance(other, CpCurve):
            return NotImplemented
        return self._table() == other._table()

    def __hash__(self):
        return hash(self._table())

    @property
    def lambda_min(self) -> float:
        return float(self.lambda_grid[0])

    @property
    def lambda_max(self) -> float:
        return float(self.lambda_grid[-1])

    def _check_envelope(self, lam: float) -> None:
        if not (self.lambda_min <= lam <= self.lambda_max):
            raise EnvelopeError(
                f"tip-speed ratio {float(lam)} outside [{self.lambda_min}, {self.lambda_max}]"
            )

    def _segment(self, lam: float):
        i = bisect_right(self._breaks, lam) - 1
        if i < 0:
            i = 0
        last = len(self._breaks) - 2
        if i > last:
            i = last
        return i, lam - self._breaks[i]

    def _cp_scalar(self, lam: float) -> float:
        # Fast path used inside simulation loops; caller checks the envelope.
        i, t = self._segment(lam)
        c = self._coeffs[i]
        return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

    def _cp_prime_scalar(self, lam: float) -> float:
        i, t = self._segment(lam)
        c = self._coeffs[i]
        return (3.0 * c[0] * t + 2.0 * c[1]) * t + c[2]

    def _cp_array(self, lam: np.ndarray, derivative: bool = False) -> np.ndarray:
        # Vectorised form of _cp_scalar / _cp_prime_scalar: same segment
        # choice and Horner order, so equal bit for bit; no envelope check.
        breaks = np.asarray(self._breaks)
        i = np.clip(np.searchsorted(breaks, lam, side="right") - 1,
                    0, breaks.size - 2)
        t = lam - breaks[i]
        c = np.moveaxis(np.asarray(self._coeffs)[i], -1, 0)
        if derivative:
            return (3.0 * c[0] * t + 2.0 * c[1]) * t + c[2]
        return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

    def _checked_array(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if lam.size and (lam.min() < self.lambda_min or lam.max() > self.lambda_max):
            raise EnvelopeError("tip-speed ratio array leaves the curve envelope")
        return lam

    def cp(self, lam):
        """Interpolated power coefficient at tip-speed ratio ``lam``."""
        if np.ndim(lam) == 0:
            lam = float(lam)
            self._check_envelope(lam)
            return self._cp_scalar(lam)
        return self._cp_array(self._checked_array(lam))

    def cp_prime(self, lam):
        """Derivative dC_p/dlambda of the interpolant."""
        if np.ndim(lam) == 0:
            lam = float(lam)
            self._check_envelope(lam)
            return self._cp_prime_scalar(lam)
        return self._cp_array(self._checked_array(lam), derivative=True)

    def kappa(self, lam):
        """(3/lambda) C_p(lambda) - C_p'(lambda), the monotonicity term."""
        if np.ndim(lam) == 0:
            lam = float(lam)
            self._check_envelope(lam)
            return 3.0 / lam * self._cp_scalar(lam) - self._cp_prime_scalar(lam)
        lam = self._checked_array(lam)
        return 3.0 / lam * self._cp_array(lam) - self._cp_array(lam, derivative=True)

    @property
    def cp_star(self) -> float:
        """Peak power coefficient C_p(lambda_star)."""
        return self._cp_scalar(self.lambda_star)


def _validate_single_peak(pchip: PchipInterpolator, grid: np.ndarray) -> float:
    """Check the single-peak derivative sign pattern; return lambda_star.

    The derivative of the interpolant must be positive up to an interior
    maximizer and negative beyond it, with exactly one sign change.
    """
    lam_min, lam_max = float(grid[0]), float(grid[-1])
    dense = np.linspace(lam_min, lam_max, 2001)
    dp = pchip.derivative()(dense)

    tol = 1e-12 * max(1.0, float(np.max(np.abs(dp))))
    signs = np.sign(np.where(np.abs(dp) <= tol, 0.0, dp))
    nonzero = signs[signs != 0]
    if nonzero.size == 0:
        raise CurveError("power coefficient curve is flat")
    changes = np.count_nonzero(np.diff(nonzero) != 0)
    if nonzero[0] <= 0 or nonzero[-1] >= 0 or changes != 1:
        raise CurveError(
            "derivative sign pattern is not single-peaked "
            "(positive below the maximizer, negative above)"
        )

    # Bracket the sign change of the derivative, then refine by root finding.
    idx = int(np.argmax(signs < 0))
    lo = dense[max(idx - 1, 0)]
    hi = dense[idx]
    dprime = pchip.derivative()
    if dprime(lo) <= 0 or dprime(hi) >= 0:
        # Fall back to a coarse scan if the bracket degenerated on the grid.
        k = int(np.argmax(pchip(dense)))
        lo = dense[max(k - 1, 0)]
        hi = dense[min(k + 1, dense.size - 1)]
    lam_star = brentq(dprime, lo, hi, xtol=_LAMBDA_STAR_TOL)
    if not (lam_min < lam_star < lam_max):
        raise CurveError("maximizer of the curve is not interior")
    return float(lam_star)


def _find_lambda_zero(curve: CpCurve, lam_star: float) -> float:
    """Largest root of kappa below lambda_star, or lambda_min if kappa > 0 there."""
    dense = np.linspace(curve.lambda_min, lam_star, 1001)
    kv = curve.kappa(dense)
    # Scan downward from lambda_star for the first sign change.
    for i in range(dense.size - 2, -1, -1):
        if kv[i] <= 0.0 < kv[i + 1]:
            return float(brentq(curve.kappa, dense[i], dense[i + 1],
                                xtol=_KAPPA_ROOT_TOL))
        if kv[i] == 0.0:
            return float(dense[i])
    return curve.lambda_min


def load_cp_curve(pairs) -> CpCurve:
    """Build a validated :class:`CpCurve` from (lambda, cp) pairs.

    Requires at least 4 pairs, a strictly increasing lambda grid,
    positive cp values, and a single-peaked interpolant derivative.
    """
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise CurveError("expected a sequence of (lambda, cp) pairs")
    if arr.shape[0] < 4:
        raise CurveError(f"need at least 4 points for a C1 fit, got {arr.shape[0]}")
    lam = arr[:, 0]
    cp = arr[:, 1]
    if not np.all(np.isfinite(arr)):
        raise CurveError("non-finite values in curve table")
    if np.any(np.diff(lam) <= 0):
        raise CurveError("tip-speed ratio grid must be strictly increasing")
    if lam[0] <= 0:
        raise CurveError("tip-speed ratios must be positive")
    if np.any(cp <= 0):
        raise CurveError("power coefficient values must be positive")

    pchip = PchipInterpolator(lam, cp, extrapolate=False)
    lam_star = _validate_single_peak(pchip, lam)

    curve = CpCurve(
        lambda_grid=lam.copy(),
        cp_values=cp.copy(),
        lambda_star=lam_star,
        lambda_zero=float(lam[0]),
        _breaks=[float(x) for x in pchip.x],
        _coeffs=[tuple(float(pchip.c[r, i]) for r in range(4))
                 for i in range(pchip.c.shape[1])],
    )
    return replace(curve, lambda_zero=_find_lambda_zero(curve, lam_star))


def read_curve_csv(path) -> CpCurve:
    """Load a curve from a two-column CSV with header ``lambda,cp``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["lambda", "cp"]:
            raise CurveError(f"{path}: expected header 'lambda,cp'")
        pairs = [(float(row[0]), float(row[1])) for row in reader if row]
    return load_cp_curve(pairs)


def default_cp_curve() -> CpCurve:
    """Synthetic single-peak curve shipped with the package.

    This is *not* measured turbine data: it is a smooth bell-shaped
    table on lambda in [2, 10] peaking near lambda = 7.5 at about 0.48,
    shaped to resemble a multi-megawatt machine's below-rated curve.
    """
    ref = importlib.resources.files("rews.data").joinpath("cp_curve_synthetic.csv")
    with importlib.resources.as_file(ref) as path:
        return read_curve_csv(path)
