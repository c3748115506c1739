"""Power coefficient curve C_p(lambda) and shape-derived quantities.

The curve is tabulated over tip-speed ratio and interpolated with a
monotone-preserving cubic (PCHIP).  PCHIP keeps every monotone run of the
table monotone and gives a data maximum zero slope (Fritsch & Carlson,
SIAM J. Numer. Anal. 17, 1980), so the interpolant has one peak exactly
when the table does, and the peak is the table's largest knot.  All
queries outside the tabulated tip-speed-ratio envelope are hard errors;
no extrapolation.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
from bisect import bisect_right
from dataclasses import dataclass, field

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

_KAPPA_ROOT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CpCurve:
    """Immutable tabulated power coefficient with a C1 interpolant.

    Construct via :func:`load_cp_curve`, which validates the table.  The
    constructor derives the rest from read-only copies of the table, so
    equality and the hash go by the table and one curve can be shared.
    """

    lambda_grid: np.ndarray
    cp_values: np.ndarray
    lambda_star: float
    lambda_zero: float = field(init=False)
    # PCHIP breaks and Horner coefficients, as floats for _cp_scalar.
    _breaks: list = field(init=False, repr=False)
    _coeffs: list = field(init=False, repr=False)
    _c: np.ndarray = field(init=False, repr=False)  # _coeffs.T, for _cp_array

    def __post_init__(self):
        lam = np.array(self.lambda_grid, dtype=float)
        cp = np.array(self.cp_values, dtype=float)
        pchip = PchipInterpolator(lam, cp, extrapolate=False)
        for arr in (lam, cp, pchip.c):
            arr.flags.writeable = False
        for name, value in (("lambda_grid", lam), ("cp_values", cp),
                            ("_breaks", pchip.x.tolist()),
                            ("_coeffs", [tuple(row) for row in pchip.c.T.tolist()]),
                            ("_c", pchip.c)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "lambda_zero", _find_lambda_zero(self))

    def _table(self) -> tuple:
        return self.lambda_grid.tobytes(), self.cp_values.tobytes()

    def __eq__(self, other):
        if not isinstance(other, CpCurve):
            return NotImplemented
        return self._table() == other._table()

    def __hash__(self):
        return hash(self._table())

    # The interpolant's breaks are the grid as Python floats.
    @property
    def lambda_min(self) -> float:
        return self._breaks[0]

    @property
    def lambda_max(self) -> float:
        return self._breaks[-1]

    def _check_envelope(self, lam) -> None:
        """Raise EnvelopeError naming the first tip-speed ratio in ``lam``
        (a number or an array) outside ``[lambda_min, lambda_max]``."""
        lam = np.asarray(lam, dtype=float)
        outside = lam[~((lam >= self.lambda_min) & (lam <= self.lambda_max))]
        if outside.size:
            raise EnvelopeError(f"tip-speed ratio {float(outside[0])} outside "
                                f"[{self.lambda_min}, {self.lambda_max}]")

    def _cp_scalar(self, lam: float) -> float:
        # The simulator's C_p path, run several times per step; the caller
        # checks the envelope.  Same segment choice and Horner order as
        # _cp_array, so equal bit for bit.
        breaks = self._breaks
        i = bisect_right(breaks, lam) - 1
        if i < 0:
            i = 0
        elif i > len(breaks) - 2:
            i = len(breaks) - 2
        t = lam - breaks[i]
        c0, c1, c2, c3 = self._coeffs[i]
        return ((c0 * t + c1) * t + c2) * t + c3

    def _cp_array(self, lam: np.ndarray, derivative: bool = False) -> np.ndarray:
        # The query evaluator (see _query); no envelope check.
        breaks = self.lambda_grid
        i = np.clip(np.searchsorted(breaks, lam, side="right") - 1,
                    0, breaks.size - 2)
        t = lam - breaks[i]
        c = self._c[:, i]
        if derivative:
            return (3.0 * c[0] * t + 2.0 * c[1]) * t + c[2]
        return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

    def _query(self, lam, evaluate):
        # One envelope check, then the evaluator: an array for an array,
        # a Python float for a number.
        lam = np.asarray(lam, dtype=float)
        self._check_envelope(lam)
        value = evaluate(lam)
        return value if lam.ndim else float(value)

    def cp(self, lam):
        """Interpolated power coefficient at tip-speed ratio ``lam``."""
        return self._query(lam, self._cp_array)

    def cp_prime(self, lam):
        """Derivative dC_p/dlambda of the interpolant."""
        return self._query(lam, lambda x: self._cp_array(x, derivative=True))

    def kappa(self, lam):
        """(3/lambda) C_p(lambda) - C_p'(lambda), the monotonicity term."""
        return self._query(lam, lambda x: 3.0 / x * self._cp_array(x)
                           - self._cp_array(x, derivative=True))

    @property
    def cp_star(self) -> float:
        """Peak power coefficient C_p(lambda_star)."""
        return self._cp_scalar(self.lambda_star)


def _peak_knot(cp: np.ndarray) -> int:
    """Index of the table's peak; CurveError unless the table rises to an
    interior maximum and falls after it (plateaus allowed)."""
    k = int(np.argmax(cp))
    if k == 0 or cp[-1] == cp[k]:
        raise CurveError("maximizer of the curve is not interior")
    rise = np.diff(cp)
    if np.any(rise[:k] < 0) or np.any(rise[k:] > 0):
        raise CurveError(
            "power coefficient table is not single-peaked "
            "(rising up to its maximum, falling above it)"
        )
    return k


def _find_lambda_zero(curve: CpCurve) -> float:
    """Largest root of kappa below lambda_star, or lambda_min if kappa > 0 there."""
    dense = np.linspace(curve.lambda_min, curve.lambda_star, 1001)
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
    positive cp values, and a single-peaked table; lambda_star is its
    peak knot.
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

    return CpCurve(lambda_grid=lam, cp_values=cp,
                   lambda_star=float(lam[_peak_knot(cp)]))


def read_curve_csv(path) -> CpCurve:
    """Load a curve from a two-column CSV with header ``lambda,cp``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["lambda", "cp"]:
            raise CurveError(f"{path}: expected header 'lambda,cp'")
        pairs = [(float(row[0]), float(row[1])) for row in reader if row]
    return load_cp_curve(pairs)


@functools.cache
def default_cp_curve() -> CpCurve:
    """Synthetic single-peak curve shipped with the package.

    This is *not* measured turbine data: it is a smooth bell-shaped
    table on lambda in [2, 10] peaking near lambda = 7.5 at about 0.48,
    shaped to resemble a multi-megawatt machine's below-rated curve.
    Built on the first call; every call returns that one read-only curve.
    """
    ref = importlib.resources.files("rews.data").joinpath("cp_curve_synthetic.csv")
    with importlib.resources.as_file(ref) as path:
        return read_curve_csv(path)
