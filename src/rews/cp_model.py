"""Power coefficient curve C_p(lambda) and shape-derived quantities.

The curve is tabulated over tip-speed ratio and interpolated with the
package's own monotone-preserving cubic (PCHIP): weighted-harmonic
interior slopes (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980) and
the one-sided three-point endpoint rule (Moler, *Numerical Computing
with MATLAB*, 2004, section 3.6).  The fit repeats the operations of
SciPy's ``PchipInterpolator``, so its coefficients equal SciPy's bit for
bit.  PCHIP keeps every monotone run of the table monotone and gives a
data maximum zero slope, so the interpolant has one peak exactly when
the table does, and the peak is the table's largest knot.  All queries
outside the tabulated tip-speed-ratio envelope are hard errors; no
extrapolation.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .exceptions import CurveError, EnvelopeError

__all__ = [
    "CpCurve",
    "load_cp_curve",
    "read_curve_csv",
    "default_cp_curve",
]


@dataclass(frozen=True, eq=False)
class CpCurve:
    """Immutable tabulated power coefficient with a C1 interpolant.

    The table is the only input.  The constructor validates it (see
    :func:`_peak_knot`) and derives everything else from read-only
    copies, so equality and the hash go by the table and one curve can
    be shared.
    """

    lambda_grid: np.ndarray
    cp_values: np.ndarray
    lambda_star: float = field(init=False)  # the peak knot
    lambda_min: float = field(init=False)  # the grid's ends as Python floats
    lambda_max: float = field(init=False)
    lambda_zero: float = field(init=False)
    # The grid, its interior knots and the Horner coefficients per segment,
    # as floats for _cp_scalar, the one C_p evaluator.
    _breaks: list = field(init=False, repr=False)
    _interior: list = field(init=False, repr=False)
    _coeffs: list = field(init=False, repr=False)

    def __post_init__(self):
        lam = np.array(self.lambda_grid, dtype=float)
        cp = np.array(self.cp_values, dtype=float)
        peak = _peak_knot(lam, cp)
        c = _pchip_coefficients(lam, cp)
        for arr in (lam, cp):
            arr.flags.writeable = False
        for name, value in (("lambda_grid", lam), ("cp_values", cp),
                            ("_breaks", lam.tolist()),
                            ("_interior", lam[1:-1].tolist()),
                            ("_coeffs", [tuple(row) for row in c.T.tolist()])):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "lambda_star", self._breaks[peak])
        object.__setattr__(self, "lambda_min", self._breaks[0])
        object.__setattr__(self, "lambda_max", self._breaks[-1])
        object.__setattr__(self, "lambda_zero", _kappa_root(lam, c, peak))

    def _table(self) -> tuple:
        return self.lambda_grid.tobytes(), self.cp_values.tobytes()

    def __eq__(self, other):
        if not isinstance(other, CpCurve):
            return NotImplemented
        return self._table() == other._table()

    def __hash__(self):
        return hash(self._table())

    def _cp_scalar(self, lam: float) -> float:
        # The one C_p evaluator, run several times per simulator step; the
        # caller checks the envelope.  Searching the interior knots puts any
        # lam beyond them on an end segment, as it must when phi_clamped's
        # edge winds put lam one rounding step outside the envelope.
        i = bisect_right(self._interior, lam)
        t = lam - self._breaks[i]
        c0, c1, c2, c3 = self._coeffs[i]
        return ((c0 * t + c1) * t + c2) * t + c3

    def balance_tip_speed_ratio(self, ratio: float) -> float:
        """The tip-speed ratio in ``[lambda_zero, lambda_max]`` at which
        ``C_p(lambda) / lambda^3 = ratio``, the torque balance of a quadratic
        generator law.  ``C_p / lambda^3`` strictly decreases there (its slope
        is ``-kappa / lambda^3``), so ``C_p - ratio lambda^3`` changes sign at
        the knots once, and the root is that of a cubic on one segment.
        Raises EnvelopeError if there is no root there."""
        lo = self.lambda_zero
        knots = self.cp_values - ratio * self.lambda_grid ** 3
        if not (self._cp_scalar(lo) >= ratio * lo ** 3 and knots[-1] <= 0.0):
            raise EnvelopeError(
                "no stable torque balance inside the tip-speed-ratio envelope")
        j = bisect_right(self._breaks, lo)
        i = j - 1 + int(np.argmax(knots[j:] <= 0.0))  # the segment with the root
        x = self._breaks[i]
        c0, c1, c2, c3 = self._coeffs[i]
        roots = np.roots([c0 - ratio, c1 - 3.0 * ratio * x,
                          c2 - 3.0 * ratio * x * x, c3 - ratio * x ** 3])
        # The real root on the segment; rounding may put it just outside.
        t_lo, t_hi = max(lo - x, 0.0), self._breaks[i + 1] - x
        t = min((float(r.real) for r in roots if r.imag == 0),
                key=lambda r: abs(r - min(max(r, t_lo), t_hi)))
        return x + min(max(t, t_lo), t_hi)

    @property
    def cp_star(self) -> float:
        """Peak power coefficient C_p(lambda_star)."""
        return self._cp_scalar(self.lambda_star)


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Horner coefficients, shape (4, n - 1), of the PCHIP fit through
    ``n >= 3`` knots; segment ``i`` is ``((c0 t + c1) t + c2) t + c3`` with
    ``t = lambda - x[i]``.  Operation for operation SciPy's
    ``PchipInterpolator``, so every coefficient is the same double."""
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    # Interior slopes: zero where the neighbouring secants differ in sign
    # or either is flat, else their weighted harmonic mean.
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.concatenate(([_pchip_end_slope(h[0], h[1], m[0], m[1])],
                            np.where(flat, 0.0, 1.0 / whmean),
                            [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]))
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    # One-sided three-point slope, kept from overshooting: zero if it
    # opposes the end secant, at most 3 m0 where the secants turn.
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _kappa_root(x: np.ndarray, c: np.ndarray, peak: int) -> float:
    """Largest root of kappa below the peak knot ``x[peak]``, or ``x[0]`` if
    kappa > 0 there.  On segment ``i``, with ``t = lambda - x[i]`` and the
    Horner coefficients ``c``, ``lambda kappa = 3 C_p - lambda C_p'`` is the
    quadratic ``a t^2 + b t + q``; every segment's is solved at once."""
    x0, h = x[:peak], np.diff(x[:peak + 1])
    c0, c1, c2, c3 = c[:, :peak]
    a = c1 - 3.0 * x0 * c0
    b = 2.0 * (c2 - x0 * c1)
    q = 3.0 * c3 - x0 * c2
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * q), b))
        t = np.stack((s / a, q / s))  # NaN or inf where there is no real root
    # A root that rounding puts just outside its segment still counts.
    slack = 1e-12 * h
    inside = (t >= -slack) & (t <= h + slack)
    if not inside.any():
        return float(x[0])
    i = np.flatnonzero(inside.any(axis=0))[-1]
    return float(x0[i] + np.clip(np.max(t[:, i][inside[:, i]]), 0.0, h[i]))


def _peak_knot(lam: np.ndarray, cp: np.ndarray) -> int:
    """Index of the table's peak knot.  CurveError unless the table has at
    least 4 finite knots on a strictly increasing positive grid, positive
    cp values, and rises to an interior maximum and falls after it
    (plateaus allowed)."""
    if lam.ndim != 1 or lam.shape != cp.shape:
        raise CurveError("lambda grid and cp values must be 1-D and equally long")
    if lam.size < 4:
        raise CurveError(f"need at least 4 points for a C1 fit, got {lam.size}")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(cp))):
        raise CurveError("non-finite values in curve table")
    if np.any(np.diff(lam) <= 0):
        raise CurveError("tip-speed ratio grid must be strictly increasing")
    if lam[0] <= 0:
        raise CurveError("tip-speed ratios must be positive")
    if np.any(cp <= 0):
        raise CurveError("power coefficient values must be positive")
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


def load_cp_curve(pairs) -> CpCurve:
    """Build a :class:`CpCurve` (which validates the table) from
    (lambda, cp) pairs."""
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise CurveError("expected a sequence of (lambda, cp) pairs")
    return CpCurve(lambda_grid=arr[:, 0], cp_values=arr[:, 1])


def read_curve_csv(path) -> CpCurve:
    """Load a curve from a CSV with header ``lambda,cp``; columns after the
    second are ignored."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["lambda", "cp"]:
            raise CurveError(f"{path}: expected header 'lambda,cp'")
        pairs = []
        for row in filter(None, reader):  # skips blank lines
            if len(row) < 2:
                raise CurveError(f"{path}: line {reader.line_num} has fewer "
                                 f"than two fields: {','.join(row)!r}")
            try:
                pairs.append((float(row[0]), float(row[1])))
            except ValueError:
                raise CurveError(f"{path}: line {reader.line_num} has a field "
                                 f"that is not a number: {','.join(row)!r}") from None
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
