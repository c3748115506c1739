import csv
import math

import numpy as np
import pytest

from rews import turbine
from rews.cp_model import (CpCurve, _pchip_coefficients, default_cp_curve,
                           load_cp_curve, read_curve_csv)
from rews.exceptions import CurveError, EnvelopeError

from conftest import cp_prime, kappa, over, segment, sine_cp


def test_too_few_points_rejected():
    with pytest.raises(CurveError, match="at least 4"):
        load_cp_curve([(2, 0.1), (3, 0.2), (4, 0.1)])


def test_non_monotone_grid_rejected():
    with pytest.raises(CurveError, match="increasing"):
        load_cp_curve([(2, 0.1), (3, 0.2), (3, 0.25), (4, 0.1)])


def test_negative_cp_rejected():
    with pytest.raises(CurveError, match="positive"):
        load_cp_curve([(2, 0.1), (3, 0.2), (4, -0.1), (5, 0.05), (6, 0.01)])


def test_double_peak_rejected():
    lam = np.linspace(2, 10, 41)
    cp = 0.3 + 0.1 * np.sin(2.0 * np.pi * (lam - 2.0) / 4.0)
    with pytest.raises(CurveError, match="single-peaked"):
        load_cp_curve(zip(lam, cp))


@pytest.mark.parametrize("lam, cp, message", [
    (np.linspace(2, 10, 41),
     0.3 + 0.1 * np.sin(2.0 * np.pi * np.linspace(0, 8, 41) / 4.0), "single-peaked"),
    ([2.0, 3.0, 4.0], [0.1, 0.2, 0.1], "at least 4"),
    ([2.0, 3.0, 3.0, 4.0], [0.1, 0.2, 0.25, 0.1], "increasing"),
    ([2.0, 3.0, 4.0, 5.0], [0.1, math.nan, 0.2, 0.1], "non-finite"),
    ([2.0, 3.0, 4.0, 5.0], [0.1, 0.2, 0.1], "equally long"),
    ([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.1], "^tip-speed ratios must be positive$"),
], ids=["double-peak", "too-few", "repeated-knot", "nan", "ragged", "zero-ratio"])
def test_constructor_validates_the_table(lam, cp, message):
    # Building the curve directly runs the same checks as load_cp_curve.
    with pytest.raises(CurveError, match=message):
        CpCurve(np.asarray(lam), np.asarray(cp))


@pytest.mark.parametrize("pairs", [
    [2.0, 3.0, 4.0, 5.0],
    [(2.0, 0.1, 1.0), (3.0, 0.2, 1.0), (4.0, 0.3, 1.0), (5.0, 0.1, 1.0)],
    [],
], ids=["flat", "triples", "empty"])
def test_load_refuses_what_is_not_pairs(pairs):
    with pytest.raises(CurveError, match=r"^expected a sequence of \(lambda, cp\) pairs$"):
        load_cp_curve(pairs)


def test_dip_in_a_dense_table_rejected():
    # The interpolant falls on [lam[1233], lam[1234]], before the peak.
    lam = np.linspace(2.0, 10.0, 5001)
    cp = 0.48 * np.exp(-((lam - 7.5) ** 2) / 8.0)
    cp[1234] = cp[1233] - 1e-7
    with pytest.raises(CurveError, match="single-peaked"):
        load_cp_curve(zip(lam, cp))


@pytest.mark.parametrize("cp", [
    [0.5, 0.4, 0.3, 0.2, 0.1],     # peak at the first knot
    [0.1, 0.2, 0.3, 0.4, 0.5],     # peak at the last knot
    [0.1, 0.3, 0.5, 0.5, 0.5],     # peak plateau reaching the last knot
    [0.3, 0.3, 0.3, 0.3, 0.3],     # flat
], ids=["first", "last", "plateau-to-end", "flat"])
def test_peak_must_be_interior(cp):
    with pytest.raises(CurveError, match="not interior"):
        load_cp_curve(zip(np.arange(2.0, 7.0), cp))


def _single_peaked_table(rng, n):
    """Random rise to an interior peak and fall after it; about one step
    in five is flat, so plateaus occur on both sides and at the peak."""
    k = int(rng.integers(1, n - 1))
    steps = rng.exponential(1.0, n - 1)
    steps[rng.random(n - 1) < 0.2] = 0.0
    steps[0] = steps[-1] = 1.0        # the ends stay below the peak
    cp = np.concatenate([[0.0], np.cumsum(steps[:k])])
    cp = np.concatenate([cp, cp[-1] - np.cumsum(steps[k:])])
    cp = 0.01 + 0.5 * (cp - cp.min()) / (cp.max() - cp.min())
    lam = 1.0 + np.cumsum(rng.uniform(0.01, 1.0, n))
    return lam, cp


def test_peak_is_the_table_maximum_for_random_single_peaked_tables():
    # PCHIP keeps monotone runs of the data monotone and gives the data
    # maximum zero slope, so the interpolant peaks at the argmax knot.
    rng = np.random.default_rng(2021)
    sizes = [4, 5, 6, 5000] + rng.integers(4, 5001, 36).tolist()
    for n in sizes:
        lam, cp = _single_peaked_table(rng, n)
        curve = load_cp_curve(zip(lam, cp))
        assert curve.lambda_star == lam[np.argmax(cp)]
        assert curve.cp_star == cp.max()
        assert cp_prime(curve, curve.lambda_star) == 0.0
        dense = np.concatenate([
            np.linspace(curve.lambda_min, curve.lambda_max, 20001),
            0.5 * (lam[:-1] + lam[1:])])
        # The cubic's Horner evaluation may round a few ulps past the
        # peak value near the peak knot; nothing larger.
        assert (np.max(over(CpCurve._cp_scalar, curve, dense))
                <= curve.cp_star * (1.0 + 4e-16))


def test_sine_curve_maximizer(sine_curve):
    # Analytic maximum of 0.5 sin(pi (lam-2)/8) is at lam = 6.
    assert sine_curve.lambda_star == pytest.approx(6.0, abs=1e-3)


def test_cp_exact_at_nodes(sine_curve):
    for lam, cp in zip(sine_curve.lambda_grid.tolist(),
                       sine_curve.cp_values.tolist()):
        assert sine_curve._cp_scalar(lam) == cp


def test_cp_at_maximizer_is_peak(curve):
    lam_star = curve.lambda_star
    dense = np.linspace(curve.lambda_min, curve.lambda_max, 2000)
    assert (curve._cp_scalar(lam_star)
            >= np.max(over(CpCurve._cp_scalar, curve, dense)) - 1e-12)


def test_cp_midpoint_matches_generator(sine_curve):
    grid = sine_curve.lambda_grid
    mids = 0.5 * (grid[:-1] + grid[1:])
    for lam in mids.tolist():
        assert sine_curve._cp_scalar(lam) == pytest.approx(sine_cp(lam), abs=1e-3)


@pytest.mark.parametrize("which", ["curve", "sine_curve"])
def test_cp_scalar_picks_the_clamped_segment(which, request):
    # Every knot and its float neighbours, seeded ratios from one unit
    # below the envelope to one unit above it, the infinities and NaN.
    c = request.getfixturevalue(which)
    knots = np.array(c._breaks)
    lams = np.concatenate((
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        np.random.default_rng(31).uniform(c.lambda_min - 1.0, c.lambda_max + 1.0,
                                          100_000),
        [-np.inf, np.inf, np.nan])).tolist()
    expected = []
    for lam in lams:
        i = segment(c, lam)
        t = lam - c._breaks[i]
        c0, c1, c2, c3 = c._coeffs[i]
        expected.append(((c0 * t + c1) * t + c2) * t + c3)
    assert over(CpCurve._cp_scalar, c, lams).tobytes() == np.array(expected).tobytes()


def test_cp_rejects_out_of_envelope(curve):
    # turbine.phi's own refusal at both edges is in test_phi_envelope_errors.
    with pytest.raises(EnvelopeError):
        cp_prime(curve, 1.0)
    with pytest.raises(EnvelopeError):
        kappa(curve, curve.lambda_max + 1.0)
    with pytest.raises(EnvelopeError, match=r"tip-speed ratio 11.0 outside \[2.0, 10.0\]"):
        over(kappa, curve, np.array([3.0, 11.0, 12.0]))
    with pytest.raises(EnvelopeError, match="tip-speed ratio nan outside"):
        over(cp_prime, curve, [3.0, np.nan])


def test_cp_prime_zero_at_maximizer(curve):
    assert cp_prime(curve, curve.lambda_star) == 0.0


def test_cp_prime_sign_pattern(curve):
    assert cp_prime(curve, curve.lambda_star - 1.0) > 0
    assert cp_prime(curve, curve.lambda_star + 1.0) < 0


def test_cp_prime_matches_central_differences(curve):
    rng = np.random.default_rng(7)
    lams = rng.uniform(curve.lambda_min + 0.1, curve.lambda_max - 0.1, 20)
    h = 1e-5
    for lam in lams.tolist():
        fd = (curve._cp_scalar(lam + h) - curve._cp_scalar(lam - h)) / (2 * h)
        assert cp_prime(curve, lam) == pytest.approx(fd, rel=1e-4)


def test_kappa_positive_at_and_above_maximizer(curve):
    lam_star = curve.lambda_star
    assert kappa(curve, lam_star) == pytest.approx(
        3.0 / lam_star * curve._cp_scalar(lam_star), rel=1e-12)
    for lam in np.linspace(lam_star, curve.lambda_max, 50).tolist():
        assert kappa(curve, lam) > 0


def test_kappa_crosses_zero_once_below_maximizer(curve):
    # Same qualitative shape as the reference machine: a single
    # negative-to-positive crossing below the maximizer.
    dense = np.linspace(curve.lambda_min, curve.lambda_star, 1000)
    kv = over(kappa, curve, dense)
    signs = np.sign(kv[np.abs(kv) > 1e-12])
    assert signs[0] < 0 and signs[-1] > 0
    assert np.count_nonzero(np.diff(signs) != 0) == 1


def test_lambda_zero_positive_kappa_returns_lambda_min(sine_curve):
    # For the sine curve kappa = cp (3/lam - (pi/8) cot(pi (lam-2)/8));
    # on [2.1, 5.9]... it stays positive up to the maximizer region only
    # if 3/lam dominates; verify numerically which branch applies.
    dense = np.linspace(sine_curve.lambda_min, sine_curve.lambda_star, 500)
    if np.all(over(kappa, sine_curve, dense) > 0):
        assert sine_curve.lambda_zero == sine_curve.lambda_min
    else:
        assert sine_curve.lambda_min < sine_curve.lambda_zero < sine_curve.lambda_star


def _bell_table():
    # Bell curve exp(-(lam-7.5)^2 / (2 s2)) has kappa roots where
    # lam^2 - 7.5 lam + 3 s2 = 0; with s2 = 14/3 the larger root is 4.
    lam = np.linspace(2.0, 10.0, 321)
    return lam, 0.48 * np.exp(-((lam - 7.5) ** 2) / (2 * 14.0 / 3.0))


def test_lambda_zero_known_root():
    curve = load_cp_curve(zip(*_bell_table()))
    assert curve.lambda_zero == pytest.approx(4.0, abs=5e-3)
    # The returned value is a genuine root of the interpolant's kappa.
    assert abs(kappa(curve, curve.lambda_zero)) <= 1e-8


def test_lambda_zero_bisection_oracle():
    # Independent plain bisection on kappa must agree with the solver.
    curve = load_cp_curve(zip(*_bell_table()))
    lo, hi = 3.8, 4.2
    assert kappa(curve, lo) < 0 < kappa(curve, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if kappa(curve, mid) < 0:
            lo = mid
        else:
            hi = mid
    assert curve.lambda_zero == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_lambda_zero_below_lambda_star(curve, sine_curve):
    for c in (curve, sine_curve):
        assert c.lambda_zero < c.lambda_star


def test_kappa_positive_above_lambda_zero(curve):
    dense = np.linspace(curve.lambda_zero * (1 + 1e-9) + 1e-9,
                        curve.lambda_max, 1000)
    assert np.all(over(kappa, curve, dense[1:]) > 0)


def test_lambda_zero_root_residual(curve):
    assert (abs(kappa(curve, curve.lambda_zero)) <= 1e-8
            or curve.lambda_zero == curve.lambda_min)


def test_csv_round_trip_bit_exact(tmp_path, curve):
    path = tmp_path / "curve.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "cp"])
        # csv writes a Python float as its repr; tolist() yields Python floats.
        writer.writerows(
            np.column_stack((curve.lambda_grid, curve.cp_values)).tolist())
    again = read_curve_csv(path)
    assert np.array_equal(again.lambda_grid, curve.lambda_grid)
    assert np.array_equal(again.cp_values, curve.cp_values)
    assert again == curve


def test_equality_and_hash_go_by_the_table():
    a = default_cp_curve()
    b = load_cp_curve(zip(a.lambda_grid, a.cp_values))
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    cp = a.cp_values.copy()
    cp[3] *= 1.001
    other = load_cp_curve(zip(a.lambda_grid, cp))
    assert other != a
    assert a != "curve"


def test_equal_curves_have_equal_peaks():
    # The peak is derived from the table, never passed in, so two curves
    # equal by table cannot disagree on it or on the optimal torque gain.
    a = default_cp_curve()
    b = CpCurve(a.lambda_grid, a.cp_values)
    assert b == a
    assert (b.lambda_star, b.cp_star) == (a.lambda_star, a.cp_star)
    params = turbine.default_turbine_params()
    assert (turbine.optimal_torque_gain(params, b)
            == turbine.optimal_torque_gain(params, a))
    with pytest.raises(TypeError, match="lambda_star"):
        CpCurve(a.lambda_grid, a.cp_values, lambda_star=3.0)


def test_default_curve_is_one_read_only_curve():
    curve = default_cp_curve()
    assert default_cp_curve() is curve
    for table in (curve.lambda_grid, curve.cp_values):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(CurveError, match="header"):
        read_curve_csv(path)


def test_csv_short_row_rejected(tmp_path, curve):
    path = tmp_path / "short.csv"
    path.write_text("lambda,cp\n2.0,0.1\n4.0\n6.0,0.3\n")
    with pytest.raises(CurveError, match=r"short\.csv: line 3 has fewer than "
                                         r"two fields: '4\.0'"):
        read_curve_csv(path)
    # Extra columns are still ignored.
    extra = tmp_path / "extra.csv"
    extra.write_text("lambda,cp,note\n" + "".join(
        f"{x!r},{y!r},x\n" for x, y in zip(curve.lambda_grid.tolist(),
                                            curve.cp_values.tolist())))
    assert read_curve_csv(extra) == curve


def test_default_curve_envelope(curve):
    assert curve.lambda_min == 2.0
    assert curve.lambda_max == 10.0
    assert curve.lambda_star == pytest.approx(7.5, abs=0.05)
    assert curve.cp_star == pytest.approx(0.48, abs=0.01)


def _pchip_tables():
    """The shipped table, then seeded random ones: 4 to 40 knots, uniform
    and non-uniform spacing, plateaus, and end secants that change sign
    (both overshoot branches of the endpoint rule)."""
    curve = default_cp_curve()
    yield curve.lambda_grid, curve.cp_values
    rng = np.random.default_rng(1980)
    for k in range(400):
        n = 4 if k % 4 == 0 else int(rng.integers(5, 41))
        lam = (np.linspace(2.0, 10.0, n) if k % 2
               else 1.0 + np.cumsum(rng.uniform(0.01, 2.0, n)))
        cp = rng.normal(size=n)
        if k % 3 == 0:
            cp[rng.integers(0, n, n // 2)] = cp[1]  # plateaus
        yield lam, cp


def test_pchip_coefficients_equal_scipy_bitwise():
    PchipInterpolator = pytest.importorskip("scipy.interpolate").PchipInterpolator
    for lam, cp in _pchip_tables():
        ours = _pchip_coefficients(lam, cp)
        assert ours.tobytes() == PchipInterpolator(lam, cp).c.tobytes(), (lam, cp)
    curve = default_cp_curve()
    assert np.array(curve._coeffs).T.tobytes() == PchipInterpolator(
        curve.lambda_grid, curve.cp_values).c.tobytes()


def _peaked_curves(which, request):
    if which == "bell":
        return [load_cp_curve(zip(*_bell_table()))]
    if which == "seeded":
        curves = []
        for table in _pchip_tables():
            try:
                curves.append(load_cp_curve(zip(*table)))
            except CurveError:  # no single interior peak
                pass
        return curves
    return [request.getfixturevalue(which)]


@pytest.mark.parametrize("which", ["curve", "sine_curve", "bell", "seeded"])
def test_lambda_zero_equals_scipy_root(which, request):
    # lambda_zero is the largest kappa root below the peak: kappa > 0 above
    # it, and it is SciPy's root on the last grid cell where kappa <= 0.
    brentq = pytest.importorskip("scipy.optimize").brentq
    curves = _peaked_curves(which, request)
    assert curves
    for curve in curves:
        dense = np.linspace(curve.lambda_min, curve.lambda_star, 20001)
        kv = over(kappa, curve, dense)
        assert np.all(kv[dense > curve.lambda_zero] > 0)
        below = np.flatnonzero(kv <= 0)
        if below.size == 0:
            assert curve.lambda_zero == curve.lambda_min
            continue
        i = below[-1]
        root = brentq(lambda x: kappa(curve, x), dense[i], dense[i + 1], xtol=1e-15)
        assert abs(curve.lambda_zero - root) <= 1e-12, (curve.lambda_zero, root)


@pytest.mark.parametrize("u", [4.0, 7.0, 11.0])
def test_steady_state_rotor_speed_equals_scipy_bitwise(u, curve, params):
    # At the optimal gain the closed-form balance is the torque residual's
    # root to the last bit: the residual changes sign across its two float
    # neighbours, and SciPy's brentq at its finest tolerance lands on it or
    # on the float next to it.
    brentq = pytest.importorskip("scipy.optimize").brentq
    n, j = params.gear_ratio, params.inertia_equivalent
    k = turbine.optimal_torque_gain(params, curve)

    def residual(w):
        return turbine.phi(params, curve, w, u) / n - k * n * w * w / j

    ours = turbine.steady_state_rotor_speed(params, curve, k, u)
    assert residual(math.nextafter(ours, 0.0)) >= 0.0
    assert residual(math.nextafter(ours, math.inf)) <= 0.0
    lo = curve.lambda_zero * (1 + 1e-9) * u / params.rotor_radius
    hi = curve.lambda_max * (1 - 1e-9) * u / params.rotor_radius
    expected = float(brentq(residual, lo, hi, xtol=1e-15))
    assert abs(ours - expected) <= math.ulp(ours), (ours.hex(), expected.hex())


def test_steady_state_rotor_speed_equals_scipy_root(params, curve):
    # Seeded gains and winds: the closed-form balance against SciPy's
    # brentq on the torque residual over [lambda_zero, lambda_max], with
    # the same refusals.
    brentq = pytest.importorskip("scipy.optimize").brentq
    n, j, radius = params.gear_ratio, params.inertia_equivalent, params.rotor_radius
    k_opt = turbine.optimal_torque_gain(params, curve)
    rng = np.random.default_rng(2000)
    gains = (k_opt * 10.0 ** rng.uniform(-1.0, 1.0, 2000)).tolist()
    refused = 0
    for k, u in zip(gains, rng.uniform(3.0, 12.0, 2000).tolist()):
        def residual(w):
            return turbine.phi(params, curve, w, u) / n - k * n * w * w / j

        lo = curve.lambda_zero * (1 + 1e-12) * u / radius
        hi = curve.lambda_max * (1 - 1e-12) * u / radius
        if residual(lo) < 0 or residual(hi) > 0:
            refused += 1
            with pytest.raises(EnvelopeError, match="no stable torque balance"):
                turbine.steady_state_rotor_speed(params, curve, k, u)
            continue
        expected = brentq(residual, lo, hi, xtol=1e-15)
        got = turbine.steady_state_rotor_speed(params, curve, k, u)
        assert abs(got - expected) <= 1e-14 * expected, (k, u)
    assert 500 < refused < 1500
