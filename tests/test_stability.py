import json
import math

import numpy as np
import pytest

from rews import stability, svgplot
from rews.exceptions import ConfigError, GridCoverageError
from rews.harness import case_study_circle, emit
from rews.stability import (CircleSpec, DistanceVerdict, certify,
                            circle_from_gains, default_omega_grid,
                            frequency_response, max_stable_beta,
                            max_stable_delay)

from conftest import locus


class TestCircleGeometry:
    def test_reference_constants(self):
        c = circle_from_gains(0.016, 0.095)
        assert c.center == pytest.approx(-36.513, abs=1e-3)
        assert c.radius == pytest.approx(25.987, abs=1e-3)
        assert c.alpha == pytest.approx(36.513, abs=1e-3)

    def test_diameter_endpoints(self):
        k1, k2 = 0.016, 0.095
        c = circle_from_gains(k1, k2)
        assert c.center - c.radius == pytest.approx(-1.0 / k1, rel=1e-12)
        assert c.center + c.radius == pytest.approx(-1.0 / k2, rel=1e-12)
        assert (c.k1, c.k2) == (k1, k2)

    def test_slopes_kept_as_given(self):
        # The disk is derived from the slopes, not the slopes from the disk
        # (which read 0.095 back as 0.09499999999999999).
        rng = np.random.default_rng(2021)
        for a, b in np.sort(10.0 ** rng.uniform(-4.0, 2.0, (10_000, 2)), axis=1):
            k1, k2 = float(a), float(b)
            c = circle_from_gains(k1, k2)
            assert c.k1 == k1 and c.k2 == k2
            assert c.alpha == -c.center

    def test_degenerate_sector_is_a_point(self):
        c = circle_from_gains(0.05, 0.05)
        assert c.radius == 0.0
        assert c.center == pytest.approx(-20.0, rel=1e-12)

    def test_rejects_bad_slopes(self):
        with pytest.raises(ConfigError):
            circle_from_gains(0.0, 0.1)
        with pytest.raises(ConfigError):
            circle_from_gains(0.1, 0.05)
        for k1, k2 in [(math.nan, 0.1), (0.016, math.nan), (0.016, math.inf),
                       (math.inf, math.inf), (math.nan, math.nan)]:
            with pytest.raises(ConfigError, match=f"k1={k1!r}, k2={k2!r}"):
                circle_from_gains(k1, k2)


class TestFrequencyResponse:
    def test_pure_double_integrator_with_proportional_numerator(self):
        # beta = 0, T = 0: G(jw) = gamma/(jw), purely imaginary, modulus gamma/w.
        fr = frequency_response(40.0, 0.0, 0.0)
        assert np.allclose(fr.g_values.real, 0.0, atol=1e-12)
        assert np.allclose(np.abs(fr.g_values), 40.0 / fr.omega_grid, rtol=1e-12)

    def test_modulus_formula(self):
        gamma, beta = 40.0, 10.0
        fr = frequency_response(gamma, beta, 0.7)
        omega = fr.omega_grid
        expected = np.sqrt((gamma * omega) ** 2 + beta ** 2) / omega ** 2
        assert np.allclose(np.abs(fr.g_values), expected, rtol=1e-12)

    def test_delay_is_a_pure_rotation(self):
        base = frequency_response(40.0, 10.0, 0.0)
        delayed = frequency_response(40.0, 10.0, 0.3)
        assert np.allclose(delayed.g_values,
                           base.g_values * np.exp(-1j * base.omega_grid * 0.3),
                           rtol=1e-12)


CASE_CONFIGS = {
    "case1": (40.0, 10.0, 0.3, True),
    "case2": (100.0, 10.0, 0.3, False),
    "case3": (100.0, 200.0, 0.3, False),
    "case5": (40.0, 10.0, 0.6, False),
    "case6": (40.0, 10.0, 2.0, False),
}


class TestVerdicts:
    @pytest.mark.parametrize("name", sorted(CASE_CONFIGS))
    def test_case_verdicts(self, name):
        gamma, beta, delay, expect = CASE_CONFIGS[name]
        verdict = certify(gamma, beta, delay, case_study_circle())
        assert verdict.certified is expect

    def test_certified_case_margin_value(self):
        # The one certified configuration clears the disk by well under
        # one unit; the recorded distance pins the implementation.
        v = certify(40.0, 10.0, 0.3, case_study_circle())
        assert v.min_distance == pytest.approx(26.44, abs=0.05)
        assert v.min_distance > case_study_circle().radius

    def test_rejects_gains_no_estimator_can_have(self, recwarn):
        circle = case_study_circle()
        for gamma, beta, delay in [(0.0, 0.0, 0.0), (-5.0, 0.0, 0.3),
                                   (40.0, -1.0, 0.3), (40.0, 10.0, -1.0),
                                   (math.nan, 10.0, 0.3),
                                   (math.inf, 10.0, 0.3),
                                   (40.0, math.inf, 0.3),
                                   (40.0, 10.0, math.inf)]:
            with pytest.raises(ConfigError):
                certify(gamma, beta, delay, circle)
        # The margins check their fixed inputs before evaluating anything.
        with pytest.raises(ConfigError, match="gamma .* got inf"):
            max_stable_beta(math.inf, 0.3, circle)
        with pytest.raises(ConfigError, match="delay .* got inf"):
            max_stable_beta(40.0, math.inf, circle)
        with pytest.raises(ConfigError, match="beta .* got inf"):
            max_stable_delay(40.0, math.inf, circle)
        assert not recwarn.list
        # The margins inherit the check through their certify(..., 0) call.
        with pytest.raises(ConfigError, match="gamma"):
            max_stable_beta(-5.0, 0.3, circle)
        with pytest.raises(ConfigError, match="gamma"):
            max_stable_delay(0.0, 0.0, circle)
        with pytest.raises(ConfigError, match="delay"):
            max_stable_beta(40.0, -0.3, circle)
        with pytest.raises(ConfigError, match="beta"):
            max_stable_delay(40.0, -1.0, circle)

    @pytest.mark.parametrize("gamma, beta, delay, message", [
        # A tiny proportional gain: the locus is inside the disk's moduli
        # already at the grid's first point.
        (1e-9, 0.0, 10.0, "below 0.001 rad/s: |G| = 1.0000000000000002e-06 "
         "there, not above 1/k1 = 62.5"),
        # A huge one: the locus has not yet come inside 1/k2 at its last.
        (1e6, 0.0, 0.0, "above 1000.0 rad/s: |G| = 1000.0 there, not below "
         "1/k2 = 10.526315789473685"),
    ], ids=["below-grid", "above-grid"])
    def test_unproven_tail_is_refused_by_name(self, gamma, beta, delay, message):
        with pytest.raises(GridCoverageError) as info:
            certify(gamma, beta, delay, case_study_circle())
        assert str(info.value) == ("frequency grid cannot prove the locus "
                                   f"outside the disk {message}")

    def test_judged_loci_stay_outside_the_disk_beyond_the_grid(self):
        # The tail proof against the locus itself: for every draw certify
        # judges, 1e5 frequencies below and above the grid miss the disk.
        # The draws sit near each end's bound, where a looser rule lets the
        # locus in: integral-dominated at the low end, proportional at the
        # high end.
        rng = np.random.default_rng(34)
        w = np.concatenate([np.logspace(-9.0, -3.0, 50_000, endpoint=False),
                            np.logspace(9.0, 3.0, 50_000, endpoint=False)])
        ends, judged = [], 0
        for k1, k2 in ((0.016, 0.095), (0.0009, 0.0331), (0.0057, 0.0294)):
            circle = circle_from_gains(k1, k2)
            for _ in range(20):
                low = 10.0 ** rng.uniform(-6.0, -3.0), 10.0 ** rng.uniform(-6.5, -3.5)
                high = 10.0 ** rng.uniform(3.0, 5.0), (
                    0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-4.0, 3.0))
                for gamma, beta in (low, high):
                    delay = rng.uniform(0.0, 2.0)
                    try:
                        certify(gamma, beta, delay, circle)
                    except GridCoverageError as exc:
                        ends.append(str(exc).split()[9])  # "below" or "above"
                        continue
                    judged += 1
                    g = locus(gamma, beta, delay, w)
                    assert np.abs(g - circle.center).min() > circle.radius
        assert judged >= 40 and set(ends) == {"below", "above"}

    def test_judged_locus_is_the_closed_form_on_the_default_grid(self):
        # certify evaluates, then judges, the closed-form locus on the one
        # grid: its locus, distance and frequency match the oracle bit for
        # bit.
        rng = np.random.default_rng(35)
        w = default_omega_grid()
        judged = 0
        for k1, k2 in ((0.016, 0.095), (0.0009, 0.0331), (0.0057, 0.0294)):
            circle = circle_from_gains(k1, k2)
            for _ in range(30):
                gamma, beta = 10.0 ** rng.uniform(0.0, 3.0), rng.uniform(0.0, 200.0)
                delay = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 2.0)
                try:
                    verdict = certify(gamma, beta, delay, circle)
                except GridCoverageError:
                    continue
                judged += 1
                g = locus(gamma, beta, delay, w)
                dist = np.abs(g - circle.center)
                assert np.array_equal(verdict.locus.omega_grid, w)
                assert verdict.locus.g_values.tobytes() == g.tobytes()
                assert verdict.min_distance == dist.min()
                assert verdict.argmin_omega == w[np.argmin(dist)]
                assert verdict.certified is bool(dist.min() > circle.radius)
        assert judged >= 60

    def test_grid_refinement_stability(self):
        # Doubling the frequency resolution moves the reported minimum
        # distance by less than 0.1%, for every case configuration.
        circle = case_study_circle()
        fine_grid = np.logspace(-3.0, 3.0, 8000)
        for gamma, beta, delay, _ in CASE_CONFIGS.values():
            coarse = certify(gamma, beta, delay, circle).min_distance
            fine = np.abs(locus(gamma, beta, delay, fine_grid)
                          - circle.center).min()
            assert abs(fine - coarse) <= 1e-3 * coarse

    def test_scaling_consistency_with_unit_circle(self):
        # Dividing the locus by alpha maps the disk center to -1; the
        # certificate must be invariant under that normalization.
        circle = case_study_circle()
        rng = np.random.default_rng(42)
        for _ in range(50):
            gamma = rng.uniform(20.0, 120.0)
            beta = rng.uniform(0.0, 20.0)
            delay = 0.01 * rng.integers(0, 40)
            fr = frequency_response(gamma, beta, delay)
            dist = np.abs(fr.g_values - circle.center)
            scaled = np.abs(fr.g_values / circle.alpha - (-1.0))
            direct = bool(np.min(dist) > circle.radius)
            normalized = bool(np.min(scaled) > circle.radius / circle.alpha)
            assert direct == normalized


class TestMargins:
    def test_beta_threshold_in_expected_band(self):
        circle = case_study_circle()
        b_max = max_stable_beta(40.0, 0.3, circle)
        assert 12.0 <= b_max <= 16.0
        assert certify(40.0, b_max, 0.3, circle).certified
        assert not certify(40.0, b_max + 0.01, 0.3, circle).certified

    def test_delay_threshold_consistent(self):
        circle = case_study_circle()
        t_max = max_stable_delay(40.0, 10.0, circle)
        assert 0.0 < t_max < 2.0
        assert certify(40.0, 10.0, t_max, circle).certified
        assert not certify(40.0, 10.0, t_max + 0.01, circle).certified

    def test_delay_threshold_decreases_with_gain(self):
        circle = case_study_circle()
        ts = [max_stable_delay(g, 10.0, circle) for g in (40.0, 55.0, 70.0)]
        assert ts[0] > ts[1] > ts[2]

    def test_beta_threshold_finite_without_delay(self):
        circle = case_study_circle()
        b_max = max_stable_beta(40.0, 0.0, circle)
        assert math.isfinite(b_max) and b_max > 0
        assert not certify(40.0, b_max + 0.1, 0.0, circle).certified

    def test_bracket_errors(self):
        circle = case_study_circle()
        with pytest.raises(ConfigError, match="not certified"):
            max_stable_beta(100.0, 2.0, circle)  # refused already at beta = 0
        # A zero-radius disk (--k1 equal to --k2) is never entered.
        point = circle_from_gains(0.05, 0.05)
        with pytest.raises(ConfigError, match="certified for every beta"):
            max_stable_beta(40.0, 0.3, point)
        with pytest.raises(ConfigError, match="certified for every delay"):
            max_stable_delay(40.0, 10.0, point)

    def test_delay_margin_is_first_crossing(self):
        # Grid aliasing re-certifies windows near T = 2.2 s, so the
        # certificate is not monotone in the delay for this configuration.
        circle = case_study_circle()
        t_max = max_stable_delay(31.3692, 12.1293, circle)
        assert t_max == pytest.approx(0.353025, abs=1e-6)
        assert all(certify(31.3692, 12.1293, t, circle).certified
                   for t in np.linspace(0.0, t_max, 400))
        assert not certify(31.3692, 12.1293, t_max * (1 + 1e-9), circle).certified

    def test_random_margins_are_tight(self):
        # Answered queries are certified at the margin and refused just
        # past it; refused queries are refused already at 0.
        circle = case_study_circle()
        rng = np.random.default_rng(11)
        answered = 0
        for i in range(200):
            gamma = rng.uniform(20.0, 120.0)
            if i % 2:
                beta = rng.uniform(0.0, 40.0)
                query = lambda: max_stable_delay(gamma, beta, circle)
                at = lambda t: certify(gamma, beta, t, circle).certified
            else:
                delay = rng.uniform(0.0, 2.0)
                query = lambda: max_stable_beta(gamma, delay, circle)
                at = lambda b: certify(gamma, b, delay, circle).certified
            try:
                m = query()
            except ConfigError:
                assert not at(0.0)
                continue
            answered += 1
            assert at(m) and not at(m * (1 + 1e-9))
        assert answered >= 50


class TestExports:
    def test_nyquist_csv(self, tmp_path):
        circle = case_study_circle()
        emit([(tmp_path, None, certify(40.0, 10.0, 0.3, circle))])
        lines = (tmp_path / "nyquist.csv").read_text().strip().splitlines()
        assert lines[0] == "omega,re,im,distance"
        assert len(lines) == default_omega_grid().size + 1
        w, re, im, d = (float(v) for v in lines[1].split(","))
        g = complex(re, im)
        assert d == pytest.approx(abs(g - circle.center), rel=1e-12)

    def test_nyquist_csv_matches_frequency_response(self, tmp_path):
        circle = case_study_circle()
        emit([(tmp_path, None, certify(40.0, 10.0, 0.3, circle))])
        data = np.loadtxt(tmp_path / "nyquist.csv", delimiter=",", skiprows=1)
        fr = frequency_response(40.0, 10.0, 0.3)
        assert np.array_equal(data[:, 0], fr.omega_grid)
        assert np.array_equal(data[:, 1], fr.g_values.real)
        assert np.array_equal(data[:, 2], fr.g_values.imag)
        assert np.array_equal(data[:, 3], np.abs(fr.g_values - circle.center))

    def test_nyquist_csv_is_the_judged_locus(self, tmp_path):
        # With no delay the distance is least at the grid's last point; the
        # tail beyond it is proven, so the CSV is the default grid and holds
        # the minimum.
        verdict = certify(40.0, 0.0, 0.0, case_study_circle())
        emit([(tmp_path, None, verdict)])
        assert verdict.argmin_omega == default_omega_grid()[-1]
        data = np.loadtxt(tmp_path / "nyquist.csv", delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], default_omega_grid())
        row = data[data[:, 0] == verdict.argmin_omega]
        assert row.shape == (1, 4)
        assert row[0, 3] == verdict.min_distance == data[:, 3].min()

    def test_verdict_json(self, tmp_path):
        circle = case_study_circle()
        verdict = certify(40.0, 10.0, 0.3, circle)
        (written,) = emit([(tmp_path, None, verdict)])
        assert verdict.circle == circle
        assert str(tmp_path / "verdict.json") in map(str, written)
        record = json.loads((tmp_path / "verdict.json").read_text())
        assert record == certify(40.0, 10.0, 0.3, circle).as_dict()
        assert list(record) == ["verdict", "min_distance", "argmin_omega",
                                "k1", "k2", "C", "R", "alpha"]
        assert record["verdict"] == "ConvergenceCertified"
        assert record["min_distance"] == verdict.min_distance
        assert record["C"] == pytest.approx(-36.513, abs=1e-3)
        assert record["R"] == pytest.approx(25.987, abs=1e-3)
        assert record["alpha"] == pytest.approx(36.513, abs=1e-3)
        assert (record["k1"], record["k2"]) == (0.016, 0.095)
        assert record["verdict"] == verdict.label

    def test_emit_writes_the_verdict_it_is_given(self, tmp_path, monkeypatch):
        # The verdict carries its disk, so a non-default circle is written
        # without certifying again.
        circle = circle_from_gains(0.03, 0.09)
        verdict = certify(40.0, 10.0, 0.3, circle)
        assert verdict.circle == circle

        def refuse(*args):
            raise AssertionError("emit certified again")

        monkeypatch.setattr(stability, "certify", refuse)
        (written,) = emit([(tmp_path / "out", None, verdict)])
        assert [p.split("/")[-1] for p in map(str, written)] == [
            "nyquist.csv", "verdict.json", "nyquist.svg"]
        record = json.loads((tmp_path / "out" / "verdict.json").read_text())
        assert record == verdict.as_dict()
        assert (record["k1"], record["k2"]) == (0.03, 0.09)
        assert (record["C"], record["R"], record["alpha"]) == (
            circle.center, circle.radius, circle.alpha)
        data = np.loadtxt(tmp_path / "out" / "nyquist.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(data[:, 3],
                              np.abs(verdict.locus.g_values - circle.center))
        g = verdict.locus.g_values
        svgplot.nyquist_chart(tmp_path / "expected.svg", g.real, g.imag,
                              circle.center, circle.radius)
        assert ((tmp_path / "out" / "nyquist.svg").read_bytes()
                == (tmp_path / "expected.svg").read_bytes())
