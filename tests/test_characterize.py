import math

import numpy as np
import pytest
from hypothesis import given, settings

from discwitness import build_curve, chord_chart
from discwitness.characterize import (
    constraint_residuals,
    identity_residuals,
    inscribed_disc,
    kl_profile,
    lemma2_witness,
    min_clearance,
    p_zero_check,
)

from conftest import small_fourier_curves


class TestConstraintResiduals:
    def test_disc(self, unit_disc):
        res = constraint_residuals(chord_chart(unit_disc))
        assert max(res.r_height, res.r_curv, res.r_phase) <= 1e-9
        assert res.p_nearest == 0

    def test_centered_ellipse(self, ellipse):
        res = constraint_residuals(chord_chart(ellipse))
        assert max(res.r_height, res.r_curv, res.r_phase) <= 1e-9

    def test_asymmetric_shape_breaks_a_constraint(self, asymmetric):
        res = constraint_residuals(chord_chart(asymmetric))
        assert max(res.r_height, res.r_curv, res.r_phase) > 1e-3


class TestKLProfile:
    def test_offset_circle(self):
        c = build_curve({"type": "circle", "center": [0.3, -0.2], "radius": 0.7})
        rep = kl_profile(c, 1000)
        assert rep.max_dev <= 1e-9
        assert rep.verdict == "disc"
        (cx, cy), r = rep.fitted_circle
        assert (cx, cy) == pytest.approx((0.3, -0.2), abs=1e-9)
        assert r == pytest.approx(0.7, abs=1e-9)

    def test_ellipse_kl_value(self, ellipse):
        rep = kl_profile(ellipse, 1000)
        assert rep.verdict == "not_disc"
        # kappa * L at the major-axis normal: (a/b^2) * 2a = 8
        assert rep.samples[0][4] == pytest.approx(8.0, abs=1e-6)

    def test_constant_width_is_not_enough(self, three_lobe):
        rep = kl_profile(build_curve(
            {"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.05]}), 1000)
        widths = [row[3] for row in rep.samples]
        assert max(widths) - 2 < 1e-10 and 2 - min(widths) < 1e-10
        assert rep.max_dev >= 0.5
        assert rep.verdict == "not_disc"

    def test_sample_count_floor(self, unit_disc):
        with pytest.raises(ValueError):
            kl_profile(unit_disc, 8)


class TestInscribedDisc:
    def test_offset_circle(self):
        c = build_curve({"type": "circle", "center": [0.2, 0.1], "radius": 1})
        (cx, cy), r = inscribed_disc(c)
        assert (cx, cy) == pytest.approx((0.2, 0.1), abs=1e-8)
        assert r == pytest.approx(1.0, abs=1e-8)

    def test_centered_ellipse(self, ellipse):
        (cx, cy), r = inscribed_disc(ellipse)
        assert (cx, cy) == pytest.approx((0.0, 0.0), abs=1e-6)
        assert r == pytest.approx(1.0, abs=1e-6)
        # grid oracle: no probe center does better
        best = max(min_clearance(ellipse, (px, py))
                   for px in np.linspace(-0.3, 0.3, 13)
                   for py in np.linspace(-0.3, 0.3, 13))
        assert r >= best - 1e-8

    def test_three_lobe_smaller_than_mean(self, three_lobe):
        (_, _), r = inscribed_disc(three_lobe)
        assert r < 1.0

    def test_optimality_certificate(self, three_lobe):
        center, r = inscribed_disc(three_lobe)
        assert min_clearance(three_lobe, center) == pytest.approx(r, abs=1e-8)


class TestWitness:
    def test_circles_have_none(self):
        for spec in ({"type": "circle", "center": [0, 0], "radius": 0.5},
                     {"type": "circle", "center": [0.3, -0.2], "radius": 2}):
            assert lemma2_witness(build_curve(spec)) is None

    def test_ellipse_witness(self, ellipse):
        w = lemma2_witness(ellipse)
        assert w is not None
        assert w.L_dir == pytest.approx(4.0, abs=1e-6)
        assert w.K_radius == pytest.approx(1.0, abs=1e-6)
        assert w.inequality_report["L_gt_two_r"]
        assert w.inequality_report["two_rho_le_two_r"]

    def test_three_lobe_witness(self, three_lobe):
        w = lemma2_witness(three_lobe)
        assert w is not None
        assert w.L_dir > 2 * w.K_radius
        # the report repeats exactly what was measured
        assert w.inequality_report["L_dir"] == w.L_dir
        assert w.inequality_report["two_r"] == 2 * w.K_radius
        assert w.inequality_report["two_rho"] == 2 * w.rho


@pytest.mark.parametrize("shape", ["asymmetric", "three_lobe", "offset_ellipse"])
def test_witness_is_the_farthest_point(shape, request):
    """x' is stationary for |x - c| (its support line is orthogonal to the
    center ray) and no sampled boundary point lies farther from c."""
    if shape == "offset_ellipse":
        curve = build_curve({"type": "ellipse", "a": 1.6, "b": 1.0,
                             "center": [0.1, 0.05], "rotation": 0.5})
    else:
        curve = request.getfixturevalue(shape)
    w = lemma2_witness(curve)
    assert w is not None
    ray = w.x_prime.position - np.asarray(w.K_center)
    assert abs(ray @ w.x_prime.tangent) <= 1e-12
    pos = curve.position(np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False))
    far = float(np.max(np.hypot(pos[:, 0] - w.K_center[0],
                                pos[:, 1] - w.K_center[1])))
    assert np.hypot(*ray) >= far - 1e-9


class TestIdentities:
    def test_circle_residuals_vanish(self, unit_disc):
        res = identity_residuals(unit_disc, 64, 1e-4)
        assert res.max_res_gap <= 1e-9
        assert res.max_res_width <= 1e-9

    @pytest.mark.parametrize("shape", ["ellipse", "perturbed"])
    def test_residuals_small_and_second_order(self, shape, ellipse):
        curve = ellipse if shape == "ellipse" else build_curve(
            {"type": "support_fourier", "a0": 1, "cos": [0, 0.05],
             "sin": [0, 0, 0.03]})
        coarse = identity_residuals(curve, 64, 1e-4)
        fine = identity_residuals(curve, 64, 5e-5)
        assert coarse.max_res_gap <= 1e-5
        assert coarse.max_res_width <= 1e-5
        assert 3 <= coarse.max_res_gap / fine.max_res_gap <= 5
        assert 3 <= coarse.max_res_width / fine.max_res_width <= 5

    def test_constant_width_width_identity(self, three_lobe):
        res = identity_residuals(three_lobe, 64, 1e-4)
        # L' == 0 and w == 0 for odd harmonics; residual is pure roundoff
        assert res.max_res_width <= 1e-5


class TestPZero:
    def test_circle(self, unit_disc):
        rep = p_zero_check(unit_disc)
        assert rep.total_L_prime == pytest.approx(0.0, abs=1e-12)
        assert rep.total_curvature == pytest.approx(2 * math.pi, rel=1e-10)
        assert rep.p_zero_consistent

    def test_ellipse(self, ellipse):
        rep = p_zero_check(ellipse)
        assert abs(rep.total_L_prime) <= 1e-8
        assert abs(rep.implied_p) <= 1e-8


# --- properties ---


@settings(max_examples=15, deadline=None)
@given(curve=small_fourier_curves())
def test_kl_verdict_scale_invariant(curve):
    rep = kl_profile(curve, 64)
    rep_scaled = kl_profile(curve.scaled(3.7), 64)
    assert rep.verdict == rep_scaled.verdict
    assert rep.max_dev == pytest.approx(rep_scaled.max_dev, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(curve=small_fourier_curves(max_harmonic=3, scale=0.08))
def test_inscribed_disc_is_feasible_and_optimal(curve):
    center, r = inscribed_disc(curve)
    assert min_clearance(curve, center) == pytest.approx(r, abs=1e-8)
    # the clearance through plain numpy on a fine grid, not the Newton polish
    t = np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False)
    fine = float(np.min(curve.h(t) - center[0] * np.cos(t) - center[1] * np.sin(t)))
    assert r - 1e-12 <= fine <= r + 1e-8
    rng = np.random.default_rng(0)
    for _ in range(10):
        probe = np.asarray(center) + rng.uniform(-0.05, 0.05, size=2)
        assert min_clearance(curve, probe) <= r + 1e-8
