import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from discwitness import geometry
from discwitness import (
    MalformedSpec,
    NotStrictlyConvex,
    QuadratureNoConvergence,
    arclength,
    build_curve,
    perimeter,
)
from discwitness.geometry import frame_peaks, frame_point, width_at

from conftest import angles, position, scaled, small_fourier_curves

# frozen: 8 * scipy.special.ellipe(0.75), cross-checked against dense
# quadrature of the parametric arclength integrand
ELLIPSE_2_1_PERIMETER = 9.688448220547675

ARC_SHAPES = {
    "circle": {"type": "circle", "center": [0.3, -0.2], "radius": 1.1},
    "ellipse_2x1": {"type": "ellipse", "a": 2, "b": 1, "rotation": 0.3},
    "fourier_K3": {"type": "support_fourier", "a0": 1,
                   "cos": [0.02, 0.05, 0.03], "sin": [-0.01, 0.0, 0.02]},
    "ellipse_30x1": {"type": "ellipse", "a": 30, "b": 1},
    "ellipse_20x0.2": {"type": "ellipse", "a": 20, "b": 0.2, "center": [0, 0.05]},
    "ellipse_100x1": {"type": "ellipse", "a": 100, "b": 1},
    "ellipse_20x1_rotated": {"type": "ellipse", "a": 20, "b": 1,
                             "center": [0.1, -0.2], "rotation": 0.3},
}
ARC_SPANS = [(0.0, 2 * math.pi), (0.3, 2.9), (-1.0, 9.0)]


def _mp_arclength(spec, theta0, theta1):
    """Integral of rho from theta0 to theta1 by mpmath at 30 digits, split
    at an ellipse's peaks of rho (rotation +- pi/2)."""
    with mpmath.workdps(30):
        t0, t1 = mpmath.mpf(theta0), mpmath.mpf(theta1)
        cuts = [t0, t1]
        if spec["type"] == "circle":
            rho = lambda t: mpmath.mpf(spec["radius"])  # noqa: E731
        elif spec["type"] == "ellipse":
            a, b = mpmath.mpf(spec["a"]), mpmath.mpf(spec["b"])
            rot = mpmath.mpf(spec.get("rotation", 0))
            rho = lambda t: (a * b) ** 2 / (  # noqa: E731
                (a * mpmath.cos(t - rot)) ** 2 + (b * mpmath.sin(t - rot)) ** 2) ** 1.5
            peaks = (rot + mpmath.pi / 2 + j * mpmath.pi for j in range(-2, 4))
            cuts = sorted({t0, t1, *(p for p in peaks if t0 < p < t1)})
        else:
            terms = list(enumerate(zip(spec["cos"], spec["sin"]), start=1))
            rho = lambda t: spec["a0"] + sum(  # noqa: E731
                (1 - k * k) * (c * mpmath.cos(k * t) + s * mpmath.sin(k * t))
                for k, (c, s) in terms)
        return float(mpmath.quad(rho, cuts))


JET_SHAPES = {
    "circle": {"type": "circle", "center": [0.3, -0.2], "radius": 1.1},
    "ellipse_2x1": {"type": "ellipse", "a": 2, "b": 1, "center": [0.3, -0.1],
                    "rotation": 0.7},
    "ellipse_20x0.2": {"type": "ellipse", "a": 20, "b": 0.2,
                       "center": [-0.4, 0.05], "rotation": 1.1},
    "fourier_K8": {"type": "support_fourier", "a0": 1,
                   "cos": [0.1, 0.01, -0.006, 0.003, 0.0, 0.002, -0.001, 0.0008],
                   "sin": [-0.05, 0.008, 0.0, -0.004, 0.002, 0.0, 0.001, -0.0005]},
}


def _separate_jet(curve, theta):
    """(h, h', rho) from each curve's per-derivative formulas, evaluated
    separately.  jet must reproduce their bits: byte-identical moment
    outputs rest on them."""
    theta = np.asarray(theta, dtype=float)
    if isinstance(curve, geometry.FourierCurve):
        trig = geometry.trig_table(theta, len(curve.cos))
        coskt, sinkt, k = trig
        c, s = np.asarray(curve.cos), np.asarray(curve.sin)
        h = curve.a0 + coskt @ c + sinkt @ s
        h1 = -sinkt @ (k * c) + coskt @ (k * s)
        w = 1.0 - k * k  # rho's own coefficients: k = 1 drops out exactly
        return h, h1, curve.a0 + coskt @ (w * c) + sinkt @ (w * s)
    cx, cy = curve.center
    psi = theta - curve.rotation
    w = (curve.a * np.cos(psi)) ** 2 + (curve.b * np.sin(psi)) ** 2
    w1 = (curve.b ** 2 - curve.a ** 2) * np.sin(2.0 * psi)
    return (np.sqrt(w) + cx * np.cos(theta) + cy * np.sin(theta),
            0.5 * w1 / np.sqrt(w) - cx * np.sin(theta) + cy * np.cos(theta),
            (curve.a * curve.b) ** 2 / w ** 1.5)


class TestJet:
    THETAS = (0.3, np.float64(4.0), np.linspace(0.0, 7.0, 37),
              np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False))

    @pytest.mark.parametrize("name", sorted(JET_SHAPES))
    def test_views_are_the_jet_bit_for_bit(self, name):
        curve = build_curve(JET_SHAPES[name])
        for theta in self.THETAS:
            h, h1, rho = curve.jet(theta)
            for got, want in zip((h, h1, rho), _separate_jet(curve, theta)):
                assert np.array_equal(got, want)
            assert np.array_equal(curve.h(theta), h)
            assert np.array_equal(curve.rho(theta), rho)
        grid = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
        for got, want in zip(curve.periodic_jet(1024), curve.jet(grid)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(JET_SHAPES))
    def test_derivatives_meet_central_differences(self, name):
        """h' and rho = h + h'' against central differences of h, relative
        to max(1, |value|).  The bounds are set by the 20 x 0.2 ellipse,
        whose third and fourth derivatives reach 1.7e5 and 6e7 (1.9e-9 and
        2.0e-5 there, at most 3e-10 and 1.2e-7 on the other shapes)."""
        curve = build_curve(JET_SHAPES[name])
        theta = np.linspace(0.0, 2.0 * math.pi, 97)
        h, h1, rho = curve.jet(theta)
        d = 1e-6
        fd1 = (curve.h(theta + d) - curve.h(theta - d)) / (2.0 * d)
        assert np.max(np.abs(fd1 - h1) / np.maximum(1.0, np.abs(h1))) <= 1e-8
        d = 1e-4
        fd2 = (curve.h(theta + d) - 2.0 * h + curve.h(theta - d)) / (d * d)
        assert np.max(np.abs(h + fd2 - rho) / np.maximum(1.0, rho)) <= 1e-4

    def test_fourier_jet_builds_one_trig_table(self, monkeypatch):
        curve = build_curve(JET_SHAPES["fourier_K8"])
        calls = []
        table = geometry.trig_table

        def counted(theta, K):
            calls.append(K)
            return table(theta, K)

        monkeypatch.setattr(geometry, "trig_table", counted)
        for theta in self.THETAS:
            calls.clear()
            curve.jet(theta)
            assert calls == [8]


def _fourier_sum(a0, cos, sin, trig, deriv):
    """d^deriv/dtheta^deriv of a0 + sum_k (c_k cos k theta + s_k sin k theta)
    at a trig_table's angles, from fourier_coefficients."""
    coskt, sinkt, _ = trig
    c, s = geometry.fourier_coefficients(cos, sin, deriv)
    head = coskt @ c if deriv else a0 + coskt @ c
    return head + sinkt @ s


class TestFourierSums:
    def test_orders_0_to_2_keep_their_bits(self):
        rng = np.random.default_rng(7)
        for K in (1, 3, 8):
            c, s = rng.standard_normal((2, K))
            trig = geometry.trig_table(rng.uniform(0.0, 7.0, 33), K)
            coskt, sinkt, k = trig
            want = (0.4 + coskt @ c + sinkt @ s,
                    -sinkt @ (k * c) + coskt @ (k * s),
                    -coskt @ (k * k * c) - sinkt @ (k * k * s))
            for d, w in enumerate(want):
                assert np.array_equal(_fourier_sum(0.4, c, s, trig, d), w)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_orders_3_and_4_on_one_harmonic(self, k):
        """d^3 and d^4 of c cos k theta + s sin k theta are
        k^3 (c sin - s cos) and k^4 (c cos + s sin)."""
        c, s = 0.3, -0.7
        cos, sin = np.zeros(5), np.zeros(5)
        cos[k - 1], sin[k - 1] = c, s
        theta = np.linspace(0.0, 2.0 * math.pi, 41)
        trig = geometry.trig_table(theta, 5)
        ck, sk = np.cos(k * theta), np.sin(k * theta)
        tol = 1e-14 * k ** 4
        assert np.max(np.abs(_fourier_sum(9.0, cos, sin, trig, 3)
                             - k ** 3 * (c * sk - s * ck))) <= tol
        assert np.max(np.abs(_fourier_sum(9.0, cos, sin, trig, 4)
                             - k ** 4 * (c * ck + s * sk))) <= tol


class TestBuildCurve:
    def test_circle_is_valid(self):
        c = build_curve({"type": "circle", "center": [0, 0], "radius": 1})
        assert np.allclose(c.rho(np.linspace(0, 7, 50)), 1.0)

    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.2), (1000.0, 1000.0),
                                        (1e15, -1e15)])
    def test_circle_is_the_one_harmonic_series(self, center):
        """A circle spec's jet is the closed form r + c . u, c . u' and r to
        the bit (an exact zero h' may carry the other sign)."""
        cx, cy = center
        curve = build_curve({"type": "circle", "center": list(center), "radius": 1.1})
        for theta in TestJet.THETAS:
            t = np.asarray(theta, dtype=float)
            want = (1.1 + cx * np.cos(t) + cy * np.sin(t),
                    -cx * np.sin(t) + cy * np.cos(t), np.full_like(t, 1.1))
            for got, w in zip(curve.jet(theta), want):
                assert np.shape(got) == np.shape(w) and np.array_equal(got, w)

    def test_fourier_rho_small_bump(self):
        c = build_curve({"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.1]})
        # h'' = -0.9 cos(3 theta) at theta=0
        assert float(c.rho(0.0)) == pytest.approx(0.2)

    def test_fourier_rho_exact_in_the_first_harmonic(self):
        """rho does not see a translation: h + h'' would cancel the first
        harmonic only to eps |c_1|, rejecting this shape at offset 1e15
        and erring by 3.4e-4 at 1e12."""
        build_curve({"type": "support_fourier", "a0": 1,
                     "cos": [1e15, 0, 0.1], "sin": [1e15, 0, 0.02]})
        c = build_curve({"type": "support_fourier", "a0": 1,
                         "cos": [1e12, 0, 0.1], "sin": [1e12, 0, 0.02]})
        t = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        want = 1 - 8 * (0.1 * np.cos(3 * t) + 0.02 * np.sin(3 * t))
        assert np.max(np.abs(c.rho(t) - want)) <= 1e-13

    def test_fourier_rejects_nonconvex(self):
        with pytest.raises(NotStrictlyConvex) as err:
            build_curve({"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.5]})
        assert err.value.value < 0

    @pytest.mark.parametrize("spec", [
        {"radius": 1},
        {"type": "circle", "radius": -2},
        {"type": "ellipse", "a": 0, "b": 1},
        {"type": "ellipse", "a": 1e78, "b": 1e78},  # (a b)^2 overflows in jet
        {"type": "ellipse", "a": 1e155, "b": 1e155},  # a^2 overflows too
        {"type": "ellipse", "a": 4e103, "b": 3e50},  # a^3 overflows in jet
        {"type": "polygon"},
        {"type": "support_fourier", "a0": "x"},
        "not a dict",
        {"type": "circle", "radius": True},  # numbers only, not booleans
        {"type": "ellipse", "a": "2", "b": 1},  # nor strings
        {"type": "circle", "center": "12", "radius": 1},  # nor their characters
        {"type": "support_fourier", "a0": 1, "cos": "00"},
        {"type": "ellipse", "a": 1e12, "b": 9.9e5},  # a/b past ELLIPSE_ASPECT_MAX
    ])
    def test_malformed_specs(self, spec):
        with pytest.raises(MalformedSpec):
            build_curve(spec)


class TestPointAt:
    """The boundary point h u + h' u' and the curvature 1 / rho from the jet."""

    def test_circle_point(self):
        c = build_curve({"type": "circle", "center": [0, 0], "radius": 2})
        p = position(c, 0.0)
        assert p == pytest.approx([2, 0])
        assert 1.0 / c.rho(0.0) == pytest.approx(0.5)
        # the tangent u' = (0, 1), as d position / d theta = rho u'
        tangent = (position(c, 1e-6) - position(c, -1e-6)) / (2e-6 * c.rho(0.0))
        assert tangent == pytest.approx([0, 1])
        # the inward normal -u = (-1, 0), towards the centre
        assert -p / np.hypot(*p) == pytest.approx([-1, 0])

    def test_ellipse_tip_curvature(self, ellipse):
        assert position(ellipse, 0.0) == pytest.approx([2, 0])
        assert 1.0 / ellipse.rho(0.0) == pytest.approx(2.0)  # a / b^2

    def test_bumped_circle_curvature(self):
        c = build_curve({"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.1]})
        assert 1.0 / c.rho(0.0) == pytest.approx(5.0)


class TestAntipodal:
    """Widths between the support lines at theta and its antipode theta + pi."""

    def test_circle(self, unit_disc):
        assert position(unit_disc, math.pi) == pytest.approx([-1, 0])
        assert width_at(unit_disc, 0.0) == pytest.approx(2.0)

    def test_ellipse_major_width(self, ellipse):
        assert width_at(ellipse, 0.0) == pytest.approx(4.0)

    def test_odd_harmonic_constant_width(self):
        c = build_curve({"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.05]})
        for theta in np.linspace(0, 2 * math.pi, 17):
            assert width_at(c, theta) == pytest.approx(2.0)


class TestArclength:
    def test_circle_perimeter(self, unit_disc):
        assert perimeter(unit_disc) == pytest.approx(2 * math.pi)

    def test_ellipse_perimeter(self, ellipse):
        assert perimeter(ellipse) == pytest.approx(ELLIPSE_2_1_PERIMETER, rel=1e-10)

    def test_fourier_perimeter_drops_h2(self):
        c = build_curve({"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.1]})
        assert perimeter(c) == pytest.approx(2 * math.pi)

    def test_additivity(self, ellipse):
        assert (arclength(ellipse, 0, 1) + arclength(ellipse, 1, 2.5)
                == pytest.approx(arclength(ellipse, 0, 2.5)))

    @pytest.mark.parametrize("name", sorted(ARC_SHAPES))
    @pytest.mark.parametrize("span", ARC_SPANS, ids=["turn", "arc", "past_turn"])
    def test_matches_mpmath(self, name, span):
        curve = build_curve(ARC_SHAPES[name])
        ref = _mp_arclength(ARC_SHAPES[name], *span)
        assert arclength(curve, *span) == pytest.approx(ref, rel=1e-13, abs=0)
        if span == ARC_SPANS[0]:
            assert perimeter(curve) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_array_bound_equals_scalar_calls(self):
        curve = build_curve(ARC_SHAPES["ellipse_30x1"])
        theta1 = np.array([[0.3, 1.0, 2.9], [4.0, 6.5, 9.0]])
        got = arclength(curve, 0.3, theta1)
        assert got.shape == theta1.shape
        assert got.tolist() == [[arclength(curve, 0.3, t) for t in row]
                                for row in theta1.tolist()]
        with pytest.raises(ValueError, match="theta1 must be >= theta0"):
            arclength(curve, 0.3, np.append(theta1, 0.2))

    def test_node_budget(self, monkeypatch):
        curve = build_curve(ARC_SHAPES["ellipse_30x1"])
        monkeypatch.setattr(geometry, "ARCLENGTH_NODE_BUDGET", 256)
        with pytest.raises(QuadratureNoConvergence):
            arclength(curve, 0.0, 1.0)

    def test_fourier_shape_on_the_first_grid(self, monkeypatch):
        """A trig polynomial of degree K < 16 is resolved on 64 nodes,
        though rounding holds its upper spectrum near 2e-16 max|h|: this
        shape's exceeds 1e-16 on every grid up to 2^20 nodes."""
        curve = build_curve({
            "type": "support_fourier", "a0": 1.0077711375349987,
            "cos": [0.0, -0.007893307379773508, 0.005986215403318993,
                    0.006944452512174714],
            "sin": [0.0, 0.006079906916630243, 0.00046707923534111364,
                    0.004637098589441351]})
        monkeypatch.setattr(geometry, "ARCLENGTH_NODE_BUDGET", 64)
        assert perimeter(curve) == pytest.approx(2 * math.pi * curve.a0, rel=1e-15)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound(self, ellipse, bound):
        with pytest.raises(ValueError, match="finite"):
            arclength(ellipse, 0.0, bound)
        with pytest.raises(ValueError, match="finite"):
            arclength(ellipse, bound, 1.0)
        with pytest.raises(ValueError, match="finite"):
            arclength(ellipse, 0.0, np.array([1.0, bound]))


class TestFramePeaks:
    def test_unit_disc_peaks(self, unit_disc):
        (h_t, _), (h1_t, h1_b), (rho_t, _) = frame_peaks(unit_disc, 0.0)
        assert -h1_t == pytest.approx(0, abs=1e-12)  # x1
        assert h1_b == pytest.approx(0, abs=1e-12)  # x2
        assert h_t == pytest.approx(1.0)
        assert -1.0 / rho_t == pytest.approx(-1.0)
        # the boundary through the normal angle: the unit circle, x = cos t
        t = np.linspace(0.0, 2 * math.pi, 41)
        x, y, rho = frame_point(unit_disc, 0.0, t)
        assert np.allclose(x, np.cos(t), atol=1e-12)
        assert np.allclose(y, np.sin(t), atol=1e-12)
        assert np.allclose(rho, 1.0, atol=1e-12)

    def test_ellipse_peaks(self, ellipse):
        (h_t, _), (h1_t, _), (rho_t, _) = frame_peaks(ellipse, 0.0)
        assert -h1_t == pytest.approx(0, abs=1e-12)
        assert h_t == pytest.approx(1.0)
        assert 1.0 / rho_t == pytest.approx(0.25)  # rho = a^2 / b there

    def test_asymmetric_peaks_vs_scan_oracle(self, asymmetric):
        frame = 0.3
        (h_t, h_b), (h1_t, h1_b), _ = frame_peaks(asymmetric, frame)
        # oracle: dense theta scan of the rotated upper/lower arcs
        t = np.linspace(0, math.pi, 400_001)
        x, y, _ = frame_point(asymmetric, frame, t)
        i = np.argmax(y)
        assert h_t == pytest.approx(y[i], abs=1e-9)
        assert -h1_t == pytest.approx(x[i], abs=1e-4)
        t = np.linspace(math.pi, 2 * math.pi, 400_001)
        x, y, _ = frame_point(asymmetric, frame, t)
        j = np.argmin(y)
        assert -h_b == pytest.approx(y[j], abs=1e-9)
        assert h1_b == pytest.approx(x[j], abs=1e-4)
        assert abs(h1_t + h1_b) > 1e-3  # x1 - x2: asymmetric in this frame

    def test_many_frames_in_one_call(self):
        """Five frames of the 1.6 x 1 ellipse against its closed-form h and
        rho, and against five one-frame calls (BLAS may block the rows
        differently, so the match is to rounding, not bit for bit)."""
        a, b, rot, (cx, cy) = 1.6, 1.0, 0.5, (0.1, 0.05)
        curve = build_curve({"type": "ellipse", "a": a, "b": b,
                             "center": [cx, cy], "rotation": rot})
        phis = np.array([0.0, 0.4, 1.3, 2.9, 4.4])
        h, h1, rho = frame_peaks(curve, phis)
        assert h.shape == h1.shape == rho.shape == (2, 5)
        theta = np.stack([phis + 0.5 * math.pi, phis + 1.5 * math.pi])
        w = (a * np.cos(theta - rot)) ** 2 + (b * np.sin(theta - rot)) ** 2
        assert np.allclose(h, np.sqrt(w) + cx * np.cos(theta) + cy * np.sin(theta),
                           rtol=1e-14, atol=0)
        assert np.allclose(rho, (a * b) ** 2 / w ** 1.5, rtol=1e-14, atol=0)
        for j, phi in enumerate(phis):
            for got, want in zip((h, h1, rho), frame_peaks(curve, phi)):
                assert np.all(np.abs(got[:, j] - want) <= 1e-15 * np.abs(want))


# --- properties ---


@settings(max_examples=25, deadline=None)
@given(curve=small_fourier_curves())
def test_total_curvature(curve):
    thetas = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    rho = np.asarray(curve.rho(thetas))
    total = np.mean((1.0 / rho) * rho) * 2 * math.pi
    assert total == pytest.approx(2 * math.pi, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(curve=small_fourier_curves(), theta=angles())
def test_width_symmetry(curve, theta):
    assert float(curve.h(theta) + curve.h(theta + math.pi)) == pytest.approx(
        float(curve.h(theta + math.pi) + curve.h(theta + 2 * math.pi)))


@settings(max_examples=10, deadline=None)
@given(curve=small_fourier_curves(), frame=angles())
def test_chart_consistency(curve, frame):
    """The closed-form extrema against a theta scan of each arc, whose
    20,001 nodes hold the peak normals pi/2 and 3 pi/2."""
    (h_t, h_b), (h1_t, h1_b), (rho_t, rho_b) = frame_peaks(curve, frame)
    for lo, x_peak, y_peak, ypp, pick in ((0.0, -h1_t, h_t, -1 / rho_t, np.argmax),
                                         (math.pi, h1_b, -h_b, 1 / rho_b, np.argmin)):
        t = np.linspace(lo, lo + math.pi, 20_001)
        x, y, rho = frame_point(curve, frame, t)
        i = pick(y)
        assert float(y[i]) == pytest.approx(y_peak, abs=1e-10)
        assert float(x[i]) == pytest.approx(x_peak, abs=1e-9)
        # curvature consistency: |y''| at the extremum equals kappa there
        assert abs(ypp) == pytest.approx(1.0 / float(rho[i]), abs=1e-8)
        # the slope -cot(theta) vanishes there
        assert abs(float(-np.cos(t[i]) / np.sin(t[i]))) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(curve=small_fourier_curves(), theta=angles())
def test_scaling_covariance(curve, theta):
    c = 2.7
    big = scaled(curve, c)
    kappa = 1.0 / float(curve.rho(theta))
    kappa_big = 1.0 / float(big.rho(theta))
    L = float(curve.h(theta) + curve.h(theta + math.pi))
    L_big = float(big.h(theta) + big.h(theta + math.pi))
    assert kappa_big == pytest.approx(kappa / c)
    assert L_big == pytest.approx(c * L)
    assert kappa_big * L_big == pytest.approx(kappa * L)
