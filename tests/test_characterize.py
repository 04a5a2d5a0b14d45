import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discwitness import build_curve, characterize, geometry
from discwitness.geometry import FourierCurve
from discwitness.errors import DiscSearchFailed, MalformedSpec
from discwitness.characterize import (
    constraint_residuals,
    identity_residuals,
    inscribed_disc,
    kl_profile,
    lemma2_witness,
    min_clearance,
    p_zero_check,
)

from conftest import position, scaled, small_fourier_curves


class TestConstraintResiduals:
    def test_disc(self, unit_disc):
        res = constraint_residuals(unit_disc, 0.0)
        assert max(res.height, res.curv, res.phase) <= 1e-9
        assert res.p == 0

    def test_centered_ellipse(self, ellipse):
        res = constraint_residuals(ellipse, 0.0)
        assert max(res.height, res.curv, res.phase) <= 1e-9

    def test_asymmetric_shape_breaks_a_constraint(self, asymmetric):
        res = constraint_residuals(asymmetric, 0.0)
        assert max(res.height, res.curv, res.phase) > 1e-3


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
        assert rep.kappa_L[0] == pytest.approx(8.0, abs=1e-6)

    def test_constant_width_is_not_enough(self, three_lobe):
        rep = kl_profile(build_curve(
            {"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.05]}), 1000)
        widths = rep.L
        assert max(widths) - 2 < 1e-10 and 2 - min(widths) < 1e-10
        assert rep.max_dev >= 0.5
        assert rep.verdict == "not_disc"

    def test_sample_count_floor(self, unit_disc):
        with pytest.raises(ValueError):
            kl_profile(unit_disc, 8)
        with pytest.raises(ValueError):
            identity_residuals(unit_disc, 8)


ELLIPSE_AXES = (1.001, 5.0, 10.0, 20.0, 50.0, 100.0)
ELLIPSE_CENTERS = ((0.0, 0.0), (0.1, -0.2), (3.0, 1.5))


class TestInscribedDisc:
    def test_offset_circle(self):
        c = build_curve({"type": "circle", "center": [0.2, 0.1], "radius": 1})
        (cx, cy), r = inscribed_disc(c)
        assert (cx, cy) == pytest.approx((0.2, 0.1), abs=1e-8)
        assert r == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_far_circle(self, offset):
        """h's rounding grows with |c|, not with the radius: a unit circle
        far from the origin is its own fitted circle to that rounding, not
        a shape for the Newton search, whose q'' is rounding noise there."""
        c = build_curve({"type": "circle", "center": [offset, offset],
                         "radius": 1})
        got, r = inscribed_disc(c)
        tol = 1e-12 * (1.0 + math.hypot(offset, offset))
        assert got == pytest.approx((offset, offset), rel=0, abs=tol)
        assert abs(r - 1.0) <= tol

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

    def test_step_lowering_the_clearance_raises(self, three_lobe, monkeypatch):
        """A step towards a contact lowers the clearance however it is
        halved, so the search raises instead of taking it."""
        def towards_a_contact(t, q, q2, i, *rest):
            d = 0.1 * np.array([math.cos(t[i[0]]), math.sin(t[i[0]])])
            return d, float(np.min(q)) + 1.0, i, None

        monkeypatch.setattr(characterize, "_kkt_step", towards_a_contact)
        with pytest.raises(DiscSearchFailed, match="lowered the clearance"):
            inscribed_disc(three_lobe)

    def test_unconverged_newton_raises(self, three_lobe, monkeypatch):
        monkeypatch.setattr(characterize, "_NEWTON_STEPS", 0)
        with pytest.raises(DiscSearchFailed):
            inscribed_disc(three_lobe)

    def test_newton_step_keeps_the_binding_contacts(self):
        """Four contacts about the centre, two at 0.94 and two at 0.96: from
        any start set, the step keeps the lower pair, with r = 0.94."""
        curve = build_curve({"type": "support_fourier", "a0": 1.0,
                             "cos": [0.0, 0.0, 0.0, 0.05], "sin": [0.0, 0.01]})
        t, q, q2 = characterize._support_extrema(curve, (0.0, 0.0))
        assert np.sort(q) == pytest.approx([0.94, 0.94, 0.96, 0.96], abs=1e-15)
        for i in ([0, 1, 2, 3], [0, 1, 2], [1, 3]):
            d, r, i, lam = characterize._kkt_step(
                t, q, q2, np.array(i), 1.0, 0.06, 1e-15)
            assert sorted(q[i]) == pytest.approx([0.94, 0.94], abs=1e-15)
            assert r == pytest.approx(0.94, abs=1e-15)
            assert lam == pytest.approx([0.5, 0.5], abs=1e-12)
            assert np.hypot(*d) <= 1e-15

    def test_flat_step_keeps_both_contacts(self):
        """Off centre along the major axis of a flat rotated ellipse, the two
        antipodal contacts meet the least-squares solve at one level only to
        its rounding: the step keeps both and heads back to the centre."""
        curve = build_curve({"type": "ellipse", "a": 100.0, "b": 1.0,
                             "rotation": math.pi / 6})
        h = curve.h(characterize._THETAS)
        a0 = float(np.mean(h))
        s = float(np.max(np.abs(h - a0)))
        center = -0.0922 * np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
        t, q, q2 = characterize._support_extrema(curve, center)
        assert len(t) == 2
        d, r, i, lam = characterize._kkt_step(
            t, q, q2, np.arange(2), a0, s, 1e-15 * a0)
        assert list(i) == [0, 1] and lam == pytest.approx([0.5, 0.5])
        assert r == pytest.approx(1.0, abs=1e-6)
        assert np.hypot(*(center + d)) <= 1e-3 * 0.0922

    def test_unequal_contacts_settle(self):
        """Five contacts at unequal levels about the fitted-circle centre:
        dropping the highest one at a time cycles among sets of four, and
        the balanced triple settles on three with positive weights."""
        curve = build_curve({"type": "support_fourier", "a0": 1.0,
                             "cos": [-0.0309, -0.0104, 0.0067, 0.0002, -0.0046],
                             "sin": [-0.0029, 0.0047, -0.0059, 0.0009, 0.0081]})
        h = curve.h(characterize._THETAS)
        u = np.stack([characterize._COS, characterize._SIN])
        a0, c1 = float(np.mean(h)), 2.0 * (u @ h) / len(h)
        s = float(np.max(np.abs(h - a0 - c1 @ u)))
        t, q, q2 = characterize._support_extrema(curve, c1)
        assert len(t) == 5 and np.ptp(q) < s
        d, r, i, lam = characterize._kkt_step(
            t, q, q2, np.arange(5), a0, s, 1e-15)
        assert len(i) == 3 and np.all(lam > 0.0)
        center, r = inscribed_disc(curve)
        assert _dual_bound(curve, center) - r <= 1e-12

    @pytest.mark.parametrize("a", ELLIPSE_AXES)
    def test_flat_rotated_ellipses(self, a):
        """r = b at the ellipse's centre, in closed form, over 13 rotations
        and 3 centres (b = 1)."""
        rotations = [k * math.pi / 12 for k in range(12)] + [0.3]
        for rotation, center in itertools.product(rotations, ELLIPSE_CENTERS):
            curve = build_curve({"type": "ellipse", "a": a, "b": 1.0,
                                 "center": list(center), "rotation": rotation})
            (cx, cy), r = inscribed_disc(curve)
            assert r == pytest.approx(1.0, abs=1e-12), (rotation, center)
            assert math.hypot(cx - center[0], cy - center[1]) <= 1e-12 * a, (
                rotation, center)

    def test_no_gain_step_is_refused(self):
        """From the exact centre of a 100 x 1 ellipse standing upright, the
        KKT step is rounding along the major axis (9.8e-11 long) that
        gains nothing; it is refused, not taken."""
        for center in ELLIPSE_CENTERS:
            curve = build_curve({"type": "ellipse", "a": 100.0, "b": 1.0,
                                 "center": list(center),
                                 "rotation": math.pi / 2})
            (cx, cy), r = inscribed_disc(curve)
            assert math.hypot(cx - center[0], cy - center[1]) <= 1e-14 * 100.0
            assert r == pytest.approx(1.0, abs=1e-12)


class TestFlatEllipses:
    """Contacts sharper than the contact grid: about a flat ellipse's
    centre q = h - c . u has a well about b/a wide at the minor axis'
    normals, narrower than the grid spacing once a/b passes a few hundred,
    and the polish must find its floor inside the bracket of grid nodes."""

    @settings(max_examples=60, deadline=None)
    @given(log_ratio=st.floats(0.0, math.log(geometry.ELLIPSE_ASPECT_MAX)),
           log_rho=st.floats(0.0, math.log(10.0)),
           rotation=st.floats(0.0, math.pi),
           where=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 2.0 * math.pi)))
    def test_random_flat_ellipses(self, log_ratio, log_rho, rotation, where):
        """a/b log-uniform in [1, 1e6] with min rho = b^2/a in [1, 10], a
        random rotation and centre |c| <= a/2: the disc has radius b at
        the centre, and the witness width is 2a, all to 1e-9 a."""
        ratio = math.exp(log_ratio)
        a = ratio * ratio * math.exp(log_rho)
        b = a / ratio
        center = (where[0] * a * math.cos(where[1]),
                  where[0] * a * math.sin(where[1]))
        curve = build_curve({"type": "ellipse", "a": a, "b": b,
                             "center": list(center), "rotation": rotation})
        disc = inscribed_disc(curve)
        (cx, cy), r = disc
        assert abs(r - b) <= 1e-9 * a
        assert math.hypot(cx - center[0], cy - center[1]) <= 1e-9 * a
        w = lemma2_witness(curve, disc=disc)
        if w is None:  # a disc to the witness' tolerance
            assert a - b <= 2.0 * characterize.DISC_TOL_DEFAULT * max(1.0, b)
        else:
            assert abs(w.L_dir - 2.0 * a) <= 1e-9 * a

    @pytest.mark.parametrize("a,b,rel", [(1e8, 400.0, 0.0)])
    def test_rotation_zero_pins(self, a, b, rel):
        """Upright, far past a/b = 1e4, the radius keeps the accuracy that
        rounding of h at the minor-axis normal allows; a bracket test that
        excludes its ends bisects away from an exact grid node here."""
        (_, _), r = inscribed_disc(build_curve({"type": "ellipse", "a": a,
                                                "b": b}))
        assert abs(r - b) <= rel * b

    @pytest.mark.parametrize("a,b,rel", [(1e8, 400.0, 1e-11),
                                         (1e12, 1e6, 1e-10)])
    def test_rotated_pins(self, a, b, rel):
        """At rotation 0.2, 1e8 x 400 is right to 7.3e-12, and 1e12 x 1e6,
        at the largest aspect ratio an ellipse spec takes, to 4.8e-11."""
        (_, _), r = inscribed_disc(build_curve({
            "type": "ellipse", "a": a, "b": b, "rotation": 0.2}))
        assert abs(r - b) <= rel * b

    @pytest.mark.parametrize("a,b,rotation", [
        (1e20, 1e9, 0.0), (1e24, 1e12, 0.0), (1e20, 1e9, 0.2),
        (1e30, 1e14, 0.0), (1e60, 4e28, 0.0)])
    def test_past_the_envelope_is_rejected(self, a, b, rotation):
        """Past a/b = 1e6 the rounding of h near the minor-axis normal,
        which scales with a, not b, costs the radius 1e-9 relative: 1e20 x
        1e9 erred by 3.2e-6 at rotation 0.2, and 1e30 x 1e14 returned a
        radius 17 % above b.  Such specs are refused."""
        with pytest.raises(MalformedSpec, match="aspect ratio"):
            build_curve({"type": "ellipse", "a": a, "b": b,
                         "rotation": rotation})


def _polished_minima(f, f1, f2, n=1 << 14):
    """Local minima of a 2 pi-periodic f: the discrete minima of a fine grid,
    each refined by Newton steps on f' while f'' > 0."""
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    v = f(t)
    t = t[(v <= np.roll(v, 1)) & (v <= np.roll(v, -1))]
    for _ in range(40):
        d2 = f2(t)
        t = t - np.divide(f1(t), d2, out=np.zeros_like(t), where=d2 > 0.0)
    return t


def _dual_bound(curve, center):
    """An upper bound D >= r* by weak duality, from plain numpy: half the
    minimum width, and sum lam_j h(theta_j) over every triple of the twelve
    lowest contacts about `center` whose normals hold 0 in their convex
    hull.  (On a circle, where every grid node is a contact, the width
    bound is exact.)"""
    def h1(t):
        return curve.jet(t)[1]

    def h2(t):
        h, _, rho = curve.jet(t)
        return rho - h

    tw = _polished_minima(lambda t: curve.h(t) + curve.h(t + math.pi),
                          lambda t: h1(t) + h1(t + math.pi),
                          lambda t: h2(t) + h2(t + math.pi))
    bound = 0.5 * float(np.min(curve.h(tw) + curve.h(tw + math.pi)))
    cx, cy = center
    tc = _polished_minima(
        lambda t: curve.h(t) - cx * np.cos(t) - cy * np.sin(t),
        lambda t: h1(t) + cx * np.sin(t) - cy * np.cos(t),
        lambda t: h2(t) + cx * np.cos(t) + cy * np.sin(t))
    tc = tc[np.argsort(curve.h(tc) - cx * np.cos(tc) - cy * np.sin(tc))[:12]]
    for tri in itertools.combinations(tc, 3):
        tri = np.array(tri)
        m = np.stack([np.cos(tri), np.sin(tri), np.ones(3)])
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        lam = np.linalg.solve(m, [0.0, 0.0, 1.0])
        if np.all(lam >= 0.0):
            bound = min(bound, float(lam @ curve.h(tri)))
    return bound


def _fourier(k_max, weight, seed):
    """Translated Fourier shape: harmonics 2..k_max with sum k^2 |coef| =
    weight about a0 = 1."""
    rng = np.random.default_rng(seed)
    cos, sin = rng.standard_normal((2, k_max))
    k2 = np.arange(1, k_max + 1) ** 2
    cos[0] = sin[0] = 0.0
    scale = weight / float(k2 @ np.abs(cos) + k2 @ np.abs(sin))
    cos, sin = cos * scale, sin * scale
    cos[0], sin[0] = 0.2, -0.1
    return {"type": "support_fourier", "a0": 1.0, "cos": cos.tolist(),
            "sin": sin.tolist()}


CERTIFIED = (
    [{"type": "circle", "center": [0.0, 0.0], "radius": 1.0},
     {"type": "circle", "center": [0.3, -0.2], "radius": 0.7}]
    + [_fourier(k, w, k) for w in (1e-9, 1e-6, 1e-3) for k in (2, 5, 8, 12)]
    + [_fourier(k, w, 10 + k) for w in (0.2, 0.5, 0.79) for k in (3, 6)]
    + [{"type": "ellipse", "a": a, "b": 1.0, "center": [0.1, 0.05],
        "rotation": 0.5} for a in (1.6, 20.0)]
    # two contacts merge into one valley of q: about the first the valley's
    # minimum jumps across it for 21 Newton steps, about the second the
    # contact set cycles between the valley's two ends
    + [{"type": "support_fourier", "a0": 1.0, "cos": [0.0, -0.0234375, 0.0],
        "sin": [0.0, 0.0434195739620252, 0.024702277434705086]},
       {"type": "support_fourier", "a0": 1.0,
        "cos": [0.0, -0.03883068253051293, -0.010607297750382863],
        "sin": [0.0, -0.059322573474969525, 0.034657921802736046]}]
)


def test_balanced_triple_is_the_lp_dual():
    """The least sum w q over triples whose normals balance with weights
    w >= 0, against every triple solved by np.linalg.solve."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        t, q = rng.uniform(0.0, 2.0 * math.pi, 7), rng.uniform(0.9, 1.1, 7)
        best = math.inf
        for tri in itertools.combinations(range(7), 3):
            m = np.stack([np.cos(t[tri,]), np.sin(t[tri,]), np.ones(3)])
            lam = np.linalg.solve(m, [0.0, 0.0, 1.0])
            if np.all(lam >= 0.0):
                best = min(best, float(lam @ q[tri,]))
        i3, w = characterize._balanced_triple(t, q, np.arange(7))
        if best == math.inf:
            assert i3 is None
            continue
        assert float(w @ q[i3]) == pytest.approx(best, abs=1e-14)
        assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0)
        assert np.hypot(w @ np.cos(t[i3]), w @ np.sin(t[i3])) <= 1e-15
    half_plane = np.array([0.1, 0.5, 1.0, 2.0])
    assert characterize._balanced_triple(half_plane, np.ones(4),
                                         np.arange(4)) == (None, None)


@pytest.mark.parametrize("spec", CERTIFIED, ids=range(len(CERTIFIED)))
def test_inscribed_radius_meets_the_dual_bound(spec):
    """The radius is the clearance at the returned centre, so r <= r* <= D;
    a gap D - r above rounding means the centre is not optimal."""
    curve = build_curve(spec)
    center, r = inscribed_disc(curve)
    assert _dual_bound(curve, center) - r <= 1e-12 * max(1.0, r)


@pytest.fixture
def circle_jet_calls(monkeypatch):
    """Sizes of the angle sets that a circle's FourierCurve.jet and
    periodic_jet (its grid evaluation, which bypasses jet) are called with."""
    jet, periodic_jet = FourierCurve.jet, FourierCurve.periodic_jet
    calls = []

    def counted(self, theta):
        calls.append(np.size(theta))
        return jet(self, theta)

    def counted_periodic(self, n):
        calls.append(n)
        return periodic_jet(self, n)

    monkeypatch.setattr(FourierCurve, "jet", counted)
    monkeypatch.setattr(FourierCurve, "periodic_jet", counted_periodic)
    return calls


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, 0.1), (6e-10, 8e-10)],
                         ids=["origin", "offset", "1e-9_from_origin"])
@pytest.mark.parametrize("about", ["centre", "fitted_centre"])
def test_flat_support_function_is_not_polished(center, about, circle_jet_calls):
    """About a unit circle's centre q = h - c . u is flat: its grid extrema
    (hundreds of them) are rounding noise, and q'' = rho - q is too.  They
    keep their grid angles and values, from the grid evaluation and one
    jet at the candidates; a Newton polish of that noise runs all its 30
    steps about the fitted centre that inscribed_disc takes, within 1e-16
    of the centre."""
    curve = build_curve({"type": "circle", "center": list(center), "radius": 1.0})
    c = np.asarray(center)
    if about == "fitted_centre":
        h = curve.h(characterize._THETAS)
        c = 2.0 * np.array([np.mean(h * characterize._COS),
                            np.mean(h * characterize._SIN)])
    for maximum in (False, True):
        circle_jet_calls.clear()
        t, q, _ = characterize._support_extrema(curve, c, maximum=maximum)
        assert len(circle_jet_calls) <= 2
        assert np.max(np.abs(q - 1.0)) <= 1e-15
    assert lemma2_witness(curve) is None


def test_small_real_curvature_stops_at_the_rounding_floor(circle_jet_calls):
    """About (6e-10, 8e-10) off a unit circle's centre q has one minimum
    and one maximum with q'' ~ 1e-9: real, but the Newton step q'/q'' is
    rounding noise once q' is.  Each stops one step after the grid."""
    curve = build_curve({"type": "circle", "center": [0.3, 0.1], "radius": 1.0})
    c = np.array([0.3 + 6e-10, 0.1 + 8e-10])
    for maximum, expect in ((False, 1.0 - 1e-9), (True, 1.0 + 1e-9)):
        circle_jet_calls.clear()
        t, q, _ = characterize._support_extrema(curve, c, maximum=maximum)
        assert len(circle_jet_calls) <= 3
        assert len(q) == 1 and abs(q[0] - expect) <= 1e-15


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


@pytest.mark.parametrize("spec,center", [
    ({"type": "ellipse", "a": 1.6, "b": 1.0, "center": [0.1, 0.05],
      "rotation": 0.5}, (0.1, 0.05)),
    ({"type": "support_fourier", "a0": 1.0, "cos": [0.0, 0.05, 0.0, 0.01],
      "sin": [0.0, 0.02]}, (0.0, 0.0)),
], ids=["ellipse", "symmetric_fourier"])
def test_witness_tie_rule(spec, center):
    """A centrally symmetric shape has two boundary points equally far from
    its centre of symmetry, the inscribed centre.  Moving that centre by
    1e-10 must not make the witness jump from one to the other."""
    curve = build_curve(spec)
    disc = inscribed_disc(curve)
    assert disc[0] == pytest.approx(center, abs=1e-12)
    theta = lemma2_witness(curve, disc=disc).x_prime_theta
    cx, cy = center
    for dx, dy in ((1e-10, 0.0), (-1e-10, 0.0), (0.0, 1e-10), (0.0, -1e-10)):
        moved = lemma2_witness(curve, disc=((cx + dx, cy + dy), disc[1]))
        assert moved.x_prime_theta == pytest.approx(theta, abs=1e-6)


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
    t = w.x_prime_theta
    ray = position(curve, t) - np.asarray(w.K_center)
    assert abs(ray @ np.array([-math.sin(t), math.cos(t)])) <= 1e-12  # tangent u'
    pos = position(curve, np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False))
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
    @pytest.mark.parametrize("spec", [
        {"type": "ellipse", "a": 20, "b": 0.2, "center": [0.0, 0.05]},
        {"type": "ellipse", "a": 20, "b": 0.2},
        _fourier(8, 0.5, 3), _fourier(8, 0.79, 4),
        {"type": "circle", "center": [0.0, -(1.0 - 1e-8)], "radius": 1.0},
    ], ids=["ellipse_20x0.2", "ellipse_20x0.2_centred", "fourier_K8",
            "fourier_K8_near_floor", "origin_1e-8_inside"])
    def test_periodic_grid_sum_vanishes(self, spec):
        """oint L' is the periodic trapezoid sum of one jet on the
        validation grid, 0 to rounding."""
        rep = p_zero_check(build_curve(spec))
        assert abs(rep.total_L_prime) <= 1e-12
        assert abs(rep.total_curvature - 2.0 * math.pi) <= 1e-12
        assert rep.p_zero_consistent

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
    rep_scaled = kl_profile(scaled(curve, 3.7), 64)
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
