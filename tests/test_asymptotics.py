import math

import mpmath
import numpy as np
import pytest

from discwitness import asymptotics, build_curve, moments
from discwitness.asymptotics import arc_integrals, asymptotic_ratio, bracket_main_term
from discwitness.geometry import frame_peaks, frame_point
from discwitness.moments import moment_sweep, peak_packing, trapezoid_sums

from conftest import abs_log, exact_ellipse_moments, ratio


class TestBracket:
    def test_disc_bracket_vanishes(self, unit_disc):
        term_f, _, bracket = bracket_main_term(unit_disc, 0.0, [10, 50, 200])
        assert np.all(abs_log(bracket) <= abs_log(term_f) + math.log(1e-12))

    def test_centered_ellipse_bracket_vanishes(self, ellipse):
        term_f, _, bracket = bracket_main_term(ellipse, 0.0, [50])
        assert abs_log(bracket) <= abs_log(term_f) + math.log(1e-12)

    def test_asymmetric_bracket_nonzero(self, asymmetric):
        term_f, _, bracket = bracket_main_term(asymmetric, 0.0, [50])
        assert abs_log(bracket) > abs_log(term_f) + math.log(1e-6)

    def test_terms_and_bracket_for_every_m(self, asymmetric):
        """One call for every m, against the closed form in plain complex
        arithmetic (|y_peak|^{2m} stays in range here)."""
        (h_t, h_b), (h1_t, h1_b), (rho_t, rho_b) = frame_peaks(asymmetric, 0.0)
        ms = np.array([10, 50, 50, 200])
        pairs = bracket_main_term(asymmetric, 0.0, ms.tolist())
        for mantissa, log_scale in pairs:
            assert mantissa.shape == log_scale.shape == ms.shape
            assert mantissa.dtype == complex and log_scale.dtype == float
        f, g, bracket = (z * np.exp(ls) for z, ls in pairs)
        for got, x, y, ypp in ((f, -h1_t, h_t, -1 / rho_t),
                               (g, h1_b, -h_b, 1 / rho_b)):
            want = (np.exp(1j * x) * np.sqrt(math.pi * abs(y) / (ms * abs(ypp)))
                    * abs(y) ** (2 * ms))
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        assert np.all(np.abs(bracket - (f - g)) <= 1e-13 * np.maximum(abs(f), abs(g)))
        with pytest.raises(ValueError):
            bracket_main_term(asymmetric, 0.0, [10, 0])


class TestAsymptoticRatio:
    def test_disc_per_arc_convergence(self, unit_disc):
        rows = asymptotic_ratio(unit_disc, 0.0, [50, 100, 200])
        errs = [r.ratio_f_abs_err for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.02
        for hi, lo in zip(errs, errs[1:]):
            assert 1.6 <= hi / lo <= 2.4
        # symmetric: combined ratio unavailable
        assert all(r.combined_abs_err is None for r in rows)

    def test_zero_bracket_gets_no_combined_entry(self, ellipse):
        [row] = asymptotic_ratio(ellipse, 0.0, [50])
        assert row.combined_abs_err is None

    def test_asymmetric_combined(self, asymmetric):
        rows = asymptotic_ratio(asymmetric, 0.0, [50, 100])
        for r in rows:
            assert r.combined_abs_err is not None
            assert r.combined_abs_err < 0.05
        assert rows[1].combined_abs_err < rows[0].combined_abs_err

    def test_m_list_validation(self, unit_disc):
        with pytest.raises(ValueError):
            asymptotic_ratio(unit_disc, 0.0, [5])
        with pytest.raises(ValueError):
            asymptotic_ratio(unit_disc, 0.0, [100, 50])


def test_arc_integral_matches_direct_quadrature(ellipse):
    """The 2 x 1 ellipse's upper arc is f(x) = (1 - x^2/4)^(1/2); the
    reference is mpmath's quadrature of e^{ix} f^{2m} in closed form."""
    m = 30
    mantissa, log_scale = arc_integrals(ellipse, 0.0, [m], upper=True)
    direct = mpmath.quad(lambda x: mpmath.expj(x) * (1 - x * x / 4) ** m,
                         [-2, 0, 2])
    assert mantissa[0] * math.exp(log_scale[0]) == pytest.approx(complex(direct),
                                                                rel=1e-8)


# --- the batched arc grid ---


TILTED_FLAT = {"type": "ellipse", "a": 20, "b": 0.2, "center": [0, 0.05]}


def _exact_odd_moment(a, b, cx, cy, n, centred):
    """M_n of the axis-aligned ellipse centred at (cx, cy), from the moments
    M0_k of the one centred at (cx, 0): sum over even k of
    C(n, k) cy^{n-k} M0_k.  For a < 3.8 every term has one sign; for larger
    a the terms that change sign have small k and carry cy^{n-k}, far below
    the sum."""
    with mpmath.workdps(30):
        return sum(mpmath.binomial(n, k) * mpmath.mpf(cy) ** (n - k) * centred[k]
                   for k in range(0, n + 1, 2))


def _ellipse_in_frame(a, b, cx, cy, rot):
    """Ellipse that, read in frame = rot, is axis-aligned and centred at
    (cx, cy)."""
    c, s = math.cos(rot), math.sin(rot)
    return build_curve({"type": "ellipse", "a": a, "b": b, "rotation": rot,
                        "center": [c * cx - s * cy, s * cx + c * cy]})


def _check_odd_moments_from_green(curve, a, b, cx, cy, rot):
    """green's M_{2m-1}, m = 50, 100, 200, against mpmath."""
    m_list = [50, 100, 200]
    centred = exact_ellipse_moments(a, b, cx, 2 * m_list[-1])
    odd = moment_sweep(curve, [2 * m - 1 for m in m_list], rot, "green")
    for m, got in zip(m_list, zip(*odd)):
        exact = _exact_odd_moment(a, b, cx, cy, 2 * m - 1, centred)
        with mpmath.workdps(30):
            value = mpmath.mpc(complex(got[0])) * mpmath.exp(float(got[1]))
            assert float(abs(value - exact) / abs(exact)) <= 1e-10


@pytest.mark.parametrize("k", [1.0, 0.4], ids=["uniform", "packed"])
@pytest.mark.parametrize("a,b,cx,cy,rot", [(1.6, 1.0, 0.1, 0.3, 0.0),
                                           (2.0, 1.0, -0.2, 0.25, 0.7)])
def test_odd_moments_from_green(a, b, cx, cy, rot, k, monkeypatch):
    """The combined column of asymptotic_ratio: green's M_{2m-1}, on its
    uniform grid and with nodes packed about the peak normals (the packing
    green would derive is replaced by k)."""
    monkeypatch.setattr(moments, "peak_packing", lambda y, ypp: k)
    _check_odd_moments_from_green(_ellipse_in_frame(a, b, cx, cy, rot),
                                  a, b, cx, cy, rot)


@pytest.mark.parametrize("a,b,cx,cy,rot,k", [(1.0, 1.2, 0.1, 0.1, 0.0, 1.0),
                                             (5.0, 0.2, 0.0, 0.01, 0.0, 0.04)],
                         ids=["round", "flat"])
def test_green_derives_its_packing(a, b, cx, cy, rot, k):
    """green's M_{2m-1} with the packing it derives: on a round ellipse,
    where green's grid is uniform, and on a flat one, where its nodes are
    packed about the peak normals by 1/k."""
    curve = _ellipse_in_frame(a, b, cx, cy, rot)
    h, _, rho = frame_peaks(curve, rot)
    assert min(peak_packing(h[i], 1 / rho[i]) for i in (0, 1)) == pytest.approx(
        k, abs=0.002)
    _check_odd_moments_from_green(curve, a, b, cx, cy, rot)


@pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
def test_arc_integral_masks_the_wrong_sign_points(upper):
    """Tilted 100:1 ellipse: each arc dips across y = 0, and its wrong-sign
    points outweigh the peak (unmasked, the lower arc's ratio at m = 2000
    is ~2e25 instead of 7.3e-3).  Reference: mpmath's quadrature in theta
    with the same mask, split about the peak normal."""
    curve = build_curve(TILTED_FLAT)
    (h_t, h_b), _, _ = frame_peaks(curve, 0.3)
    m = 2000
    lo, peak, sgn = (0.0, h_t, 1.0) if upper else (math.pi, -h_b, -1.0)
    ln_peak = math.log(abs(peak))

    def integrand(t):
        x, y, rho = frame_point(curve, 0.3, t)
        v = sgn * y
        with np.errstate(divide="ignore"):
            expo = 2.0 * m * (np.log(np.where(v > 0, v, 1.0)) - ln_peak)
        weight = np.where(v > 0, np.exp(expo), 0.0) * rho * np.abs(np.sin(t))
        return np.exp(1j * x) * weight

    mid = lo + 0.5 * math.pi
    cuts = [lo, *(mid + d for d in (-0.3, -0.03, -0.003, 0.0, 0.003, 0.03, 0.3)),
            lo + math.pi]
    ref, err = mpmath.quad(lambda t: mpmath.mpc(complex(integrand(float(t)))), cuts,
                           error=True)
    assert err <= 1e-12 * abs(ref)
    got = arc_integrals(curve, 0.3, [m], upper)
    assert ratio(got, (complex(ref), 2.0 * m * ln_peak))[0] == pytest.approx(
        1.0, abs=1e-8)
    term_f, term_g, _ = bracket_main_term(curve, 0.3, [m])
    assert abs(ratio(got, term_f if upper else term_g)[0] - 1.0) < 0.01


@pytest.mark.parametrize("m_list", [[50], [50, 100, 200],
                                    [10, 20, 50, 100, 200, 400]])
def test_ratio_table_from_three_grids(asymmetric, m_list, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return trapezoid_sums(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "trapezoid_sums", counted)
    monkeypatch.setattr(moments, "trapezoid_sums", counted)
    rows = asymptotic_ratio(asymmetric, 0.3, m_list)
    assert [r.m for r in rows] == m_list
    assert all(r.combined_abs_err is not None for r in rows)
    assert len(calls) <= 3


def test_flat_ellipse_arcs_match_closed_form():
    """On the 20 x 0.2 ellipse the peak spans ~1e-4 of the normal angle at
    m = 2000; the arc is int e^{ix} (b^2 (1 - x^2/a^2))^m dx
    = b^{2m} a sqrt(pi) Gamma(m+1) (2/a)^{m+1/2} J_{m+1/2}(a)."""
    a, b = 20.0, 0.2
    curve = build_curve({"type": "ellipse", "a": a, "b": b})
    for m in (200, 2000):
        with mpmath.workdps(30):
            scaled = (a * mpmath.sqrt(mpmath.pi) * mpmath.gamma(m + 1)
                      * (2 / mpmath.mpf(a)) ** (m + mpmath.mpf(1) / 2)
                      * mpmath.besselj(m + mpmath.mpf(1) / 2, a))
        exact = complex(scaled), 2.0 * m * math.log(b)
        for upper in (True, False):
            assert ratio(arc_integrals(curve, 0.0, [m], upper), exact)[0] == pytest.approx(
                1.0, abs=1e-9)


def test_flat_combined_column_matches_chord():
    """On the 20 x 0.2 ellipse centred at (0, 0.05) the y^{4000} peaks span
    ~1e-4 of the normal angle; green's uniform grid does not resolve them
    in 65536 nodes, its packed grid does.  Reference: the closed-form
    M_{2m-1} (chord's moment, which is green's)."""
    a, b, cy = 20.0, 0.2, 0.05
    curve = build_curve({"type": "ellipse", "a": a, "b": b, "center": [0, cy]})
    for row in asymptotic_ratio(curve, 0.0, [200, 2000]):
        n = 2 * row.m - 1
        exact = _exact_odd_moment(a, b, 0.0, cy, n,
                                  exact_ellipse_moments(a, b, 0.0, n))
        with mpmath.workdps(30):
            log_scale = float(mpmath.log(abs(exact)))
            mantissa = complex(exact / mpmath.exp(log_scale))
        _, _, (z, bracket_scale) = bracket_main_term(curve, 0.0, [row.m])
        rhs = z[0], bracket_scale[0] - math.log(2.0 * row.m)
        want = abs(ratio((mantissa, log_scale), rhs) - 1.0)
        assert row.combined_abs_err == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("eps,upper", [(1e-14, True), (1e-4, False)],
                         ids=["upper", "lower"])
def test_each_arc_grid_fits_its_own_peak(eps, upper):
    """Origin eps above the bottom of a unit circle: the lower arc's peak
    is ~sqrt(eps) of the normal angle wide and the upper arc's is broad.
    Each arc packs its nodes for its own peak only, so the narrow lower
    peak does not starve the upper arc's ends.  Reference: the masked arc
    int cos(x) (y/y_peak)^{2m} dx, y = cy +- sqrt(1 - x^2), by mpmath.
    (Much smaller eps leaves the lower arc ill-conditioned: its y is known
    to ~1e-16 absolute, so y^{2m} to ~2m 1e-16 / eps relative.)"""
    cy = 1.0 - eps
    curve = build_curve({"type": "circle", "radius": 1, "center": [0, cy]})
    sgn = 1 if upper else -1
    with mpmath.workdps(30):
        cy_mp = mpmath.mpf(cy)
        peak = cy_mp + sgn
        end = 1 if upper else mpmath.sqrt(1 - cy_mp ** 2)
    for m in (10, 200):
        with mpmath.workdps(30):
            scaled = mpmath.quad(
                lambda x: mpmath.cos(x) * ((cy_mp + sgn * mpmath.sqrt(1 - x * x)) / peak)
                ** (2 * m), [-end, -end / 2, 0, end / 2, end])
        exact = complex(scaled), 2.0 * m * math.log(abs(float(peak)))
        assert ratio(arc_integrals(curve, 0.0, [m], upper), exact)[0] == pytest.approx(
            1.0, abs=1e-9)
