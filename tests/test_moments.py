import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discwitness import build_curve, chord_chart, moments
from discwitness.geometry import ChordChart, FourierCurve
from discwitness.logscale import relative_gap
from discwitness.moments import (
    moment_area,
    moment_chord,
    moment_green,
    moment_sweep,
    trapezoid_sums,
)

from conftest import (
    exact_ellipse_moments,
    logcomplexes,
    small_fourier_curves,
    worst_exact_gap,
)

# frozen: independent 200x200 Gauss polar quadrature of the unit-disc
# integral (equals 2 pi J1(1))
DISC_M0 = 2.764919374768337


def _gap(r1, r2, abs_floor=1e-8):
    return relative_gap(r1.as_logcomplex(), r2.as_logcomplex(),
                        abs_floor_log=math.log(abs_floor))


def _worst_sweep_gap(s1, s2, abs_floor=1e-8):
    """_gap's worst over two sweeps' (mantissa, log_scale) arrays."""
    return max(relative_gap(a, b, abs_floor_log=math.log(abs_floor))
               for a, b in zip(logcomplexes(s1), logcomplexes(s2)))


class TestChord:
    def test_disc_m0(self, unit_disc):
        m = moment_chord(chord_chart(unit_disc), 0)
        assert abs(m.value() - DISC_M0) < 1e-8

    def test_disc_odd_vanishes(self, unit_disc):
        ch = chord_chart(unit_disc)
        for n in (1, 3, 5):
            r = moment_chord(ch, n)
            assert r.abs_log() <= math.log(1e-10)

    def test_matches_area_on_ellipse(self, ellipse):
        ch = chord_chart(ellipse)
        assert _gap(moment_chord(ch, 2), moment_area(ellipse, 2)) < 1e-6

    def test_large_order_finite(self, ellipse):
        r = moment_chord(chord_chart(ellipse), 499)
        assert np.isfinite(r.log_scale)
        assert np.isfinite(abs(r.mantissa))
        assert 1 / math.e <= abs(r.mantissa) <= math.e


class TestGreen:
    def test_disc_values(self, unit_disc):
        assert moment_green(unit_disc, 1).abs_log() <= math.log(1e-10)
        assert _gap(moment_green(unit_disc, 0),
                    moment_chord(chord_chart(unit_disc), 0)) < 1e-8

    def test_translation_phase(self, unit_disc):
        base = moment_green(unit_disc, 0).value()
        shifted = moment_green(unit_disc.translated(0.5, 0.0), 0).value()
        assert shifted == pytest.approx(base * np.exp(0.5j), rel=1e-8)
        assert abs(shifted) == pytest.approx(abs(base), rel=1e-8)


class TestArea:
    def test_disc_m0(self, unit_disc):
        assert abs(moment_area(unit_disc, 0).value() - DISC_M0) < 1e-6

    def test_disc_odd(self, unit_disc):
        assert moment_area(unit_disc, 3).abs_log() <= math.log(1e-10)

    def test_matches_green_on_ellipse(self, ellipse):
        assert _gap(moment_area(ellipse, 4), moment_green(ellipse, 4)) < 1e-6

    def test_sweep_needs_no_chart_inversion(self, asymmetric, monkeypatch):
        chords = moment_sweep(asymmetric, range(41), 0.3, "chord")

        def no_inversion(self, x, upper):
            raise AssertionError("area inverted a chord chart")

        monkeypatch.setattr(ChordChart, "_invert", no_inversion)
        areas = moment_sweep(asymmetric, range(41), 0.3, "area")
        assert _worst_sweep_gap(areas, chords) < 1e-6


class TestSweep:
    def test_disc_odd_all_zero(self, unit_disc):
        for r in logcomplexes(moment_sweep(unit_disc, [1, 3, 5])):
            assert r.abs_log() <= math.log(1e-10)

    def test_empty(self, unit_disc):
        mantissa, log_scale = moment_sweep(unit_disc, [])
        assert mantissa.shape == log_scale.shape == (0,)

    @pytest.mark.parametrize("method", ["green", "area"])
    @pytest.mark.parametrize("cy", [-1.0, -(1.0 - 1e-8)])
    def test_origin_at_the_top_of_the_curve(self, method, cy):
        # the top normal's height is ~0: packing the nodes about it as about
        # the peak would collapse them (cy = -1) or starve the bottom peak
        curve = build_curve({"type": "circle", "center": [0, cy], "radius": 1})
        results = logcomplexes(moment_sweep(curve, range(401), 0.0, method))
        assert results[0].value() == pytest.approx(DISC_M0, rel=1e-10)
        assert results[1].value() == pytest.approx(cy * DISC_M0, rel=1e-10)

    @pytest.mark.parametrize("frame", [0.0, 0.7])
    def test_orders_map_back_in_request_order(self, asymmetric, frame):
        # unsorted, with a duplicate: each result is the single-order one
        ns = [399, 0, 57, 57, 200]
        single = {"chord": lambda n: moment_chord(chord_chart(asymmetric, frame), n),
                  "green": lambda n: moment_green(asymmetric, n, frame),
                  "area": lambda n: moment_area(asymmetric, n, frame)}
        for method, one in single.items():
            mantissa, log_scale = moment_sweep(asymmetric, ns, frame, method)
            assert mantissa.shape == log_scale.shape == (len(ns),)
            assert mantissa.dtype == complex and log_scale.dtype == float
            for got, n in zip(logcomplexes((mantissa, log_scale)), ns):
                r = one(n)
                assert r.n == n and r.method == method
                assert type(r.mantissa) is complex and type(r.log_scale) is float
                gap = relative_gap(got, r.as_logcomplex())
                assert gap <= 1e-12, (method, n)

    def test_zero_sum_is_exact_zero(self):
        def sample(t):
            return np.zeros(t.shape, dtype=complex), np.cos(t)

        mantissa, log_scale = moments._trapezoid_moments(
            sample, 2.0 * math.pi, [0, 3], 0.0, "green", 1e-10)
        assert list(zip(mantissa.tolist(), log_scale.tolist())) == [(0j, 0.0)] * 2
        assert mantissa.dtype == complex and log_scale.dtype == float

    def test_chord_vs_green_to_40(self, ellipse):
        ns = list(range(401))
        chords = moment_sweep(ellipse, ns, method="chord")
        greens = moment_sweep(ellipse, ns, method="green")
        assert _worst_sweep_gap(chords, greens) < 1e-6


# (a, b, centre, rotation, frame): read in frame = rotation, the ellipse
# is axis-aligned with centre (cx, 0)
EXACT_CASES = [
    (1.0, 1.0, 0.0, 0.0),
    (1.0, 1.0, 0.3, 0.0),
    (2.0, 1.0, 0.0, 0.0),
    (1.0, 1.7, -0.2, 0.0),
    (1.6, 1.0, 0.1, 0.7),
]


@pytest.mark.parametrize("a,b,cx,rot", EXACT_CASES)
def test_ellipse_moments_match_closed_form(a, b, cx, rot):
    if a == b and rot == 0.0:
        spec = {"type": "circle", "center": [cx, 0.0], "radius": a}
    else:
        spec = {"type": "ellipse", "a": a, "b": b, "rotation": rot,
                "center": [cx * math.cos(rot), cx * math.sin(rot)]}
    curve = build_curve(spec)
    exact = exact_ellipse_moments(a, b, cx, 400)
    for method in ("chord", "green", "area"):
        results = moment_sweep(curve, range(401), rot, method)
        assert worst_exact_gap(results, exact, b) <= 1e-10, method


def test_wide_ellipse_odd_orders_stop_at_rounding_floor():
    # odd orders vanish; on a 100:1 ellipse their trapezoid sums stay at
    # rounding level (~5e-14 in scaled units), so the floor must scale
    # with the integrand's size for the node doubling to stop
    a, b = 20.0, 0.2
    curve = build_curve({"type": "ellipse", "a": a, "b": b})
    exact = exact_ellipse_moments(a, b, 0.0, 400)
    for method in ("chord", "green", "area"):
        results = moment_sweep(curve, range(401), 0.0, method)
        assert worst_exact_gap(results, exact, b) <= 1e-10, method


def test_flat_ellipse_in_few_nodes(monkeypatch):
    # to n = 400 on the 5 x 0.2 (20 x 0.2) ellipse a uniform grid in the
    # normal angle takes 8192 (32768) nodes for green; packed about the peak
    # normals green takes 512 (1024), area 512 (512) and chord 256 (256)
    monkeypatch.setattr(moments, "_MAX_TRAPEZOID_NODES", 1024)
    for a in (5.0, 20.0):
        curve = build_curve({"type": "ellipse", "a": a, "b": 0.2})
        exact = exact_ellipse_moments(a, 0.2, 0.0, 400)
        for method in ("chord", "green", "area"):
            results = moment_sweep(curve, range(401), 0.0, method)
            assert worst_exact_gap(results, exact, 0.2) <= 1e-10, (a, method)


@pytest.mark.parametrize("powers", [list(range(401)), [100, 200, 400],
                                    [0, 399], [57], [], [399, 0, 57, 57, 200]],
                         ids=["dense", "sparse", "ends", "single", "empty",
                              "unsorted"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trapezoid_sums_match_direct_powers(powers, seed):
    # one doubling (rel_tol = inf) over 128 random nodes with v = 0,
    # negative v and |v/ref| up to 1.05; the direct sum takes
    # sign(v)^p exp(p ln|v/ref|) power by power, v^0 = 1 also at v = 0
    rng = np.random.default_rng(seed)
    c = rng.normal(size=128) + 1j * rng.normal(size=128)
    v = rng.uniform(-1.05, 1.05, size=128) * 2.0
    v[rng.choice(128, size=8, replace=False)] = 0.0
    ln_ref = math.log(2.0)

    def sample(t):
        i = np.rint(t * (128 / math.pi)).astype(int)
        return c[i], v[i]

    got = trapezoid_sums(sample, math.pi, powers, ln_ref, "test", np.inf)
    assert got.shape == (len(powers),)
    with np.errstate(divide="ignore"):
        lv = np.log(np.abs(v)) - ln_ref
    for s, p in zip(got, powers):
        term = np.sign(v) ** p * np.exp(p * lv) if p else np.ones(128)
        direct = math.pi / 128 * np.sum(c * term)
        size = math.pi / 128 * np.sum(np.abs(c) * np.maximum(1.0, np.abs(term)))
        assert abs(s - direct) <= 1e-13 * size, p


# --- properties ---


@settings(max_examples=10, deadline=None)
@given(curve=small_fourier_curves(max_harmonic=3, scale=0.1),
       n=st.integers(0, 12))
# plain Gauss in x converges only as N^-3 at this shape's square-root chart
# ends; chord's cosine map must not
@example(curve=FourierCurve(1.0, (0.0, -0.05405405405405406, 0.05405405405405406),
                            (0.0, 0.0, 0.010810810810810811)), n=1)
def test_three_methods_agree(curve, n):
    chart = chord_chart(curve)
    rc = moment_chord(chart, n)
    rg = moment_green(curve, n)
    ra = moment_area(curve, n)
    assert _gap(rc, rg) < 1e-6
    assert _gap(rc, ra) < 1e-6


@settings(max_examples=10, deadline=None)
@given(n=st.integers(0, 10))
def test_symmetric_odd_orders_vanish(n):
    curve = build_curve({"type": "support_fourier", "a0": 1, "cos": [0, 0.1]})
    r = moment_chord(chord_chart(curve), 2 * n + 1)
    assert r.abs_log() <= math.log(1e-10)


@settings(max_examples=10, deadline=None)
@given(curve=small_fourier_curves(max_harmonic=3, scale=0.1),
       n=st.integers(0, 10))
# an odd moment of O(1) terms cancelling to 3.7e-10
@example(curve=FourierCurve(1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 1e-9)), n=1)
def test_frame_flip_parity(curve, n):
    # y -> -y is the frame theta -> theta + pi composed with x -> -x kept:
    # reflect by comparing frame 0 against the mirrored curve
    mirrored = build_curve({
        "type": "support_fourier", "a0": curve.a0,
        "cos": list(curve.cos),
        "sin": [-v for v in curve.sin],
    })
    r = moment_green(curve, n)
    rm = moment_green(mirrored, n)
    expect = rm.as_logcomplex().scaled((-1.0) ** n)
    # relative 1e-7 above the rounding floor, 1e-14 of the integral of
    # |e^{ix} y^{n+1}/(n+1) dx| as in trapezoid_sums
    t = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    y = curve.position(t)[:, 1]
    size = 2.0 * math.pi * float(np.mean(
        np.abs(y) ** (n + 1) * curve.rho(t) * np.abs(np.sin(t)))) / (n + 1)
    ref = max(r.abs_log(), expect.abs_log())
    gap = (r.as_logcomplex() - expect).abs_log()
    assert gap <= max(math.log(1e-7) + ref, math.log(1e-14 * size))

