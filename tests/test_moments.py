import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discwitness import build_curve, moments
from discwitness.geometry import FourierCurve
from discwitness.moments import moment_sweep, trapezoid_sums

from conftest import (
    abs_log,
    exact_ellipse_moments,
    mp_fourier_moment,
    one_order,
    position,
    relative_gap,
    small_fourier_curves,
    value,
    worst_exact_gap,
)

# frozen: independent 200x200 Gauss polar quadrature of the unit-disc
# integral (equals 2 pi J1(1))
DISC_M0 = 2.764919374768337


def _gap(r1, r2, abs_floor=1e-8):
    return relative_gap(r1, r2, abs_floor_log=math.log(abs_floor))


def _worst_sweep_gap(s1, s2, abs_floor=1e-8):
    """_gap's worst over two sweeps' (mantissa, log_scale) arrays."""
    return max(_gap(a, b, abs_floor) for a, b in zip(zip(*s1), zip(*s2)))


class TestChord:
    """The CLI's chord rows, which are the default method green's: "chord"
    is green's integral traversed in x."""

    def test_disc_m0(self, unit_disc):
        assert abs(value(one_order(unit_disc, 0)) - DISC_M0) < 1e-8

    def test_disc_odd_vanishes(self, unit_disc):
        for n in (1, 3, 5):
            assert abs_log(one_order(unit_disc, n)) <= math.log(1e-10)

    def test_matches_area_on_ellipse(self, ellipse):
        assert _gap(one_order(ellipse, 2), one_order(ellipse, 2, method="area")) < 1e-6

    def test_large_order_finite(self, ellipse):
        mantissa, log_scale = one_order(ellipse, 499)
        assert np.isfinite(log_scale)
        assert np.isfinite(abs(mantissa))
        assert 1 / math.e <= abs(mantissa) <= math.e


class TestGreen:
    def test_disc_values(self, unit_disc):
        assert abs_log(one_order(unit_disc, 1, method="green")) <= math.log(1e-10)
        assert abs(value(one_order(unit_disc, 0, method="green")) - DISC_M0) < 1e-8

    def test_translation_phase(self, unit_disc):
        base = value(one_order(unit_disc, 0, method="green"))
        moved = build_curve({"type": "circle", "center": [0.5, 0], "radius": 1})
        shifted = value(one_order(moved, 0, method="green"))
        assert shifted == pytest.approx(base * np.exp(0.5j), rel=1e-8)
        assert abs(shifted) == pytest.approx(abs(base), rel=1e-8)


class TestArea:
    def test_disc_m0(self, unit_disc):
        assert abs(value(one_order(unit_disc, 0, method="area")) - DISC_M0) < 1e-6

    def test_disc_odd(self, unit_disc):
        assert abs_log(one_order(unit_disc, 3, method="area")) <= math.log(1e-10)

    def test_matches_green_on_ellipse(self, ellipse):
        assert _gap(one_order(ellipse, 4, method="area"),
                    one_order(ellipse, 4, method="green")) < 1e-6

    def test_sweep_needs_no_chart_inversion(self, asymmetric):
        greens = moment_sweep(asymmetric, range(41), 0.3, "green")
        areas = moment_sweep(asymmetric, range(41), 0.3, "area")
        assert _worst_sweep_gap(areas, greens) < 1e-6


class TestSweep:
    def test_two_integrators(self, unit_disc):
        # chord was green's integral in x: the CLI name maps to green
        assert moments.METHODS == ("green", "area")
        with pytest.raises(ValueError, match="green, area"):
            moment_sweep(unit_disc, [0], 0.0, "chord")

    def test_disc_odd_all_zero(self, unit_disc):
        assert np.all(abs_log(moment_sweep(unit_disc, [1, 3, 5])) <= math.log(1e-10))

    def test_empty(self, unit_disc):
        mantissa, log_scale = moment_sweep(unit_disc, [])
        assert mantissa.shape == log_scale.shape == (0,)

    @pytest.mark.parametrize("method", ["green", "area"])
    @pytest.mark.parametrize("cy", [-1.0, -(1.0 - 1e-8)])
    def test_origin_at_the_top_of_the_curve(self, method, cy):
        # the top normal's height is ~0: packing the nodes about it as about
        # the peak would collapse them (cy = -1) or starve the bottom peak
        curve = build_curve({"type": "circle", "center": [0, cy], "radius": 1})
        results = list(zip(*moment_sweep(curve, range(401), 0.0, method)))
        assert value(results[0]) == pytest.approx(DISC_M0, rel=1e-10)
        assert value(results[1]) == pytest.approx(cy * DISC_M0, rel=1e-10)

    @pytest.mark.parametrize("frame", [0.0, 0.7])
    def test_orders_map_back_in_request_order(self, asymmetric, frame):
        # unsorted, with a duplicate: each result is the one-order sweep's
        ns = [399, 0, 57, 57, 200]
        for method in ("green", "area"):
            mantissa, log_scale = moment_sweep(asymmetric, ns, frame, method)
            assert mantissa.shape == log_scale.shape == (len(ns),)
            assert mantissa.dtype == complex and log_scale.dtype == float
            for got, n in zip(zip(mantissa, log_scale), ns):
                gap = relative_gap(got, one_order(asymmetric, n, frame, method))
                assert gap <= 1e-12, (method, n)

    def test_zero_sum_is_exact_zero(self, asymmetric, monkeypatch):
        # the kernel run on zeroed weights: every order's sum vanishes
        def zero_weights(sample, *args):
            return trapezoid_sums(
                lambda t: (np.zeros(t.shape, dtype=complex), sample(t)[1]), *args)

        monkeypatch.setattr(moments, "trapezoid_sums", zero_weights)
        for method in ("green", "area"):
            mantissa, log_scale = moment_sweep(asymmetric, [0, 3], 0.0, method)
            assert list(zip(mantissa.tolist(), log_scale.tolist())) == [(0j, 0.0)] * 2
            assert mantissa.dtype == complex and log_scale.dtype == float


SWEEP_FOURIER = {"type": "support_fourier", "a0": 1,
                 "cos": [0, 0.05], "sin": [0, 0, 0.03]}


@pytest.mark.parametrize("n", [0, 57, 200, 399, 400])
def test_green_meets_mpmath_on_a_fourier_shape(n):
    # an oracle independent of green: mpmath's quadrature of the boundary
    # integral shares no node, node map or power sum with trapezoid_sums
    frame = math.radians(45.0)
    got = one_order(build_curve(SWEEP_FOURIER), n, frame)
    with mpmath.workdps(30):
        exact = mp_fourier_moment(SWEEP_FOURIER, n, frame)
        got = mpmath.mpc(complex(got[0])) * mpmath.exp(got[1])
        assert float(abs(got - exact) / abs(exact)) <= 1e-12


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
    for method in ("green", "area"):
        results = moment_sweep(curve, range(401), rot, method)
        assert worst_exact_gap(results, exact, b) <= 1e-10, method


def test_wide_ellipse_odd_orders_stop_at_rounding_floor():
    # odd orders vanish; on a 100:1 ellipse their trapezoid sums stay at
    # rounding level (~5e-14 in scaled units), so the floor must scale
    # with the integrand's size for the node doubling to stop
    a, b = 20.0, 0.2
    curve = build_curve({"type": "ellipse", "a": a, "b": b})
    exact = exact_ellipse_moments(a, b, 0.0, 400)
    sweeps = {method: moment_sweep(curve, range(401), 0.0, method)
              for method in ("green", "area")}
    for method, results in sweeps.items():
        assert worst_exact_gap(results, exact, b) <= 1e-10, method
    # and area within 1e-10 of green, relative with the same floor
    with mpmath.workdps(30):
        green = [mpmath.mpc(complex(z)) * mpmath.exp(float(ls))
                 for z, ls in zip(*sweeps["green"])]
    assert worst_exact_gap(sweeps["area"], green, b) <= 1e-10


def test_flat_ellipse_in_few_nodes(monkeypatch):
    # to n = 400 on the 5 x 0.2 (20 x 0.2) ellipse a uniform grid in the
    # normal angle takes 8192 (32768) nodes for green; packed about the peak
    # normals green takes 512 (1024) and area 512 (512)
    monkeypatch.setattr(moments, "_MAX_TRAPEZOID_NODES", 1024)
    for a in (5.0, 20.0):
        curve = build_curve({"type": "ellipse", "a": a, "b": 0.2})
        exact = exact_ellipse_moments(a, 0.2, 0.0, 400)
        for method in ("green", "area"):
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
# square-root chart ends: plain Gauss in x converges only as N^-3 here
@example(curve=FourierCurve(1.0, (0.0, -0.05405405405405406, 0.05405405405405406),
                            (0.0, 0.0, 0.010810810810810811)), n=1)
def test_three_methods_agree(curve, n):
    # green and area, the dx- and dy-forms; the CLI's chord rows are green's
    assert _gap(one_order(curve, n), one_order(curve, n, method="area")) < 1e-6


@settings(max_examples=10, deadline=None)
@given(n=st.integers(0, 10))
def test_symmetric_odd_orders_vanish(n):
    curve = build_curve({"type": "support_fourier", "a0": 1, "cos": [0, 0.1]})
    assert abs_log(one_order(curve, 2 * n + 1)) <= math.log(1e-10)


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
    r = one_order(curve, n, method="green")
    rm = one_order(mirrored, n, method="green")
    expect = (rm[0] * (-1.0) ** n, rm[1])
    # relative 1e-7 above the rounding floor, 1e-14 of the integral of
    # |e^{ix} y^{n+1}/(n+1) dx| as in trapezoid_sums
    t = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    y = position(curve, t)[:, 1]
    size = 2.0 * math.pi * float(np.mean(
        np.abs(y) ** (n + 1) * curve.rho(t) * np.abs(np.sin(t)))) / (n + 1)
    ref = max(abs_log(r), abs_log(expect))
    gap = relative_gap(r, expect)  # |r - expect| / exp(ref)
    assert gap == 0.0 or math.log(gap) + ref <= max(math.log(1e-7) + ref,
                                                    math.log(1e-14 * size))

