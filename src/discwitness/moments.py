"""Complex moments M_n = integral over D of e^{ix} y^n dx dy.

  * chord  — e^{ix} (f^{n+1} - g^{n+1})/(n+1) over the chord chart, by the
             trapezoid rule in tau on [0, pi] with x = mid - half cos(tau)
             and f, g read from the chart.  f^{n+1} - g^{n+1} carries the
             factor sqrt((x-a)(b-x)) = half sin(tau), so the tau-integrand
             is even, periodic and analytic despite the square-root ends.
  * green  — boundary integral -oint e^{ix} y^{n+1}/(n+1) dx by the
             trapezoid rule at theta_j = 2 pi j/N round the support curve.
  * area   — tensor Gauss quadrature over a<=x<=b, g<=y<=f (in x, Gauss in
             chord's tau), up to n = MAX_AREA_ORDER.  It shares chord's node
             map and chart, so the mpmath closed form for ellipses (tests)
             is the independent reference.

trapezoid_sums, one kernel for chord, green and the arc integrals of
asymptotics (periodic trapezoid rules converge geometrically; Trefethen &
Weideman, SIAM Review 2014), takes every requested power from one doubling
grid.  chord and green differ in variable, grid and chart inversion, so
their agreement is a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderTooLarge, QuadratureNoConvergence
from .geometry import ChordChart, SupportCurve, chord_chart
from .logscale import LogComplex

MAX_AREA_ORDER = 80
_MAX_TRAPEZOID_NODES = 1 << 16
_NODE_BLOCK = 512


@dataclass(frozen=True)
class MomentResult:
    mantissa: complex
    log_scale: float
    n: int
    frame_angle: float
    method: str

    def as_logcomplex(self) -> LogComplex:
        return LogComplex(self.mantissa, self.log_scale)

    def value(self) -> complex:
        return self.as_logcomplex().value()

    def abs_log(self) -> float:
        return self.as_logcomplex().abs_log()


def _result(raw: complex, log_scale: float, n: int, frame_angle: float,
            method: str) -> MomentResult:
    lc = LogComplex(complex(raw), log_scale).normalized()
    return MomentResult(lc.mantissa, lc.log_scale, n, frame_angle, method)


def trapezoid_sums(sample, period: float, powers, ln_ref: float, what: str,
                   rel_tol: float = 1e-10) -> np.ndarray:
    """Trapezoid integrals of c (v/ref)^p over [0, period) for every p in
    powers, from one doubling grid.

    ``sample(t)`` returns (c, v) at the nodes t; each level samples every
    new node once and takes one matrix product for all powers, with
    sign(v)^p kept for odd p.  N doubles, keeping the old nodes, until no
    sum moves by more than rel_tol of itself or the rounding floor, 1e-14
    of the sum of |c| (which bounds the scaled integrand)."""
    ps = np.asarray(powers, dtype=float)
    odd = (ps % 2 == 1)[:, None]

    def level_sum(t):
        c, v = sample(t)
        cs = np.stack([c.real, c.imag], axis=1)
        s = np.zeros((len(ps), 2))
        for i in range(0, len(v), _NODE_BLOCK):  # bounds the power matrix
            vb = v[i:i + _NODE_BLOCK]
            with np.errstate(divide="ignore"):
                pw = np.exp(np.multiply.outer(ps, np.log(np.abs(vb)) - ln_ref))
            s += np.where(odd, np.sign(vb) * pw, pw) @ cs[i:i + _NODE_BLOCK]
        return s[:, 0] + 1j * s[:, 1], np.sum(np.abs(c))

    n = 64
    total, mass = level_sum(period * np.arange(n) / n)
    prev = total * (period / n)
    while n < _MAX_TRAPEZOID_NODES:
        ds, dmass = level_sum(period * (np.arange(n) + 0.5) / n)
        total, mass, n = total + ds, mass + dmass, 2 * n
        cur = total * (period / n)
        tol = np.maximum(rel_tol * np.abs(cur), 1e-14 * mass * period / n)
        if np.all(np.abs(cur - prev) <= tol):
            return cur
        prev = cur
    raise QuadratureNoConvergence(f"{what} not stable at {n} trapezoid nodes")


def _trapezoid_moments(sample, period: float, n_list, ln_ref: float,
                       frame_angle: float, method: str, rel_tol: float) -> list:
    """M_n for every n in n_list: the trapezoid sum of c v^{n+1} in units
    of ref^{n+1}/(n+1)."""
    if any(n < 0 for n in n_list):
        raise ValueError("moment order must be >= 0")
    sums = trapezoid_sums(sample, period, [n + 1 for n in n_list], ln_ref,
                          f"{method} moments", rel_tol)
    return [_result(z, (n + 1) * ln_ref - math.log(n + 1), n, frame_angle, method)
            for z, n in zip(sums, n_list)]


def _chord_moments(chart: ChordChart, n_list, rel_tol: float = 1e-10) -> list:
    mid, half = 0.5 * (chart.a + chart.b), 0.5 * (chart.b - chart.a)

    def sample(tau):
        x = mid - half * np.cos(tau)
        c = np.exp(1j * x) * (half * np.sin(tau))
        return np.concatenate([c, -c]), np.concatenate([chart.f(x), chart.g(x)])

    ln_ref = math.log(max(abs(chart.f_x1), abs(chart.g_x2)))
    return _trapezoid_moments(sample, math.pi, n_list, ln_ref, chart.frame_angle,
                              "chord", rel_tol)


def _green_moments(curve: SupportCurve, n_list, frame_angle: float = 0.0,
                   rel_tol: float = 1e-10, k: float = 1.0) -> list:
    """k < 1 packs the nodes about the peak normals t = pi/2, 3pi/2 by 1/k:
    t = pi/2 + atan2(k sin s, cos s) over a uniform s grid, as periodic and
    analytic as the uniform one.  With k ~ sqrt(y_peak / rho_peak) flat
    shapes cost no more than round ones (asymptotics reads orders in the
    thousands); the uniform grid is k = 1."""

    def sample(s):
        t, dt = s, 1.0
        if k < 1.0:
            cs, ss = np.cos(s), np.sin(s)
            t = 0.5 * math.pi + np.arctan2(k * ss, cs)
            dt = k / (cs * cs + (k * ss) ** 2)
        th = t + frame_angle
        hv, h1v = curve.h(th), curve.h1(th)
        x = hv * np.cos(t) - h1v * np.sin(t)
        y = hv * np.sin(t) + h1v * np.cos(t)
        # dx = -rho sin(t) dt; M_n = -oint e^{ix} y^{n+1}/(n+1) dx (ccw)
        return np.exp(1j * x) * curve.rho(th) * np.sin(t) * dt, y

    ln_ref = math.log(max(float(curve.h(math.pi / 2.0 + frame_angle)),
                          float(curve.h(3.0 * math.pi / 2.0 + frame_angle))))
    return _trapezoid_moments(sample, 2.0 * math.pi, n_list, ln_ref, frame_angle,
                              "green", rel_tol)


def moment_chord(chart: ChordChart, n: int, *, rel_tol: float = 1e-10) -> MomentResult:
    """Chord-chart integral of e^{ix} (f^{n+1} - g^{n+1}) / (n+1)."""
    return _chord_moments(chart, [n], rel_tol)[0]


def moment_green(curve: SupportCurve, n: int, frame_angle: float = 0.0, *,
                 rel_tol: float = 1e-10) -> MomentResult:
    """Boundary-integral evaluation over the support parameterization."""
    return _green_moments(curve, [n], frame_angle, rel_tol)[0]


@functools.lru_cache(maxsize=8)
def _area_level(chart: ChordChart, nx: int):
    """x-nodes, weights and scaled chart samples of one area level, cached
    so a sweep's orders share them; callers must not mutate the arrays.

    The nodes are Gauss in tau of chord's cosine map x = mid - half cos(tau),
    with weights (pi/2) w sin(tau): f - g carries a square-root factor at
    the chart ends, which Gauss in x resolves only algebraically."""
    from scipy.special import roots_legendre  # the area oracle alone needs scipy
    t, w = roots_legendre(nx)
    tau = 0.5 * math.pi * (1.0 + t)
    ref = max(abs(chart.f_x1), abs(chart.g_x2))
    half = 0.5 * (chart.b - chart.a)
    x = 0.5 * (chart.a + chart.b) - half * np.cos(tau)
    fv = np.asarray(chart.f(x)) / ref
    gv = np.asarray(chart.g(x)) / ref
    wx = 0.5 * math.pi * w * np.sin(tau)
    return half, 0.5 * (fv + gv)[:, None], 0.5 * (fv - gv)[:, None], wx * np.exp(1j * x)


def moment_area(curve: SupportCurve, n: int, frame_angle: float = 0.0, *,
                rel_tol: float = 1e-8, max_nodes: int = 4096) -> MomentResult:
    """2-D tensor quadrature over the chart strip: Gauss in y, and Gauss in
    tau of chord's cosine map in x (see _area_level)."""
    from scipy.special import roots_legendre
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if n > MAX_AREA_ORDER:
        raise OrderTooLarge(f"n={n} exceeds the 2D quadrature budget ({MAX_AREA_ORDER})")
    chart = curve if isinstance(curve, ChordChart) else chord_chart(curve, frame_angle)
    ref = max(abs(chart.f_x1), abs(chart.g_x2))
    log_scale = (n + 1) * math.log(ref)
    ny = n // 2 + 8
    ty, wy = roots_legendre(ny)

    def outer(nx):
        half, ymid, yhalf, wxe = _area_level(chart, nx)
        # inner integral of (y/ref)^n over [g, f], Gauss exact in y
        ynodes = ymid + yhalf * ty[None, :]
        inner = (ynodes ** n) @ wy * yhalf[:, 0]
        return half * np.sum(wxe * inner)

    nx = 64
    prev = outer(nx)
    while True:
        nx *= 2
        cur = outer(nx)
        if abs(cur - prev) <= max(rel_tol * abs(cur), 1e-14):
            return _result(cur, log_scale, n, chart.frame_angle, "area")
        if nx >= max_nodes:
            raise QuadratureNoConvergence(
                f"area moment not stable at {nx} x-nodes (n={n})"
            )
        prev = cur


def moment_sweep(curve: SupportCurve, n_list, frame_angle: float = 0.0,
                 method: str = "chord") -> list:
    """Batch moments, order preserved: chord and green in one kernel call,
    area order by order, re-raising a failure annotated with its index."""
    methods = {"chord", "green", "area"}
    if method not in methods:
        raise ValueError(f"method must be one of {sorted(methods)}")
    n_list = list(n_list)
    if method == "green":
        return _green_moments(curve, n_list, frame_angle)
    chart = chord_chart(curve, frame_angle)
    if method == "chord":
        return _chord_moments(chart, n_list)
    out = []
    for idx, n in enumerate(n_list):
        try:
            out.append(moment_area(chart, n))
        except Exception as exc:
            exc.args = (f"n_list[{idx}] (n={n}): {exc}",)
            raise
    return out
