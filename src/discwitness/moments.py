"""Complex moments M_n = integral over D of e^{ix} y^n dx dy.

  * green  — Green's theorem in its dx-form, -oint e^{ix} y^{n+1}/(n+1) dx,
             by the trapezoid rule round the support curve in the normal
             angle, its nodes packed about the peak normals by the
             narrower peak's width.
  * area   — Green's theorem in its dy-form, -i oint e^{ix} y^n dy, on
             green's nodes and boundary values with the weight
             -i rho cos(t) dt in place of rho sin(t) dt.  The two forms
             differ by an integration by parts, not a change of variable;
             the mpmath closed form for ellipses and an mpmath quadrature
             of green's boundary integral for Fourier shapes (tests) are
             the independent references.

The chord integral over the arcs y = f(x), g(x),
int_a^b e^{ix} (f^{n+1} - g^{n+1})/(n+1) dx, is green's traversed in x
instead of the normal angle: the same integral, so it has no integrator
of its own.  The CLI keeps "chord" as a name for green's rows.

trapezoid_sums, one kernel for both and the arc integrals of asymptotics
(periodic trapezoid rules converge geometrically; Trefethen & Weideman,
SIAM Review 2014), takes every power from one doubling grid and one
baby-step/giant-step product per level, O(sqrt(P) N) exp calls.

moment_sweep is the one entry point: M_n for any list of orders as
(mantissa, log_scale) arrays (see logscale); a single order is
moment_sweep(curve, [n], frame_angle, method).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNoConvergence
from .geometry import SupportCurve, frame_peaks, frame_point
from .logscale import normalized

METHODS = ("green", "area")
_MAX_TRAPEZOID_NODES = 1 << 16
_NODE_BLOCK = 512


def check_orders(n_list) -> None:
    if any(n < 0 for n in n_list):
        raise ValueError("moment order must be >= 0")


def trapezoid_sums(sample, period: float, powers, ln_ref: float, what: str,
                   rel_tol: float = 1e-10) -> np.ndarray:
    """Trapezoid integrals of c (v/ref)^p over [0, period) for every p in
    powers, from one doubling grid.

    ``sample(t)`` returns (c, v) at the nodes t; each level samples every
    new node once.  Baby-step/giant-step (Paterson & Stockmeyer 1973):
    p = g b + r with an even block b ~ sqrt(max p), and one product
    baby @ (giant c)^T of the rows sign(v)^r |v/ref|^r and |v/ref|^(g b),
    exactly 1 at r = 0 or g = 0 (also at v = 0), gives every power from
    O(sqrt(P) N) exp calls.  N doubles, keeping the old nodes, until no
    sum moves by more than rel_tol of itself or the rounding floor, 1e-14
    of the sum of |c| (which bounds the scaled integrand)."""
    ps = np.asarray(powers, dtype=np.int64)
    b = 2 * max(1, math.isqrt(int(ps.max(initial=0))) // 2)
    rs, ri = np.unique(ps % b, return_inverse=True)
    gs, gi = np.unique(ps // b * b, return_inverse=True)

    def rows(ks, lv):  # exp(k lv) for each k, exactly 1 at k = 0
        out = np.ones((len(ks), len(lv)))
        out[ks > 0] = np.exp(np.multiply.outer(ks[ks > 0], lv))
        return out

    def level_sum(t):
        c, v = sample(t)
        s = np.zeros((len(rs), 2 * len(gs)))
        for i in range(0, len(v), _NODE_BLOCK):  # bounds the power rows
            vb, cb = v[i:i + _NODE_BLOCK], c[i:i + _NODE_BLOCK]
            with np.errstate(divide="ignore"):
                lv = np.log(np.abs(vb)) - ln_ref
            baby, giant = rows(rs, lv), rows(gs, lv)
            baby[rs % 2 == 1] *= np.sign(vb)  # g b is even: giants need none
            s += baby @ np.concatenate([giant * cb.real, giant * cb.imag]).T
        return s[ri, gi] + 1j * s[ri, len(gs) + gi], np.sum(np.abs(c))

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


def peak_packing(y: float, ypp: float) -> float:
    """min(1, sqrt(|y y''|)) = min(1, sqrt(|y| / rho)) at a peak of the
    height y over the normal angle: the factor by which node maps in the
    normal angle pack nodes about the peak normal (1 on a unit circle)."""
    return min(1.0, math.sqrt(abs(y * ypp)))


def moment_sweep(curve: SupportCurve, n_list, frame_angle: float = 0.0,
                 method: str = "green") -> tuple:
    """(mantissa, log_scale) arrays of M_n = mantissa e^log_scale for every
    n in n_list, in n_list order, from one kernel call; |mantissa| is 1 up
    to rounding, or (0j, 0.0) exactly where the sum vanishes.

    Green's theorem round the support curve (ccw), in its dx-form for
    green, -oint e^{ix} y^{n+1}/(n+1) dx with dx = -rho sin(t) dt, and its
    dy-form for area, -i oint e^{ix} y^n dy with dy = rho cos(t) dt: the
    kernel sums c y^{n+lift} in units of ref^{n+lift}/(n+1)^lift, lift = 1
    for green's y-antiderivative and 0 for area's y^n.

    Nodes t = pi/2 + atan2(k sin s, cos s) over a uniform s grid, packed
    about the frame_peaks (t = pi/2, 3pi/2 in the frame) by 1/k, k the
    peak_packing of the narrower peak: as periodic and analytic as the
    uniform grid (k = 1), and flat shapes cost no more nodes than round
    ones."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {', '.join(METHODS)}")
    n_list = list(n_list)
    check_orders(n_list)
    hs, _, rhos = (v.tolist() for v in frame_peaks(curve, frame_angle))
    # a normal below half the top height adds at most 2^-n of ref^n: pack
    # it as that high, or an origin near the curve there starves the other
    h_max = max(hs)
    k = min(peak_packing(max(h, 0.5 * h_max), 1.0 / rho) for h, rho in zip(hs, rhos))
    lift = int(method == "green")

    def sample(s):
        cs, ss = np.cos(s), np.sin(s)
        t = 0.5 * math.pi + np.arctan2(k * ss, cs)
        dt = k / (cs * cs + (k * ss) ** 2)
        x, y, rho = frame_point(curve, frame_angle, t)
        w = np.exp(1j * x) * rho
        return (w * np.sin(t) * dt if lift else -1j * w * np.cos(t) * dt), y

    ln_ref = math.log(h_max)
    sums = trapezoid_sums(sample, 2.0 * math.pi, [n + lift for n in n_list],
                          ln_ref, f"{method} moments")
    ns = np.asarray(n_list, dtype=float)
    return normalized(sums, (ns + lift) * ln_ref - lift * np.log(ns + 1))
