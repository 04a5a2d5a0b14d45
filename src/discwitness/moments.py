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
int_a^b e^{ix} (f^{n+1} - g^{n+1})/(n+1) dx, is green's traversed in x:
the same integral, so the CLI's "chord" rows are green's.

trapezoid_sums, one kernel for both and the arc integrals of asymptotics
(periodic trapezoid rules converge geometrically; Trefethen & Weideman,
SIAM Review 2014), takes every power of W weight rows from one doubling
grid; moment_sweep, the one entry point, gives M_n for any list of orders
as one (mantissa, log_scale) pair of arrays (see logscale) per method.
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


def trapezoid_sums(sample, period: float, powers, ln_ref: float, what,
                   rel_tol: float = 1e-10) -> list:
    """Per weight row c_j, the trapezoid integrals of c_j (v/ref)^p over
    [0, period) for every p in powers[j], from one doubling grid.

    ``sample(t)`` returns (c, v) at the nodes t, c holding W rows of
    len(t).  Baby-step/giant-step (Paterson & Stockmeyer 1973): p = g b + r
    with an even block b ~ sqrt(max powers[j]), and one product per row,
    baby @ (giant c_j)^T of the rows sign(v)^r |v/ref|^r and |v/ref|^(g b),
    exactly 1 at r = 0 or g = 0 (also at v = 0): O(sqrt(P) N) exp calls.
    N doubles, keeping the old nodes; each row keeps the sums of its first
    level at which none moves by more than rel_tol of itself or 1e-14 of
    the sum of |c_j| (the rounding floor), else the error names what[j]."""
    blocks = []  # per row: baby and giant exponents and inverses, positive ones, odd r
    for ps in (np.asarray(p, dtype=np.int64) for p in powers):
        b = 2 * max(1, math.isqrt(int(ps.max(initial=0))) // 2)
        (rs, ri), (gs, gi) = (np.unique(e, return_inverse=True) for e in (ps % b, ps // b * b))
        blocks.append((rs, ri, gs, gi, rs[rs > 0], gs[gs > 0], np.flatnonzero(rs % 2)))

    def rows(n, ks, lv):  # exp(k lv) for n ascending exponents, ks the positive ones
        out = np.ones((n, len(lv)))
        out[n - len(ks):] = np.exp(np.multiply.outer(ks, lv))
        return out

    def level_sums(t, live):  # (sums, sum of |c_j|) of each row j in live, over t
        c, v = sample(t)
        with np.errstate(divide="ignore"):
            lv, sign = np.log(np.abs(v)) - ln_ref, np.sign(v)
        out = []
        for j in live:
            rs, ri, gs, gi, r_pos, g_pos, odd = blocks[j]
            s = np.zeros((len(rs), 2 * len(gs)))
            for i in range(0, len(v), _NODE_BLOCK):  # bounds the power rows
                at, cb = slice(i, i + _NODE_BLOCK), c[j][i:i + _NODE_BLOCK]
                baby, giant = rows(len(rs), r_pos, lv[at]), rows(len(gs), g_pos, lv[at])
                baby[odd] *= sign[at]  # g b is even: giants need none
                s += baby @ np.concatenate([giant * cb.real, giant * cb.imag]).T
            out.append((s[ri, gi] + 1j * s[ri, len(gs) + gi], np.sum(np.abs(c[j]))))
        return out

    n, live = 64, list(range(len(blocks)))  # live: the rows not yet settled
    acc = level_sums(period * np.arange(n) / n, live)
    prev = [total * (period / n) for total, _ in acc]  # each row's latest sums
    while live and n < _MAX_TRAPEZOID_NODES:
        new, n = level_sums(period * (np.arange(n) + 0.5) / n, live), 2 * n
        moving = []
        for j, (ds, dmass) in zip(live, new):
            total, mass = acc[j] = acc[j][0] + ds, acc[j][1] + dmass
            cur = total * (period / n)
            tol = np.maximum(rel_tol * np.abs(cur), 1e-14 * mass * period / n)
            if not np.all(np.abs(cur - prev[j]) <= tol):
                moving.append(j)
            prev[j] = cur
        live = moving
    if live:
        raise QuadratureNoConvergence(
            f"{what[live[0]]} not stable at {n} trapezoid nodes")
    return prev


def peak_packing(y: float, ypp: float) -> float:
    """min(1, sqrt(|y y''|)) = min(1, sqrt(|y| / rho)) at a peak of the
    height y over the normal angle: the factor by which node maps in the
    normal angle pack nodes about the peak normal (1 on a unit circle)."""
    return min(1.0, math.sqrt(abs(y * ypp)))


def moment_sweep(curve: SupportCurve, n_list, frame_angle: float = 0.0,
                 methods=("green",)) -> list:
    """For each method, (mantissa, log_scale) arrays of M_n = mantissa
    e^log_scale for every n in n_list, in n_list order; |mantissa| is 1 up
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
    ones.  Every method is one weight row of one kernel call on them."""
    if any(m not in METHODS for m in methods):
        raise ValueError(f"method must be one of {', '.join(METHODS)}")
    n_list = list(n_list)
    check_orders(n_list)
    hs, _, rhos = (v.tolist() for v in frame_peaks(curve, frame_angle))
    # a normal below half the top height adds at most 2^-n of ref^n: pack
    # it as that high, or an origin near the curve there starves the other
    h_max = max(hs)
    k = min(peak_packing(max(h, 0.5 * h_max), 1.0 / rho) for h, rho in zip(hs, rhos))
    lifts = [int(m == "green") for m in methods]

    def sample(s):
        cs, ss = np.cos(s), np.sin(s)
        t = 0.5 * math.pi + np.arctan2(k * ss, cs)
        dt = k / (cs * cs + (k * ss) ** 2)
        x, y, rho = frame_point(curve, frame_angle, t)
        w = np.exp(1j * x) * rho
        return [w * np.sin(t) * dt if lift else -1j * w * np.cos(t) * dt
                for lift in lifts], y

    ln_ref = math.log(h_max)
    sums = trapezoid_sums(sample, 2.0 * math.pi,
                          [[n + lift for n in n_list] for lift in lifts], ln_ref,
                          [f"{m} moments" for m in methods])
    ns = np.asarray(n_list, dtype=float)
    return [normalized(s, (ns + lift) * ln_ref - lift * np.log(ns + 1))
            for s, lift in zip(sums, lifts)]
