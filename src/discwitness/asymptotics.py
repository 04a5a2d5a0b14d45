"""Laplace peak terms of a frame's two arcs, the main-term bracket, and
convergence tables of the true arc integrals against them.

At a non-degenerate interior maximum y_peak of an arc y(x) the leading
term of int e^{ix} y^{2m} dx is e^{ix_peak} (pi |y_peak| / (m |y''_peak|))^{1/2}
y_peak^{2m}.  The arcs' extrema are closed forms at the frame's peak
normals (geometry.frame_peaks), so the two peak terms, and the bracket
(their difference) that must vanish when the moments do, need no search.
Peak terms, arc integrals and moments all come as (mantissa, log_scale)
arrays over m (see logscale), one entry per requested m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import SupportCurve, frame_peaks, frame_point, require_origin_inside
from .logscale import normalized
from .moments import moment_sweep, peak_packing, trapezoid_sums


def peak_log_magnitude(y, ypp, m):
    """log of |(pi |y| / (m |y''|))^{1/2} |y|^{2m}|, the magnitude of the
    Laplace peak term e^{ix} (...) at an arc's extremum (x, y, y'');
    broadcasts over arrays of extrema."""
    ay = np.abs(y)
    return 0.5 * np.log(math.pi * ay / (m * np.abs(ypp))) + 2.0 * m * np.log(ay)


def bracket_main_term(curve: SupportCurve, frame_angle: float, m_list) -> tuple:
    """Peak terms e^{ix} (pi |y_peak| / (m |y''_peak|))^{1/2} with log scale
    2m ln|y_peak| for the upper and lower arcs' peaks in the frame rotated
    by frame_angle (see frame_peaks), and the bracket term_f - term_g, for
    every m in m_list: three (mantissa, log_scale) pairs of arrays over m."""
    require_origin_inside(curve)
    ms = np.asarray(m_list, dtype=float)
    if np.any(ms < 1):
        raise ValueError("m must be >= 1")
    h, h1, rho = frame_peaks(curve, frame_angle)
    ln_f, ln_g = peak_log_magnitude(h[:, None], 1.0 / rho[:, None], ms)
    term_f = normalized(np.exp(1j * -h1[0]), ln_f)
    term_g = normalized(np.exp(1j * h1[1]), ln_g)
    ref = np.maximum(term_f[1], term_g[1])
    bracket = normalized(term_f[0] * np.exp(term_f[1] - ref)
                         - term_g[0] * np.exp(term_g[1] - ref), ref)
    return term_f, term_g, bracket


def arc_integrals(curve: SupportCurve, frame_angle: float, m_list,
                  upper: bool) -> tuple:
    """int e^{ix} (arc)^{2m} dx over the upper or lower arc of the frame
    rotated by frame_angle, for every m in m_list, as (mantissa, log_scale)
    arrays from one trapezoid grid.

    Integrated in the normal angle, dx = -rho sin(theta) dtheta, over
    [0, pi] (upper) or [pi, 2pi] (lower), by the trapezoid rule in tau of
    a cosine map packed about the arc's peak normal, log-scaled by the
    peak: the kernel sums exp(2m ln|arc| - 2m ln|peak|).  Points where the
    arc has the wrong sign (y <= 0 on the upper arc, y >= 0 on the lower)
    are masked; no inversion of x.  The sample c at tau in [0, pi) is
    e^{ix} rho |sin(theta)| dtheta/dtau, so that the integral of c y^p is
    that of e^{ix} y^p dx over the arc, at theta = lo + pi/2 -
    atan2(k sin z, cos z), z = (pi/2) cos tau: the cosine map
    lo + (pi/2)(1 - cos tau) at k = 1, its nodes packed about the peak
    normal by 1/k for the arc's own peak_packing k, so flat arcs cost no
    more nodes than round ones.

    Raises QuadratureNoConvergence when the arc's peak |y| is below about
    1e-7 (the origin that close to the lowest boundary point for the lower
    arc, the highest for the upper): y = h sin(theta) + h' cos(theta) then
    cancels from O(1) terms, and y^{2m} carries relative noise
    ~2m 1e-16/|y| above the kernel's stopping test.
    """
    require_origin_inside(curve)
    lo, sgn, i = (0.0, 1.0, 0) if upper else (math.pi, -1.0, 1)
    h, _, rho = frame_peaks(curve, frame_angle)
    k = peak_packing(h[i], 1.0 / rho[i])

    def sample(tau):
        z = 0.5 * math.pi * np.cos(tau)
        cz, sz = np.cos(z), np.sin(z)
        theta = lo + 0.5 * math.pi - np.arctan2(k * sz, cz)
        dtheta = k * 0.5 * math.pi * np.sin(tau) / (cz * cz + (k * sz) ** 2)
        x, y, rho = frame_point(curve, frame_angle, theta)
        c = np.exp(1j * x) * rho * np.sin(theta) * dtheta
        keep = sgn * y > 0.0
        return [np.where(keep, sgn * c, 0.0)], np.where(keep, y, 0.0)

    ln_peak = math.log(abs(h[i]))
    sums = trapezoid_sums(sample, math.pi, [[2 * m for m in m_list]], ln_peak,
                          ["arc integrals"])[0]
    return normalized(sums, 2.0 * np.asarray(m_list, dtype=float) * ln_peak)


def _ratio(a, b):
    """a / b of two (mantissa, log_scale) pairs, as plain complex values."""
    return a[0] / b[0] * np.exp(a[1] - b[1])


@dataclass(frozen=True)
class RatioRow:
    m: int
    ratio_f_abs_err: float
    ratio_g_abs_err: float
    combined_abs_err: Optional[float]  # None when the bracket is near zero


def check_m_list(m_list) -> None:
    if any(m < 10 for m in m_list):
        raise ValueError("m entries must be >= 10")
    if sorted(m_list) != m_list:
        raise ValueError("m_list must be ascending")


def asymptotic_ratio(curve: SupportCurve, frame_angle: float, m_list) -> list:
    """Per-arc and combined ratios of true integrals to their leading terms.

    The combined entry compares the moment of order n = 2m-1 (which
    carries its 1/(2m) factor) against bracket/(2m), so both sides share
    the reduction factor; rows whose closed-form bracket is near zero get
    None.  Every m comes from at most three trapezoid grids: one per arc
    in the normal angle, and green's round the curve for the moments, its
    nodes packed about both peak normals by the narrower peak's width.
    Raises QuadratureNoConvergence where arc_integrals does, with the
    origin within about 1e-7 of the lowest or highest boundary point.
    """
    m_list = list(m_list)
    check_m_list(m_list)
    term_f, term_g, bracket = bracket_main_term(curve, frame_angle, m_list)
    # the bracket is a closed form: decide which rows get a combined entry
    # before integrating anything
    with np.errstate(divide="ignore"):
        abs_log = [np.log(np.abs(z)) + ls for z, ls in (term_f, term_g, bracket)]
    live = abs_log[2] > math.log(1e-12) + np.maximum(abs_log[0], abs_log[1])
    ratio_f, ratio_g = (
        np.abs(_ratio(arc_integrals(curve, frame_angle, m_list, up), t) - 1.0)
        for up, t in ((True, term_f), (False, term_g)))
    combined = [None] * len(m_list)
    if live.any():
        ms = np.asarray(m_list)[live]
        moments = moment_sweep(curve, (2 * ms - 1).tolist(), frame_angle, ["green"])[0]
        rhs = bracket[0][live], bracket[1][live] - np.log(2.0 * ms)
        for i, err in zip(np.flatnonzero(live), np.abs(_ratio(moments, rhs) - 1.0)):
            combined[i] = float(err)
    return [RatioRow(m, f, g, c) for m, f, g, c
            in zip(m_list, ratio_f.tolist(), ratio_g.tolist(), combined)]
