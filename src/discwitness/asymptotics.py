"""Laplace peak terms of the chord chart, the main-term bracket, and
convergence tables of the true arc integrals against them.

At a non-degenerate interior maximum y_peak of an arc y(x) the leading
term of int e^{ix} y^{2m} dx is e^{ix_peak} (pi |y_peak| / (m |y''_peak|))^{1/2}
y_peak^{2m}.  The chart's extrema are closed forms at the normal angles
pi/2 and 3pi/2, so the two peak terms, and the bracket (their difference)
that must vanish when the moments do, need no search.  Peak terms, arc
integrals and moments all come as (mantissa, log_scale) arrays over m
(see logscale), one entry per requested m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import ChordChart, SupportCurve, chord_chart
from .logscale import normalized
from .moments import _boundary_moments, peak_packing, trapezoid_sums


def peak_log_magnitude(y, ypp, m):
    """log of |(pi |y| / (m |y''|))^{1/2} |y|^{2m}|, the magnitude of the
    Laplace peak term e^{ix} (...) at a chart extremum (x, y, y'');
    broadcasts over arrays of extrema."""
    ay = np.abs(y)
    return 0.5 * np.log(math.pi * ay / (m * np.abs(ypp))) + 2.0 * m * np.log(ay)


def bracket_main_term(chart: ChordChart, m_list) -> tuple:
    """Peak terms e^{ix} (pi |y_peak| / (m |y''_peak|))^{1/2} with log scale
    2m ln|y_peak| for the upper (f, x1) and lower (g, x2) arcs, and the
    bracket term_f - term_g, for every m in m_list: three
    (mantissa, log_scale) pairs of arrays over m."""
    ms = np.asarray(m_list, dtype=float)
    if np.any(ms < 1):
        raise ValueError("m must be >= 1")
    ln_f, ln_g = peak_log_magnitude(np.array([[chart.f_x1], [chart.g_x2]]),
                                    np.array([[chart.f_pp_x1], [chart.g_pp_x2]]), ms)
    term_f = normalized(np.exp(1j * chart.x1), ln_f)
    term_g = normalized(np.exp(1j * chart.x2), ln_g)
    ref = np.maximum(term_f[1], term_g[1])
    bracket = normalized(term_f[0] * np.exp(term_f[1] - ref)
                         - term_g[0] * np.exp(term_g[1] - ref), ref)
    return term_f, term_g, bracket


def _packing(chart: ChordChart, upper: bool) -> float:
    """peak_packing at the arc's peak."""
    if upper:
        return peak_packing(chart.f_x1, chart.f_pp_x1)
    return peak_packing(chart.g_x2, chart.g_pp_x2)


def _arc_sample(chart: ChordChart, upper: bool):
    """(c, y) at tau in [0, pi) on one arc, [0, pi] (upper) or [pi, 2pi]
    (lower) in the normal angle, with c = e^{ix} rho |sin(theta)|
    dtheta/dtau, so that the integral of c y^p is that of e^{ix} y^p dx
    over the arc (dx = -rho sin(theta) dtheta).  The wrong-sign points
    (y <= 0 upper, y >= 0 lower) are masked out.

    theta = lo + pi/2 - atan2(k sin z, cos z), z = (pi/2) cos tau, is the
    cosine map lo + (pi/2)(1 - cos tau) at k = 1; smaller k packs nodes
    about the peak normal by 1/k.  k is the arc's own _packing, so flat
    arcs cost no more nodes than round ones.
    """
    lo, sgn = (0.0, 1.0) if upper else (math.pi, -1.0)
    k = _packing(chart, upper)

    def sample(tau):
        z = 0.5 * math.pi * np.cos(tau)
        cz, sz = np.cos(z), np.sin(z)
        theta = lo + 0.5 * math.pi - np.arctan2(k * sz, cz)
        dtheta = k * 0.5 * math.pi * np.sin(tau) / (cz * cz + (k * sz) ** 2)
        x, y, rho = chart._xy(theta)
        c = np.exp(1j * x) * rho * np.sin(theta) * dtheta
        keep = sgn * y > 0.0
        return np.where(keep, sgn * c, 0.0), np.where(keep, y, 0.0)

    return sample


def arc_integrals(chart: ChordChart, m_list, upper: bool) -> tuple:
    """int e^{ix} (arc)^{2m} dx over the arc for every m in m_list, as
    (mantissa, log_scale) arrays from one trapezoid grid.

    Integrated in the normal angle, dx = -rho sin(theta) dtheta, over
    [0, pi] (upper) or [pi, 2pi] (lower), by the trapezoid rule in tau of
    a cosine map (see _arc_sample), log-scaled by the peak: the kernel sums
    exp(2m ln|arc| - 2m ln|peak|).  Points where the arc has the wrong
    sign (y <= 0 on the upper arc, y >= 0 on the lower) are masked; no
    chart inversion.

    Raises QuadratureNoConvergence when the arc's peak |y| is below about
    1e-7 (the origin that close to the lowest boundary point for the lower
    arc, the highest for the upper): y = h sin(theta) + h' cos(theta) then
    cancels from O(1) terms, and y^{2m} carries relative noise
    ~2m 1e-16/|y| above the kernel's stopping test.
    """
    ln_peak = math.log(abs(chart.f_x1 if upper else chart.g_x2))
    sums = trapezoid_sums(_arc_sample(chart, upper), math.pi,
                          [2 * m for m in m_list], ln_peak, "arc integrals")
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
    chart = chord_chart(curve, frame_angle)
    term_f, term_g, bracket = bracket_main_term(chart, m_list)
    # the bracket is a closed form: decide which rows get a combined entry
    # before integrating anything
    with np.errstate(divide="ignore"):
        abs_log = [np.log(np.abs(z)) + ls for z, ls in (term_f, term_g, bracket)]
    live = abs_log[2] > math.log(1e-12) + np.maximum(abs_log[0], abs_log[1])
    ratio_f = np.abs(_ratio(arc_integrals(chart, m_list, True), term_f) - 1.0)
    ratio_g = np.abs(_ratio(arc_integrals(chart, m_list, False), term_g) - 1.0)
    combined = [None] * len(m_list)
    if live.any():
        ms = np.asarray(m_list)[live]
        moments = _boundary_moments(curve, (2 * ms - 1).tolist(), frame_angle, "green")
        rhs = bracket[0][live], bracket[1][live] - np.log(2.0 * ms)
        for i, err in zip(np.flatnonzero(live), np.abs(_ratio(moments, rhs) - 1.0)):
            combined[i] = float(err)
    return [RatioRow(m, f, g, c) for m, f, g, c
            in zip(m_list, ratio_f.tolist(), ratio_g.tolist(), combined)]
