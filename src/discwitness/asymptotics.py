"""Laplace leading-term machinery and the chord main-term bracket.

For a phase with a unique non-degenerate interior maximum xi the leading
term of int phi e^{lam S} is (2 pi / (lam |S''(xi)|))^{1/2} phi(xi)
e^{lam S(xi)}.  Applied to S = ln|f| on a chord chart with lam = 2m = n+1
this yields the two peak contributions whose difference (the bracket) must
vanish when the moments do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketNearZero, DegenerateMax, MaxOnBoundary
from .geometry import ChordChart, SupportCurve, chord_chart
from .logscale import LogComplex
from .moments import moment_chord
from .quadrature import adaptive_quad, golden_section_max

BOUNDARY_MARGIN = 1e-9
DEGENERATE_TOL = 1e-9


@dataclass(frozen=True)
class LaplaceProblem:
    """int_a^b phi(x) e^{lam S(x)} dx with an interior phase peak."""

    phi: Callable
    S: Callable
    dS: Callable
    d2S: Callable
    lam: float
    a: float
    b: float


def find_interior_max(S, dS, d2S, a: float, b: float):
    """Locate the unique interior maximum of S on [a, b].

    Golden-section bracketing, then Newton on dS.  Returns
    (xi, S(xi), S''(xi)).
    """
    xi = golden_section_max(S, a, b, tol=1e-12 * (b - a))
    for _ in range(60):
        d2 = float(d2S(xi))
        if d2 == 0.0:
            break
        step = float(dS(xi)) / d2
        xi_new = min(max(xi - step, a), b)
        if abs(xi_new - xi) < 1e-15 * max(1.0, abs(xi)):
            xi = xi_new
            break
        xi = xi_new
    if min(xi - a, b - xi) <= BOUNDARY_MARGIN * (b - a):
        raise MaxOnBoundary(f"phase maximum at xi={xi:.12g} sits on the boundary")
    d2 = float(d2S(xi))
    if abs(d2) <= DEGENERATE_TOL:
        raise DegenerateMax(f"|S''(xi)| = {abs(d2):.3g} at xi={xi:.12g}")
    if d2 > 0.0:
        raise DegenerateMax(f"S''(xi) = {d2:.3g} > 0 at xi={xi:.12g}: not a maximum")
    scale = max(1.0, abs(d2) * (b - a))
    if abs(float(dS(xi))) > 1e-12 * scale:
        raise DegenerateMax("Newton polish on S' did not converge")
    return xi, float(S(xi)), d2


def laplace_leading(problem: LaplaceProblem) -> LogComplex:
    """Closed-form leading term; no integration performed."""
    xi, s_xi, d2 = find_interior_max(problem.S, problem.dS, problem.d2S,
                                     problem.a, problem.b)
    amp = math.sqrt(2.0 * math.pi / (problem.lam * abs(d2))) * complex(problem.phi(xi))
    return LogComplex(amp, problem.lam * s_xi).normalized()


@dataclass(frozen=True)
class BracketTerm:
    m: int
    term_f: LogComplex
    term_g: LogComplex
    bracket: LogComplex


def peak_log_magnitude(y, ypp, m):
    """log of |(pi |y| / (m |y''|))^{1/2} |y|^{2m}|, the magnitude of the
    Laplace peak term e^{ix} (...) at a chart extremum (x, y, y'');
    broadcasts over arrays of extrema."""
    ay = np.abs(y)
    return 0.5 * np.log(math.pi * ay / (m * np.abs(ypp))) + 2.0 * m * np.log(ay)


def bracket_main_term(chart: ChordChart, m: int) -> BracketTerm:
    """Peak terms e^{ix} (pi |y_peak| / (m |y''_peak|))^{1/2} with log scale
    2m ln|y_peak|, for the upper (f, x1) and lower (g, x2) arcs."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ln_f, ln_g = peak_log_magnitude(np.array([chart.f_x1, chart.g_x2]),
                                    np.array([chart.f_pp_x1, chart.g_pp_x2]), m)
    term_f = LogComplex(complex(np.exp(1j * chart.x1)), float(ln_f)).normalized()
    term_g = LogComplex(complex(np.exp(1j * chart.x2)), float(ln_g)).normalized()
    return BracketTerm(m, term_f, term_g, term_f - term_g)


def arc_integral(chart: ChordChart, m: int, upper: bool, *,
                 rel_tol: float = 1e-10) -> LogComplex:
    """int e^{ix} (arc)^{2m} dx over the arc, log-scaled by the peak:
    exp(2m ln|arc| - 2m ln|peak|).

    Integrated in the normal angle, dx = -rho sin(theta) dtheta, over
    [0, pi] (upper) or [pi, 2pi] (lower); points where the arc has the
    wrong sign (y <= 0 on the upper arc, y >= 0 on the lower) are masked.
    """
    if upper:
        lo, hi, peak, sgn = 0.0, math.pi, chart.f_x1, 1.0
    else:
        lo, hi, peak, sgn = math.pi, 2.0 * math.pi, chart.g_x2, -1.0
    ln_peak = math.log(abs(peak))

    def integrand(t):
        x, v = chart._x(t), sgn * chart._y(t)
        with np.errstate(divide="ignore"):
            expo = 2.0 * m * (np.log(np.where(v > 0, v, 1.0)) - ln_peak)
        weight = np.where(v > 0, np.exp(expo), 0.0) * chart._rho(t) * np.abs(np.sin(t))
        return np.exp(1j * x) * weight

    raw, _ = adaptive_quad(integrand, lo, hi, rel_tol=rel_tol,
                           abs_tol=1e-14, seeds=(0.5 * (lo + hi),))
    return LogComplex(complex(raw), 2.0 * m * ln_peak).normalized()


@dataclass(frozen=True)
class RatioRow:
    m: int
    ratio_f_abs_err: float
    ratio_g_abs_err: float
    combined_abs_err: Optional[float]  # None when the bracket is near zero


def asymptotic_ratio(curve: SupportCurve, frame_angle: float, m_list,
                     *, raise_on_zero_bracket: bool = False) -> list:
    """Per-arc and combined ratios of true integrals to their leading terms.

    The combined entry compares the chord moment of order n = 2m-1 (which
    carries its 1/(2m) factor) against bracket/(2m), so both sides share
    the reduction factor.
    """
    m_list = list(m_list)
    if any(m < 10 for m in m_list):
        raise ValueError("m entries must be >= 10")
    if sorted(m_list) != m_list:
        raise ValueError("m_list must be ascending")
    chart = chord_chart(curve, frame_angle)
    rows = []
    for m in m_list:
        bt = bracket_main_term(chart, m)
        ratio_f = arc_integral(chart, m, upper=True).ratio(bt.term_f)
        ratio_g = arc_integral(chart, m, upper=False).ratio(bt.term_g)
        scale = max(bt.term_f.abs_log(), bt.term_g.abs_log())
        combined = None
        if bt.bracket.abs_log() <= math.log(1e-12) + scale:
            if raise_on_zero_bracket:
                raise BracketNearZero(f"bracket vanishes to tolerance at m={m}")
        else:
            moment = moment_chord(chart, 2 * m - 1)
            rhs = bt.bracket.shifted(-math.log(2.0 * m))
            combined = abs(moment.as_logcomplex().ratio(rhs) - 1.0)
        rows.append(RatioRow(m, abs(ratio_f - 1.0), abs(ratio_g - 1.0), combined))
    return rows
