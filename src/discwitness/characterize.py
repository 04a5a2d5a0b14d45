"""Geometric consequences of vanishing moments: chart constraint residuals,
the kappa*L = 2 profile, the maximal inscribed disc and its contradiction
witness, and the width/antipodal differential identities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.optimize import minimize as nm_minimize

from .geometry import (
    BoundaryPoint,
    ChordChart,
    SupportCurve,
    point_at,
    tangent_gap,
    width_at,
)
from .quadrature import adaptive_quad

DISC_TOL_DEFAULT = 1e-6


@dataclass(frozen=True)
class ConstraintResiduals:
    r_height: float
    r_curv: float
    r_phase: float
    p_nearest: int


def constraint_residuals(chart: ChordChart) -> ConstraintResiduals:
    """Residuals of the equal-height / equal-curvature / phase constraints
    between the chart's two extremum points."""
    d = chart.x1 - chart.x2
    p = int(round(d / (2.0 * math.pi)))
    return ConstraintResiduals(
        r_height=abs(abs(chart.f_x1) - abs(chart.g_x2)),
        r_curv=abs(abs(chart.f_pp_x1) - abs(chart.g_pp_x2)),
        r_phase=abs(d - 2.0 * math.pi * p),
        p_nearest=p,
    )


@dataclass(frozen=True)
class KLReport:
    samples: list  # rows (s, theta, kappa, L, kappa*L)
    max_dev: float
    verdict: str  # "disc" | "not_disc"
    fitted_circle: Optional[tuple]  # ((cx, cy), radius) when disc
    tol: float


def kl_profile(curve: SupportCurve, sample_count: int = 1000,
               tol: float = DISC_TOL_DEFAULT) -> KLReport:
    """kappa * width profile on a uniform normal-angle grid."""
    if sample_count < 16:
        raise ValueError("sample_count must be >= 16")
    thetas = np.linspace(0.0, 2.0 * math.pi, sample_count, endpoint=False)
    rho = np.asarray(curve.rho(thetas), dtype=float)
    kappa = 1.0 / rho
    L = np.asarray(width_at(curve, thetas), dtype=float)
    kl = kappa * L
    # arc length accumulated on the same grid (trapezoid, periodic)
    dtheta = 2.0 * math.pi / sample_count
    s = np.concatenate([[0.0], np.cumsum(0.5 * (rho[:-1] + rho[1:]) * dtheta)])[:-1]
    max_dev = float(np.max(np.abs(kl - 2.0)))
    verdict = "disc" if max_dev <= tol else "not_disc"
    fitted = None
    if verdict == "disc":
        h = np.asarray(curve.h(thetas), dtype=float)
        radius = float(np.mean(h))
        cx = 2.0 * float(np.mean(h * np.cos(thetas)))
        cy = 2.0 * float(np.mean(h * np.sin(thetas)))
        fitted = ((cx, cy), radius)
    samples = list(zip(s.tolist(), thetas.tolist(), kappa.tolist(),
                       L.tolist(), kl.tolist()))
    return KLReport(samples, max_dev, verdict, fitted, tol)


def min_clearance(curve: SupportCurve, center, *, grid: int = 1024) -> float:
    """min over theta of h(theta) - center . u(theta): the radius of the
    largest disc around `center` inside the curve.  Grid scan plus Newton
    polish of the grid minimum."""
    cx, cy = center
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = np.asarray(curve.h(thetas)) - cx * np.cos(thetas) - cy * np.sin(thetas)
    best = math.inf
    for i in np.where((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))[0]:
        t = thetas[i]
        for _ in range(30):
            d1 = float(curve.h1(t)) + cx * math.sin(t) - cy * math.cos(t)
            d2 = float(curve.h2(t)) + cx * math.cos(t) + cy * math.sin(t)
            if d2 <= 0.0:
                break
            step = d1 / d2
            t -= step
            if abs(step) < 1e-14:
                break
        best = min(best, float(curve.h(t)) - cx * math.cos(t) - cy * math.sin(t))
    return best


def inscribed_disc(curve: SupportCurve, *, grid: int = 2048) -> tuple:
    """Chebyshev center: maximize over centers c the min over theta of
    h(theta) - c . u(theta).

    An LP over support-line constraints on a dense angle grid gives the
    start; a derivative-free polish of the exact (concave, piecewise
    smooth) min-clearance resolves directions the linearization leaves
    flat.  Returns ((cx, cy), radius).
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    h = np.asarray(curve.h(thetas), dtype=float)
    # maximize r  s.t.  cx cos + cy sin + r <= h
    A = np.stack([np.cos(thetas), np.sin(thetas), np.ones_like(thetas)], axis=1)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=A, b_ub=h,
                  bounds=[(None, None)] * 3, method="highs")
    if not res.success:
        raise RuntimeError(f"Chebyshev LP failed: {res.message}")
    start = res.x[:2]
    opt = nm_minimize(lambda c: -min_clearance(curve, c), start,
                      method="Nelder-Mead",
                      options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 2000})
    cx, cy = opt.x
    return (float(cx), float(cy)), float(min_clearance(curve, (cx, cy)))


@dataclass(frozen=True)
class Witness:
    K_center: tuple
    K_radius: float
    x_prime: BoundaryPoint
    rho: float
    L_dir: float
    inequality_report: dict


def lemma2_witness(curve: SupportCurve, tol: float = 1e-6, *,
                   grid: int = 720, disc: Optional[tuple] = None) -> Optional[Witness]:
    """Inscribed-disc contradiction data for non-discs.

    None when every boundary point lies on the maximal inscribed disc.
    Otherwise picks the boundary point farthest outside the disc, takes the
    support line orthogonal to the center ray on the far side, and records
    the tangency point x', its radius of curvature, and the width in the
    ray direction.  `disc` is the curve's inscribed_disc result when the
    caller already has it.
    """
    (cx, cy), r = disc if disc is not None else inscribed_disc(curve)
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    pos = curve.position(thetas)
    dist = np.hypot(pos[:, 0] - cx, pos[:, 1] - cy)
    i = int(np.argmax(dist))
    if dist[i] - r <= tol * max(1.0, r):
        return None
    # refine the farthest point by a short local scan
    span = 2.0 * math.pi / grid
    fine = np.linspace(thetas[i] - span, thetas[i] + span, 201)
    pf = curve.position(fine)
    df = np.hypot(pf[:, 0] - cx, pf[:, 1] - cy)
    j = int(np.argmax(df))
    far = pf[j]
    direction = (far - np.array([cx, cy])) / df[j]
    theta_prime = math.atan2(direction[1], direction[0])
    xp = point_at(curve, theta_prime)
    rho = xp.radius_of_curvature
    L_dir = float(width_at(curve, theta_prime))
    report = {
        "L_dir": float(L_dir),
        "two_r": float(2.0 * r),
        "two_rho": float(2.0 * rho),
        "L_gt_two_r": bool(L_dir > 2.0 * r),
        "two_rho_le_two_r": bool(2.0 * rho <= 2.0 * r + tol),
    }
    return Witness((cx, cy), r, xp, rho, L_dir, report)


@dataclass(frozen=True)
class IdentityResiduals:
    step: float
    max_res_gap: float  # residual of dw/ds = kappa L - 1 - dq/ds
    max_res_width: float  # residual of dL/ds = -kappa w
    samples: list = field(repr=False, default_factory=list)


def identity_residuals(curve: SupportCurve, sample_count: int = 64,
                       step: float = 1e-4) -> IdentityResiduals:
    """Finite-difference check of the antipodal-gap and width derivatives.

    Derivatives are central differences with respect to arc length; the
    angle increment is step / rho so the arc-length step is uniform.
    """
    if sample_count < 16:
        raise ValueError("sample_count must be >= 16")
    thetas = np.linspace(0.0, 2.0 * math.pi, sample_count, endpoint=False)
    rho = np.asarray(curve.rho(thetas), dtype=float)
    kappa = 1.0 / rho
    L = np.asarray(width_at(curve, thetas), dtype=float)
    w = np.asarray(tangent_gap(curve, thetas), dtype=float)
    dq_ds = np.asarray(curve.rho(thetas + math.pi), dtype=float) / rho
    dth = step / rho
    dw_ds = (np.asarray(tangent_gap(curve, thetas + dth))
             - np.asarray(tangent_gap(curve, thetas - dth))) / (2.0 * step)
    dL_ds = (np.asarray(width_at(curve, thetas + dth))
             - np.asarray(width_at(curve, thetas - dth))) / (2.0 * step)
    res_gap = np.abs(dw_ds - (kappa * L - 1.0 - dq_ds))
    res_width = np.abs(dL_ds + kappa * w)
    samples = list(zip(thetas.tolist(), res_gap.tolist(), res_width.tolist()))
    return IdentityResiduals(step, float(np.max(res_gap)),
                             float(np.max(res_width)), samples)


@dataclass(frozen=True)
class PZeroReport:
    total_L_prime: float
    total_curvature: float
    implied_p: float
    p_zero_consistent: bool


def p_zero_check(curve: SupportCurve, tol: float = 1e-8) -> PZeroReport:
    """Periodicity of the width vs total curvature.

    A constant antipodal gap w = 2 pi p forces oint L'(s) ds =
    -2 pi p oint kappa ds = -4 pi^2 p; a periodic width therefore pins
    p = 0.  Both integrals are measured by quadrature.
    """
    total_Lp, _ = adaptive_quad(lambda t: curve.h1(t) + curve.h1(t + math.pi),
                                0.0, 2.0 * math.pi, abs_tol=1e-12)
    total_kappa, _ = adaptive_quad(lambda t: curve.rho(t) / curve.rho(t),
                                   0.0, 2.0 * math.pi, abs_tol=1e-12)
    total_Lp, total_kappa = float(total_Lp.real), float(total_kappa.real)
    implied_p = -total_Lp / (2.0 * math.pi * total_kappa)
    return PZeroReport(total_Lp, total_kappa, implied_p,
                       abs(implied_p) <= tol)
