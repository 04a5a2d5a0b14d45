"""Geometric consequences of vanishing moments: the constraint residuals of
a frame's two arc peaks, the kappa*L = 2 profile, the maximal inscribed
disc and its contradiction witness, and the width/antipodal differential
identities.  The result records' field names are the CLI's JSON keys."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DiscSearchFailed
from .geometry import (
    CONTACT_GRID,
    VALIDATION_GRID,
    SupportCurve,
    fitted_circle,
    frame_peaks,
    require_origin_inside,
    width_at,
)

DISC_TOL_DEFAULT = 1e-6


@dataclass(frozen=True)
class ConstraintResiduals:
    height: float
    curv: float
    phase: float
    p: int  # the nearest integer to (x1 - x2) / 2 pi


def constraint_residuals(curve: SupportCurve,
                         frame_angle: float) -> ConstraintResiduals:
    """Residuals of the equal-height / equal-curvature / phase constraints
    between the upper and lower arcs' peaks (x1, y1, y1'') and
    (x2, y2, y2'') in the frame rotated by frame_angle (see frame_peaks)."""
    require_origin_inside(curve)
    (h_t, h_b), (h1_t, h1_b), (rho_t, rho_b) = (
        v.tolist() for v in frame_peaks(curve, frame_angle))
    d = -h1_t - h1_b  # x1 - x2
    p = int(round(d / (2.0 * math.pi)))
    return ConstraintResiduals(
        height=abs(abs(h_t) - abs(h_b)),
        curv=abs(abs(1.0 / rho_t) - abs(1.0 / rho_b)),
        phase=abs(d - 2.0 * math.pi * p),
        p=p,
    )


@dataclass(frozen=True)
class KLReport:
    theta: np.ndarray  # the uniform normal-angle grid
    kappa: np.ndarray
    L: np.ndarray  # width h(theta) + h(theta + pi)
    kappa_L: np.ndarray
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
    h, _, rho = curve.jet(thetas)
    kappa = 1.0 / rho
    L = h + curve.h(thetas + math.pi)
    kl = kappa * L
    max_dev = float(np.max(np.abs(kl - 2.0)))
    verdict = "disc" if max_dev <= tol else "not_disc"
    fitted = None
    if verdict == "disc":
        radius, center = fitted_circle(h)
        fitted = (tuple(center.tolist()), radius)
    return KLReport(thetas, kappa, L, kl, max_dev, verdict, fitted, tol)


_NEWTON_STEPS = 50  # 26 at most over 30,000 random K = 3, 4 shapes
_HALVINGS = 30
_POOL = 32  # lowest contacts searched for a balanced triple
_POLISH_STEPS = 30
_FLAT_EPS = 64.0 * np.finfo(float).eps  # |q'| floor, per unit of scale
_THETAS = np.linspace(0.0, 2.0 * math.pi, CONTACT_GRID, endpoint=False)
_COS, _SIN = np.cos(_THETAS), np.sin(_THETAS)


def _support_extrema(curve: SupportCurve, center, maximum=False):
    """(angles, values, q'') of the local minima, or maxima, of the support
    function about `center`, q = h - center . u, with q'' = rho - q.  Each
    discrete extremum t on the contact grid, with its two grid neighbours,
    brackets one of q, and all are polished in their brackets together, one
    jet per step, as rtsafe (Press et al., Numerical Recipes, 3rd ed., 2007):
    the end that the sign of q' = h' + cx sin - cy cos rules out moves to t,
    and t takes the Newton step q'/q'' if q'' has the extremum's sign and
    the step lands in the closed bracket, else the bracket's midpoint.  A
    candidate stops once its step is below 1e-14, or |q'| is at the rounding
    floor of the curve's scale, where a step is noise (q is flat about a
    circle's centre, whose grid extrema keep their angles and values)."""
    cx, cy = center
    h = curve.contact_h
    sign = -1.0 if maximum else 1.0
    s = sign * (h - cx * _COS - cy * _SIN)
    t = _THETAS[(s <= np.roll(s, 1)) & (s <= np.roll(s, -1))]
    lo, hi = t - _THETAS[1], t + _THETAS[1]  # the grid neighbours
    flat = _FLAT_EPS * (float(np.max(np.abs(h))) + math.hypot(cx, cy))
    active = np.ones(t.shape, dtype=bool)
    for step_no in range(_POLISH_STEPS + 1):
        h_t, h1, rho = curve.jet(t)
        cos, sin = np.cos(t), np.sin(t)
        q = h_t - cx * cos - cy * sin
        d1, d2 = h1 + cx * sin - cy * cos, rho - q
        active &= np.abs(d1) > flat
        if step_no == _POLISH_STEPS or not active.any():
            return t, q, d2
        lo, hi = np.where(sign * d1 > 0.0, (lo, t), (t, hi))  # q' rules a side out
        # the Newton step where q'' has the extremum's sign, else none
        step = np.divide(d1, d2, out=np.full_like(t, np.inf), where=sign * d2 > 0.0)
        newton, mid = t - step, 0.5 * (lo + hi)
        inside = (lo <= newton) & (newton <= hi)
        step = np.where(inside, step, t - mid)
        t = np.where(active, np.where(inside, newton, mid), t)
        active &= np.abs(step) >= 1e-14


def min_clearance(curve: SupportCurve, center) -> float:
    """min over theta of h(theta) - center . u(theta): the radius of the
    largest disc around `center` inside the curve."""
    return float(np.min(_support_extrema(curve, center)[1]))


def _balanced_triple(t, q, i):
    """(i3, w): the three of the _POOL lowest contacts i whose normals
    balance, sum w u = 0 with w >= 0 and sum w = 1, at the least sum w q:
    the dual of the support-line LP max r s.t. r + u_i . d <= q_i.  w are
    the barycentric coordinates of 0, as the sines of the opposite arcs.
    (None, None) when the normals lie in a half-plane."""
    low = i[np.argsort(q[i])[:_POOL]]
    i3 = low[np.array(list(itertools.combinations(range(len(low)), 3)))]
    ta, tb, tc = t[i3].T
    w = np.stack([np.sin(tc - tb), np.sin(ta - tc), np.sin(tb - ta)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w /= w.sum(axis=1, keepdims=True)
    dual = np.where(np.all(w >= 0.0, axis=1), np.sum(w * q[i3], axis=1), np.inf)
    b = int(np.argmin(dual))
    return (i3[b], w[b]) if dual[b] < np.inf else (None, None)


def _kkt_step(t, q, q2, i, a0, s, tol):
    """Newton step (d, r, i, lam) on the KKT system of max r s.t.
    r <= q_i(c) over the active contacts i, from equal multipliers lam:

        W d + U lam = 0,   1.lam = 1,   q_i - u_i . d = r,

    with W = sum lam_i u'_i u'_i^T / q''_i, q'' = rho - q, exact by the
    envelope theorem (grad q_i = -u_i, and d theta_i / dc = u'_i / q''_i).
    It is solved in units of s about a0, by least squares, which also serves
    a symmetric shape's more than three contacts at one level.  When more
    than three cannot sit at one level (beyond tol and the solve's rounding,
    64 eps |KKT| |sol| s), their `_balanced_triple` replaces them.  A contact
    leaves when its multiplier is negative, but never the last; an outside
    contact joins, with multiplier 0, when its linearized value falls below
    the predicted radius.  Where the set does not settle (two contacts about
    to merge into one valley of q, whose linearizations each pull in the
    other), the last step with multipliers >= 0 is returned: the caller's
    halving on the exact clearance guards it."""
    cos, sin = np.cos(t), np.sin(t)
    lam = np.full(len(i), 1.0 / len(i))
    for _ in range(2 * len(t) + 2):
        k = len(i)
        up = np.stack([-sin[i], cos[i]])
        border = np.stack([cos[i], sin[i], np.ones(k)])
        kkt = np.zeros((3 + k, 3 + k))
        kkt[:2, :2] = s * (up * (lam / q2[i])) @ up.T
        kkt[:3, 3:], kkt[3:, :3] = border, border.T
        rhs = np.concatenate([[0.0, 0.0, 1.0], (q[i] - a0) / s])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        d, r, lam = s * sol[:2], a0 + s * sol[2], sol[3:]
        gap = q - d[0] * cos - d[1] * sin - r  # linearized q_i - r
        level_tol = tol + 64.0 * np.finfo(float).eps * s * (
            np.abs(kkt).sum(axis=1).max() * np.abs(sol).max())
        if k > 3 and gap[i].max() > level_tol:
            i3, w = _balanced_triple(t, q, i)
            if i3 is not None:
                i, lam = i3, w
                continue
        if k > 1 and lam.min() < 0.0:
            j = int(np.argmin(lam))
        else:
            settled = d, r, i, lam
            gap[i] = 0.0
            j = int(np.argmin(gap))
            if gap[j] >= -tol:
                return settled
            i, lam = np.append(i, j), np.append(lam, 0.0)
            continue
        i, lam = np.delete(i, j), np.delete(lam, j)
    return settled


def inscribed_disc(curve: SupportCurve) -> tuple:
    """Chebyshev center: maximize over centers c the clearance
    min over theta of q = h(theta) - c . u(theta).  Returns ((cx, cy), r).

    Local reduction (Hettich & Kortanek, SIAM Review 35, 1993, sec. 7):
    each local minimum theta_i of q (a contact, from _support_extrema's
    bracketed polish with its q'') is a smooth constraint r <= q_i(c), and
    the disc solves the KKT system of the contacts that bind.  It starts at
    the centre c1 of the fitted circle a0 + c1 . u of h on the contact
    grid, whose largest deviation from h is s.  Each exact Newton step
    (`_kkt_step`) takes the local minima of q within s of the lowest as its
    contacts, at equal weight, and is halved until the exact clearance does
    not drop.  The steps stop once one is below 1e-15 * scale, or before a
    step that neither predicts nor makes a gain above that, which is
    refused (along a flat direction, as along an ellipse's major axis, the
    step is rounding that the curvature amplifies).  A curve within
    1e-13 * (a0 + |c1|) of its fitted circle, the rounding of h, is that
    disc.  Raises DiscSearchFailed rather than return an unconverged centre.
    """
    h = curve.contact_h
    a0, c1 = fitted_circle(h)
    dev = h - a0 - c1[0] * _COS - c1[1] * _SIN
    s = float(np.max(np.abs(dev)))
    scale = a0 + float(np.hypot(*c1))
    if s <= 1e-13 * scale:
        return (float(c1[0]), float(c1[1])), min_clearance(curve, c1)
    center, tol = c1, 1e-15 * scale
    t, q, q2 = _support_extrema(curve, center)
    phi = float(np.min(q))
    for _ in range(_NEWTON_STEPS):
        d, r, _, _ = _kkt_step(t, q, q2, np.flatnonzero(q <= phi + s), a0, s, tol)
        for _ in range(_HALVINGS):
            t, q, q2 = _support_extrema(curve, center + d)
            phi_new = float(np.min(q))
            if phi_new >= phi - tol:
                break
            d = 0.5 * d
        else:
            raise DiscSearchFailed("inscribed disc: a Newton step lowered "
                                   "the clearance")
        if max(r, phi_new) - phi <= tol:  # no gain predicted or made
            return (float(center[0]), float(center[1])), phi
        center, phi = center + d, phi_new
        if math.hypot(*d) < tol:
            return (float(center[0]), float(center[1])), phi
    raise DiscSearchFailed("inscribed disc: Newton steps did not converge")


@dataclass(frozen=True)
class Witness:
    K_center: tuple
    K_radius: float
    x_prime_theta: float
    rho: float
    L_dir: float
    inequality_report: dict


def lemma2_witness(curve: SupportCurve, *,
                   disc: Optional[tuple] = None) -> Optional[Witness]:
    """Inscribed-disc contradiction data for non-discs.

    None when every boundary point lies on the maximal inscribed disc, to
    DISC_TOL_DEFAULT * max(1, r).  Otherwise x' is the boundary point
    farthest from the disc's center c: the maximum of q = h - c . u, since
    d|r - c|^2/dtheta = 2 rho q' and r - c = q u where q' = 0.  Its support
    line is therefore orthogonal to the center ray.  Records the normal
    angle of x', its radius of curvature, and the width in the ray
    direction.  Maxima within 1e-9 * max(1, r) of the largest tie (an
    ellipse has two), and the one with the smallest angle in (-pi, pi]
    is taken.  `disc` is the curve's inscribed_disc result when the caller
    already has it.
    """
    (cx, cy), r = disc if disc is not None else inscribed_disc(curve)
    t, q, _ = _support_extrema(curve, (cx, cy), maximum=True)
    q_max = float(np.max(q))
    if q_max - r <= DISC_TOL_DEFAULT * max(1.0, r):
        return None
    t = math.pi - (math.pi - t) % (2.0 * math.pi)  # in (-pi, pi]
    theta_prime = float(np.min(t[q >= q_max - 1e-9 * max(1.0, r)]))
    rho = float(curve.rho(theta_prime))
    L_dir = float(width_at(curve, theta_prime))
    report = {
        "L_dir": float(L_dir),
        "two_r": float(2.0 * r),
        "two_rho": float(2.0 * rho),
        "L_gt_two_r": bool(L_dir > 2.0 * r),
        "two_rho_le_two_r": bool(2.0 * rho <= 2.0 * r + DISC_TOL_DEFAULT),
    }
    return Witness((cx, cy), r, theta_prime, rho, L_dir, report)


@dataclass(frozen=True)
class IdentityResiduals:
    step: float
    max_res_gap: float  # residual of dw/ds = kappa L - 1 - dq/ds
    max_res_width: float  # residual of dL/ds = -kappa w


def identity_residuals(curve: SupportCurve, sample_count: int = 64,
                       step: float = 1e-4) -> IdentityResiduals:
    """Finite-difference check of the antipodal-gap and width derivatives.

    Derivatives are central differences with respect to arc length; the
    angle increment is step / rho so the arc-length step is uniform.
    """
    if sample_count < 16:
        raise ValueError("sample_count must be >= 16")
    thetas = np.linspace(0.0, 2.0 * math.pi, sample_count, endpoint=False)

    def antipodal(th):  # L, w = -(h'(th) + h'(th + pi)), rho, rho(th + pi)
        (h, h1, rho), (hp, h1p, rho_p) = curve.jet(th), curve.jet(th + math.pi)
        return h + hp, -(h1 + h1p), rho, rho_p

    L, w, rho, rho_p = antipodal(thetas)
    kappa, dq_ds, dth = 1.0 / rho, rho_p / rho, step / rho
    L_up, w_up, _, _ = antipodal(thetas + dth)
    L_dn, w_dn, _, _ = antipodal(thetas - dth)
    dw_ds = (w_up - w_dn) / (2.0 * step)
    dL_ds = (L_up - L_dn) / (2.0 * step)
    res_gap = np.abs(dw_ds - (kappa * L - 1.0 - dq_ds))
    res_width = np.abs(dL_ds + kappa * w)
    return IdentityResiduals(step, float(np.max(res_gap)),
                             float(np.max(res_width)))


@dataclass(frozen=True)
class PZeroReport:
    total_L_prime: float
    total_curvature: float
    implied_p: float
    p_zero_consistent: bool


def p_zero_check(curve: SupportCurve) -> PZeroReport:
    """Periodicity of the width vs total curvature.

    A constant antipodal gap w = 2 pi p forces oint L'(s) ds =
    -2 pi p oint kappa ds = -4 pi^2 p; a periodic width therefore pins
    p = 0.  Both come from one jet (h, h') on the validation grid.
    oint L' ds = oint (h'(theta) + h'(theta + pi)) dtheta is the periodic
    trapezoid sum there, theta + pi being the grid's exact N/2 roll;
    oint kappa ds is the turning angle of the boundary polygon through the
    positions z = (h + i h') e^{i theta}, a discretization independent of
    rho.  p_zero_consistent is |implied p| <= 1e-8.
    oint (h'(theta) + h'(theta + pi)) dtheta = 0 holds for every
    periodic h, and a closed convex polygon turns by 2 pi, so
    p_zero_consistent holds while the grid resolves h' (not on 300 x 1 at
    rotation 0.2, where oint L' ds = -4.5e-6): a sanity check of the jet
    and the grid, not evidence about the curve.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, VALIDATION_GRID, endpoint=False)
    h, h1, _ = curve.periodic_jet(VALIDATION_GRID)
    total_Lp = float(np.sum(h1 + np.roll(h1, -VALIDATION_GRID // 2))
                     * (2.0 * math.pi / VALIDATION_GRID))
    z = (h + 1j * h1) * np.exp(1j * thetas)
    e = np.roll(z, -1) - z  # polygon edges as complex numbers
    total_kappa = float(np.sum(np.angle(np.roll(e, -1) * np.conj(e))))
    implied_p = -total_Lp / (2.0 * math.pi * total_kappa)
    return PZeroReport(total_Lp, total_kappa, implied_p,
                       abs(implied_p) <= 1e-8)
