"""Shape optimization over support-Fourier coefficients.

Minimizing the kappa*L residual, or the bracket residuals (the equal-height,
equal-curvature and phase conditions of each frame's two Laplace peak
terms), drives strictly convex shapes to discs, which is the numerical face
of the symmetry theorem.  Each objective is a residual vector r(x) with
J = r . r, and both take damped Gauss-Newton steps in one loop.
minimize takes a FourierCurve and returns one, gauged: scale by
normalizing the mean width to 2 (a0 = 1), translation by pinning the first
harmonics, which puts the Steiner point, inside the body, at the origin,
so h > 0.  The search runs over the free coordinates left, and feasible
means geometry.validation_rho, the sum FourierCurve validates with, clears
EPS0 on the validation grid, at every trial point of the line search too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleStart, NotStrictlyConvex
from .geometry import (EPS0, FourierCurve, fitted_circle, peak_normals,
                       periodic_trig, trig_table, validation_rho)

DEFAULT_K = 8
BOUNDARY_FRACTION = 0.99
MAX_HALVINGS = 40
_GRID = 512  # even, so theta + pi is an exact roll


def _coordinates(curve: FourierCurve, K: int) -> np.ndarray:
    """Free coordinates of the gauged curve: cos, then sin, of harmonics
    2..K (zero past the curve's own), divided by a0."""
    pad = (0.0,) * (K - len(curve.cos))  # cos and sin share a length
    free = (curve.cos + pad)[1:] + (curve.sin + pad)[1:]
    return np.array(free) * (1.0 / curve.a0)


def _curve(x: np.ndarray) -> FourierCurve:
    """The gauged curve (a0 = 1, first harmonics 0) of free coordinates x;
    raises NotStrictlyConvex."""
    cos, sin = np.split(x, 2)
    return FourierCurve(1.0, (0.0, *cos.tolist()), (0.0, *sin.tolist()))


def _kl_maps(K: int):
    """A_ell, A_rho: ell = L - 2 rho = A_ell x and rho = 1 + A_rho x on the
    grid for the free coordinates x of a gauged curve."""
    coskt, sinkt, k = periodic_trig(_GRID, K)
    basis = np.hstack([coskt[:, 1:], sinkt[:, 1:]])
    w_ell = np.where(k % 2 == 0, 2.0 * k * k, 2.0 * (k * k - 1.0))[1:]
    return basis * np.tile(w_ell, 2), basis * np.tile(1.0 - k[1:] ** 2, 2)


def _kl_residuals(maps, x: np.ndarray):
    """(r, dr/dx), r = (2 pi / N)^(1/2) ell / sqrt(rho): r . r is the periodic
    trapezoid of (kappa L - 2)^2 ds = (ell / rho)^2 rho dtheta, convex as
    the perspective of a square of affine maps (Boyd & Vandenberghe, 2004,
    3.2.6), so it has one minimum, the disc."""
    a_ell, a_rho = maps
    ell, rho = a_ell @ x, 1.0 + a_rho @ x
    s = math.sqrt(2.0 * math.pi / len(rho)) / np.sqrt(rho)
    return s * ell, s[:, None] * (a_ell - (0.5 * ell / rho)[:, None] * a_rho)


def bracket_frames(K: int) -> np.ndarray:
    """The F = 2K frame angles pi j / (2K), j < F: enough that the bracket
    residuals of a degree-K shape vanish only on a centred disc (with K
    frames sin K theta vanishes at every peak normal)."""
    return np.pi * np.arange(2 * K) / (2 * K)


def _bracket_maps(K: int, directions):
    """B_h, B_h1, B_rho: h = 1 + B_h x, h' = B_h1 x and rho = 1 + B_rho x
    for the free coordinates x of a gauged curve, at the peak_normals of
    the frames phi: the upper peaks' in the first half of the rows, then
    the lower peaks'."""
    coskt, sinkt, k = trig_table(peak_normals(directions).ravel(), K)
    cos, sin, k = coskt[:, 1:], sinkt[:, 1:], k[1:]
    b_h = np.hstack([cos, sin])
    return b_h, np.hstack([-sin * k, cos * k]), b_h * np.tile(1.0 - k * k, 2)


def _bracket_residuals(maps, x: np.ndarray):
    """(r, dr/dx), r = [ln h(up) - ln h(lo), ln rho(up) - ln rho(lo),
    h'(up) + h'(lo)] over the frames, up and lo the peak normals: the
    equal-height, equal-curvature and phase conditions under which the two
    Laplace peak terms of a frame cancel.  None where h or rho <= 0."""
    b_h, b_h1, b_rho = maps
    h, rho = 1.0 + b_h @ x, 1.0 + b_rho @ x
    if min(np.min(h), np.min(rho)) <= 0.0:
        return None
    f = len(h) // 2
    d_ln_h, d_ln_rho = b_h / h[:, None], b_rho / rho[:, None]
    h1 = b_h1 @ x
    r = np.concatenate([np.log(h[:f] / h[f:]), np.log(rho[:f] / rho[f:]),
                        h1[:f] + h1[f:]])
    jac = np.vstack([d_ln_h[:f] - d_ln_h[f:], d_ln_rho[:f] - d_ln_rho[f:],
                     b_h1[:f] + b_h1[f:]])
    return r, jac


def circle_distance(curve: FourierCurve) -> float:
    """Relative curvature spread plus support residual to the best-fit
    circle of the curve."""
    h, _, rho = curve.periodic_jet(_GRID)
    kappa = 1.0 / rho
    rel_std = float(np.std(kappa) / np.mean(kappa))
    a0f, (cx, cy) = fitted_circle(h)
    theta = np.linspace(0.0, 2.0 * math.pi, _GRID, endpoint=False)
    fit = a0f + cx * np.cos(theta) + cy * np.sin(theta)
    return rel_std + float(np.max(np.abs(h - fit))) / a0f


# J at which a run stops: the bracket residuals are O(circle distance), so
# their J <= 1e-20 leaves a circle distance near 1e-10, far above rounding
TARGETS = {"kl": 1e-10, "bracket": 1e-20}


@dataclass
class OptResult:
    best: FourierCurve  # gauged: a0 = 1, first harmonics 0
    objective: float
    iterations: int
    trace: list
    circle_distance: float
    min_rho: float
    evaluations: int  # objective values computed, line-search trials too


def minimize(start: FourierCurve, objective: str = "kl",
             max_iter: int = 5000) -> OptResult:
    """Damped Gauss-Newton descent over the gauged start's free coordinates,
    in harmonics 2..K, K = max(DEFAULT_K, len(start.cos)).

    objective: "kl" (the kappa*L residuals) or "bracket" (the bracket
    residuals over bracket_frames(K)); J is the sum of their squares.
    Stops on J <= TARGETS[objective], no further descent, or max_iter
    steps.  A point is accepted only if its validation_rho clears EPS0, so
    the best point is always a valid curve.  Raises NoFeasibleStart when the
    gauged start is not strictly convex.
    """
    K = max(DEFAULT_K, len(start.cos))
    x = _coordinates(start, K)
    try:
        _curve(x)
    except NotStrictlyConvex as exc:
        raise NoFeasibleStart(str(exc)) from exc
    if objective == "kl":
        maps, residuals = _kl_maps(K), _kl_residuals
    elif objective == "bracket":
        maps = _bracket_maps(K, bracket_frames(K))
        residuals = _bracket_residuals
    else:
        raise ValueError(f"unknown objective {objective!r}")
    x, trace, evaluations = _damped_newton(
        x, TARGETS[objective], max_iter, lambda y: residuals(maps, y))
    best = _curve(x)
    rho = best.periodic_jet(_GRID)[2]
    return OptResult(best=best, objective=trace[-1], iterations=len(trace) - 1,
                     trace=trace, circle_distance=circle_distance(best),
                     min_rho=float(np.min(rho)), evaluations=evaluations)


def _free_rho(a0: float, x: np.ndarray) -> np.ndarray:
    """validation_rho of free coordinates x, the first harmonics pinned at 0."""
    cos, sin = np.split(x, 2)
    return validation_rho(a0, np.r_[0.0, cos], np.r_[0.0, sin])


def _damped_newton(x: np.ndarray, target: float, max_iter: int, residuals):
    """Descent on J = r . r, (r, dr/dx) = residuals(x) or None where J is
    undefined, from the free coordinates x by Gauss-Newton steps, the least
    squares solutions of dr/dx p = -r (Nocedal & Wright, 2006, 10.3).  rho
    is affine in x, so from _free_rho at the start and along the step
    (a0 = 0) one ratio test caps a step at BOUNDARY_FRACTION of the way to
    rho = EPS0; it then halves until J falls at a point whose _free_rho,
    _curve's validation sum on the same values, clears EPS0.  Each point is
    scored once: the accepted trial's (r, dr/dx) gives the next step."""
    r, jac = residuals(x)
    j = float(r @ r)
    rho_v = _free_rho(1.0, x)
    trace, evaluations = [j], 1
    while j > target and len(trace) <= max_iter:
        p = np.linalg.lstsq(jac, -r, rcond=None)[0]
        rho_p = _free_rho(0.0, p)
        falling = rho_p < 0.0
        t = min(1.0, BOUNDARY_FRACTION * float(np.min(
            (rho_v[falling] - EPS0) / -rho_p[falling], initial=math.inf)))
        for _ in range(MAX_HALVINGS):
            res = residuals(x + t * p)
            evaluations += 1
            j_t = math.inf if res is None else float(res[0] @ res[0])
            if j_t < j and np.min(_free_rho(1.0, x + t * p)) > EPS0:
                break
            t *= 0.5
        else:
            break  # J no longer decreases
        x, (r, jac), j, rho_v = x + t * p, res, j_t, rho_v + t * rho_p
        trace.append(j)
    return x, trace, evaluations
