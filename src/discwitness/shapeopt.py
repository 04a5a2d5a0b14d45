"""Shape optimization over support-Fourier coefficients.

Minimizing the kappa*L residuals, or the bracket residuals (the
equal-height, equal-curvature and phase conditions of each frame's two
Laplace peak terms), drives strictly convex shapes to discs, the numerical
face of the symmetry theorem.  minimize takes a FourierCurve and returns
one, gauged: a0 = 1 (mean width 2) and the first harmonics pinned at 0,
which puts the Steiner point, inside the body, at the origin, so h > 0.
Each objective is a residual vector r(x) of the free coordinates left,
J = r . r, and one damped Gauss-Newton loop solves the normal equations of
the column-scaled Jacobian (Nocedal & Wright, 2006, 10.2; van der Sluis,
Numer. Math. 14, 1969).  Feasible means geometry.validation_rho, the sum
FourierCurve validates with, clears EPS0, at every line-search trial too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedSpec, NoFeasibleStart, NotStrictlyConvex
from .geometry import (EPS0, FourierCurve, fitted_circle, peak_normals,
                       periodic_trig, read_only, require_strictly_convex,
                       trig_table, validation_rho)

DEFAULT_K = 8
BOUNDARY_FRACTION = 0.99
MAX_HALVINGS = 40
_GRID = 512  # even, so theta + pi is an exact roll; resolves K < _GRID / 2


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


@functools.lru_cache(maxsize=8)
def _kl_maps(K: int):
    """A_ell, A_rho: ell = L - 2 rho = A_ell x and rho = 1 + A_rho x on the
    grid for the free coordinates x of a gauged curve; cached, read-only."""
    coskt, sinkt, k = periodic_trig(_GRID, K)
    basis = np.hstack([coskt[:, 1:], sinkt[:, 1:]])
    w_ell = np.where(k % 2 == 0, 2.0 * k * k, 2.0 * (k * k - 1.0))[1:]
    return read_only(basis * np.tile(w_ell, 2),
                     basis * np.tile(1.0 - k[1:] ** 2, 2))


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


def circle_distance(h: np.ndarray, rho: np.ndarray) -> float:
    """Relative curvature spread plus support residual to the best-fit
    circle of a curve, from h and rho on its periodic_jet(_GRID)."""
    kappa = 1.0 / rho
    rel_std = float(np.std(kappa) / np.mean(kappa))
    a0f, (cx, cy) = fitted_circle(h)
    cos, sin, _ = periodic_trig(_GRID, 1)
    fit = a0f + cx * cos[:, 0] + cy * sin[:, 0]
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
    steps; the best point is always a valid curve.  Raises MalformedSpec
    when K >= _GRID / 2, harmonics the grid cannot resolve, and
    NoFeasibleStart when the gauged start is not strictly convex.
    """
    K = max(DEFAULT_K, len(start.cos))
    if K >= _GRID // 2:  # would alias onto the grid's low modes, or vanish
        raise MalformedSpec(f"{K} harmonics: optimize takes fewer than "
                            f"{_GRID // 2}")
    x = _coordinates(start, K)
    rho = _free_rho(x)
    try:
        require_strictly_convex(rho)
    except NotStrictlyConvex as exc:
        raise NoFeasibleStart(str(exc)) from exc
    if objective not in TARGETS:
        raise ValueError(f"unknown objective {objective!r}")
    kl = objective == "kl"
    maps = _kl_maps(K) if kl else _bracket_maps(K, bracket_frames(K))
    residuals = _kl_residuals if kl else _bracket_residuals
    x, trace, evaluations = _damped_newton(
        x, rho, TARGETS[objective], max_iter, lambda y: residuals(maps, y))
    best = _curve(x)
    h, _, rho = best.periodic_jet(_GRID)
    return OptResult(best=best, objective=trace[-1], iterations=len(trace) - 1,
                     trace=trace, circle_distance=circle_distance(h, rho),
                     min_rho=float(np.min(rho)), evaluations=evaluations)


def _free_rho(x: np.ndarray) -> np.ndarray:
    """validation_rho of the gauged curve of free coordinates x."""
    m = len(x) // 2
    z = np.zeros(len(x) + 2)  # [0, cos, 0, sin]
    z[1:m + 1], z[m + 2:] = x[:m], x[m:]
    return validation_rho(1.0, z[:m + 1], z[m + 1:])


def _step(jac: np.ndarray, r: np.ndarray):
    """The least-squares solution of jac p = -r, D solve((jac D)^T (jac D),
    -(jac D)^T r) with D = 1 / |column|; None unless that is finite."""
    with np.errstate(all="ignore"):  # a zero column makes D infinite
        d = 1.0 / np.sqrt(np.einsum("ij,ij->j", jac, jac))
        a = jac * d
        try:
            p = d * np.linalg.solve(a.T @ a, -(a.T @ r))
        except np.linalg.LinAlgError:  # singular
            return None
    return p if np.all(np.isfinite(p)) else None


def _damped_newton(x: np.ndarray, rho: np.ndarray, target: float,
                   max_iter: int, residuals):
    """Descent on J = r . r, (r, dr/dx) = residuals(x) or None where J is
    undefined, from free coordinates x with _free_rho rho, by the steps p of
    _step (Nocedal & Wright, 2006, 10.2; van der Sluis, 1969).  rho is
    affine in x: its sum at x + p, less rho(x), caps t by one ratio test at
    BOUNDARY_FRACTION of the way to EPS0; t then halves until J falls at a
    point whose _free_rho (at t = 1, that same sum) clears EPS0.  Each point
    is scored and summed once: the accepted trial's r, dr/dx and rho carry
    over.  A step that is not finite stops the descent, as no fall does."""
    r, jac = residuals(x)
    j = float(r @ r)
    trace, evaluations = [j], 1
    while j > target and len(trace) <= max_iter:
        p = _step(jac, r)
        if p is None:
            break  # singular normal equations
        rho_full = _free_rho(x + p)
        rho_p = rho_full - rho
        falling = rho_p < 0.0
        t = min(1.0, BOUNDARY_FRACTION * float(np.min(
            (rho[falling] - EPS0) / -rho_p[falling], initial=math.inf)))
        for _ in range(MAX_HALVINGS):
            res = residuals(x + t * p)
            evaluations += 1
            j_t = math.inf if res is None else float(res[0] @ res[0])
            if j_t < j:
                rho_t = rho_full if t == 1.0 else _free_rho(x + t * p)
                if np.min(rho_t) > EPS0:
                    break
            t *= 0.5
        else:
            break  # J no longer decreases
        x, (r, jac), j, rho = x + t * p, res, j_t, rho_t
        trace.append(j)
    return x, trace, evaluations
