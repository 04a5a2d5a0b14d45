"""Shape optimization over support-Fourier coefficients.

Minimizing the kappa*L residual (or the main-term bracket magnitude over a
set of frames) drives strictly convex shapes to discs, which is the
numerical face of the symmetry theorem; the convex kappa*L residual takes
Newton steps.  Scale is gauged out by normalizing the mean width to 2 at
every evaluation; translation is gauged out by pinning the first harmonics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .asymptotics import peak_log_magnitude
from .errors import Infeasible, MalformedSpec, NoFeasibleStart, NotStrictlyConvex
from .geometry import (DEFAULT_EPS0, VALIDATION_GRID, FourierCurve, fourier_sums,
                       periodic_trig, trig_table)

DEFAULT_K = 8
PENALTY_WEIGHT = 1e6
RESTARTS = 3
SIMPLEX_TOL = 1e-10
BOUNDARY_FRACTION = 0.99
MAX_HALVINGS = 40
DIRECTIONS = tuple(np.pi * k / 8 for k in range(8))
BRACKET_M = 50
_GRID = 512  # even, so theta + pi is an exact roll


@dataclass(frozen=True)
class ShapeVector:
    a0: float = 1.0
    cos: tuple = ()
    sin: tuple = ()
    pin_translation: bool = True
    eps0: float = DEFAULT_EPS0
    K: int = DEFAULT_K

    def __post_init__(self):
        object.__setattr__(self, "cos", _pad(self.cos, self.K))
        object.__setattr__(self, "sin", _pad(self.sin, self.K))

    def coefficients(self) -> np.ndarray:
        """Free coordinates of the search space (gauged harmonics excluded)."""
        k0 = 1 if self.pin_translation else 0
        return np.concatenate([self.cos[k0:], self.sin[k0:]]).astype(float)

    def with_coefficients(self, x: np.ndarray) -> "ShapeVector":
        k0 = 1 if self.pin_translation else 0
        ncoef = self.K - k0
        cos = (0.0,) * k0 + tuple(x[:ncoef])
        sin = (0.0,) * k0 + tuple(x[ncoef:])
        return replace(self, cos=cos, sin=sin)

    def gauged(self) -> "ShapeVector":
        """Mean width normalized to 2 (a0 = 1); translation pinned if set."""
        if self.a0 <= 0.0:
            raise Infeasible("a0 must be positive")
        c = 1.0 / self.a0
        cos = tuple(v * c for v in self.cos)
        sin = tuple(v * c for v in self.sin)
        if self.pin_translation:
            cos = (0.0,) + cos[1:]
            sin = (0.0,) + sin[1:]
        return replace(self, a0=1.0, cos=cos, sin=sin)

    def decode(self) -> FourierCurve:
        """Validated curve for the gauged vector; raises Infeasible."""
        g = self.gauged()
        try:
            return FourierCurve(g.a0, g.cos, g.sin, g.eps0)
        except NotStrictlyConvex as exc:
            raise Infeasible(str(exc)) from exc


def _pad(vals, K):
    vals = tuple(float(v) for v in vals)
    if len(vals) > K:
        raise ValueError(f"harmonics beyond K={K} supplied")
    return vals + (0.0,) * (K - len(vals))


def _grid_eval(v: ShapeVector, n: int = _GRID):
    """h, rho on the periodic n-node grid for the vector (no validation).
    These are FourierCurve's sums, so on the validation grid min rho > eps0
    iff decode() succeeds."""
    trig = periodic_trig(n, v.K)
    h = fourier_sums(v.a0, v.cos, v.sin, trig, 0)
    return h, h + fourier_sums(v.a0, v.cos, v.sin, trig, 2)


def _kl_maps(K: int, pin_translation: bool):
    """A_ell, A_rho: ell = L - 2 rho = A_ell x and rho = 1 + A_rho x on the
    grid for the free coefficients x of a gauged vector."""
    coskt, sinkt, k = periodic_trig(_GRID, K)
    k0 = 1 if pin_translation else 0
    basis = np.hstack([coskt[:, k0:], sinkt[:, k0:]])
    w_ell = np.where(k % 2 == 0, 2.0 * k * k, 2.0 * (k * k - 1.0))[k0:]
    return basis * np.tile(w_ell, 2), basis * np.tile(1.0 - k[k0:] ** 2, 2)


def _kl_value(a_ell: np.ndarray, a_rho: np.ndarray, x: np.ndarray) -> float:
    # (kappa L - 2)^2 ds = (ell / rho)^2 rho dtheta, by the periodic trapezoid
    ell, rho = a_ell @ x, 1.0 + a_rho @ x
    return float(np.mean(ell * ell / rho) * 2.0 * math.pi)


def _kl_derivatives(a_ell: np.ndarray, a_rho: np.ndarray, x: np.ndarray):
    """Gradient and Hessian of J at x, with lam = ell / rho = kappa L - 2:
    sum 2 lam ell' - lam^2 rho' and sum (2 / rho) q q^T, q = ell' - lam rho'."""
    ell, rho = a_ell @ x, 1.0 + a_rho @ x
    lam = ell / rho
    q = a_ell - lam[:, None] * a_rho
    w = 2.0 * math.pi / len(rho)
    return (w * (a_ell.T @ (2.0 * lam) - a_rho.T @ (lam * lam)),
            w * (q.T * (2.0 / rho)) @ q)


def objective_kl(v: ShapeVector) -> float:
    """Integral of (kappa L - 2)^2 ds over the gauged shape; zero iff disc."""
    g = v.gauged()
    g.decode()  # feasibility check
    return _kl_value(*_kl_maps(g.K, g.pin_translation), g.coefficients())


def _bracket_core(g: ShapeVector, directions, m: int,
                  rho_floor: Optional[float] = None) -> float:
    """Sum over frames of |term_f - term_g|^2, each frame's peak terms
    rescaled by the larger of their two log scales.

    In the frame rotated by phi the chart extrema sit at the normal angles
    pi/2 + phi (x1 = -h', f = h, f'' = -1/rho) and 3pi/2 + phi (x2 = h',
    g = -h, g'' = 1/rho), so no chart is built.
    """
    phi = np.asarray(directions, dtype=float)
    trig = trig_table(np.concatenate([phi + 0.5 * math.pi, phi + 1.5 * math.pi]), g.K)
    h, h1, h2 = (fourier_sums(g.a0, g.cos, g.sin, trig, d) for d in range(3))
    if np.any(h <= 0.0):
        return math.inf
    rho = h + h2
    if rho_floor is not None:
        rho = np.maximum(rho, rho_floor)
    x1, x2 = -h1[:len(phi)], h1[len(phi):]
    ln_f, ln_g = peak_log_magnitude(h, 1.0 / rho, m).reshape(2, -1)
    ref = np.maximum(ln_f, ln_g)
    bf = np.exp(1j * x1 + ln_f - ref)
    bg = np.exp(1j * x2 + ln_g - ref)
    return float(np.sum(np.abs(bf - bg) ** 2))


def objective_bracket(v: ShapeVector, directions: Sequence[float],
                      m: int = BRACKET_M) -> float:
    """Sum over frames of the squared main-term bracket, each frame's terms
    rescaled by the larger of the two log scales."""
    if m < 10:
        raise ValueError("m must be >= 10")
    g = v.gauged()
    g.decode()  # feasibility check
    directions = list(directions)
    if not directions:
        warnings.warn("empty direction set: bracket objective is vacuously 0",
                      stacklevel=2)
        return 0.0
    j = _bracket_core(g, directions, m)
    if j == math.inf:
        raise MalformedSpec("bracket frames need h > 0 at their peak normals")
    return j


def _penalized_bracket(g: ShapeVector) -> float:
    _, rho = _grid_eval(g)
    return (_bracket_core(g, DIRECTIONS, BRACKET_M, 0.5 * g.eps0)
            + PENALTY_WEIGHT * max(0.0, g.eps0 - float(np.min(rho))) ** 2)


def _feasible(g: ShapeVector) -> bool:
    """decode() succeeds: FourierCurve's own check on its cached table."""
    _, rho = _grid_eval(g, VALIDATION_GRID)
    return float(np.min(rho)) > g.eps0


def circle_distance(v: ShapeVector) -> float:
    """Relative curvature spread plus support residual to the best-fit circle."""
    h, rho = _grid_eval(v.gauged())
    kappa = 1.0 / rho
    rel_std = float(np.std(kappa) / np.mean(kappa))
    a0f = float(np.mean(h))
    cos, sin = (t[:, 0] for t in periodic_trig(_GRID, v.K)[:2])
    cx = 2.0 * float(np.mean(h * cos))
    cy = 2.0 * float(np.mean(h * sin))
    fit = a0f + cx * cos + cy * sin
    return rel_std + float(np.max(np.abs(h - fit))) / a0f


@dataclass
class OptOptions:
    max_iter: int = 5000
    seed: int = 0
    target: float = 1e-10


@dataclass
class OptResult:
    best: ShapeVector
    objective: float
    iterations: int
    trace: list
    circle_distance: float
    min_rho: float
    evaluations: int  # objective values computed, line-search trials too


def minimize(start: ShapeVector,
             objective: Union[str, Callable] = "kl",
             options: Optional[OptOptions] = None) -> OptResult:
    """Descent over the start's free coefficients.

    objective: "kl" (damped Newton), "bracket", or a callable on gauged
    ShapeVectors (simplex descent with a convexity penalty, whose restarts
    are all the seed drives).  Stops on objective <= target, no further
    descent, or the iteration budget.  A point becomes the best only if it
    decodes, so the result is always a valid curve.
    """
    opts = options or OptOptions()
    try:
        start.decode()
    except Infeasible as exc:
        raise NoFeasibleStart(str(exc)) from exc
    gauged_start = start.gauged()
    fun = _penalized_bracket if objective == "bracket" else objective
    if objective == "kl":
        found = _newton_kl(gauged_start, opts)
    elif callable(fun):
        found = _nelder_mead(fun, gauged_start, opts)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    x_best, j_best, iterations, trace, evaluations = found
    best_vec = gauged_start.with_coefficients(x_best)
    return OptResult(best=best_vec, objective=j_best, iterations=iterations,
                     trace=trace, circle_distance=circle_distance(best_vec),
                     min_rho=float(np.min(_grid_eval(best_vec.gauged())[1])),
                     evaluations=evaluations)


def _newton_kl(g: ShapeVector, opts: OptOptions):
    """Newton descent on J = (2 pi / N) sum ell^2 / rho, convex as the
    perspective of a square of affine maps (Boyd & Vandenberghe, 2004,
    3.2.6 and 9.5).  A step goes BOUNDARY_FRACTION of the way to rho = eps0
    at most, then halves until J falls at a point that decodes."""
    a_ell, a_rho = _kl_maps(g.K, g.pin_translation)
    x = g.coefficients()
    j = _kl_value(a_ell, a_rho, x)
    _, rho_v = _grid_eval(g, VALIDATION_GRID)
    trace, evaluations = [j], 1
    while j > opts.target and len(trace) <= opts.max_iter:
        grad, hess = _kl_derivatives(a_ell, a_rho, x)
        # least squares: no step along an unpinned translation (zero columns)
        p = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        _, rho_p = _grid_eval(replace(g.with_coefficients(p), a0=0.0),
                              VALIDATION_GRID)
        falling = rho_p < 0.0  # rho is affine: one ratio test bounds the step
        t = min(1.0, BOUNDARY_FRACTION * float(np.min(
            (rho_v[falling] - g.eps0) / -rho_p[falling], initial=math.inf)))
        for _ in range(MAX_HALVINGS):
            j_t = _kl_value(a_ell, a_rho, x + t * p)
            evaluations += 1
            if j_t < j and _feasible(g.with_coefficients(x + t * p)):
                break
            t *= 0.5
        else:
            break  # J no longer decreases
        x, j, rho_v = x + t * p, j_t, rho_v + t * rho_p
        trace.append(j)
    return x, j, len(trace) - 1, trace, evaluations


def _nelder_mead(fun: Callable, gauged_start: ShapeVector, opts: OptOptions):
    """Nelder-Mead on fun, restarted from the best point; seeded."""
    from scipy.optimize import minimize as scipy_minimize  # not at import

    def f_of_x(x):
        return fun(gauged_start.with_coefficients(x))

    def feasible(x):
        return _feasible(gauged_start.with_coefficients(x))

    rng = np.random.default_rng(opts.seed)
    x_best = gauged_start.coefficients()
    j_best = f_of_x(x_best)
    trace = [j_best]
    iterations, evaluations = 0, 1
    for attempt in range(RESTARTS + 1):
        if j_best <= opts.target or iterations >= opts.max_iter:
            break
        scale = 0.05 if attempt == 0 else max(0.02 * 0.1 ** attempt, 1e-7)
        init = np.tile(x_best, (len(x_best) + 1, 1))
        for i in range(len(x_best)):
            init[i + 1, i] += scale * (1.0 + 0.01 * rng.standard_normal())

        run_best = [j_best, x_best, 0]  # value, point, iterations

        def on_step(intermediate_result):
            # scipy passes the simplex's best vertex and the value it scored
            run_best[2] += 1
            j, xk = float(intermediate_result.fun), intermediate_result.x
            if j < run_best[0] and feasible(xk):
                run_best[0], run_best[1] = j, np.array(xk)
            trace.append(run_best[0])
            if run_best[0] <= opts.target:
                raise StopIteration  # scipy halts and returns its result

        res = scipy_minimize(
            f_of_x, x_best, method="Nelder-Mead", callback=on_step,
            options={
                "maxiter": opts.max_iter - iterations,
                "initial_simplex": init,
                "xatol": SIMPLEX_TOL,
                "fatol": 1e-16,
                "adaptive": len(x_best) > 6,
            },
        )
        evaluations += res.nfev
        # Nelder-Mead can stop inside an iteration, before a callback
        if res.fun < run_best[0] and feasible(res.x):
            run_best[0], run_best[1] = float(res.fun), res.x
        iterations += run_best[2]
        if run_best[0] < j_best:
            j_best, x_best = run_best[0], run_best[1]
        trace.append(j_best)
    return x_best, j_best, iterations, trace, evaluations
