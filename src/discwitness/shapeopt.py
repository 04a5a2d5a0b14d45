"""Shape optimization over support-Fourier coefficients.

Minimizing the kappa*L residual (or the main-term bracket magnitude over a
set of frames) drives strictly convex shapes to discs, which is the
numerical face of the symmetry theorem.  Scale is gauged out by
normalizing the mean width to 2 at every evaluation; translation is gauged
out by pinning the first harmonics.
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


_THETAS = np.linspace(0.0, 2.0 * math.pi, _GRID, endpoint=False)


def _grid_eval(v: ShapeVector, n: int = _GRID):
    """h, rho on the periodic n-node grid for the vector (no validation).
    These are FourierCurve's sums, so on the validation grid min rho > eps0
    iff decode() succeeds."""
    trig = periodic_trig(n, v.K)
    h = fourier_sums(v.a0, v.cos, v.sin, trig, 0)
    return h, h + fourier_sums(v.a0, v.cos, v.sin, trig, 2)


def objective_kl(v: ShapeVector) -> float:
    """Integral of (kappa L - 2)^2 ds over the gauged shape; zero iff disc."""
    g = v.gauged()
    g.decode()  # feasibility check
    return _kl_core(*_grid_eval(g))


def _kl_core(h: np.ndarray, rho: np.ndarray) -> float:
    L = h + np.roll(h, _GRID // 2)
    resid = L / rho - 2.0
    # ds = rho dtheta; trapezoid on the periodic grid is spectrally accurate
    return float(np.mean(resid * resid * rho) * 2.0 * math.pi)


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


def _penalty(rho: np.ndarray, eps0: float) -> float:
    return PENALTY_WEIGHT * max(0.0, eps0 - float(np.min(rho))) ** 2


def _penalized_kl(g: ShapeVector) -> float:
    h, rho = _grid_eval(g)
    return _kl_core(h, np.maximum(rho, 0.5 * g.eps0)) + _penalty(rho, g.eps0)


def _penalized_bracket(g: ShapeVector) -> float:
    _, rho = _grid_eval(g)
    return (_bracket_core(g, DIRECTIONS, BRACKET_M, 0.5 * g.eps0)
            + _penalty(rho, g.eps0))


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
    cx = 2.0 * float(np.mean(h * np.cos(_THETAS)))
    cy = 2.0 * float(np.mean(h * np.sin(_THETAS)))
    fit = a0f + cx * np.cos(_THETAS) + cy * np.sin(_THETAS)
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


def minimize(start: ShapeVector,
             objective: Union[str, Callable] = "kl",
             options: Optional[OptOptions] = None) -> OptResult:
    """Derivative-free simplex descent with convexity penalty.

    objective: "kl", "bracket", or a callable on gauged ShapeVectors.
    Deterministic for a given seed.  Stops on objective <= target, simplex
    collapse, or the iteration budget.  A point becomes the best only if
    it decodes, so the result is always a valid curve.
    """
    from scipy.optimize import minimize as scipy_minimize  # not at import
    opts = options or OptOptions()
    try:
        start.decode()
    except Infeasible as exc:
        raise NoFeasibleStart(str(exc)) from exc
    if objective == "kl":
        fun = _penalized_kl
    elif objective == "bracket":
        fun = _penalized_bracket
    elif callable(objective):
        fun = objective
    else:
        raise ValueError(f"unknown objective {objective!r}")

    gauged_start = start.gauged()

    def f_of_x(x):
        return fun(gauged_start.with_coefficients(x))

    def feasible(x):
        return _feasible(gauged_start.with_coefficients(x))

    rng = np.random.default_rng(opts.seed)
    x_best = gauged_start.coefficients()
    j_best = f_of_x(x_best)
    trace = [j_best]
    iterations = 0
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
        # Nelder-Mead can stop inside an iteration, before a callback
        if res.fun < run_best[0] and feasible(res.x):
            run_best[0], run_best[1] = float(res.fun), res.x
        iterations += run_best[2]
        if run_best[0] < j_best:
            j_best, x_best = run_best[0], run_best[1]
        trace.append(j_best)
    best_vec = gauged_start.with_coefficients(x_best)
    _, rho = _grid_eval(best_vec.gauged())
    return OptResult(
        best=best_vec,
        objective=j_best,
        iterations=iterations,
        trace=trace,
        circle_distance=circle_distance(best_vec),
        min_rho=float(np.min(rho)),
    )
