"""Adaptive Gauss quadrature.

The integrator is a worst-interval-first adaptive scheme with an embedded
Gauss pair (10 vs 20 nodes) for the error estimate.  Integrands are
vectorized callables and may return complex values; subdivision can be
seeded at known peak abscissas so narrow features are not missed.

It serves only geometry.arclength and, in the tests, the references for
the periodic trapezoid sums that compute every other integral.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import QuadratureNoConvergence

_X10, _W10 = np.polynomial.legendre.leggauss(10)
_X20, _W20 = np.polynomial.legendre.leggauss(20)


def _panel(func, a, b):
    """Integral estimate on [a, b] and embedded error estimate."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    lo = func(mid + half * _X10)
    hi = func(mid + half * _X20)
    i10 = half * np.sum(_W10 * lo)
    i20 = half * np.sum(_W20 * hi)
    return i20, abs(i20 - i10)


def adaptive_quad(
    func,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    seeds=(),
    max_intervals: int = 4000,
):
    """Integrate func over [a, b]; returns (value, error_estimate).

    Raises QuadratureNoConvergence when the budget is exhausted before the
    global error estimate meets max(abs_tol, rel_tol * |integral|).
    """
    if b == a:
        return 0.0 * func(np.array([a]))[0], 0.0
    cuts = sorted({a, b, *(s for s in seeds if a < s < b)})
    heap = []
    total = 0.0j
    err_sum = 0.0
    counter = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, err = _panel(func, lo, hi)
        total += val
        err_sum += err
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1
    n_intervals = len(cuts) - 1
    while err_sum > max(abs_tol, rel_tol * abs(total)):
        if n_intervals >= max_intervals or not heap:
            raise QuadratureNoConvergence(
                f"error {err_sum:.3g} > tol after {n_intervals} intervals"
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(func, lo, mid)
        v2, e2 = _panel(func, mid, hi)
        total += v1 + v2 - val
        err_sum += e1 + e2 - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1
        n_intervals += 1
    return total, err_sum
