import math

import mpmath

import numpy as np
import pytest
from hypothesis import strategies as st

from discwitness import build_curve
from discwitness.logscale import LogComplex


@pytest.fixture
def unit_disc():
    return build_curve({"type": "circle", "center": [0, 0], "radius": 1})


@pytest.fixture
def ellipse():
    return build_curve({"type": "ellipse", "a": 2, "b": 1})


@pytest.fixture
def three_lobe():
    # constant width: single odd harmonic
    return build_curve({"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.1]})


@pytest.fixture
def asymmetric():
    return build_curve({"type": "support_fourier", "a0": 1,
                        "cos": [0, 0.05], "sin": [0, 0, 0.03]})


def small_fourier_curves(max_harmonic=4, scale=0.2):
    """Strategy: strictly convex Fourier shapes (coefficients kept small
    enough that sum k^2 |coef| stays below 0.8)."""
    coef = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)

    def build(args):
        cos, sin = args
        cos = [0.0] + list(cos[1:])
        sin = [0.0] + list(sin[1:])
        k2 = np.arange(1, max_harmonic + 1) ** 2
        weight = float(k2 @ np.abs(cos) + k2 @ np.abs(sin))
        if weight > 0.8:
            shrink = 0.8 / weight
            cos = [v * shrink for v in cos]
            sin = [v * shrink for v in sin]
        return build_curve({"type": "support_fourier", "a0": 1.0,
                            "cos": cos, "sin": sin})

    lists = st.lists(coef, min_size=max_harmonic, max_size=max_harmonic)
    return st.tuples(lists, lists).map(build)


def angles():
    return st.floats(0.0, 2.0 * math.pi, allow_nan=False)


# --- closed-form ellipse moments, mpmath at 30 digits ---


def exact_ellipse_moments(a, b, cx, n_max):
    """M_n of the ellipse x^2/a^2 + y^2/b^2 <= 1 shifted to (cx, 0):
    zero for odd n, and for even n
    e^{i cx} a b^{n+1} 2/(n+1) sqrt(pi) Gamma(n/2 + 3/2) (2/a)^{n/2+1} J_{n/2+1}(a).
    """
    with mpmath.workdps(30):
        a, b, cx = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(cx)
        out = []
        for n in range(n_max + 1):
            if n % 2:
                out.append(mpmath.mpc(0))
                continue
            nu = mpmath.mpf(n) / 2 + 1
            out.append(mpmath.expj(cx) * a * b ** (n + 1) * 2 / (n + 1)
                       * mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu + mpmath.mpf(1) / 2)
                       * (2 / a) ** nu * mpmath.besselj(nu, a))
        return out


def logcomplexes(sweep):
    """The LogComplex of each order of a (mantissa, log_scale) sweep."""
    mantissa, log_scale = sweep
    return [LogComplex(z, s) for z, s in zip(mantissa.tolist(), log_scale.tolist())]


def worst_exact_gap(sweep, exact, b):
    """max over n of |M - M_exact| / max(|M_exact|, b^{n+1}/(n+1)), for the
    (mantissa, log_scale) arrays of a sweep over n = 0, 1, 2, ..."""
    with mpmath.workdps(30):
        worst = mpmath.mpf(0)
        for n, (r, m) in enumerate(zip(logcomplexes(sweep), exact)):
            got = mpmath.mpc(r.mantissa) * mpmath.exp(r.log_scale)
            floor = mpmath.mpf(b) ** (n + 1) / (n + 1)
            worst = max(worst, abs(got - m) / max(abs(m), floor))
        return float(worst)
