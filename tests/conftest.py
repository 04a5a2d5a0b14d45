import itertools
import math

import mpmath

import numpy as np
import pytest
from hypothesis import strategies as st

from discwitness import FourierCurve, build_curve
from discwitness.moments import moment_sweep


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


def position(curve, theta):
    """Boundary point h u + h' u' at the normal angles theta, u = (cos, sin)
    and u' = (-sin, cos), stacked on a last axis of length 2."""
    theta = np.asarray(theta, dtype=float)
    h, h1, _ = curve.jet(theta)
    return np.stack([h * np.cos(theta) - h1 * np.sin(theta),
                     h * np.sin(theta) + h1 * np.cos(theta)], axis=-1)


def scaled(curve, c):
    """The Fourier curve dilated by c about the origin: h -> c h."""
    return FourierCurve(curve.a0 * c, tuple(v * c for v in curve.cos),
                        tuple(v * c for v in curve.sin))


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


def mp_fourier_moment(spec, n, frame_angle):
    """M_n of a support_fourier shape, read in frame frame_angle, as Green's
    boundary integral int e^{ix} y^{n+1}/(n+1) rho sin(t) dt over the normal
    angle t of that frame, by mpmath at 30 digits, split at the eighth turns
    (the peak normals pi/2 and 3pi/2 among them).  Independent of the
    program's trapezoid rule, node maps and power sums."""
    with mpmath.workdps(30):
        a0, phi = mpmath.mpf(spec["a0"]), mpmath.mpf(frame_angle)
        terms = [(k, mpmath.mpf(c), mpmath.mpf(s)) for k, (c, s) in enumerate(
            itertools.zip_longest(spec.get("cos", ()), spec.get("sin", ()),
                                  fillvalue=0), start=1)]

        def integrand(t):
            th = t + phi
            h, h1, rho = a0, mpmath.mpf(0), a0
            for k, c, s in terms:
                ck, sk = mpmath.cos(k * th), mpmath.sin(k * th)
                h += c * ck + s * sk
                h1 += k * (s * ck - c * sk)
                rho += (1 - k * k) * (c * ck + s * sk)
            x = h * mpmath.cos(t) - h1 * mpmath.sin(t)
            y = h * mpmath.sin(t) + h1 * mpmath.cos(t)
            return mpmath.expj(x) * y ** (n + 1) * rho * mpmath.sin(t) / (n + 1)

        return mpmath.quad(integrand, [j * mpmath.pi / 4 for j in range(9)])


# --- (mantissa, log_scale) pairs, value mantissa * exp(log_scale) ---


def abs_log(pair):
    """log of the magnitude of a (mantissa, log_scale) pair, -inf where the
    mantissa is 0; broadcasts over arrays."""
    z, log_scale = pair
    with np.errstate(divide="ignore"):
        return np.log(np.abs(z)) + log_scale


def ratio(a, b):
    """a / b of two (mantissa, log_scale) pairs as plain complex values."""
    return a[0] / b[0] * np.exp(a[1] - b[1])


def relative_gap(a, b, abs_floor_log=-math.inf):
    """|a - b| / max(|a|, |b|) of two scalar (mantissa, log_scale) pairs, or
    0 when both magnitudes sit below exp(abs_floor_log)."""
    ref = max(abs_log(a), abs_log(b))
    if ref == -math.inf or ref <= abs_floor_log:
        return 0.0
    za, zb = (z * math.exp(ls - ref) if z else 0j for z, ls in (a, b))
    return abs(za - zb)


def one_order(curve, n, frame_angle=0.0, method="green"):
    """M_n of a one-order moment_sweep as a scalar (mantissa, log_scale)."""
    mantissa, log_scale = moment_sweep(curve, [n], frame_angle, [method])[0]
    return complex(mantissa[0]), float(log_scale[0])


def value(pair):
    """The plain complex value of a scalar (mantissa, log_scale) pair."""
    return pair[0] * math.exp(pair[1])


def worst_exact_gap(sweep, exact, b):
    """max over n of |M - M_exact| / max(|M_exact|, b^{n+1}/(n+1)), for the
    (mantissa, log_scale) arrays of a sweep over n = 0, 1, 2, ..."""
    with mpmath.workdps(30):
        worst = mpmath.mpf(0)
        for n, (z, log_scale, m) in enumerate(zip(*sweep, exact)):
            got = mpmath.mpc(complex(z)) * mpmath.exp(float(log_scale))
            floor = mpmath.mpf(b) ** (n + 1) / (n + 1)
            worst = max(worst, abs(got - m) / max(abs(m), floor))
        return float(worst)
