"""Strictly convex plane curves represented by their support function.

A curve is described by h(theta), the signed distance from the origin to
the support line with outward normal u(theta) = (cos theta, sin theta).
The boundary point with that normal is

    r(theta) = h u + h' u',

the tangent is u', the inward normal is -u, and the radius of curvature is
rho = h + h''.  Strict convexity is the pointwise condition rho > EPS0 > 0,
one constant for every curve, validated on a dense grid at construction.
This parameterization makes the antipodal map exact (theta -> theta + pi)
and the width a two-point formula L(theta) = h(theta) + h(theta + pi).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedSpec, NotStrictlyConvex, QuadratureNoConvergence

EPS0 = 1e-3  # least radius of curvature a curve may have
VALIDATION_GRID = 4096
ARCLENGTH_NODE_BUDGET = 1 << 20  # largest FFT grid of h that arclength reads


def trig_table(theta, K: int):
    """(cos k theta, sin k theta, k) for k = 1..K at the given angles."""
    k = np.arange(1, K + 1, dtype=float)
    kt = np.multiply.outer(np.asarray(theta, dtype=float), k)
    return np.cos(kt), np.sin(kt), k


@functools.lru_cache(maxsize=8)
def periodic_trig(n: int, K: int):
    """trig_table on the periodic n-node grid of [0, 2 pi), cached per
    (n, K); callers must not mutate it."""
    return trig_table(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False), K)


def fourier_coefficients(cos, sin, deriv: int):
    """(c, s) of the deriv-th derivative of sum_k (c_k cos k theta +
    s_k sin k theta), k = 1..K, for any order deriv >= 0: the factor
    (ik)^deriv scales (c_k, s_k) by k^deriv and turns it a quarter turn,
    (c, s) -> (s, -c), per order."""
    c = np.asarray(cos, dtype=float)
    s = np.asarray(sin, dtype=float)
    if deriv:
        kd = np.arange(1, len(c) + 1, dtype=float) ** deriv
        c, s = kd * c, kd * s
        for _ in range(deriv % 4):
            c, s = s, -c
    return c, s


def fourier_sums(a0, cos, sin, trig, deriv: int):
    """d^deriv/dtheta^deriv of a0 + sum_k (c_k cos k theta + s_k sin k theta)
    at the angles of a trig_table, for any order deriv >= 0."""
    coskt, sinkt, _ = trig
    c, s = fourier_coefficients(cos, sin, deriv)
    head = coskt @ c if deriv else a0 + coskt @ c
    return head + sinkt @ s


def radius_coefficients(cos, sin):
    """(c, s) of rho = h + h'' as a series of its own for fourier_sums,
    a0 + sum_k (1 - k^2)(c_k cos k theta + s_k sin k theta): the first
    harmonic, a translation, drops out exactly, where h + h'' keeps
    rounding of size eps |c_1| from it."""
    c = np.asarray(cos, dtype=float)
    w = 1.0 - np.arange(1, len(c) + 1, dtype=float) ** 2
    return w * c, w * np.asarray(sin, dtype=float)


class SupportCurve:
    """Base class; subclasses supply jet, of which h and rho are views."""

    def jet(self, theta):
        """(h, h', rho) at the normal angles theta, rho = h + h''."""
        raise NotImplementedError

    def h(self, theta):
        return self.jet(theta)[0]

    def rho(self, theta):
        """Radius of curvature as a function of the normal angle."""
        return self.jet(theta)[2]

    def periodic_jet(self, n: int):
        """jet on the periodic n-node grid of [0, 2 pi)."""
        return self.jet(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False))



@dataclass(frozen=True)
class CircleCurve(SupportCurve):
    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= EPS0:
            raise NotStrictlyConvex(0.0, self.radius, EPS0)

    def jet(self, theta):
        theta = np.asarray(theta, dtype=float)
        cx, cy = self.center
        cos, sin = np.cos(theta), np.sin(theta)
        return (self.radius + cx * cos + cy * sin, -cx * sin + cy * cos,
                np.full_like(theta, self.radius))



@dataclass(frozen=True)
class EllipseCurve(SupportCurve):
    a: float
    b: float
    center: tuple = (0.0, 0.0)
    rotation: float = 0.0

    def __post_init__(self):  # least rho, at the normal of the longer axis
        rho = min(self.a, self.b) ** 2 / max(self.a, self.b)
        if rho <= EPS0:
            raise NotStrictlyConvex(self.rotation + 0.5 * math.pi * (self.a < self.b),
                                    rho, EPS0)

    # support function of the centered ellipse: sqrt(a^2 cos^2 + b^2 sin^2)
    def _w(self, psi):
        return (self.a * np.cos(psi)) ** 2 + (self.b * np.sin(psi)) ** 2

    def jet(self, theta):
        theta = np.asarray(theta, dtype=float)
        cx, cy = self.center
        psi = theta - self.rotation
        w = self._w(psi)
        root = np.sqrt(w)
        w1 = (self.b ** 2 - self.a ** 2) * np.sin(2.0 * psi)
        cos, sin = np.cos(theta), np.sin(theta)
        return (root + cx * cos + cy * sin, 0.5 * w1 / root - cx * sin + cy * cos,
                (self.a * self.b) ** 2 / w ** 1.5)


@dataclass(frozen=True)
class FourierCurve(SupportCurve):
    """h = a0 + sum_k (c_k cos k theta + s_k sin k theta); derivatives term-by-term."""

    a0: float
    cos: tuple = ()
    sin: tuple = ()

    def __post_init__(self):
        kmax = max(len(self.cos), len(self.sin))
        object.__setattr__(self, "cos", tuple(self.cos) + (0.0,) * (kmax - len(self.cos)))
        object.__setattr__(self, "sin", tuple(self.sin) + (0.0,) * (kmax - len(self.sin)))
        rho = self.periodic_jet(VALIDATION_GRID)[2]
        i = int(np.argmin(rho))
        if rho[i] <= EPS0:
            raise NotStrictlyConvex(i * (2.0 * math.pi / VALIDATION_GRID),
                                    rho[i], EPS0)

    @functools.cached_property
    def _coefficients(self):
        """(c, s) of h, h' and rho: fourier_sums' coefficients, derived once."""
        return [fourier_coefficients(self.cos, self.sin, 0),
                fourier_coefficients(self.cos, self.sin, 1),
                radius_coefficients(self.cos, self.sin)]

    def _jet(self, trig):
        """fourier_sums of h, h' and rho from one trig_table."""
        coskt, sinkt, _ = trig
        (c0, s0), (c1, s1), (cr, sr) = self._coefficients
        return (self.a0 + coskt @ c0 + sinkt @ s0, coskt @ c1 + sinkt @ s1,
                self.a0 + coskt @ cr + sinkt @ sr)

    def jet(self, theta):
        return self._jet(trig_table(theta, len(self.cos)))

    def periodic_jet(self, n):
        return self._jet(periodic_trig(n, len(self.cos)))

    def to_spec(self):
        return {"type": "support_fourier", "a0": self.a0,
                "cos": list(self.cos), "sin": list(self.sin)}


def _finite(v) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise MalformedSpec(f"shape parameter {x} is not finite")
    return x


def build_curve(spec: dict) -> SupportCurve:
    """Construct a validated curve from a shape-spec dictionary."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise MalformedSpec("shape spec must be a dict with a 'type' field")
    kind = spec["type"]
    try:
        if kind == "circle":
            cx, cy = (_finite(v) for v in spec.get("center", (0.0, 0.0)))
            r = _finite(spec["radius"])
            if r <= 0:
                raise MalformedSpec("circle radius must be positive")
            return CircleCurve((cx, cy), r)
        if kind == "ellipse":
            cx, cy = (_finite(v) for v in spec.get("center", (0.0, 0.0)))
            a, b = _finite(spec["a"]), _finite(spec["b"])
            if a <= 0 or b <= 0:
                raise MalformedSpec("ellipse semi-axes must be positive")
            return EllipseCurve(a, b, (cx, cy), _finite(spec.get("rotation", 0.0)))
        if kind == "support_fourier":
            return FourierCurve(_finite(spec["a0"]),
                                tuple(_finite(v) for v in spec.get("cos", ())),
                                tuple(_finite(v) for v in spec.get("sin", ())))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSpec(f"bad shape spec: {exc}") from exc
    raise MalformedSpec(f"unknown shape type {kind!r}")


def arclength(curve: SupportCurve, theta0: float, theta1):
    """Arc length from normal angle theta0 to theta1 >= theta0 (an array
    gives an array): h'(theta1) - h'(theta0) + int h, the integral of
    rho = h + h'', with int h term by term from h's spectrum (Trefethen &
    Weideman, SIAM Review 56, 2014).  h's FFT grid doubles from 64 nodes
    until |h_k| <= 1e-15 max|h| for k >= n/4 (rounding keeps a Fourier
    shape's upper spectrum near 2e-16 max|h| at every n); the modes below
    n/4 are summed by baby and giant steps, e^{ik t} = e^{igBt} e^{irt}.
    A 2 x 1 ellipse takes 256 nodes, 100 x 1 16,384, 10,000 x 10 65,536;
    an aspect ratio near 1e5 exceeds ARCLENGTH_NODE_BUDGET and raises
    QuadratureNoConvergence."""
    theta1 = np.asarray(theta1, dtype=float)
    t = np.append(float(theta0), theta1)
    if not np.all(np.isfinite(t)):
        raise ValueError("arclength bounds must be finite")
    if np.any(t[1:] < t[0]):
        raise ValueError("theta1 must be >= theta0")
    n = 64
    while True:
        h = curve.periodic_jet(n)[0]
        c = np.fft.rfft(h) / n  # h = c_0 + sum_k 2 Re(c_k e^{ik theta})
        if np.max(np.abs(c[n // 4:])) <= 1e-15 * np.max(np.abs(h)):
            break
        n *= 2
        if n > ARCLENGTH_NODE_BUDGET:
            raise QuadratureNoConvergence(
                f"spectrum of h above 1e-15 at {ARCLENGTH_NODE_BUDGET} nodes")
    K = n // 4  # modes at and above n/4 are below the floor and dropped
    b = c[:K] / (1j * np.maximum(np.arange(K), 1))  # antiderivative's periodic part
    b[0] = 0.0
    B = 1 << (K.bit_length() // 2)  # k = g B + r: exp for B baby and K/B giant steps
    baby = np.exp(1j * np.multiply.outer(t, np.arange(B)))
    giant = np.exp(1j * np.multiply.outer(t, np.arange(0, K, B)))
    periodic = np.sum(giant * (baby @ b.reshape(-1, B).T), axis=1)
    F = curve.jet(t)[1] + c[0].real * t + 2.0 * periodic.real  # h' + int h
    s = (F[1:] - F[0]).reshape(theta1.shape)
    return float(s) if s.ndim == 0 else s


def perimeter(curve: SupportCurve) -> float:
    return arclength(curve, 0.0, 2.0 * math.pi)


def width_at(curve: SupportCurve, theta) -> float:
    return curve.h(theta) + curve.h(np.asarray(theta) + math.pi)


class ChordChart:
    """Boundary as upper/lower graphs y = f(x), y = g(x) in a rotated frame.

    The frame is the global frame rotated by frame_angle about the origin;
    the origin must lie inside the curve so that f(x1) > 0 > g(x2).  In
    the rotated frame the upper arc carries normal angles (0, pi) and the
    lower arc (pi, 2pi), and the boundary point at normal angle theta is
    _xy(theta): the chart is read through the normal angle, never through
    x.  Its slope f' = -cot(theta) vanishes exactly at the normal angles
    pi/2 and 3pi/2, and f'' = -1 / (rho sin^3 theta), so the extrema are
    closed forms: x1 = -h'(pi/2), f(x1) = h(pi/2), f''(x1) = -1/rho(pi/2),
    and x2 = h'(3pi/2), g(x2) = -h(3pi/2), g''(x2) = 1/rho(3pi/2).
    """

    def __init__(self, curve: SupportCurve, frame_angle: float = 0.0):
        self.curve = curve
        self.frame_angle = float(frame_angle)
        if np.min(curve.periodic_jet(1024)[0]) <= 0.0:
            raise MalformedSpec(
                "chord chart requires the origin strictly inside the curve"
            )
        peaks = self._jet(np.array([0.5 * math.pi, 1.5 * math.pi]))
        (h_t, h_b), (h1_t, h1_b), (rho_t, rho_b) = (v.tolist() for v in peaks)
        self.x1, self.f_x1, self.f_pp_x1 = -h1_t, h_t, -1.0 / rho_t
        self.x2, self.g_x2, self.g_pp_x2 = h1_b, -h_b, 1.0 / rho_b

    def _jet(self, theta):
        """(h, h', rho) at the rotated frame's normal angles theta."""
        return self.curve.jet(np.asarray(theta, dtype=float) + self.frame_angle)

    def _xy(self, theta):
        """(x, y, rho): the boundary point and radius of curvature at the
        rotated frame's normal angles theta, from one jet."""
        theta = np.asarray(theta, dtype=float)
        h, h1, rho = self._jet(theta)
        cos, sin = np.cos(theta), np.sin(theta)
        return h * cos - h1 * sin, h * sin + h1 * cos, rho


def chord_chart(curve: SupportCurve, frame_angle: float = 0.0) -> ChordChart:
    return ChordChart(curve, frame_angle)
