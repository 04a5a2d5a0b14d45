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

Two classes supply the jet (h, h', rho): EllipseCurve in closed form and
FourierCurve, the support series.  A circle of radius r and centre c is
the one-harmonic series h = r + c . u, so build_curve makes it a
FourierCurve, validated like every other series.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import MalformedSpec, NotStrictlyConvex, QuadratureNoConvergence

EPS0 = 1e-3  # least radius of curvature a curve may have
VALIDATION_GRID = 4096
CONTACT_GRID = 1024  # nodes of h that the origin check and contact search read
ARCLENGTH_NODE_BUDGET = 1 << 20  # largest FFT grid of h that arclength reads
# largest ellipse a/b: inscribed_disc errs by 1.8e-10 relative there, 2e-9 at 1e7
ELLIPSE_ASPECT_MAX = 1e6


def trig_table(theta, K: int):
    """(cos k theta, sin k theta, k) for k = 1..K at the given angles."""
    k = np.arange(1, K + 1, dtype=float)
    kt = np.multiply.outer(np.asarray(theta, dtype=float), k)
    return np.cos(kt), np.sin(kt), k


def read_only(*arrays):
    """The arrays, flagged writeable=False: tables a cache shares."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def periodic_trig(n: int, K: int):
    """trig_table on the periodic n-node grid of [0, 2 pi), cached per
    (n, K) and read-only."""
    return read_only(*trig_table(np.linspace(0.0, 2.0 * math.pi, n,
                                             endpoint=False), K))


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


def radius_coefficients(cos, sin):
    """(c, s) of rho = h + h'' as a series of its own,
    a0 + sum_k (1 - k^2)(c_k cos k theta + s_k sin k theta): the first
    harmonic, a translation, drops out exactly, where h + h'' keeps
    rounding of size eps |c_1| from it."""
    c = np.asarray(cos, dtype=float)
    w = 1.0 - np.arange(1, len(c) + 1, dtype=float) ** 2
    return w * c, w * np.asarray(sin, dtype=float)


def validation_rho(a0, cos, sin):
    """rho of the support series (a0, cos, sin) on the periodic
    VALIDATION_GRID: the one sum that decides strict convexity, for
    FourierCurve and for the optimizer's trial points alike."""
    coskt, sinkt, _ = periodic_trig(VALIDATION_GRID, len(cos))
    cr, sr = radius_coefficients(cos, sin)
    return a0 + coskt @ cr + sinkt @ sr


def require_strictly_convex(rho) -> None:
    """NotStrictlyConvex at the least of validation_rho's values rho unless
    it clears EPS0."""
    i = int(np.argmin(rho))
    if rho[i] <= EPS0:
        raise NotStrictlyConvex(i * (2.0 * math.pi / VALIDATION_GRID),
                                rho[i], EPS0)


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

    @functools.cached_property
    def contact_h(self):
        """h on the periodic CONTACT_GRID, evaluated once per curve; read-only."""
        return self.periodic_jet(CONTACT_GRID)[0]


@dataclass(frozen=True)
class EllipseCurve(SupportCurve):
    a: float
    b: float
    center: tuple = (0.0, 0.0)
    rotation: float = 0.0

    def __post_init__(self):
        ab, m = self.a * self.b, max(self.a, self.b)
        # jet's rho = (a b)^2 / w^1.5 with w <= max(a, b)^2; these cap a^2, b^2
        if math.isinf(ab * ab) or math.isinf(m * m * m):
            raise MalformedSpec(f"ellipse semi-axes {self.a:g} x {self.b:g}: "
                                "(a b)^2 or max(a, b)^3 overflows")
        if m > ELLIPSE_ASPECT_MAX * min(self.a, self.b):
            raise MalformedSpec(f"ellipse semi-axes {self.a:g} x {self.b:g}: "
                                f"aspect ratio above {ELLIPSE_ASPECT_MAX:g}")
        rho = min(self.a, self.b) ** 2 / m  # least rho, at the longer axis' normal
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
        if kmax >= VALIDATION_GRID // 2:  # would alias onto the grid's low modes
            raise MalformedSpec(f"{kmax} harmonics: support_fourier takes fewer "
                                f"than {VALIDATION_GRID // 2}")
        require_strictly_convex(validation_rho(self.a0, self.cos, self.sin))

    @functools.cached_property
    def _coefficients(self):
        """(c, s) of h, h' and rho, derived once."""
        return [fourier_coefficients(self.cos, self.sin, 0),
                fourier_coefficients(self.cos, self.sin, 1),
                radius_coefficients(self.cos, self.sin)]

    def _jet(self, trig):
        """h, h' and rho from one trig_table."""
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
    """v as a float, if it is a finite real number and not a boolean."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise MalformedSpec(f"shape parameter {v!r} is not a number")
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
            return FourierCurve(r, (cx,), (cy,))  # h = r + c . u
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
    an aspect ratio of 3e4 exceeds ARCLENGTH_NODE_BUDGET (2e4 does not)
    and raises QuadratureNoConvergence."""
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


def fitted_circle(h):
    """(a0, c): h's fitted circle a0 + c . u, of radius a0 and centre c,
    from its Fourier modes 0 and 1, for h on the periodic grid of len(h)."""
    theta = np.linspace(0.0, 2.0 * math.pi, len(h), endpoint=False)
    return float(np.mean(h)), 2.0 * np.array([np.mean(h * np.cos(theta)),
                                              np.mean(h * np.sin(theta))])


def require_origin_inside(curve: SupportCurve) -> None:
    """MalformedSpec unless h > 0 on the contact grid, so that in every
    frame the upper arc peaks above the origin and the lower arc below."""
    if np.min(curve.contact_h) <= 0.0:
        raise MalformedSpec(
            "frame peaks require the origin strictly inside the curve")


def peak_normals(phis):
    """pi/2 + phi, then 3 pi/2 + phi: the normal angles of the upper and
    lower arcs' peaks in the frames phis, the global frame rotated by phi
    about the origin; shape (2,) + np.shape(phis)."""
    phis = np.asarray(phis, dtype=float)
    return np.stack([0.5 * math.pi + phis, 1.5 * math.pi + phis])


def frame_peaks(curve: SupportCurve, phis):
    """(h, h', rho) at peak_normals(phis), from one jet.  frame_point's arcs
    have slope -cot(theta) and y'' = -1 / (rho sin^3 theta), so their
    extrema are closed forms: row 0, the upper arc's peak, is at
    (x, y) = (-h', h) with y'' = -1/rho; row 1, the lower's, at (h', -h)
    with y'' = 1/rho."""
    return curve.jet(peak_normals(phis))


def frame_point(curve: SupportCurve, frame_angle: float, theta):
    """(x, y, rho): the boundary point h u + h' u' and its radius of
    curvature at the normal angles theta of the frame rotated by
    frame_angle, in that frame's coordinates, from one jet."""
    theta = np.asarray(theta, dtype=float)
    h, h1, rho = curve.jet(theta + frame_angle)
    cos, sin = np.cos(theta), np.sin(theta)
    return h * cos - h1 * sin, h * sin + h1 * cos, rho
