"""Numerical toolkit for the disc characterization of strictly convex
plane domains: moment integrals with a complex exponential weight, Laplace
leading-term asymptotics, width/curvature constraints, the inscribed-disc
argument, and shape optimization toward the disc."""

from .errors import (
    DiscSearchFailed,
    DiscWitnessError,
    MalformedSpec,
    NoFeasibleStart,
    NotStrictlyConvex,
    QuadratureNoConvergence,
)
from .geometry import (
    EllipseCurve,
    FourierCurve,
    SupportCurve,
    arclength,
    build_curve,
    perimeter,
)

__all__ = [name for name in dir() if not name.startswith("_")]
