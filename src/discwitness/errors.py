"""Exception types shared across the library."""


class DiscWitnessError(Exception):
    """Base class for all library errors."""


class MalformedSpec(DiscWitnessError):
    """Shape specification is syntactically or semantically invalid."""


class NotStrictlyConvex(DiscWitnessError):
    """Support function fails the strict-convexity margin h + h'' > EPS0."""

    def __init__(self, theta, value, eps0):
        self.theta = float(theta)
        self.value = float(value)
        self.eps0 = float(eps0)
        super().__init__(
            f"radius of curvature {self.value:.6g} <= {self.eps0:g} "
            f"at theta={self.theta:.6g}"
        )


class QuadratureNoConvergence(DiscWitnessError):
    """An integral did not converge within its node budget."""


class DiscSearchFailed(DiscWitnessError):
    """The inscribed-disc Newton search did not converge."""


class NoFeasibleStart(DiscWitnessError):
    """Optimizer start point is infeasible."""
