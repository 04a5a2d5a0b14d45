#!/usr/bin/env python3
"""Drive a perturbed shape to a disc and print the convergence trace summary.

Both objectives are residual vectors, solved by damped Gauss-Newton steps in
one loop: the default kappa*L objective, convex in the support coefficients,
takes five from this start; the "bracket" objective, on the equal-height,
equal-curvature and phase residuals of each frame's two Laplace peak terms,
takes six.  Both are deterministic.

Usage: python3 scripts/optimize_to_disc.py [objective]
"""

import sys

from discwitness.characterize import kl_profile
from discwitness.geometry import FourierCurve
from discwitness.shapeopt import minimize


def main():
    objective = sys.argv[1] if len(sys.argv) > 1 else "kl"
    start = FourierCurve(1.0, (0.0, 0.0, 0.1), (0.0, 0.04))
    res = minimize(start, objective)
    print(f"objective       : {res.objective:.3e}")
    print(f"iterations      : {res.iterations}")
    print(f"circle distance : {res.circle_distance:.3e}")
    print(f"min rho         : {res.min_rho:.6f}")
    step = max(1, len(res.trace) // 12)
    for i in range(0, len(res.trace), step):
        print(f"  trace[{i:>5}] = {res.trace[i]:.6e}")
    verdict = kl_profile(res.best, 512, tol=1e-3).verdict
    print(f"final verdict   : {verdict}")
    print(f"final shape     : {res.best.to_spec()}")


if __name__ == "__main__":
    main()
