"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with pytest -s to see them)."""

import math
import time

import mpmath
import numpy as np
import pytest

from discwitness import FourierCurve, build_curve
from discwitness.asymptotics import asymptotic_ratio
from discwitness.characterize import (
    constraint_residuals,
    identity_residuals,
    inscribed_disc,
    kl_profile,
    lemma2_witness,
    min_clearance,
    p_zero_check,
)
from discwitness.moments import moment_sweep
from discwitness.shapeopt import minimize

from conftest import (abs_log, exact_ellipse_moments, mp_fourier_moment, one_order,
                      value, worst_exact_gap)

# frozen: independent 200-node Gauss polar quadrature (= 2 pi J1(1))
DISC_M0 = 2.764919374768337


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_1_disc_characterization():
    t0 = time.time()
    ok = True
    for radius in (0.5, 1.0, 2.0):
        for center in ((0.0, 0.0), (0.3, -0.2)):
            rep = kl_profile(build_curve(
                {"type": "circle", "center": list(center), "radius": radius}),
                1000)
            ok &= rep.max_dev <= 1e-9 and rep.verdict == "disc"
    ok &= (time.time() - t0) < 1.0
    report("1 disc characterization (six circles, 1000 samples, <1s)", ok)


def test_criterion_2_non_disc_separation():
    ellipse = build_curve({"type": "ellipse", "a": 2, "b": 1})
    kl_major = float((1.0 / ellipse.rho(0.0)) *
                     (ellipse.h(0.0) + ellipse.h(math.pi)))
    ok = abs(kl_major - 8.0) <= 1e-6
    cw = build_curve({"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.05]})
    widths = cw.h(np.linspace(0, 2 * math.pi, 2048, endpoint=False))
    widths = widths + cw.h(np.linspace(0, 2 * math.pi, 2048, endpoint=False)
                           + math.pi)
    ok &= float(np.max(np.abs(widths - 2.0))) <= 1e-10
    ok &= kl_profile(cw, 1000).max_dev >= 0.5
    report("2 non-disc separation (ellipse kL=8; constant width != disc)", ok)


def test_criterion_3_moment_oracle_agreement():
    ellipse = build_curve({"type": "ellipse", "a": 2, "b": 1})
    exact = exact_ellipse_moments(2.0, 1.0, 0.0, 400)
    ok = all(worst_exact_gap(moment_sweep(ellipse, range(401), 0.0, method),
                             exact, 1.0) <= 1e-10
             for method in ("green", "area"))
    fourier = {"type": "support_fourier", "a0": 1, "cos": [0, 0.05], "sin": [0, 0, 0.03]}
    z, log_scale = one_order(build_curve(fourier), 400, 0.7)
    with mpmath.workdps(30):
        exact = mp_fourier_moment(fourier, 400, 0.7)
        ok &= abs(mpmath.mpc(z) * mpmath.exp(log_scale) - exact) <= 1e-12 * abs(exact)
    disc = build_curve({"type": "circle", "center": [0, 0], "radius": 1})
    ok &= abs(value(one_order(disc, 0)) - DISC_M0) <= 1e-6
    for n in (1, 3, 5):
        ok &= abs_log(one_order(disc, n)) <= math.log(1e-10)
    report("3 moment oracle agreement (green, area vs mpmath, n<=400; disc M0; odd-n=0)",
           ok)


def test_criterion_4_laplace_validation():
    t0 = time.time()
    lead = math.sqrt(math.pi / 20.0)
    true = lead * math.erf(math.sqrt(20.0))  # integral of e^{-20 x^2} on [-1, 1]
    ok = abs(true / lead - 1.0) <= 1e-6
    disc = build_curve({"type": "circle", "center": [0, 0], "radius": 1})
    errs = [r.ratio_f_abs_err for r in asymptotic_ratio(disc, 0.0, [50, 100, 200])]
    ok &= errs[0] > errs[1] > errs[2]
    for hi, lo in zip(errs, errs[1:]):
        ok &= 1.5 <= hi / lo <= 2.5
    ok &= (time.time() - t0) < 30.0
    report("4 Laplace validation (Gaussian 1e-6; disc arc O(1/m); <30s)", ok)


def test_criterion_5_constraint_residuals():
    ok = True
    for spec in ({"type": "circle", "center": [0, 0], "radius": 1},
                 {"type": "ellipse", "a": 2, "b": 1}):
        res = constraint_residuals(build_curve(spec), 0.0)
        ok &= max(res.height, res.curv, res.phase) <= 1e-9
        ok &= res.p == 0
    res = constraint_residuals(build_curve(
        {"type": "support_fourier", "a0": 1, "cos": [0, 0.05],
         "sin": [0, 0, 0.03]}), 0.0)
    ok &= max(res.height, res.curv, res.phase) > 1e-3
    report("5 constraint residuals (symmetric ~0, p=0; asymmetric breaks)", ok)


def test_criterion_6_differential_identities():
    shapes = {
        "circle": build_curve({"type": "circle", "center": [0, 0], "radius": 1}),
        "ellipse": build_curve({"type": "ellipse", "a": 2, "b": 1}),
        "perturbed": build_curve({"type": "support_fourier", "a0": 1,
                                  "cos": [0, 0.05], "sin": [0, 0, 0.03]}),
    }
    ok = True
    for name, curve in shapes.items():
        coarse = identity_residuals(curve, 64, 1e-4)
        ok &= coarse.max_res_gap <= 1e-5 and coarse.max_res_width <= 1e-5
        if name != "circle":  # circle residuals are identically zero
            fine = identity_residuals(curve, 64, 5e-5)
            ok &= 3 <= coarse.max_res_gap / fine.max_res_gap <= 5
            ok &= 3 <= coarse.max_res_width / fine.max_res_width <= 5
        pz = p_zero_check(curve)
        ok &= abs(pz.total_curvature - 2 * math.pi) <= 1e-8
        ok &= abs(pz.total_L_prime) <= 1e-8
    report("6 differential identities (<=1e-5 at step 1e-4; 2nd order; p=0)", ok)


def test_criterion_7_lemma2_machinery():
    ellipse = build_curve({"type": "ellipse", "a": 2, "b": 1})
    (cx, cy), r = inscribed_disc(ellipse)
    ok = abs(cx) <= 1e-6 and abs(cy) <= 1e-6 and abs(r - 1.0) <= 1e-6
    # grid-oracle cross-check on candidate centers
    best = max(min_clearance(ellipse, (px, py))
               for px in np.linspace(-0.25, 0.25, 11)
               for py in np.linspace(-0.25, 0.25, 11))
    ok &= r >= best - 1e-8
    for spec in ({"type": "circle", "center": [0, 0], "radius": 1},
                 {"type": "circle", "center": [0.3, -0.2], "radius": 0.7}):
        ok &= lemma2_witness(build_curve(spec)) is None
    w = lemma2_witness(ellipse)
    ok &= w is not None and w.L_dir > 2 * w.K_radius
    ok &= abs(w.L_dir - 4.0) <= 1e-6 and abs(2 * w.K_radius - 2.0) <= 1e-6
    report("7 Lemma-2 machinery (inscribed disc; witness L=4 > 2r=2)", ok)


def test_criterion_8_theorem_as_optimization():
    t0 = time.time()
    res = minimize(FourierCurve(1.0, (0, 0, 0.1)), "kl", max_iter=5000)
    bracket = minimize(FourierCurve(1.0, (0, 0, 0.1), (0, 0.04)), "bracket")
    elapsed = time.time() - t0
    ok = res.objective <= 1e-8
    ok &= res.circle_distance <= 1e-4
    ok &= res.iterations <= 5000
    ok &= elapsed <= 60.0
    ok &= all(a >= b for a, b in zip(res.trace, res.trace[1:]))
    ok &= bracket.circle_distance <= 1e-8 and bracket.iterations <= 10
    ok &= all(a >= b for a, b in zip(bracket.trace, bracket.trace[1:]))
    report("8 theorem as optimization (kl: J<=1e-8, circle_distance<=1e-4; "
           "bracket: circle_distance<=1e-8)", ok)
