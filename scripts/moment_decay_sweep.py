#!/usr/bin/env python3
"""Sweep moment magnitudes over n for a shape and compare Green's
boundary-integral moment against the main-term bracket as n grows.

Usage: python3 scripts/moment_decay_sweep.py [shape.json] [n_max]
"""

import json
import sys

import numpy as np

from discwitness import build_curve
from discwitness.asymptotics import bracket_main_term
from discwitness.moments import moment_sweep

DEFAULT_SHAPE = {"type": "support_fourier", "a0": 1,
                 "cos": [0, 0.05], "sin": [0, 0, 0.03]}


def main():
    if len(sys.argv) > 1:
        with open(sys.argv[1]) as fh:
            spec = json.load(fh)
    else:
        spec = DEFAULT_SHAPE
    n_max = int(sys.argv[2]) if len(sys.argv) > 2 else 401
    curve = build_curve(spec)
    ns = np.arange(19, n_max, 40)
    z_m, ls_m = moment_sweep(curve, ns.tolist(), 0.0, ["green"])[0]
    _, _, (z_b, ls_b) = bracket_main_term(curve, 0.0, (ns + 1) // 2)
    ls_b = ls_b - np.log(ns + 1.0)  # bracket / (n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_m = np.log(np.abs(z_m)) + ls_m
        log_b = np.log(np.abs(z_b)) + ls_b
        err = np.where(log_b > -1e30,
                       np.abs(z_m / z_b * np.exp(ls_m - ls_b) - 1.0), np.nan)
    print(f"{'n':>5} {'log|M_n|':>12} {'log|bracket/(n+1)|':>20} {'ratio_err':>10}")
    for row in zip(ns.tolist(), log_m.tolist(), log_b.tolist(), err.tolist()):
        print("{:>5} {:>12.4f} {:>20.4f} {:>10.2e}".format(*row))


if __name__ == "__main__":
    main()
