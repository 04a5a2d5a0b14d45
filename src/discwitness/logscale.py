"""Log-scaled complex numbers as (mantissa, log_scale) arrays, value
mantissa * exp(log_scale).

Keeps quantities like f^(n+1) representable for n in the hundreds without
overflow or underflow.  normalized puts the magnitude in log_scale and
leaves |mantissa| = 1 (or the pair exactly (0j, 0.0)); moment sweeps,
arc integrals and peak terms all come back in this form, and a ratio of
two of them is z_a / z_b * exp(l_a - l_b).
"""

from __future__ import annotations

import math

import numpy as np


def exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def normalized(z, log_scale) -> tuple:
    """(mantissa, log_scale) arrays of z exp(log_scale) with |mantissa| = 1,
    or exactly (0j, 0.0) where z is 0; broadcasts."""
    z, log_scale = np.broadcast_arrays(np.asarray(z, dtype=complex), log_scale)
    mag = np.abs(z)
    live = mag != 0.0
    shift = np.log(mag, out=np.zeros_like(mag), where=live)
    return np.where(live, z / np.exp(shift), 0j), np.where(live, log_scale + shift, 0.0)
