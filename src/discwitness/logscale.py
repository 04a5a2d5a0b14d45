"""Log-scaled complex numbers: mantissa * exp(log_scale).

Keeps quantities like f^(n+1) representable for n in the hundreds without
overflow or underflow.  The mantissa is kept with magnitude in [1/e, e]
(or exactly zero); the exponent lives in log_scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LogComplex:
    mantissa: complex
    log_scale: float

    def normalized(self) -> "LogComplex":
        mag = abs(self.mantissa)
        if mag == 0.0:
            return LogComplex(0j, 0.0)
        shift = math.log(mag)
        return LogComplex(self.mantissa / math.exp(shift), self.log_scale + shift)

    def value(self) -> complex:
        """Plain complex value; may overflow to inf for extreme scales."""
        return self.mantissa * exp_or_inf(self.log_scale)

    def abs_log(self) -> float:
        """log of the magnitude; -inf for zero."""
        mag = abs(self.mantissa)
        if mag == 0.0:
            return -math.inf
        return math.log(mag) + self.log_scale

    def scaled(self, factor: complex) -> "LogComplex":
        return LogComplex(self.mantissa * factor, self.log_scale).normalized()

    def shifted(self, dlog: float) -> "LogComplex":
        return LogComplex(self.mantissa, self.log_scale + dlog)

    def __sub__(self, other: "LogComplex") -> "LogComplex":
        a, b = self, other
        if abs(a.mantissa) == 0.0:
            return LogComplex(-b.mantissa, b.log_scale).normalized()
        if abs(b.mantissa) == 0.0:
            return a.normalized()
        ref = max(a.log_scale, b.log_scale)
        za = a.mantissa * math.exp(a.log_scale - ref)
        zb = b.mantissa * math.exp(b.log_scale - ref)
        return LogComplex(za - zb, ref).normalized()

    def ratio(self, other: "LogComplex") -> complex:
        """self / other as a plain complex number."""
        if abs(other.mantissa) == 0.0:
            raise ZeroDivisionError("ratio with zero LogComplex")
        return (self.mantissa / other.mantissa) * math.exp(
            self.log_scale - other.log_scale
        )


def relative_gap(a: LogComplex, b: LogComplex, abs_floor_log: float = -math.inf) -> float:
    """|a - b| / max(|a|, |b|), with an absolute floor applied in log space.

    Returns 0 when both magnitudes sit below exp(abs_floor_log).
    """
    ref = max(a.abs_log(), b.abs_log())
    if ref == -math.inf or ref <= abs_floor_log:
        return 0.0
    diff = a - b
    return math.exp(diff.abs_log() - ref) if diff.abs_log() > -math.inf else 0.0
