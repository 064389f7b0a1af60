"""Points on the Riemann sphere and the chordal metric.

A point is either a finite complex number or the point at infinity. Equality
is exact; all tolerance comparisons go through chordal_distance, which is the
one metric that treats infinity like any other point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SpherePoint:
    value: complex = 0j
    is_infinity: bool = False

    def __post_init__(self):
        if self.is_infinity:
            object.__setattr__(self, "value", 0j)
        else:
            v = complex(self.value)
            if not (cmath.isfinite(v)):
                object.__setattr__(self, "value", 0j)
                object.__setattr__(self, "is_infinity", True)
            else:
                object.__setattr__(self, "value", v)

    @staticmethod
    def of(z: complex) -> "SpherePoint":
        return SpherePoint(complex(z))

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(is_infinity=True)

    @property
    def finite(self) -> bool:
        return not self.is_infinity

    def __complex__(self) -> complex:
        """The value as a complex number; infinity becomes complex("inf")."""
        return complex(math.inf, 0.0) if self.is_infinity else self.value

    def __repr__(self):
        return "∞" if self.is_infinity else f"{self.value!r}"


INF = SpherePoint.infinity()


def chordal_distance(a: SpherePoint | complex, b: SpherePoint | complex) -> float:
    """Chordal metric d(a,b) = 2|a−b| / sqrt((1+|a|²)(1+|b|²)), range [0, 2].

    d(z, ∞) = 2 / sqrt(1+|z|²). Finite complex arguments are accepted directly.
    """
    pa = a if isinstance(a, SpherePoint) else SpherePoint.of(a)
    pb = b if isinstance(b, SpherePoint) else SpherePoint.of(b)
    if pa.is_infinity and pb.is_infinity:
        return 0.0
    if pa.is_infinity or pb.is_infinity:
        z = pb.value if pa.is_infinity else pa.value
        az = abs(z)
        if az > 1e150:
            return 2.0 / az
        return 2.0 / (1.0 + az * az) ** 0.5
    za, zb = pa.value, pb.value
    aa, ab = abs(za), abs(zb)
    if aa > 1e150 or ab > 1e150:
        # Avoid overflow in the product of norms; route through 1/z, where
        # the finite point 0 goes to infinity.
        return chordal_distance(_inverted(za, aa), _inverted(zb, ab))
    return 2.0 * abs(za - zb) / ((1.0 + aa * aa) * (1.0 + ab * ab)) ** 0.5


def _inverted(z: complex, az: float) -> SpherePoint:
    if z == 0:
        return INF
    return SpherePoint.of(0j if az > 1e150 else 1 / z)
