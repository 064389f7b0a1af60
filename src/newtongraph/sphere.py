"""Points on the Riemann sphere and the chordal metric.

A point is a plain Python complex; the point at infinity is INF,
complex("inf"). point(z) is the one conversion: it turns any number, numpy
scalars included, into a Python complex, and any value with a part that is
not finite into INF. So a test for infinity is z == INF, and equality is
exact. All tolerance comparisons go through chordal_distance, the one metric
that treats infinity like any other point, and every local chart through
offset(c, x): x - c, or 1/x about infinity.

SpherePoint is the complex subclass of the fiber points that lift_point
returns. It adds only the read-only value and is_infinity.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

INF = complex("inf")

# beyond this modulus 1 + |z|^2 may overflow, so the metric goes through 1/z
_BIG = 1e150


def point(z) -> complex:
    """z as a Python complex, or INF if z has a part that is not finite."""
    z = complex(z)
    return z if cmath.isfinite(z) else INF


class SpherePoint(complex):
    """A fiber point of lift_point: a complex number, INF at infinity."""

    __slots__ = ()

    @property
    def value(self) -> complex:
        """The point as a plain complex."""
        return complex(self)

    @property
    def is_infinity(self) -> bool:
        return self == INF


def chordal_distance(a: complex, b: complex) -> float:
    """Chordal metric d(a,b) = 2|a−b| / sqrt((1+|a|²)(1+|b|²)), range [0, 2].

    d(z, ∞) = 2 / sqrt(1+|z|²). A value with a part that is not finite is
    the point at infinity.
    """
    a, b = complex(a), complex(b)
    aa, ab = abs(a), abs(b)
    if aa <= _BIG and ab <= _BIG:
        return 2.0 * abs(a - b) / ((1.0 + aa * aa) * (1.0 + ab * ab)) ** 0.5
    a, b = point(a), point(b)
    if a == INF or b == INF:
        if a == b:
            return 0.0
        az = abs(b if a == INF else a)
        if az > _BIG:
            return 2.0 / az
        return 2.0 / (1.0 + az * az) ** 0.5
    # Avoid overflow in the product of norms; route through 1/z, where the
    # finite point 0 goes to infinity.
    return chordal_distance(_inverted(a), _inverted(b))


def chordal_distances(a, b):
    """chordal_distance elementwise over broadcast arrays of finite points
    of modulus at most _BIG: its first branch, for the lockstep paths. At a
    larger or non-finite point the result is 0 or not a number."""
    with np.errstate(all="ignore"):
        norms = (1.0 + np.abs(a) ** 2) * (1.0 + np.abs(b) ** 2)
        return 2.0 * np.abs(a - b) / np.sqrt(norms)


def _inverted(z: complex) -> complex:
    if z == 0:
        return INF
    return 0j if abs(z) > _BIG else 1 / z


def offset(c: complex, x: complex) -> complex:
    """x in the chart at c, the u of a local model there: x - c, or 1/x."""
    return 1 / x if c == INF else x - c


def closest_pair(points) -> tuple[float, int, int]:
    """The least chordal distance between two of the points, with indices
    i < j of such a pair; inf for fewer than two points.

    Bit for bit min((chordal_distance(points[i], points[j]), i, j)) over
    i < j: 1 + |z|² is taken once per point, and a pair of points of modulus
    at most _BIG is measured inline by chordal_distance's own first branch.
    """
    zs = [complex(z) for z in points]
    norms = [1.0 + a * a if (a := abs(z)) <= _BIG else None for z in zs]
    n = len(zs)
    return min(((2.0 * abs(zs[i] - zs[j]) / (norms[i] * norms[j]) ** 0.5
                 if norms[i] is not None and norms[j] is not None
                 else chordal_distance(zs[i], zs[j]), i, j)
                for i in range(n) for j in range(i + 1, n)), default=(math.inf, 0, 0))
