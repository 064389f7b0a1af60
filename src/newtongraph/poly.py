"""Polynomials, root solving, and Newton maps as rational maps on the sphere.

Coefficients are stored lowest-order first. Every polynomial evaluation, of a
number or of an array, runs through one Horner loop, `horner`. The root solver
is a simultaneous Aberth–Ehrlich iteration with exact deflation of zero roots
and stall-aware clustering for multiplicities; companion-matrix eigenvalues are
used only as an independent oracle in the tests, never here.

The chart rule: beyond `Tolerances.chart_radius` the Newton map f = N/D of
degree d is handled in the w = 1/z chart. To evaluate f at such a z, the
numerator and denominator are w^d N(1/w) and w^d D(1/w): the lowest-first
coefficients read front to back, zero-padded to order d for N and to order
d - 1 for D, whose value is then multiplied by w once more. To solve f(x) = w
for such a w, the corrector solves D/N = 1/w instead, so a pole of f is a
regular point; that swaps N, D, N', D' to D, N, D', N' (`CHART_SWAP`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .combinatorial import KIND_INFINITY, KIND_PLAIN, KIND_POLE, KIND_ROOT, UnionFind
from .errors import DegreeTooLow, MultipleRoot, NoConvergence
from .sphere import INF, SpherePoint, chordal_distance
from .tolerances import DEFAULT_TOL, Tolerances

_EPS = 2.220446049250313e-16

# Rows N, D, N', D' become D, N, D', N' when the corrector solves D/N = 1/w.
CHART_SWAP = (1, 0, 3, 2)


def horner(coeffs, x):
    """The polynomial with the given coefficients, highest power first, at x.

    x is a number, or an array that is evaluated in place in one accumulator.
    Both start from zero and do the same operations in the same order. For
    an array of two or more points, each value depends on its own point
    alone, bit for bit. A number, or a one-element array, can differ in the
    last bit, where numpy's complex multiply rounds otherwise than Python's.
    """
    if isinstance(x, np.ndarray):
        # fill writes the zeros; np.zeros would hand a large array fresh
        # pages that fault in the first multiply (half again as many page
        # faults in a 512x512 render)
        acc = np.empty(x.shape, dtype=complex)
        acc.fill(0)
        for c in coeffs:
            acc *= x
            acc += c
        return acc
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial over C, lowest-order coefficient first.

    Trailing exact zeros are stripped so the leading coefficient of a nonzero
    polynomial is nonzero. The zero polynomial keeps a single 0 coefficient.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        c = tuple(complex(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c:
            c = (0j,)
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def from_roots(roots, leading: complex = 1.0) -> "Polynomial":
        c = [complex(leading)]
        for r in roots:
            r = complex(r)
            new = [0j] * (len(c) + 1)
            for i, a in enumerate(c):
                new[i + 1] += a
                new[i] -= r * a
            c = new
        return Polynomial(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, z):
        """The value at a number, or elementwise at an array."""
        return horner(reversed(self.coeffs), z)

    def eval_scale(self, z: complex) -> float:
        """Sum |c_i| |z|^i — the natural backward-error scale at z."""
        az = abs(z)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * az + abs(c)
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0j,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Polynomial(tuple(
            (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)
        ))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float, complex)):
            return Polynomial(tuple(c * other for c in self.coeffs))
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def shift_up(self) -> "Polynomial":
        """Multiply by z."""
        return Polynomial((0j,) + self.coeffs)


def _deflate(coeffs: list[complex], root: complex) -> list[complex]:
    """Synthetic division by (z - root); drops the remainder."""
    n = len(coeffs) - 1
    out = [0j] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    return out


def _aberth_once(c: np.ndarray, z0: np.ndarray, iters: int):
    """One Aberth–Ehrlich run on coefficients c (lowest first), returns points
    and final correction sizes."""
    n = len(c) - 1
    z = z0.copy()
    corr = np.full(n, np.inf)
    cr = c[::-1]
    dr = (c[1:] * np.arange(1, n + 1))[::-1]
    scale_abs = np.abs(c[::-1])
    for _ in range(iters):
        q = horner(cr, z)
        dq = horner(dr, z)
        # Backward-error scale of each evaluation.
        es = np.zeros(n)
        az = np.abs(z)
        for a in scale_abs:
            es = es * az + a
        small = np.abs(q) <= 8 * _EPS * es
        bad = dq == 0
        if np.any(bad):
            z[bad] += 1e-8 * (1 + np.abs(z[bad])) * (0.6 + 0.8j)
            continue
        w = q / dq
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        step = np.where(small, 0.0, step)
        z = z - step
        corr = np.abs(step)
        if np.all(small | (corr < 1e-14 * (1 + np.abs(z)))):
            break
    return z, corr


def _initial_points(c: np.ndarray) -> np.ndarray:
    n = len(c) - 1
    r0 = abs(c[0] / c[-1]) ** (1.0 / n) if c[0] != 0 else 1.0
    rmax = 1.0 + max(abs(c[i] / c[-1]) for i in range(n))
    r = min(max(r0, 1e-3), rmax)
    ang = 2 * np.pi * np.arange(n) / n + 0.376
    return r * np.exp(1j * ang) * (1 + 0.01 * np.arange(n) / max(n, 1))


def roots_of(q: Polynomial, tol: float | None = None) -> tuple[tuple[complex, int], ...]:
    """All roots of q with multiplicities, multiplicities summing to degree.

    Raises NoConvergence if the iteration cannot certify the residuals.
    """
    if q.is_zero:
        raise ValueError("zero polynomial")
    if q.degree == 0:
        return ()
    tol = DEFAULT_TOL.root_tol if tol is None else tol
    coeffs = list(q.coeffs)

    # Exact deflation of zero roots (exactly-zero low-order coefficients).
    zero_mult = 0
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    found: list[tuple[complex, int]] = []
    if zero_mult:
        found.append((0j, zero_mult))
    n = len(coeffs) - 1
    if n == 0:
        return tuple(found)
    if n == 1:
        found.append((-coeffs[0] / coeffs[1], 1))
        return tuple(sorted(found, key=lambda t: (t[0].real, t[0].imag)))

    c = np.array(coeffs, dtype=complex)
    c = c / np.max(np.abs(c))
    pts, corr = _aberth_once(c, _initial_points(c), 400)

    # Accept points with certified residuals; deflate and retry the rest once.
    def _resid_ok(z):
        qq = q(z)
        return abs(qq) <= 64 * _EPS * max(q.eval_scale(z), 1e-300)

    ok = np.array([_resid_ok(z) for z in pts])
    if not np.all(ok):
        retry_c = list(c)
        for z in pts[ok]:
            retry_c = _deflate(retry_c, z)
        rc = np.array(retry_c, dtype=complex)
        if len(rc) >= 3 and np.any(ok):
            sub, subcorr = _aberth_once(rc, _initial_points(rc), 400)
            pts = np.concatenate([pts[ok], sub])
            corr = np.concatenate([corr[ok], subcorr])
        else:
            pts2, corr2 = _aberth_once(c, _initial_points(c) * 1.7 + 0.1j, 800)
            pts, corr = pts2, corr2
        ok = np.array([_resid_ok(z) for z in pts])
        if not np.all(ok):
            raise NoConvergence(f"root residuals not certified for degree {q.degree}")

    # Multiplicity-aware clustering. Near an m-fold root the attainable accuracy
    # is ~ eps^(1/m), and L = q q'' / q'^2 tends to (m-1)/m, so estimate m per
    # point and size the cluster radius accordingly. Estimated-simple points get
    # a radius near the noise floor and never merge with true neighbors.
    dq_poly = q.derivative()
    ddq_poly = dq_poly.derivative()

    def _mult_estimate(z: complex) -> int:
        qv, dv, ddv = q(z), dq_poly(z), ddq_poly(z)
        if dv == 0:
            return q.degree
        L = (qv * ddv) / (dv * dv)
        denom = 1.0 - L.real
        if denom <= 1.0 / (2 * q.degree):
            return q.degree
        est = int(round(1.0 / denom))
        return max(1, min(q.degree, est))

    m = len(pts)
    mhat = [_mult_estimate(z) for z in pts]
    near = UnionFind(m)

    def _radius(i):
        base = 1e3 * _EPS if mhat[i] == 1 else 30 * _EPS ** (1.0 / mhat[i])
        return max(50 * corr[i], base * (1 + abs(pts[i])))

    for i in range(m):
        for j in range(i + 1, m):
            if abs(pts[i] - pts[j]) < max(_radius(i), _radius(j)):
                near.union(i, j)

    for cluster in near.classes():
        members = [pts[i] for i in cluster]
        mult = len(members)
        center = sum(members) / mult
        if mult == 1:
            # Quadratic polish against the original polynomial.
            for _ in range(3):
                d = dq_poly(center)
                if d == 0:
                    break
                center = center - q(center) / d
        else:
            # Modified Newton z <- z - mult * q/q' restores quadratic
            # convergence at an exact mult-fold root. Near the noise floor
            # q(z) is dominated by evaluation error while q'(z) ~ delta, so a
            # raw step can kick a good iterate away; keep the best residual.
            best, best_res = center, abs(q(center))
            z = center
            for _ in range(6):
                d = dq_poly(z)
                if d == 0:
                    break
                step = mult * q(z) / d
                z = z - step
                res = abs(q(z))
                if res < best_res:
                    best, best_res = z, res
                if abs(step) <= _EPS * (1 + abs(z)):
                    break
            center = best
        found.append((center, mult))

    total = sum(mult for _, mult in found)
    if total != q.degree:
        raise NoConvergence("multiplicity bookkeeping lost roots")
    return tuple(sorted(found, key=lambda t: (round(t[0].real, 12), round(t[0].imag, 12))))


class MarkedPoint(NamedTuple):
    """What a Newton map marks at a point of the sphere: its exact location
    (complex("inf") for infinity), the vertex kind a graph vertex there has,
    and the local degree of the map there."""

    value: complex
    kind: str
    local_degree: int


_INFINITY = MarkedPoint(complex("inf"), KIND_INFINITY, 1)


@dataclass(frozen=True)
class NewtonMap:
    """The rational map z - p/p' with its marked-point bookkeeping.

    numerator = z p' - p, denominator = p'. Degree equals deg p. Roots of p are
    the finite superattracting fixed points; infinity is the repelling one.
    critical_points carry branching indices (local degree minus one) and sum to
    2 deg - 2 by Riemann–Hurwitz; multiple poles are included.
    """

    p: Polynomial
    numerator: Polynomial
    denominator: Polynomial
    degree: int
    roots: tuple[complex, ...]
    poles: tuple[tuple[complex, int], ...]
    critical_points: tuple[tuple[complex, int], ...]
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)
    numerator_derivative: Polynomial = field(init=False, repr=False, compare=False)
    denominator_derivative: Polynomial = field(init=False, repr=False, compare=False)
    marked_points: tuple[MarkedPoint, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dnum, dden = self.numerator.derivative(), self.denominator.derivative()
        object.__setattr__(self, "numerator_derivative", dnum)
        object.__setattr__(self, "denominator_derivative", dden)
        # Coefficient tuples, highest power first, so that hot loops fetch
        # them once: the corrector's rows in either chart, and the numerator
        # and denominator of f in the w = 1/z chart.
        rows = tuple(p.coeffs[::-1] for p in (self.numerator, self.denominator, dnum, dden))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_swapped_rows", tuple(rows[i] for i in CHART_SWAP))
        n, d = self.numerator.coeffs, self.denominator.coeffs
        chart = (n + (0j,) * (self.degree + 1 - len(n)), d + (0j,) * (self.degree - len(d)))
        object.__setattr__(self, "_chart", chart)
        # The roots, then the poles, then the free critical points, each once.
        # make_newton_map puts a critical point that coincides with a root or
        # a pole exactly there, so branching indices are taken by value.
        index = dict(self.critical_points)
        marked = [MarkedPoint(r, KIND_ROOT, 1 + index.pop(r, 0)) for r in self.roots]
        marked += [MarkedPoint(q, KIND_POLE, 1 + index.pop(q, 0)) for q, _ in self.poles]
        marked += [MarkedPoint(c, KIND_PLAIN, 1 + m) for c, m in index.items()]
        object.__setattr__(self, "marked_points", tuple(marked))

    # --- evaluation ---------------------------------------------------------

    def corrector_rows(self, inverted: bool) -> tuple[tuple[complex, ...], ...]:
        """Coefficients, highest power first, of a, b, a', b' for a corrector
        that solves a/b = target: N, D, N', D' for f = w, or, inverted for a
        target beyond the chart radius, D, N, D', N' for 1/f = 1/w."""
        return self._swapped_rows if inverted else self._rows

    def _fraction(self, z, far: bool):
        """(num, den) with num / den = f(z), at a number or elementwise at an
        array: N and D in the plane, or, far out, N and D in the w = 1/z chart
        (see the module docstring)."""
        if not far:
            return horner(self._rows[0], z), horner(self._rows[1], z)
        w = 1 / z
        return horner(self._chart[0], w), horner(self._chart[1], w) * w

    def evaluate(self, z: SpherePoint | complex) -> SpherePoint:
        """Total evaluation on the sphere; exact pole hits map to infinity."""
        pt = z if isinstance(z, SpherePoint) else SpherePoint.of(z)
        if pt.is_infinity:
            return INF
        num, den = self._fraction(pt.value, abs(pt.value) > self.tol.chart_radius)
        if den == 0:
            return INF
        val = num / den
        if not (cmath.isfinite(val)):
            return INF
        return SpherePoint.of(val)

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on finite points; poles/overflow come back as inf."""
        far = np.abs(z) > self.tol.chart_radius
        with np.errstate(divide="ignore", invalid="ignore"):
            if not far.any():  # the usual case: no point needs the 1/z chart
                num, den = self._fraction(z, False)
                out = np.divide(num, den, out=num)  # no third large array
            else:
                out = np.empty_like(z, dtype=complex)
                for mask, chart in ((~far, False), (far, True)):
                    out[mask] = np.divide(*self._fraction(z[mask], chart))
        # NaN can only arise from 0/0 overflow artifacts; push to infinity.
        out[~np.isfinite(out)] = np.inf
        return out

    def map_derivative(self, z: complex) -> complex:
        """f'(z) at a finite non-pole point."""
        dv = self.denominator(z)
        return (
            self.numerator_derivative(z) * dv
            - self.numerator(z) * self.denominator_derivative(z)
        ) / (dv * dv)

    def leading_coefficient(self, x: complex, order: int, w0: complex) -> complex:
        """b with f(x + u) = w0 + b u^order + O(u^(order+1)), where f - w0
        vanishes to exactly that order at x: the order-th Taylor coefficient
        of N - w0 D at x over D(x)."""
        deriv = self.numerator - self.denominator * w0
        fact = 1
        for i in range(1, order + 1):
            deriv = deriv.derivative()
            fact *= i
        return deriv(x) / (fact * self.denominator(x))

    # --- marked-point lookups ----------------------------------------------

    def nearest_root(self, z: complex) -> tuple[int, float]:
        best, bd = -1, float("inf")
        for i, r in enumerate(self.roots):
            d = chordal_distance(z, r)
            if d < bd:
                best, bd = i, d
        return best, bd

    def marked_point(self, z: SpherePoint | complex) -> MarkedPoint:
        """The first of marked_points within match_tol (chordal) of z, the
        point at infinity itself, or else z as an unmarked plain point of
        local degree 1. This is the one place that decides whether a point
        is marked: fiber snapping, vertex kinds and local degrees read it."""
        pt = z if isinstance(z, SpherePoint) else SpherePoint.of(z)
        if pt.is_infinity:
            return _INFINITY
        for mark in self.marked_points:
            if chordal_distance(pt, mark.value) <= self.tol.match_tol:
                return mark
        return MarkedPoint(pt.value, KIND_PLAIN, 1)

    def local_degree(self, z: SpherePoint | complex) -> int:
        """Local mapping degree at z; 1 except at critical points."""
        return self.marked_point(z).local_degree


def make_newton_map(p: Polynomial, tol: Tolerances | None = None) -> NewtonMap:
    """Build the Newton map of p; p must have degree >= 3 and simple roots."""
    tol = tol or DEFAULT_TOL
    if p.degree < 3:
        raise DegreeTooLow(f"degree {p.degree} < 3")
    rootinfo = roots_of(p, tol.root_tol)
    if any(m > 1 for _, m in rootinfo):
        raise MultipleRoot("input polynomial has a multiple root")
    roots = tuple(r for r, _ in rootinfo)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            sep = abs(roots[i] - roots[j])
            if sep <= tol.root_tol * max(1.0, abs(roots[i]), abs(roots[j])):
                raise MultipleRoot("roots closer than the separation gate")

    dpoly = p.derivative()
    numerator = Polynomial(tuple((k - 1) * c for k, c in enumerate(p.coeffs)))
    poles = roots_of(dpoly, tol.root_tol)
    for q, _ in poles:
        for r in roots:
            if abs(q - r) <= tol.root_tol * max(1.0, abs(q)):
                raise MultipleRoot("derivative vanishes at a root")

    # Critical points of z - p/p' are the zeros of p * p'' (multiple poles
    # included, since ord(p'') = ord(p') - 1 there); branching indices add up.
    ddpoly = dpoly.derivative()
    crit: list[tuple[complex, int]] = [(r, 1) for r in roots]
    anchors = list(roots) + [q for q, _ in poles]
    for z, m in roots_of(ddpoly, tol.root_tol):
        # Snap to the canonical root/pole location when the zero coincides.
        for a in anchors:
            if abs(z - a) <= 1e-7 * (1.0 + max(abs(z), abs(a))):
                z = a
                break
        for k, (w, wm) in enumerate(crit):
            if abs(z - w) <= 1e-7 * (1.0 + max(abs(z), abs(w))):
                crit[k] = (w, wm + m)
                break
        else:
            crit.append((z, m))
    crit.sort(key=lambda t: (round(t[0].real, 12), round(t[0].imag, 12)))
    total = sum(m for _, m in crit)
    if total != 2 * p.degree - 2:
        raise NoConvergence(
            f"critical multiplicities sum to {total}, expected {2 * p.degree - 2}"
        )

    return NewtonMap(
        p=p,
        numerator=numerator,
        denominator=dpoly,
        degree=p.degree,
        roots=roots,
        poles=poles,
        critical_points=tuple(crit),
        tol=tol,
    )


@dataclass(frozen=True)
class NewtonCheckReport:
    """Outcome of verify_newton_conditions, one flag per dynamical property."""

    fixed_residuals: tuple[float, ...]
    multiplier_moduli: tuple[float, ...]
    superattracting_ok: bool
    extra_fixed_points: tuple[complex, ...]
    no_extra_fixed_ok: bool
    infinity_multiplier: complex
    infinity_repelling_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.superattracting_ok
            and self.no_extra_fixed_ok
            and self.infinity_repelling_ok
        )


def verify_newton_conditions(f: NewtonMap, tol: float = 1e-8) -> NewtonCheckReport:
    """Check the dynamical signature: every declared root is a superattracting
    fixed point, no other finite fixed points exist, and infinity repels."""
    residuals = []
    moduli = []
    for r in f.roots:
        img = f.evaluate(r)
        residuals.append(chordal_distance(img, SpherePoint.of(r)))
        moduli.append(abs(f.map_derivative(r)))
    superattracting_ok = all(d <= tol for d in residuals) and all(
        m <= tol for m in moduli
    )

    # Finite fixed points solve numerator(z) = z * denominator(z).
    fix_poly = f.numerator - f.denominator.shift_up()
    extra = []
    if not fix_poly.is_zero and fix_poly.degree >= 1:
        for z, _ in roots_of(fix_poly):
            if all(abs(z - r) > 1e-6 * (1 + abs(z)) for r in f.roots):
                extra.append(z)
    no_extra = not extra

    # Multiplier at infinity from a finite difference in the w = 1/z chart.
    h = 1e-6
    fw = f.evaluate(1 / h)
    lam = (1 / fw.value) / h if fw.finite and fw.value != 0 else 0j
    repelling = abs(lam) > 1 + 1e-3

    return NewtonCheckReport(
        fixed_residuals=tuple(residuals),
        multiplier_moduli=tuple(moduli),
        superattracting_ok=superattracting_ok,
        extra_fixed_points=tuple(extra),
        no_extra_fixed_ok=no_extra,
        infinity_multiplier=lam,
        infinity_repelling_ok=repelling,
    )
