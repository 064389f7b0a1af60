"""Polynomials, root solving, and Newton maps as rational maps on the sphere.

Coefficients are stored lowest-order first. The root solver is a simultaneous
Aberth–Ehrlich iteration with exact deflation of zero roots and stall-aware
clustering for multiplicities; companion-matrix eigenvalues are used only as an
independent oracle in the tests, never here.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeTooLow, MultipleRoot, NoConvergence
from .sphere import INF, SpherePoint, chordal_distance
from .tolerances import DEFAULT_TOL, Tolerances

_EPS = 2.220446049250313e-16


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

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(z, dtype=complex)
        for c in reversed(self.coeffs):
            acc *= z
            acc += c
        return acc

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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Polynomial(tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        ))

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

    def reversed_coeffs(self, order: int) -> tuple[complex, ...]:
        """Coefficients of w^order * self(1/w), highest power of w first.

        The lowest-first input read front to back IS that sequence, so this is
        ready to feed a Horner loop. Requires order >= degree.
        """
        if order < self.degree:
            raise ValueError("order below degree")
        return self.coeffs + (0j,) * (order + 1 - len(self.coeffs))


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
        q = np.zeros_like(z)
        for a in cr:
            q = q * z + a
        dq = np.zeros_like(z)
        for a in dr:
            dq = dq * z + a
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
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def _radius(i):
        base = 1e3 * _EPS if mhat[i] == 1 else 30 * _EPS ** (1.0 / mhat[i])
        return max(50 * corr[i], base * (1 + abs(pts[i])))

    for i in range(m):
        for j in range(i + 1, m):
            if abs(pts[i] - pts[j]) < max(_radius(i), _radius(j)):
                parent[find(i)] = find(j)

    clusters: dict[int, list[complex]] = {}
    for i in range(m):
        clusters.setdefault(find(i), []).append(pts[i])
    for members in clusters.values():
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

    # --- evaluation ---------------------------------------------------------

    def evaluate(self, z: SpherePoint | complex) -> SpherePoint:
        """Total evaluation on the sphere; exact pole hits map to infinity."""
        pt = z if isinstance(z, SpherePoint) else SpherePoint.of(z)
        if pt.is_infinity:
            return INF
        zv = pt.value
        if abs(zv) > self.tol.chart_radius:
            w = 1 / zv
            num = 0j
            for a in self.numerator.reversed_coeffs(self.degree):
                num = num * w + a
            den = 0j
            for a in self.denominator.reversed_coeffs(self.degree - 1):
                den = den * w + a
            den = den * w
            if den == 0:
                return INF
            val = num / den
        else:
            den = self.denominator(zv)
            if den == 0:
                return INF
            val = self.numerator(zv) / den
        if not (cmath.isfinite(val)):
            return INF
        return SpherePoint.of(val)

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on finite points; poles/overflow come back as inf."""
        far = np.abs(z) > self.tol.chart_radius
        if not far.any():  # the usual case: no point needs the 1/z chart
            with np.errstate(divide="ignore", invalid="ignore"):
                out = self.numerator.eval_array(z) / self.denominator.eval_array(z)
        else:
            out = np.empty_like(z, dtype=complex)
            zz = z[~far]
            with np.errstate(divide="ignore", invalid="ignore"):
                out[~far] = self.numerator.eval_array(zz) / self.denominator.eval_array(zz)
            w = 1 / z[far]
            num = np.zeros_like(w)
            for a in self.numerator.reversed_coeffs(self.degree):
                num = num * w + a
            den = np.zeros_like(w)
            for a in self.denominator.reversed_coeffs(self.degree - 1):
                den = den * w + a
            den = den * w
            with np.errstate(divide="ignore", invalid="ignore"):
                out[far] = num / den
        # NaN can only arise from 0/0 overflow artifacts; push to infinity.
        out[~np.isfinite(out)] = np.inf
        return out

    @property
    def numerator_derivative(self) -> Polynomial:
        cached = self.__dict__.get("_dnum")
        if cached is None:
            cached = self.numerator.derivative()
            object.__setattr__(self, "_dnum", cached)
        return cached

    @property
    def denominator_derivative(self) -> Polynomial:
        cached = self.__dict__.get("_dden")
        if cached is None:
            cached = self.denominator.derivative()
            object.__setattr__(self, "_dden", cached)
        return cached

    def map_derivative(self, z: complex) -> complex:
        """f'(z) at a finite non-pole point."""
        dv = self.denominator(z)
        return (
            self.numerator_derivative(z) * dv
            - self.numerator(z) * self.denominator_derivative(z)
        ) / (dv * dv)

    # --- marked-point lookups ----------------------------------------------

    def nearest_root(self, z: complex) -> tuple[int, float]:
        best, bd = -1, float("inf")
        for i, r in enumerate(self.roots):
            d = chordal_distance(z, r)
            if d < bd:
                best, bd = i, d
        return best, bd

    def nearest_pole(self, z: complex) -> tuple[int, float]:
        best, bd = -1, float("inf")
        for i, (q, _) in enumerate(self.poles):
            d = chordal_distance(z, q)
            if d < bd:
                best, bd = i, d
        return best, bd

    def local_degree(self, z: SpherePoint | complex) -> int:
        """Local mapping degree at z; 1 except at critical points."""
        pt = z if isinstance(z, SpherePoint) else SpherePoint.of(z)
        if pt.is_infinity:
            return 1
        for c, mult in self.critical_points:
            if chordal_distance(pt.value, c) <= self.tol.match_tol:
                return 1 + mult
        return 1


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
