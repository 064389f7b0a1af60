"""Polynomials, root solving, and Newton maps as rational maps on the sphere.

Coefficients are stored lowest-order first. Every polynomial evaluation, of a
number or of an array, runs through one Horner loop, `horner`. The root solver,
roots_of_rows, is a simultaneous Aberth–Ehrlich iteration (Bini–Fiorentino,
Numer. Algorithms 2000) over a batch of polynomials: those of one degree run
as rows of one array (_solve_rows), each row frozen once its own stop test
holds, and each row comes out bit for bit as it does alone; roots_of is the
one-row call. Before the iteration, zero roots are deflated exactly, and
roots the caller knows with their multiplicities (the marks over a fiber's
target) are divided out by synthetic division, so only the simple remainder
is solved. The starts (_initial_points), then residual certification,
stall-aware clustering for multiplicities and a final polish (_finish_rows),
and the sort into roots_of's order (_in_root_order) run on all rows of one
degree at once, elementwise; only a row's second Aberth run, the merge of a
cluster into one multiple root and the rows with known or zero roots take a
step alone, so a row solved whole into simple roots stays an array row
throughout. Companion-matrix eigenvalues are used only as an independent
oracle in the tests, never here.

The chart rule, which the Newton map alone decides: beyond |z| = CHART_RADIUS
the map f = N/D of degree d is handled in the w = 1/z chart. To evaluate f at
such a z, the numerator and denominator are w^d N(1/w) and w^d D(1/w): the
lowest-first coefficients read front to back, zero-padded to order d for N
and to order d - 1 for D, whose value is then multiplied by w once more. To
solve f(x) = w for such a w, the corrector solves D/N = 1/w instead, so a
pole of f is a regular point; that swaps its rows N, D, D' to D, N, D'
(`CHART_SWAP`). It needs no row for N': N = z p' - p and D = p', so N' =
z D'. No other module reads the radius or the swap: they ask NewtonMap for
values, or for a corrector's rows and target in its chart.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .combinatorial import KIND_INFINITY, KIND_PLAIN, KIND_POLE, KIND_ROOT, UnionFind
from .errors import (
    DegreeTooLow,
    MultipleRoot,
    NoConvergence,
    NonFiniteCoefficient,
    NonPlanarIncidence,
)
from .sphere import INF, chordal_distance, closest_pair, point
from .tolerances import DEFAULT_TOL, Tolerances

_EPS = 2.220446049250313e-16

# |z| beyond which f is evaluated, and f = w solved, in the w = 1/z chart;
# fixed, so that every stage keeps one chart whatever the escape radius.
CHART_RADIUS = 1e3
# Rows N, D, D' become D, N, D' when the corrector solves D/N = 1/w.
CHART_SWAP = (1, 0, 2)

# Half of Smale's (3 - sqrt 7)/2: within this over gamma of a simple root,
# each Newton step at least halves the distance to the root (BCSS ch. 8).
_CONTRACTION = (3 - math.sqrt(7)) / 4


def horner(coeffs, x):
    """The polynomial with the given coefficients, highest power first, at x.

    coeffs is any non-empty iterable. x is a number, or an array that is
    evaluated in place in one accumulator. Both start from the leading
    coefficient and do the same operations in the same order. Starting from
    zero instead would add c to 0 * x, which for finite x is c up to the sign
    of a zero part, and a zero's sign reaches nothing but the signs of zeros
    in the value. For an array of two or more points, each value depends on
    its own point alone, bit for bit. A number, or a one-element array, can
    differ in the last bit, where numpy's complex multiply rounds otherwise
    than Python's.
    """
    coeffs = iter(coeffs)
    acc = next(coeffs)
    if isinstance(x, np.ndarray):
        acc = np.full(x.shape, acc, dtype=complex)
        for c in coeffs:
            acc *= x
            acc += c
        return acc
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


def _deflate(coeffs: list[complex], root: complex) -> list[complex]:
    """Synthetic division by (z - root); drops the remainder."""
    n = len(coeffs) - 1
    out = [0j] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    return out


@np.errstate(all="ignore")
def _aberth_rows(c: np.ndarray, z0: np.ndarray, iters: int):
    """One Aberth–Ehrlich run on each row of c (coefficients lowest first),
    from the starts in the same row of z0. Returns the points and the final
    correction sizes, one row per polynomial.

    The rows iterate together, and a row freezes once its own stop test
    holds. Every operation is elementwise within a row, or a reduction
    along it, on arrays of at least two points, so a row comes out bit for
    bit as it does in any other company or alone. A row that overflows runs
    on in infinities and NaNs without a warning, and the finish fails it.
    """
    rows, n = z0.shape
    z = np.empty_like(z0)
    corr = np.full((rows, n), np.inf)
    # the live rows, and per power, highest first, its coefficient spread
    # over each row's points: same-shape operands keep numpy on its fast path
    live = np.arange(rows)
    zl, corr_l = z0.copy(), corr.copy()
    cr = np.repeat(c[:, ::-1].T[:, :, None], n, axis=2)
    dr = np.repeat((c[:, 1:] * np.arange(1, n + 1))[:, ::-1].T[:, :, None], n, axis=2)
    # q and the backward-error scale sum |c_k| |z|^k of each evaluation share
    # one Horner pass: the scale's row holds |c_k| + 0j at |z| + 0j, whose
    # real part is the float pass bit for bit. q' keeps its own pass, since
    # padding it to q's length with a leading zero can flip the sign of a zero
    table = np.empty((n + 1, 2) + cr.shape[1:], dtype=complex)
    table[:, 0], table[:, 1] = cr, np.abs(cr)
    x = np.zeros((2,) + zl.shape, dtype=complex)  # z, and |z| + 0j
    for _ in range(iters):
        x[0] = zl
        np.abs(zl, out=x[1].real)
        q, es = horner(table, x)
        dq = horner(dr, zl)
        small = np.abs(q) <= 8 * _EPS * es.real
        bad = dq == 0
        stuck = bad.any(axis=1) if bad.any() else None
        if stuck is not None:
            # a row with a zero derivative takes no step this round: its
            # points there are nudged, and its corrections stay
            zl[bad] += 1e-8 * (1 + np.abs(zl[bad])) * (0.6 + 0.8j)
            dq[stuck] = 1
        w = q / dq
        diff = zl[:, :, None] - zl[:, None, :]
        diff.reshape(len(zl), n * n)[:, :: n + 1] = np.inf  # the diagonal
        s = np.sum(1.0 / diff, axis=2)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        step = np.where(small, 0.0, step)
        if stuck is not None:
            step[stuck] = 0
        zl = zl - step
        corr_new = np.abs(step)
        settled = (small | (corr_new < 1e-14 * (1 + np.abs(zl)))).all(axis=1)
        if stuck is None:
            corr_l = corr_new
        else:
            corr_l = np.where(stuck[:, None], corr_l, corr_new)
            settled &= ~stuck
        if settled.any():
            z[live[settled]], corr[live[settled]] = zl[settled], corr_l[settled]
            keep = ~settled
            live, zl, corr_l = live[keep], zl[keep], corr_l[keep]
            table, dr, x = table[:, :, keep], dr[:, keep], x[:, keep]
            if live.size == 0:
                break
    z[live], corr[live] = zl, corr_l
    return z, corr


@cache
def _start_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit points at angles 2 pi k / n + 0.376, and the factors
    1 + k / (100 n), for k < n: Aberth's starts before their radius."""
    ang = 2 * np.pi * np.arange(n) / n + 0.376
    return np.exp(1j * ang), 1 + 0.01 * np.arange(n) / max(n, 1)


def _initial_points(c: np.ndarray) -> np.ndarray:
    """Aberth's starts for each row of c (coefficients lowest first, the
    last nonzero), or for c alone if it is one row: the points of
    _start_circle times the radius |c_0 / c_n|^(1/n), or 1 if c_0 = 0,
    clamped to [1e-3, 1 + max |c_k / c_n|]. A modulus is taken by hypot and
    the root by a Python power, as for a number: numpy's array abs and power
    may round otherwise in the last bit, and a row's starts stay those that
    one row alone got from numpy scalars."""
    rows = c.reshape(-1, c.shape[-1])
    n = rows.shape[1] - 1
    ratio = rows[:, :n] / rows[:, n:]
    size = np.hypot(ratio.real, ratio.imag)
    root = np.array([x ** (1.0 / n) for x in size[:, 0].tolist()])
    r = np.where(rows[:, 0] != 0, root, 1.0)
    r = np.minimum(np.maximum(r, 1e-3), 1.0 + size.max(axis=1))
    circle, spread = _start_circle(n)
    return (r[:, None] * circle * spread).reshape(c.shape[:-1] + (n,))


def _root_order(root: tuple[complex, int]) -> tuple[float, float]:
    return round(root[0].real, 12), round(root[0].imag, 12)


def _in_root_order(z: np.ndarray) -> np.ndarray:
    """Each row of z in the order of _root_order: by real part, as rounding
    to 12 places keeps it apart; a row where two real parts lie within
    1e-11 (1 + |x|) is sorted by _root_order itself, from its own order."""
    out = z[np.arange(len(z))[:, None], np.argsort(z.real, axis=1, kind="stable")]
    re = out.real
    tied = (re[:, 1:] - re[:, :-1] <= 1e-11 * (1 + np.abs(re[:, 1:]))).any(axis=1)
    for k in np.flatnonzero(tied).tolist():
        out[k] = sorted(z[k].tolist(), key=lambda x: _root_order((x, 1)))
    return out


def roots_of(q: Polynomial) -> tuple[tuple[complex, int], ...]:
    """All roots of q with multiplicities, multiplicities summing to degree:
    the one-row call of roots_of_rows.

    Raises NoConvergence if the iteration cannot certify the residuals.
    """
    return roots_of_rows([q])[0]


def roots_of_rows(
    polys: Sequence[Polynomial] | np.ndarray,
    known: Sequence[Sequence[tuple[complex, int]]] | None = None,
    names: Sequence[str | None] | None = None,
) -> list[tuple[tuple[complex, int], ...] | np.ndarray | None]:
    """roots_of of every polynomial in polys, solved together by _solve_rows
    per degree; each row gets bit for bit what it gets alone.

    polys holds Polynomials, or is a 2-D array whose rows are the
    coefficients, lowest first, of polynomials of one degree (a nonzero last
    column). known[i], if given, lists roots r of polys[i] with exact
    multiplicities m: each (z - r)^m is divided out by synthetic division,
    only the quotient is solved, and each (r, m) is added back. names[i], if
    given, says in an error which polynomial failed. A row named None is
    optional: it comes out as the array of its roots, in roots_of's order,
    when they are all simple, and None when it has a multiple root or
    cannot be certified. The rows are reported in order, so the first
    required row that cannot be certified raises NoConvergence.
    """
    if isinstance(polys, np.ndarray):
        groups = [(list(range(len(polys))), polys)] if len(polys) else []
    else:
        by_degree: dict[int, list[int]] = {}
        for i, q in enumerate(polys):
            if q.is_zero:
                raise ValueError("zero polynomial")
            by_degree.setdefault(q.degree, []).append(i)
        groups = [(members, [polys[i].coeffs for i in members]) for members in by_degree.values()]
    out: list = [None] * len(polys)
    failed: dict[int, NoConvergence] = {}
    for members, q in groups:
        labels = ([names[i] for i in members] if names is not None
                  else [f"degree {len(q[0]) - 1}"] * len(members))
        divide = {k: known[i] for k, i in enumerate(members) if known[i]} if known else {}
        points, clean, other = _solve_rows(q, divide, labels)
        values = points.tolist() if points is not None else None
        for k, (i, label) in enumerate(zip(members, labels)):
            if clean[k]:
                out[i] = tuple([(z, 1) for z in values[k]]) if label is not None else points[k]
                continue
            roots = other[k]
            if isinstance(roots, NoConvergence):
                if label is not None:
                    failed[i] = roots
            elif label is not None:
                out[i] = roots
            elif all(m == 1 for _, m in roots):
                out[i] = np.array([z for z, _ in roots])
    if failed:
        raise failed[min(failed)]
    return out


def _deflated(
    coeffs: list[complex], known: Sequence[tuple[complex, int]]
) -> tuple[list[tuple[complex, int]], list[complex]]:
    """(roots, rest) of one coefficient row, lowest first: the known roots
    with their multiplicities, divided out by synthetic division, then the
    exactly zero low coefficients as a root at 0, and a linear rest solved
    directly; rest is what is left, solved only if its degree is 2 or more."""
    roots = []
    for r, m in known:
        for _ in range(m):
            coeffs = _deflate(coeffs, r)
        roots.append((complex(r), m))
    zero_mult = 0
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    if zero_mult:
        roots.append((0j, zero_mult))
    if len(coeffs) == 2:  # linear: solved directly
        roots.append((complex(-coeffs[0] / coeffs[1]), 1))
    return roots, coeffs


def _solve_rows(
    q: np.ndarray | list[tuple[complex, ...]],
    known: dict[int, Sequence[tuple[complex, int]]],
    labels: Sequence[str | None],
) -> tuple[np.ndarray | None, np.ndarray | list[bool], dict]:
    """The roots of each row of q, coefficient rows lowest first of one
    degree d with a nonzero last column, as an array or as tuples of Python
    complex numbers: one Aberth run and one finish (_finish_rows) per degree
    of what is left to solve.

    A row k in known has those roots, with exact multiplicities, divided
    out, and so have exactly zero low coefficients (_deflated). labels name
    the rows in errors. Returns (points, clean, other): a clean row is one
    solved whole, with no root known or at 0, whose finish gives d simple
    roots, which points holds in the order of _root_order; other holds, by
    row, every other row's roots with multiplicities, so sorted, or the
    NoConvergence that fails it. When no row is left to solve, as when every
    root is known or at 0, no array is made and points is None.
    """
    rows, d = len(q), len(q[0]) - 1
    first = q[:, 0].tolist() if isinstance(q, np.ndarray) else [c[0] for c in q]
    clean = [d > 1 and c != 0 and k not in known for k, c in enumerate(first)]
    found: dict[int, list[tuple[complex, int]]] = {}
    rests: dict[int, list[tuple[int, list[complex]]]] = {}
    for k, whole_row in enumerate(clean):
        if not whole_row:
            row = q[k].tolist() if isinstance(q, np.ndarray) else list(q[k])
            found[k], coeffs = _deflated(row, known.get(k, ()))
            if len(coeffs) > 2:
                rests.setdefault(len(coeffs) - 1, []).append((k, coeffs))
    other: dict[int, tuple[tuple[complex, int], ...] | NoConvergence] = {}
    points = None
    if any(clean) or rests:
        q, clean = np.asarray(q, dtype=complex), np.array(clean)
        whole = np.flatnonzero(clean)  # the rows solved as they are
        groups = [(whole, q[whole])] if len(whole) else []
        groups += [(np.array([k for k, _ in rest]), np.array([c for _, c in rest], dtype=complex))
                   for rest in rests.values()]
        points = np.zeros((rows, d), dtype=complex)
        for members, c in groups:
            c = c / np.max(np.abs(c), axis=1, keepdims=True)
            pts, corr = _aberth_rows(c, _initial_points(c), 400)
            roots, odd = _finish_rows(q[members], c, pts, corr, [labels[k] for k in members])
            if roots.shape[1] == d:  # the rows solved whole
                points[members] = roots
            else:
                for i, k in enumerate(members.tolist()):
                    if i not in odd:
                        found[k] += [(z, 1) for z in roots[i].tolist()]
            for i, done in odd.items():
                k = int(members[i])
                clean[k] = False
                if isinstance(done, NoConvergence):
                    other[k] = done
                else:
                    found.setdefault(k, []).extend(done)
        if len(whole):
            points[clean] = _in_root_order(points[clean])
    for k, roots in found.items():
        if k not in other:
            other[k] = (tuple(sorted(roots, key=_root_order)) if sum(m for _, m in roots) == d
                        else NoConvergence(f"multiplicity bookkeeping lost roots of {labels[k]}"))
    return points, clean, other


def _finish_rows(
    q: np.ndarray,
    c: np.ndarray,
    pts: np.ndarray,
    corr: np.ndarray,
    names: Sequence[str | None],
) -> tuple[np.ndarray, dict[int, list[tuple[complex, int]] | NoConvergence]]:
    """The roots of each row of q (coefficient rows of one degree, lowest
    first), from the points pts of an Aberth run on the same row of c (q
    with roots divided out, normalised): (roots, odd). roots holds each
    row's points polished; they are its roots, each simple, unless odd
    holds the row: the roots with multiplicities of a row with a cluster,
    or the NoConvergence that fails the row, naming it by names.

    All rows are judged at once (_row_verdicts). A row with an uncertified
    point, and none whose residual or scale is not finite, is retried: such
    a point is polished on q (_polished) and kept where it then certifies
    and its nearest start is its own, and a row still uncertified reruns
    alone (_rerun) and is judged again. A lone point takes its polish, and
    an m-point cluster one m-fold root (_merged). Every operation on a row
    that needs neither is elementwise on arrays of at least two points, so
    it comes out bit for bit as it does in any other company or alone.
    """
    table = _derivatives(q)
    pts, corr = pts.copy(), corr.copy()
    verdicts = _row_verdicts(table, pts, corr)
    certified, blown = verdicts[:2]
    retry = np.flatnonzero(~certified.all(axis=1) & ~blown.any(axis=1))
    if retry.size:
        starts = pts[retry]
        z = _polished(table[:2, retry], starts, verdicts[4][retry], verdicts[5][retry])
        with np.errstate(all="ignore"):
            nearest = np.abs(z[:, :, None] - starts[:, None, :]).argmin(axis=2)
        keep = ~certified[retry] & (nearest == np.arange(z.shape[1]))
        keep &= _row_verdicts(table[:, retry], z, corr[retry])[0]
        pts[retry] = np.where(keep, z, starts)
        for k, ok in zip(retry.tolist(), keep | certified[retry]):
            if not ok.all():
                pts[k], corr[k] = _rerun(c[k], pts[k], corr[k], ok)
        for v, judged in zip(verdicts, _row_verdicts(table[:, retry], pts[retry], corr[retry])):
            v[retry] = judged
    certified, blown, mult, near, qv, dv = verdicts
    polished = _polished(table[:2], pts, qv, dv)
    odd: dict[int, list[tuple[complex, int]] | NoConvergence] = {}
    judged = blown.any(axis=1) | ~certified.all(axis=1) | ~mult.all(axis=1) | near.any(axis=(1, 2))
    for k in np.flatnonzero(judged).tolist():
        name = names[k]
        if blown[k].any():
            z = complex(pts[k][blown[k]][0])
            odd[k] = NoConvergence(f"residual not finite for {name} at {z}")
        elif not certified[k].all():
            odd[k] = NoConvergence(f"root residuals not certified for {name}")
        elif not mult[k].all():
            z = complex(pts[k][mult[k] == 0][0])
            odd[k] = NoConvergence(f"q q''/q'^2 not finite for {name} at {z}")
        else:
            clusters = UnionFind(len(pts[k]))
            for i, j in zip(*np.nonzero(near[k])):
                clusters.union(int(i), int(j))
            row = Polynomial(tuple(q[k].tolist()))
            roots = []
            for members in clusters.classes():
                if len(members) == 1:
                    roots.append((complex(polished[k, members[0]]), 1))
                else:
                    roots.append((_merged(row, pts[k, members].tolist()), len(members)))
            odd[k] = roots
    return polished, odd


def _rerun(
    c: np.ndarray, pts: np.ndarray, corr: np.ndarray, ok: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The points and corrections of a row (c, q with roots divided out,
    normalised) after a second Aberth run: its certified points (ok) ahead
    of the roots of c with those points divided out, a linear remainder's
    solved directly; with none certified, an 800-iteration run on c from
    other starts."""
    if not ok.any():
        z, corr = _aberth_rows(c[None], (_initial_points(c) * 1.7 + 0.1j)[None], 800)
        return z[0], corr[0]
    rest = list(c)
    for z in pts[ok]:
        rest = _deflate(rest, z)
    if len(rest) == 2:
        sub, subcorr = np.array([-rest[0] / rest[1]]), np.zeros(1)
    else:
        rc = np.array(rest, dtype=complex)
        [sub], [subcorr] = _aberth_rows(rc[None], _initial_points(rc)[None], 400)
    return np.concatenate([pts[ok], sub]), np.concatenate([corr[ok], subcorr])


def _merged(q: Polynomial, members: list[complex]) -> complex:
    """The root of q of multiplicity m that a cluster of m points
    approximates: modified Newton z <- z - m q/q' from their mean, which
    restores quadratic convergence at an exact m-fold root, keeping the
    iterate of least residual. Near the noise floor q(z) is dominated by
    evaluation error while q'(z) ~ delta, so a raw step can kick a good
    iterate away."""
    mult = len(members)
    dq = q.derivative()
    z = best = sum(members) / mult
    best_res = abs(q(z))
    for _ in range(6):
        d = dq(z)
        if d == 0:
            break
        step = mult * q(z) / d
        z = z - step
        res = abs(q(z))
        if res < best_res:
            best, best_res = z, res
        if abs(step) <= _EPS * (1 + abs(z)):
            break
    return complex(best)


def _row_values(tables: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner's rule for stacked polynomials, one per row: tables holds the
    coefficients, lowest first, shape (stack, rows, terms), and z the
    points, shape (stack, rows, points); each polynomial is evaluated at
    its own row's points."""
    return horner(tables[:, :, ::-1].transpose(2, 0, 1)[..., None], z)


def _derivatives(c: np.ndarray) -> np.ndarray:
    """The rows of c (coefficients lowest first), their first and second
    derivatives, each zero-padded at the top to c's length, and the moduli
    of c: shape (4, rows, terms). A leading zero changes only the signs of
    zero parts of a value (see horner)."""
    n = c.shape[1]
    k = np.arange(n)
    out = np.zeros((4,) + c.shape, dtype=complex)
    out[0] = c
    out[1, :, : n - 1] = c[:, 1:] * k[1:]
    out[2, :, : n - 2] = out[1, :, 1 : n - 1] * k[1 : n - 1]
    out[3] = np.abs(c)
    return out


@cache
def _cluster_bases(degree: int) -> np.ndarray:
    """The base of _row_verdicts' cluster radius by estimated multiplicity
    0..degree."""
    return np.array([0, 1e3 * _EPS] + [30 * _EPS ** (1.0 / m) for m in range(2, degree + 1)])


def _row_verdicts(
    table: np.ndarray, pts: np.ndarray, corr: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The tests of the finish on every point at once, for rows of one
    degree (table: _derivatives of the coefficients of each row's q).

    Returns, per point, whether its residual certifies, |q| <= 64 eps sum
    |c_k| |z|^k with both finite; whether it is a finite point where either
    is not (blown); and its multiplicity estimate from L = q q''/q'^2 (the
    degree where q' = 0 or 1 - Re L <= 1/(2 degree), else 1/(1 - Re L)
    rounded into 1..degree; 0 where L is not finite). Per row, the pair
    matrix near: whether two points lie closer than the larger of their
    radii, max(50 corr, base (1 + |z|)) with base 1e3 eps for an estimated
    simple point and 30 eps^(1/m) for m-fold, since near an m-fold root the
    attainable accuracy is about eps^(1/m). Then q and q' at each point, for
    the polish. q, q', q'' and the scale share one Horner pass: the scale's
    row holds |c_k| + 0j at |z| + 0j, whose real part is the float pass bit
    for bit.
    """
    degree = table.shape[2] - 1
    az = np.abs(pts)
    z = np.empty((4,) + pts.shape, dtype=complex)
    z[:3] = pts
    z[3] = az
    bases = _cluster_bases(degree)
    with np.errstate(all="ignore"):
        qv, dv, ddv, scale = _row_values(table, z)
        scale = scale.real
        # a scale past float range, and so a point that is not finite, fails
        certified = (np.abs(qv) <= 64 * _EPS * np.maximum(scale, 1e-300)) & (scale < np.inf)
        blown = np.isfinite(pts) & ~(np.isfinite(qv) & np.isfinite(scale))
        flat = dv == 0
        L = qv * ddv / (dv * dv)
        denom = 1.0 - L.real
        estimate = np.minimum(np.maximum(np.rint(1.0 / denom), 1), degree)
        mult = np.where(flat | (denom <= 1.0 / (2 * degree)), degree, estimate)
        mult = np.where(flat | np.isfinite(L), mult, 0).astype(np.int64)
        radius = np.maximum(50 * corr, bases[mult] * (1 + az))
        gap = np.abs(pts[:, :, None] - pts[:, None, :])
        reach = np.maximum(radius[:, :, None], radius[:, None, :])
    near = (gap < reach) & ~np.eye(pts.shape[1], dtype=bool)
    return certified, blown, mult, near, qv, dv


def _polished(table: np.ndarray, z: np.ndarray, qv: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Three Newton steps on each row's polynomial from each of its points,
    whose values qv and derivatives dv are given, a point stopping where the
    derivative is zero: the polish of a lone point, and of a near miss in a
    retry. table holds each row's coefficients and its derivative's, as
    _derivatives gives them."""
    stopped = np.zeros(z.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for step in range(3):
            if step:
                qv, dv = _row_values(table, np.array((z, z)))
            stopped |= dv == 0
            z = np.where(stopped, z, z - qv / dv)
    return z


class MarkedPoint(NamedTuple):
    """What a Newton map marks at a point of the sphere: its exact location
    (INF for infinity), the vertex kind a graph vertex there has, the local
    degree m of the map there, and b of its local model f(x + u) = f(x) +
    b u^m + ..., read in the 1/z chart as leading_coefficient says."""

    value: complex
    kind: str
    local_degree: int
    coefficient: complex


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
    marked_points: tuple[MarkedPoint, ...] = field(init=False, repr=False, compare=False)
    infinity: MarkedPoint = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dden = self.denominator.derivative()
        # Coefficient tuples, highest power first, so that hot loops fetch
        # them once: the corrector's rows in either chart, and the numerator
        # and denominator of f in the w = 1/z chart.
        rows = tuple(p.coeffs[::-1] for p in (self.numerator, self.denominator, dden))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_swapped_rows", tuple(rows[i] for i in CHART_SWAP))
        n, d = self.numerator.coeffs, self.denominator.coeffs
        chart = (n + (0j,) * (self.degree + 1 - len(n)), d + (0j,) * (self.degree - len(d)))
        object.__setattr__(self, "_chart", chart)
        object.__setattr__(self, "_fiber_terms", (np.array(n), np.array(d)))
        # The roots, then the poles, then the free critical points, each once,
        # and infinity apart, each with the image its b is read over.
        # make_newton_map puts a critical point that coincides with a root or
        # a pole exactly there, so branching indices are taken by value.
        index = dict(self.critical_points)
        over = [(r, KIND_ROOT, 1 + index.pop(r, 0), r) for r in self.roots]
        over += [(q, KIND_POLE, 1 + index.pop(q, 0), INF) for q, _ in self.poles]
        over += [(c, KIND_PLAIN, 1 + m, self.evaluate(c)) for c, m in index.items()]
        images = tuple((MarkedPoint(x, kind, m, self.leading_coefficient(x, m, w)), w)
                       for x, kind, m, w in over + [(INF, KIND_INFINITY, 1, INF)])
        object.__setattr__(self, "_images", images)  # (mark, its image)
        object.__setattr__(self, "marked_points", tuple(mark for mark, _ in images[:-1]))
        object.__setattr__(self, "infinity", images[-1][0])

    # --- evaluation ---------------------------------------------------------

    def corrector(self, w: complex) -> tuple[tuple[tuple[complex, ...], ...], complex, bool]:
        """(rows, target, far) for a corrector that solves a/b = target to
        find the preimages of w: the coefficients, highest power first, of
        a, b and e, which are N, D, D' with target w, or, for w beyond the
        chart radius (far), D, N, D' with target 1/w. Since N' = z D', the
        derivative of a/b at x is e (x b - a) / b^2, or e (b - x a) / b^2
        where far, so a Newton step is (a - target b) b over e (x b - a),
        or over e (b - x a)."""
        if abs(w) > CHART_RADIUS:
            return self._swapped_rows, 1 / w, True
        return self._rows, w, False

    def lane_targets(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(far, target) elementwise over an array of targets w: far where
        the corrector works in the 1/z chart, and there target 1/w, else w."""
        far = np.abs(w) > CHART_RADIUS
        with np.errstate(divide="ignore", invalid="ignore"):
            return far, np.where(far, 1 / w, w)

    def lane_rows(self, far: np.ndarray) -> np.ndarray:
        """The corrector's three rows in each lane's chart (far of
        lane_targets), laid out for one Horner pass over all three at the
        lanes' x repeated three times: shape (m, 3 * lanes), m the longest
        row, zero-padded at the top. Every operand then has one flat shape,
        numpy's fast path."""
        m = max(len(c) for c in self._rows)
        table = np.zeros((m, 3, 1), dtype=complex)
        for r, c in enumerate(self._rows):
            table[m - len(c):, r, 0] = c
        table = np.where(far, table[:, CHART_SWAP], table)
        return table.reshape(m, 3 * len(far))

    def fiber_rows(self, w: np.ndarray) -> np.ndarray:
        """The coefficients, lowest first, of numerator - w * denominator for
        each finite w of an array, one row each, in one broadcast: bit for
        bit the Polynomial arithmetic, whose complex products are unfused,
        and which subtracts 0 past the product's trailing zeros."""
        num, den = self._fiber_terms
        k = len(den)
        wr, wi = w.real[:, None], w.imag[:, None]
        prod = np.empty((len(w), k), dtype=complex)
        prod.real = den.real * wr - den.imag * wi
        prod.imag = den.real * wi + den.imag * wr
        if not prod[:, -1].all():  # w = 0, or an underflow
            trailing = np.logical_and.accumulate(prod[:, ::-1] == 0, axis=1)[:, ::-1]
            trailing[:, 0] = False  # Polynomial keeps a zero product's first coefficient
            prod[trailing] = 0
        rows = np.empty((len(w), len(num)), dtype=complex)
        rows[:, k:] = num[k:]
        np.subtract(num[:k], prod, out=rows[:, :k])
        return rows

    def _fraction(self, z, far: bool):
        """(num, den) with num / den = f(z), at a number or elementwise at an
        array: N and D in the plane, or, far out, N and D in the w = 1/z chart
        (see the module docstring)."""
        if not far:
            return horner(self._rows[0], z), horner(self._rows[1], z)
        w = 1 / z
        return horner(self._chart[0], w), horner(self._chart[1], w) * w

    def evaluate(self, z: complex) -> complex:
        """Total evaluation on the sphere; exact pole hits map to INF."""
        z = point(z)
        if z == INF:
            return INF
        num, den = self._fraction(z, abs(z) > CHART_RADIUS)
        if den == 0:
            return INF
        return point(num / den)

    def evaluate_array(self, z: np.ndarray, az: np.ndarray | None = None) -> np.ndarray:
        """Vectorized evaluation on finite points; poles/overflow come back as inf.

        az is np.abs(z), for a caller that has it at hand. Each value depends
        on its own point alone, bit for bit, whatever array the point comes in.
        """
        far = (np.abs(z) if az is None else az) > CHART_RADIUS
        with np.errstate(divide="ignore", invalid="ignore"):
            if not far.any():  # the usual case: no point needs the 1/z chart
                out = self._quotient(z, False)
            else:
                out = np.empty_like(z, dtype=complex)
                for mask, chart in ((~far, False), (far, True)):
                    out[mask] = self._quotient(z[mask], chart)
        # NaN can only arise from 0/0 overflow artifacts; push to infinity.
        out[~np.isfinite(out)] = np.inf
        return out

    def _quotient(self, z: np.ndarray, far: bool) -> np.ndarray:
        if z.size == 1:
            # numpy's in-place complex multiply rounds a one-element array
            # otherwise than longer ones, so a lone point goes as a pair
            return self._quotient(np.repeat(z, 2), far)[:1]
        num, den = self._fraction(z, far)
        return np.divide(num, den, out=num)  # no third large array

    def leading_coefficient(self, x: complex, order: int, w0: complex) -> complex:
        """b with f(x + u) = w0 + b u^order + O(u^(order+1)), where f - w0
        vanishes to exactly that order at x: the order-th Taylor coefficient
        of N - w0 D at x over D(x). Infinity is read in its w = 1/z chart:
        at a pole x over w0 = INF, 1/f(x + u) = b u^order + ..., so b is the
        order-th coefficient of D at x over N(x); at x = INF, 1/f(1/u) =
        b u + ..., with b = d/(d - 1), the multiplier of the repelling fixed
        point."""
        if x == INF:
            return self.degree / (self.degree - 1)
        if w0 == INF:
            deriv, base = self.denominator, self.numerator
        else:
            deriv, base = self.numerator - self.denominator * w0, self.denominator
        fact = 1
        for i in range(1, order + 1):
            deriv = deriv.derivative()
            fact *= i
        return deriv(x) / (fact * base(x))

    def next_coefficient(self, x: complex, order: int, w0: complex) -> complex:
        """c with f(x + u) = w0 + b u^order + c u^(order+1) + O(u^(order+2)),
        b = leading_coefficient(x, order, w0), at a finite x, read in the
        same charts: over w0 = INF, of 1/f(x + u). With f - w0 = T / B (T =
        N - w0 D and B = D, or T = D and B = N over INF), T vanishing to
        that order, c = (t_(order+1) - b B'(x)) / B(x), t_j the j-th Taylor
        coefficient of T at x: the next Taylor coefficient of T over B(x)
        less b B'(x) / B(x)."""
        base = self.numerator if w0 == INF else self.denominator
        b = self.leading_coefficient(x, order, w0)
        return self.leading_coefficient(x, order + 1, w0) - b * base.derivative()(x) / base(x)

    @cached_property
    def root_kappas(self) -> tuple[complex, ...]:
        """kappa = c / b at each root xi, in root order, for f(xi + u) = xi +
        b u^k + c u^(k+1) + ...: the curve xi + S - (kappa / k) S^2 maps
        onto itself up to O(S^(k+2)), where the straight segment xi + S is
        off by c S^(k+1) (see rays.trace_fixed_ray). Computed the first time
        a ray asks for it."""
        return tuple(
            self.next_coefficient(mark.value, mark.local_degree, mark.value) / mark.coefficient
            for mark in self.marked_points[: len(self.roots)]
        )

    @cached_property
    def exit_radius(self) -> float:
        """Chordal radius about the roots within which an orbit's basin is
        certain: from a point less than this from a root, every later point
        of its orbit, as evaluated in floating point, stays within basin_tol/4
        of that root and within a quarter of the least root separation, clear
        of the pole snap disks and where (1 + |z|^2)(1 + |r|^2) is finite for
        every root r. 0 when no radius is certain, as when basin_tol is not
        far above rounding. The argument is in the dynamics module docstring.
        """
        tol, roots, dp = self.tol, self.roots, self.denominator
        sep = min(chordal_distance(a, b) for i, a in enumerate(roots) for b in roots[i + 1 :])
        beta = min(tol.basin_tol, sep) / 4
        rr_max = max(1 + abs(r) ** 2 for r in roots)
        higher = [dp.derivative()]  # the second to the d-th derivative of p
        while len(higher) < self.degree - 1:
            higher.append(higher[-1].derivative())
        slack = 64 * self.degree * _EPS  # a generous bound on Horner's rounding
        rho = math.inf
        for r in roots:
            d1 = dp(r)
            gamma = max(
                abs(q(r) / (math.factorial(k) * d1)) ** (1 / (k - 1))
                for k, q in enumerate(higher, start=2)
            )
            ar = abs(r)
            big = math.hypot(1, ar)  # sqrt(1 + |r|^2)
            radius = min(
                _CONTRACTION / gamma,
                beta * big * big / (2 + beta * big),
                min(((abs(q - r) - tol.pole_snap * (1 + abs(q))) / 2 for q, _ in self.poles),
                    default=math.inf),
            )
            a = ar + radius
            scale = self.p.eval_scale(a) + self.numerator.eval_scale(a) + a * dp.eval_scale(a)
            noise = (4 * abs(self.p(r)) + slack * scale) / abs(d1) + slack * a
            if not (16 * noise < radius and math.isfinite((1 + a * a) * rr_max)):
                return 0.0
            t = radius / 2
            rho = min(rho, 2 * t / (big * (big + t)))
        return rho

    # --- near infinity ------------------------------------------------------

    @cached_property
    def _far_model(self) -> tuple[complex, tuple[float, ...]]:
        """(b, |xi - b| per root xi): the centroid of the roots, and how far
        each root lies from it."""
        b = sum(self.roots) / self.degree
        return b, tuple(abs(r - b) for r in self.roots)

    def far_turn(self, z: complex) -> float:
        """A bound on how far the angle of z differs from the angle at
        infinity of a fixed ray that has z as a sample, inf when none holds.

        With u = z - b and eta_i = xi_i - b, whose sum is 0, f(z) - b = (u /
        lam) (1 + uE / (d - 1)) / (1 + uE / d), lam = d / (d - 1) and uE =
        sum eta_i^2 / (u (u - eta_i)), so |uE| <= eps(r) = sum |eta_i|^2 /
        (r (r - |eta_i|)) at r = |u| > max |eta_i|. Each outward lift then
        turns u by at most delta(r) = asin(eps / (d - 1)) + asin(eps / d)
        and multiplies |u| by at least mu = lam (1 - eps / d) / (1 + eps /
        (d - 1)), so the ray beyond z turns by at most T(r) = sum_n
        delta(r mu^n), finite when mu > 1. Since eps(r mu) <= eps(r) / mu^2
        and asin(x) / x grows with x, T(r) <= delta(r) / (1 - mu^-2), the
        bound taken. asin(|b| / |z|) is the most by which the angles of u
        and z differ.
        """
        b, _ = self._far_model
        return self._far_bound(abs(z - b), abs(z))

    def _far_bound(self, r: float, az: float) -> float:
        """far_turn at |z - b| = r and |z| = az."""
        d = self.degree
        b, eta = self._far_model
        if not (r > max(eta) and az > abs(b)):
            return math.inf
        eps = sum(e * e / (r * (r - e)) for e in eta)
        mu = d / (d - 1) * (1 - eps / d) / (1 + eps / (d - 1))
        if not mu > 1:
            return math.inf
        turn = math.asin(eps / (d - 1)) + math.asin(eps / d)
        return turn / (1 - mu**-2) + math.asin(abs(b) / az)

    @cached_property
    def ray_radius(self) -> float:
        """The radius at which the fixed rays stop: the least R, up to the
        cap tol.escape_radius, at which two rules hold.

        The pole rule: a lift of a ray's closing chord from |z| >= R runs
        where |f| >= R into a pole q, and a lift of that lift runs into each
        mark c over q, where f(c + v) = q + b v^k (1 + kappa v + ...), kappa
        from next_coefficient. Each lift must end within a quarter of its
        mark's clearance, the distance to the nearest other mark, as a ray's
        fundamental segment keeps a quarter of its root's: say the first
        within near of q, and the second within reach of c.
        - At c, to first order: |f(c + v) - q| >= |b| (1 - |kappa| reach)
          reach^k on |v| = reach, and near is at most that. Where k is 2 or
          more, the lift's sheet is read from the turn of the local model,
          so |kappa| reach must also stay within 1/32 (a two-hundredth of a
          turn).
        - At q, to all orders: R is at least the most |f| reaches on the
          circle |u| = near about q, which the first lift then cannot cross.
          That most is taken over 64 (m + 1) points of the circle, m the
          pole's local degree, turned by the (m+1)-th root of beta / |beta|
          for 1/f(q + u) = beta u^m + ..., so that the points move with the
          map under z -> a z. On the maps measured the points' most fell
          short of the circle's by under 1e-4. To leading order that most
          is 1 / (|beta| near^m), which misses the higher terms: z^3 - 1
          has beta = 3 and no u^3 term, but 1/f(u) = 3u^2 / (1 + 2u^3).

        The infinity rule: far_turn at |z| = R, along the ray that turns
        most, is at most pi / (2 n) for the map's n fixed rays, a quarter of
        their mean gap at infinity. channel_diagram checks the gaps of the
        rays it traces and doubles R where they are narrower.

        Both are covariant under z -> a z, so R scales by |a| below the cap.
        """
        cap = self.tol.escape_radius
        marks = [mark.value for mark in self.marked_points]

        def reach(mark: MarkedPoint, over: complex) -> tuple[float, float]:
            """How near mark, over the point over, a lift must end, and
            |kappa| there."""
            x, _, m, coeff = mark
            near = min(abs(y - x) for y in marks if y != x) / 4
            kappa = abs(self.next_coefficient(x, m, over) / coeff)
            return (min(near, 1 / (32 * kappa)) if m > 1 and kappa else near), kappa

        radius = 0.0
        for pole in self.marked_points:
            if pole.kind != KIND_POLE:
                continue
            # how near the pole a lift must end to be within reach of the
            # pole and of every mark over it
            near, _ = reach(pole, INF)
            for mark, over in self._images:
                if mark.kind == KIND_PLAIN and chordal_distance(over, pole.value) <= self.tol.match_tol:
                    v, kappa = reach(mark, over)
                    near = min(near, abs(mark.coefficient) * (1 - kappa * v) * v**mark.local_degree)
            m = pole.local_degree
            n = 64 * (m + 1)
            turn = (pole.coefficient / abs(pole.coefficient)) ** (-1 / (m + 1))
            ring = pole.value + near * turn * np.exp(2j * np.pi * np.arange(n) / n)
            radius = max(radius, float(np.abs(self.evaluate_array(ring)).max()))
        b, eta = self._far_model
        rays = sum(mark.local_degree - 1 for mark in self.marked_points[: len(self.roots)])
        budget = math.pi / (2 * rays)
        # far_turn at |z| = R is at most _far_bound(R - |b|, R), which falls
        # as R grows: bracket its least R within budget, then bisect, in
        # units of |b| + max |eta| so that the search is scale-free
        unit = abs(b) + max(eta)

        def fits(t: float) -> bool:
            return self._far_bound(unit * t - abs(b), unit * t) <= budget

        lo, hi = 1.0, 2.0
        while not fits(hi):
            if unit * hi >= cap:
                return cap
            lo, hi = hi, 2 * hi
        for _ in range(8):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if fits(mid) else (mid, hi)
        return min(max(radius, unit * hi), cap)

    # --- marked-point lookups ----------------------------------------------

    def nearest_root(self, z: complex) -> tuple[int, float]:
        best, bd = -1, float("inf")
        for i, r in enumerate(self.roots):
            d = chordal_distance(z, r)
            if d < bd:
                best, bd = i, d
        return best, bd

    def marked_point(self, z: complex) -> MarkedPoint:
        """The first of marked_points within match_tol (chordal) of z, the
        point at infinity itself, or else z unmarked. For a bare point from
        outside; a fiber takes its marks from marks_over."""
        z = point(z)
        if z == INF:
            return self.infinity
        for mark in self.marked_points:
            if chordal_distance(z, mark.value) <= self.tol.match_tol:
                return mark
        return self.unmarked(z)

    def marks_over(self, w: complex) -> tuple[MarkedPoint, ...]:
        """The marks whose image is w (over INF, the poles and infinity), or
        for a finite w lies within match_tol (chordal) of it."""
        tol = self.tol.match_tol
        return tuple(
            mark for mark, image in self._images
            if image == w or (INF not in (image, w) and chordal_distance(image, w) <= tol)
        )

    @cached_property
    def _closest_marks(self) -> tuple[float, MarkedPoint, MarkedPoint]:
        marks = self.marked_points + (self.infinity,)
        gap, i, j = closest_pair([mark.value for mark in marks])
        return gap, marks[i], marks[j]

    def require_separated_marks(self) -> None:
        """Raise NonPlanarIncidence when two of the map's marks (roots,
        poles, free critical points and infinity) lie closer than match_tol
        (chordal), the rule each fiber keeps: marks_over would take one for
        the other, and a tower would merge their vertices. The closest pair
        is found once per map."""
        gap, a, b = self._closest_marks
        if gap < self.tol.match_tol:
            raise NonPlanarIncidence(
                f"marks {a.value} and {b.value} lie {gap:.3g} apart (chordal), "
                f"below match_tol {self.tol.match_tol:g}; the tower cannot "
                f"tell them apart"
            )

    def unmarked(self, z: complex) -> MarkedPoint:
        """The finite z unmarked: plain, of local degree 1, b = f'(z) (INF
        where the denominator vanishes)."""
        num, den, dden = (horner(row, z) for row in self._rows)
        b = dden * (z * den - num) / (den * den) if den != 0 else INF
        return MarkedPoint(z, KIND_PLAIN, 1, b)


def make_newton_map(p: Polynomial, tol: Tolerances | None = None) -> NewtonMap:
    """Build the Newton map of p; p must have degree >= 3, simple roots, and
    finite coefficients in p, p', p'' and the numerator z p' - p."""
    tol = tol or DEFAULT_TOL
    if p.degree < 3:
        raise DegreeTooLow(f"degree {p.degree} < 3")
    dpoly = p.derivative()
    ddpoly = dpoly.derivative()
    numerator = Polynomial(tuple((k - 1) * c for k, c in enumerate(p.coeffs)))
    for name, q in (("p", p), ("p'", dpoly), ("p''", ddpoly), ("z p' - p", numerator)):
        if not all(cmath.isfinite(c) for c in q.coeffs):
            raise NonFiniteCoefficient(
                f"a coefficient of {name} is not finite for degree {p.degree}"
            )
    rootinfo = roots_of(p)
    if any(m > 1 for _, m in rootinfo):
        raise MultipleRoot("input polynomial has a multiple root")
    roots = tuple(r for r, _ in rootinfo)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            sep = abs(roots[i] - roots[j])
            if sep <= tol.root_tol * max(1.0, abs(roots[i]), abs(roots[j])):
                raise MultipleRoot("roots closer than the separation gate")

    poles = roots_of(dpoly)
    for q, _ in poles:
        for r in roots:
            if abs(q - r) <= tol.root_tol * max(1.0, abs(q)):
                raise MultipleRoot("derivative vanishes at a root")

    # Critical points of z - p/p' are the zeros of p * p''; branching indices
    # add up. A pole q of multiplicity m is a zero of p'' of order exactly
    # m - 1, so (z - q)^(m - 1) is divided out and comes back at q itself.
    branching = dict.fromkeys(roots, 1)
    multiple = [(q, m - 1) for q, m in poles if m > 1]
    for z, m in roots_of_rows([ddpoly], known=[multiple])[0]:
        # Snap to the canonical root location when the zero coincides; a
        # snapped zero then merges with that root by its exact value.
        for r in roots:
            if abs(z - r) <= 1e-7 * (1.0 + max(abs(z), abs(r))):
                z = r
                break
        branching[z] = branching.get(z, 0) + m
    crit = sorted(branching.items(), key=_root_order)
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
