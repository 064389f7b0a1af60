"""Fixed internal rays and the channel diagram.

Each root is a superattracting fixed point of local degree k >= 2, so its
immediate basin carries k - 1 invariant accesses to infinity. A ray is traced
from a short fundamental segment in an invariant direction near the root,
then continued by repeated inverse lifts: the preimage of each traced
segment, taken along the branch that starts at the segment's outer endpoint,
extends the ray outward until it passes the map's ray radius, where its
chord to infinity closes it. Forward iteration is useless here (it
contracts into the root), so tracing runs against the dynamics.

The fundamental segment lies on the second-order Böttcher curve xi + S -
(kappa / k) S^2, S = s e^(i theta), where f(xi + u) = xi + a u^k + c u^(k+1)
+ ... and kappa = c / a (NewtonMap.root_kappas): f maps the curve onto
itself up to O(s^(k+2)), where a straight segment is off by |c| s^(k+1).
The curve reaches at most 0.05 from the root, so that every sample beyond
0.05 is a lift, whose image is a sample to solver accuracy; it also stays
within a quarter of the root's clearance, and |a| r0^(k-1) <= 1/4 at its
outer end |S| = r0. Each continuation step of a lift starts Newton's method
from the secant prediction of the lift's last two samples, in the target
(continue_inverse_branch).

trace_fixed_ray returns a ray as a frozen polyline, root first and inf last;
channel_diagram joins the rays of every root into a GeoGraph. The radius,
NewtonMap.ray_radius, is certified per map: there the rays' cyclic order at
infinity is read off their closing chords (NewtonMap.far_turn bounds each
chord's error, and channel_diagram checks the gaps), and the chords' lifts
end well inside the local models of the poles and of the marks over them.

nearest_edge_point reads a point against a graph's samples and chords. Its
answer is the full scan's: the least chordal distance over the samples,
infinity, the plane chords and the chords in the w = 1/z chart, the first of
equals within a group and the earlier group on a tie between groups. It
measures exactly only the blocks of consecutive samples whose certified lower
bound, less _BOUND_SLACK for rounding, is at most a distance already bounded
from above, so a block it skips holds no entry that could win or tie.
"""

from __future__ import annotations

import base64
import binascii
import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BranchJump,
    NoEscape,
    NonPlanarIncidence,
    NotARoot,
    RayCollision,
)
from .poly import MarkedPoint, NewtonMap
from .sphere import INF, offset, point
from .tolerances import DEFAULT_TOL, Tolerances

_TAU = 2 * math.pi
# Inverse lifts a fixed ray may take before it must have escaped.
MAX_RAY_LIFTS = 512
# Halvings of a target segment before a continuation's inverse branch is lost.
MAX_BISECTION_DEPTH = 24
# Samples per block of a graph's distance table (_Geometry). A query at
# |z| <= 1.5 on the z^6 - 1 top level (9,408 segments) took a median 67,
# 62, 62, 64, 67, 71 and 245 us at 8, 12, 16, 20, 24, 32 and 64 (CPU, one
# core, runs interleaved): small blocks pay in the bound pass, large ones in
# the exact pass, and from 64 on the disks grow too loose to prune.
_BLOCK = 16
# Taken off each block's chordal lower bound: far above the rounding of the
# bound and of the exact distances (a few units in 1e-16, as the chordal
# metric is at most 2), far below any gap that pruning needs.
_BOUND_SLACK = 1e-9
# Past this, a product (1 + |q|^2)(1 + |s|^2) of a chordal distance may overflow.
_OVERFLOW = 1e300


def _mod_tau(x: float) -> float:
    r = math.fmod(x, _TAU)
    return r + _TAU if r < 0 else r


def _circular_gap(a: float, b: float) -> float:
    d = abs(_mod_tau(a) - _mod_tau(b))
    return min(d, _TAU - d)


def frozen_polyline(points) -> np.ndarray:
    """A polyline as a read-only 1-d complex array; inf marks a vertex end at
    infinity, every other sample is finite."""
    if (
        isinstance(points, np.ndarray)
        and points.dtype == complex
        and points.ndim == 1
        and not points.flags.writeable
    ):
        return points
    pts = np.array(points, dtype=complex)
    if pts.ndim != 1:
        raise ValueError("a polyline is a 1-d sequence of complex samples")
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class BottcherLocal:
    """Local model f(xi + w) = xi + a w^k + c w^(k+1) + O(w^(k+2)) at a root:
    the root's mark (xi, its local degree k and a), the k-1 invariant
    directions, and kappa = c / a."""

    mark: MarkedPoint
    fixed_directions: tuple[float, ...]  # angles in [0, 2pi), sorted
    kappa: complex


def bottcher_local(f: NewtonMap, root_index: int) -> BottcherLocal:
    """The root's local model: its mark, the k-1 invariant ray directions and
    the map's kappa there."""
    if not 0 <= root_index < len(f.roots):
        raise NotARoot(f"no root with index {root_index}")
    mark = f.marked_points[root_index]  # the roots' marks come first
    k = mark.local_degree
    if k < 2:
        raise NotARoot(f"point {mark.value} is not superattracting")
    dirs = sorted(
        _mod_tau((-cmath.phase(mark.coefficient) + _TAU * j) / (k - 1))
        for j in range(k - 1)
    )
    return BottcherLocal(mark, tuple(dirs), f.root_kappas[root_index])


# --- the corrector's gates, shared by the scalar solve and the lockstep lift --
# Each takes Python complex numbers or numpy arrays alike.


def converged(step, x, tol: Tolerances):
    """A Newton step below lift_tol, relative to 1 + |x|, ends the iteration."""
    return abs(step) <= tol.lift_tol * (1 + abs(x))


def residual_ok(res, target, tol: Tolerances):
    """The post-step residual |g| in the working chart is small; the scale
    matches the chordal metric since |g| ~ chordal(f(x), w) (1 + |target|^2)
    / 2."""
    return res <= 1e3 * tol.lift_tol * (1 + abs(target) ** 2)


def on_branch(x, x0):
    """A continuation step that moves farther than 0.5 (1 + |x0|) has jumped
    to another inverse branch."""
    return abs(x - x0) <= 0.5 * (1 + abs(x0))


def solve_preimage_near(f: NewtonMap, w: complex, x0: complex) -> complex | None:
    """One preimage of w under f near x0, or None if the iteration strays.

    Newton's method on a/b = target with the rows and target of
    f.corrector(w): f = w, or 1/f = 1/w in the map's 1/z chart, where a pole
    of f is a regular point of 1/f. Its step is (a - target b) b over e (x b
    - a), or over e (b - x a) in the 1/z chart, from the values of the three
    rows a, b, e at x, as in the lockstep lift (pullback._newton_round). The
    rows are evaluated by Horner loops written out here, each the operations
    of horner in its order, so that a step makes no call per row.
    """
    tol = f.tol
    (a, b, e), target, far = f.corrector(w)
    a0, b0, e0 = a[0], b[0], e[0]
    a, b, e = a[1:], b[1:], e[1:]
    x = x0
    for _ in range(50):
        av, bv = a0, b0
        for c in a:
            av = av * x + c
        for c in b:
            bv = bv * x + c
        if bv == 0:
            x += 1e-12 * (1 + abs(x))
            continue
        ev = e0
        for c in e:
            ev = ev * x + c
        slope = ev * (bv - x * av if far else x * bv - av)
        if slope == 0:
            x += 1e-12 * (1 + abs(x))
            continue
        step = (av - target * bv) * bv / slope
        x = x - step
        if converged(step, x, tol):
            break
    else:
        return None
    av, bv = a0, b0
    for c in a:
        av = av * x + c
    for c in b:
        bv = bv * x + c
    res = abs(av / bv - target) if bv != 0 else math.inf
    if not residual_ok(res, target, tol):
        return None
    return x


def continue_inverse_branch(
    f: NewtonMap,
    w_from: complex,
    w_to: complex,
    x0: complex,
    depth: int = 0,
    start: complex | None = None,
) -> complex:
    """Continue the branch of f^{-1} from x0 (a preimage of w_from) to w_to.

    The first solve starts at start, a predicted preimage of w_to, by default
    x0; on_branch and the bisection measure from x0 all the same."""
    x = solve_preimage_near(f, w_to, x0 if start is None else start)
    if x is not None and on_branch(x, x0):
        return x
    if depth >= MAX_BISECTION_DEPTH:
        raise BranchJump(
            f"inverse branch lost between targets {w_from} and {w_to}"
        )
    mid = (w_from + w_to) / 2
    # depth by keyword: perfbench's bisection counter reads it from kwargs
    xm = continue_inverse_branch(f, w_from, mid, x0, depth=depth + 1)
    return continue_inverse_branch(f, mid, w_to, xm, depth=depth + 1)


def _thinned(seg: list[complex], center: complex, ratio: float) -> list[complex]:
    """Greedy thinning in log-polar distance about center.

    An interior sample b is dropped when the last kept sample a and the
    sample c after b satisfy |log((c - center) / (a - center))| <=
    log(ratio): the real part of that logarithm is the radial ratio, the
    imaginary part the turn. Both ends are kept.
    """
    limit = math.log(ratio)
    kept = [seg[0]]
    for j in range(1, len(seg) - 1):
        if abs(cmath.log((seg[j + 1] - center) / (kept[-1] - center))) > limit:
            kept.append(seg[j])
    kept.append(seg[-1])
    return kept


def trace_fixed_ray(
    f: NewtonMap, local: BottcherLocal, direction_index: int, radius: float | None = None
) -> np.ndarray:
    """Trace one invariant ray from the root out to infinity.

    Returns the ray as a frozen polyline: the root first, inf last, and in
    between the samples up to the first one at |z| >= radius, by default
    f.ray_radius. Its first chord leaves the root in the fixed direction,
    turned by about |kappa| |S| / k at its first sample, and its last
    chord, drawn in the w = 1/z chart, gives the ray's angle at infinity to
    within f.far_turn of its last finite sample.

    The ray starts with a fundamental segment on the second-order Böttcher
    curve xi + S - (kappa / k) S^2 (see the module docstring), its samples
    at |S| from |a| r0^k to r0 spaced at sample_ratio; each further segment
    is the inverse lift of the previous one, thinned greedily (_thinned) so
    that its samples lie about sample_ratio apart in log-polar distance
    about the root. Every sample of lift n+1 maps onto a sample of lift n,
    f(points[j of segment n+1]) = points[i(j) of segment n] to solver
    accuracy, so forward invariance is structural, and the next lift
    continues over the thinned segment. Each step of a lift starts Newton's
    method from the secant prediction, in the target, of the lift's last two
    samples; the step's gates measure from the last sample.
    """
    tol = f.tol
    radius = f.ray_radius if radius is None else radius
    theta = local.fixed_directions[direction_index]
    xi, _, k, a = local.mark

    clearance = min(
        [abs(q - xi) for q in f.roots if q != xi]
        + [abs(q - xi) for q, _ in f.poles],
        default=1.0,
    )
    # r0 (1 + |bend| r0) = reach: the curve up to |S| = r0 stays within
    # reach of the root
    turn, bend = cmath.exp(1j * theta), local.kappa / k
    reach = min(0.05, 0.25 * clearance)
    r0 = 2 * reach / (1 + math.sqrt(1 + 4 * abs(bend) * reach))
    while abs(a) * r0 ** (k - 1) > 0.25:
        r0 *= 0.5
    inner = abs(a) * r0**k
    m = max(2, math.ceil(math.log(r0 / inner) / math.log(tol.sample_ratio)))
    seg = []
    for j in range(m + 1):
        s = inner * (r0 / inner) ** (j / m) * turn
        seg.append(xi + s - bend * s * s)

    # the critical points a lift must not land on: all but the root itself
    hot = [(c, 1e-12 * (1 + abs(c))) for c, _ in f.critical_points if abs(c - xi) > 1e-9]
    points: list[complex] = list(seg)
    cur = seg
    escaped = False
    for _ in range(MAX_RAY_LIFTS):
        new = [cur[-1]]
        for j in range(1, len(cur)):
            start = None
            if j > 1:
                slope = (new[-1] - new[-2]) / (cur[j - 1] - cur[j - 2])
                start = new[-1] + slope * (cur[j] - cur[j - 1])
            x = continue_inverse_branch(f, cur[j - 1], cur[j], new[-1], start=start)
            for c, near in hot:
                if abs(x - c) <= near:
                    raise RayCollision(f"ray lift landed on critical point {c}")
            new.append(x)
        cur = _thinned(new, xi, tol.sample_ratio)
        points.extend(cur[1:])
        if abs(cur[-1]) >= radius:
            escaped = True
            break
    if not escaped:
        raise NoEscape(
            f"ray from root {xi} direction {theta:.6f} did not reach "
            f"radius {radius:g} within {MAX_RAY_LIFTS} lifts"
        )
    # truncate at the first escaped sample, then close with infinity
    cut = next(i for i, z in enumerate(points) if abs(z) >= radius)
    return frozen_polyline([xi] + points[: cut + 1] + [INF])


# --- geometric embedded graphs ----------------------------------------------


@dataclass(frozen=True, eq=False)
class GeoEdge:
    """Polyline edge; points[0] and points[-1] are the vertex locations, and
    angles the edge's tangent angles leaving them, in [0, 2pi) in each
    vertex's chart (w = 1/z at infinity), decided where the edge is made."""

    tail: int
    head: int
    points: np.ndarray  # complex polyline, inf only at an end at infinity
    angles: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "points", frozen_polyline(self.points))

    def __eq__(self, other):
        if not isinstance(other, GeoEdge):
            return NotImplemented
        same_ends = (self.tail, self.head, self.angles) == (other.tail, other.head, other.angles)
        return same_ends and np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash((self.tail, self.head, len(self.points)))


@dataclass(frozen=True)
class GeoGraph:
    """Vertices and polyline edges on the sphere, with the Tolerances of the
    map they were built for: channel_diagram and pullback_level fill in
    f.tol, and every query on the graph reads its gates from there."""

    vertices: tuple[complex, ...]
    edges: tuple[GeoEdge, ...]
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)

    def vertex_star(self, vertex: int) -> tuple[tuple[float, int], ...]:
        """(angle, dart) pairs of the edge ends at a vertex, counterclockwise
        by the angles the edges carry; dart 2j is the tail of edge j, 2j + 1
        its head. Two ends closer than 1e-9 in angle cannot be ordered and
        raise. Each star is built once, from this vertex's ends alone."""
        if vertex not in self._stars:
            ends = sorted((self.edges[d >> 1].angles[d & 1], d) for d in self._ends[vertex])
            for (a, d), (b, d_next) in zip(ends, ends[1:] + ends[:1]):
                if len(ends) > 1 and _circular_gap(a, b) < 1e-9:
                    raise NonPlanarIncidence(f"edge ends {d} and {d_next} at vertex "
                                             f"{vertex} are angularly indistinguishable")
            self._stars[vertex] = tuple(ends)
        return self._stars[vertex]

    @cached_property
    def _ends(self) -> tuple[list[int], ...]:
        """Per vertex, the darts of the edge ends there, grouped in one pass."""
        ends = tuple([] for _ in self.vertices)
        for j, e in enumerate(self.edges):
            ends[e.tail].append(2 * j)
            ends[e.head].append(2 * j + 1)
        return ends

    @cached_property
    def _stars(self) -> dict[int, tuple[tuple[float, int], ...]]:
        return {}

    @cached_property
    def _geometry(self) -> "_Geometry":
        return _Geometry(self)


class _Geometry:
    """The graph's samples as a table of blocks, for nearest-point queries.

    Each edge is cut into blocks of at most _BLOCK consecutive samples. A
    block holds the chords that start at its samples, so they run over its
    samples and the first sample of the next block. Each slot of a block
    holds three entries, the layers of the exact pass, in the order the
    full scan takes its groups:

    - layer 0, the sample, in the plane chart (valid when finite);
    - layer 1, the chord from it in the plane chart (both ends finite);
    - layer 2, the chord from it in the w = 1/z chart (both ends admit w:
      nonzero, or infinite, where w = 0).

    chords holds, per layer, each entry's start p0 and its step d (0 for a
    sample, so that it is its chord of length 0), and scales |d|^2 (1 where
    d = 0) and 0, or inf for an entry that is not valid or a slot past its
    block's end. The first infinite sample, inf_ref, stands for infinity,
    the full scan's group between the samples and the chords.

    Each block also has a disk (c, r) in each chart that holds every entry
    of the block: the samples, the chords drawn in that chart, and the
    images there of the chords drawn in the other chart, which are arcs.
    A block with a sample the chart does not admit, or with a chord whose
    image passes through the chart's infinity, has none there: c = 0 and
    r = inf. With q in the disk's chart, the chordal distance from q to a
    point s of the disk is at least
    2 max(0, |q - c| - r) / sqrt((1 + |q|^2)(1 + (|c| + r)^2)) and at most
    2 (|q - c| + r) / sqrt((1 + |q|^2)(1 + max(0, |c| - r)^2));
    lower_k and upper_k hold each block's factors. The chordal metric is
    invariant under z -> 1/z, so both disks bound the same distances, and
    the larger lower bound holds.
    """

    def __init__(self, graph: GeoGraph):
        lengths = np.array([len(e.points) for e in graph.edges], dtype=np.int64)
        pts = np.concatenate([e.points for e in graph.edges] or [np.zeros(0, complex)])
        n = len(pts)
        i = np.arange(n)
        edge = np.repeat(np.arange(len(lengths)), lengths)
        first = np.cumsum(lengths) - lengths
        last = (first + lengths - 1)[edge]  # the last sample of each sample's edge
        finite = np.isfinite(pts)
        # a sample's segment: the chord it starts, or at an edge's end the last
        seg = np.minimum(i, last - 1) - first[edge]
        k = int(finite.argmin()) if n else 0
        self.inf_ref = None if finite[k:].all() else (int(edge[k]), int(seg[k]))

        # per sample, and one more entry, at n, for padding: the sample in
        # each chart (inf is 0 in the plane), and per layer whether the entry
        # is valid, its step d and |d|^2
        admits_w = ~finite | (pts != 0)
        z = np.append(np.where(finite, pts, 0j), 0j)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.append(np.where(finite, 1 / np.where(admits_w, pts, 1), 0j), 0j)
        nxt = np.minimum(i + 1, last)  # the chord's end; the sample itself at an edge's end
        chord = i < last
        valid = np.zeros((3, n + 1), dtype=bool)
        valid[0, :n] = finite
        valid[1, :n] = chord & finite & finite[nxt]
        valid[2, :n] = chord & admits_w & admits_w[nxt]
        d = np.zeros((3, n + 1), dtype=complex)
        d[1, :n] = z[nxt] - z[:n]
        d[2, :n] = w[nxt] - w[:n]
        dd = np.abs(d) ** 2
        # a step that is not valid, or too short to square, is 0, as the full
        # scan takes it, and its |d|^2 is 1
        d[~valid | (dd == 0)] = 0
        dd[dd == 0] = 1.0
        del i, edge, last, nxt, chord  # the table, built last, sets the peak

        # blocks of _BLOCK samples of one edge each, the last of an edge shorter
        per_edge = -(-lengths // _BLOCK)
        block_edge = np.repeat(np.arange(len(lengths)), per_edge)
        start = first[block_edge] + _BLOCK * (
            np.arange(len(block_edge)) - (np.cumsum(per_edge) - per_edge)[block_edge]
        )
        stop = (first + lengths)[block_edge]  # one past the last sample of the block's edge
        slot = start[:, None] + np.arange(_BLOCK)
        slot = np.where(slot < stop[:, None], slot, n)
        self.block_edge = block_edge.tolist()
        self.seg = np.append(seg, 0)[slot]

        # each block's disks, one per chart, each holding every entry of the
        # block: its samples, its chords drawn in the chart, and the images
        # of its chords drawn in the other chart. As 1/x - 1/p0 = (p0 - x) /
        # (x p0) and |x| >= |p0| - |d| on a chord from p0, its image lies
        # within |d| / (|p0| (|p0| - |d|)) of 1/p0 when |d| < |p0|. A sample
        # the chart does not admit (not finite) or an image that may pass
        # through the chart's infinity leaves the block no disk there. cover
        # holds, by position in each block, the points its chords cover.
        cover = np.minimum(np.arange(_BLOCK + 1)[:, None] + start, np.minimum(start + _BLOCK, stop - 1))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # per chart (plane, w), the chords of the other one (layers 2, 1)
            start_abs, step_abs = np.abs(np.array((w, z))), np.abs(d[2:0:-1])
            image = step_abs / (start_abs * (start_abs - step_abs))
            image[start_abs <= step_abs] = math.inf
            image[~valid[2:0:-1]] = 0.0
            v = np.array((pts, np.where(admits_w, w[:n], math.nan))).take(cover, axis=1)
            c = 0.5 * (v[:, 0] + v[:, -1])
            reach = np.abs(v - c[:, None])
            reach[:, :_BLOCK] += image.take(slot.T, axis=1)
            r = reach.max(axis=1)
            whole = np.isfinite(r)
            self.center = np.where(whole, c, 0j)
            self.radius = np.where(whole, r, math.inf)
            ac = np.abs(self.center)
            # a block with no disk has the bounds -inf and inf
            self.lower_k = np.where(whole, 2 / np.sqrt(1 + (ac + self.radius) ** 2), 1.0)
            self.upper_k = 2 / np.sqrt(1 + np.maximum(0, ac - self.radius) ** 2)
            # 1 + |v|^2 at the largest sample v of each chart
            az = np.abs(z[:n])
            self.largest = [
                float(1 + az.max(initial=0) ** 2),
                float(1 + 1 / az.min(where=admits_w & finite, initial=math.inf) ** 2),
            ]
        del start_abs, step_abs, image, v, reach

        # the exact pass's table: layer, field (p0, d), block, slot
        self.chords = np.empty((3, 2, len(start), _BLOCK), dtype=complex)
        self.chords[0, 0] = self.chords[1, 0] = z[slot]
        self.chords[2, 0] = w[slot]
        self.scales = np.empty((3, 2, len(start), _BLOCK))  # layer; |d|^2, 0 or inf
        for layer in range(3):
            self.chords[layer, 1] = d[layer, slot]
            self.scales[layer, 0] = dd[layer, slot]
            self.scales[layer, 1] = np.where(valid[layer], 0.0, math.inf)[slot]

    def nearest(self, q: complex) -> tuple[int, int, float]:
        """nearest_edge_point of the graph, for q a sphere point."""
        dinf = None
        if self.inf_ref is not None:
            dinf = 0.0 if q == INF else 2 / math.sqrt(1 + abs(q) ** 2)
        if not self.block_edge:
            return (*self.inf_ref, dinf) if dinf is not None else (0, 0, math.inf)
        # the charts q admits: z unless q is inf, w = 1/q unless q is 0
        lo, hi = (1 if q == INF else 0), (1 if q == 0 else 2)
        qw = 0j if q == INF else (1 / q if q != 0 else 0j)
        charts = (q, qw)[lo:hi]
        qq = [1 + abs(x) ** 2 for x in charts]
        if any(x * big > _OVERFLOW for x, big in zip(qq, self.largest[lo:hi])):
            # (1 + |q|^2)(1 + |s|^2) may overflow, and the exact distance with
            # it: measure every block, as the full scan does
            cand = np.arange(len(self.block_edge))
        else:
            a = np.abs(np.array(charts)[:, None] - self.center[lo:hi])
            scale = np.array([1 / math.sqrt(x) for x in qq])[:, None]
            upper = (a + self.radius[lo:hi]) * self.upper_k[lo:hi] * scale
            bound = upper.min() if dinf is None else min(upper.min(), dinf)
            lower = (a - self.radius[lo:hi]) * self.lower_k[lo:hi] * scale
            cand = np.flatnonzero(~(lower > bound + _BOUND_SLACK).any(axis=0))
        # the layers measured: q = 0 has no inverted chords; q = inf has no
        # plane chords, and it takes its samples' distances as 2 / sqrt(1 + |p|^2)
        layers = (0, 2) if q == INF else (0, 1) if q == 0 else (0, 1, 2)
        chords = self.chords[: layers[-1] + 1].take(cand, axis=2)
        scales = self.scales[: layers[-1] + 1].take(cand, axis=2)
        if q == INF:
            dist = np.stack((
                2 / np.sqrt(1 + np.abs(chords[0, 0]) ** 2),
                _project_distances(0j, 1.0, *chords[2], scales[2, 0]),
            ))
            dist += scales[layers, 1]
        else:
            ql = (q, q, qw)[: len(layers)]
            dist = _project_distances(
                np.array(ql)[:, None, None], np.array([1 + abs(x) ** 2 for x in ql])[:, None, None],
                chords[:, 0], chords[:, 1], scales[:, 0],
            )
            dist += scales[:, 1]
        # layer by layer, so that argmin's first of equals follows the layers
        flat = dist.ravel()
        k = int(flat.argmin())
        v = flat[k]
        layer, rest = divmod(k, cand.size * _BLOCK)
        b, s = divmod(rest, _BLOCK)
        # infinity comes after the samples and before the chords
        if dinf is not None and (dinf < v or (dinf == v and layers[layer] > 0)):
            return (*self.inf_ref, dinf)
        return self.block_edge[cand[b]], int(self.seg[cand[b], s]), float(v)


def _project_distances(q, qq, p0, d, dds) -> np.ndarray:
    """Chordal distance from q to each chord p0 + [0, 1] d, all drawn in one
    chart: chordal(q, s) at the chord's point s nearest q in the chart. qq is
    1 + |q|^2 and dds |d|^2, or 1 where d = 0, which makes the chord its
    point p0."""
    t = (((q - p0) * np.conj(d)).real / dds).clip(0.0, 1.0)
    s = p0 + t * d
    return 2 * np.abs(q - s) / np.sqrt(qq * (1 + np.abs(s) ** 2))


def nearest_edge_point(
    graph: GeoGraph, q: complex
) -> tuple[int, int, float]:
    """(edge index, segment index, distance) of the closest edge point.

    Bit for bit the full scan's answer: each sample, then infinity (an end
    at infinity), then each chord in the plane chart, then each chord in
    the w = 1/z chart; within a group the first least distance counts, and a
    later group replaces it only when strictly nearer. Only the blocks of
    the graph's table whose chordal lower bound, less _BOUND_SLACK, does not
    exceed the least upper bound over the blocks (and the distance to
    infinity) are measured, in the group formulas and in table order, so the
    skipped ones can hold no winner and no tie. q = inf reads the blocks in
    the w chart alone and q = 0 in the plane alone. Where (1 + |q|^2)(1 +
    |s|^2) could overflow for a sample s, every block is measured.
    """
    return graph._geometry.nearest(point(q))


# --- export -------------------------------------------------------------


def _pos_json(p: complex):
    if p == INF:
        return "inf"
    return [p.real, p.imag]


_SAMPLE_DTYPE = "<c16"  # an exported sample: complex128, little-endian


def _samples_json(points: np.ndarray) -> str:
    """The samples as one base64 block of little-endian complex128; an end
    at infinity is stored as the bits of complex("inf")."""
    raw = points.astype(_SAMPLE_DTYPE, copy=False).tobytes()
    return base64.b64encode(raw).decode("ascii")


def polyline_from_json(text: str) -> np.ndarray:
    """The frozen polyline of an exported "samples" string, bit for bit.

    The string must be strict base64 of at least two little-endian complex128
    values; inf is allowed only at an end, and every other sample must be
    finite. Anything else raises ValueError.
    """
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise ValueError(f"samples are not base64: {exc}") from exc
    if len(raw) % 16 or len(raw) < 32:
        raise ValueError(
            f"samples hold {len(raw)} bytes, not two or more 16-byte complex128 values"
        )
    points = np.frombuffer(raw, dtype=_SAMPLE_DTYPE).astype(complex, copy=False)
    if not np.isfinite(points[1:-1]).all():
        raise ValueError("an interior sample is not finite")
    for end in (points[0], points[-1]):
        if not (np.isfinite(end) or end == INF):
            raise ValueError(f"an end sample is {end}, neither finite nor inf")
    return frozen_polyline(points)


def geograph_to_json(graph: GeoGraph, edge_levels: tuple[int, ...]) -> dict:
    """The geometry of a graph, at format 4: vertices lists each vertex's
    position by vertex id, and edge j, which owns darts 2j (its tail) and
    2j + 1 (its head), the vertices it joins, its level and its samples as
    the graph holds them (a lifted edge's thinned to sample_ratio about both
    its ends), as one string that polyline_from_json reads back. At format
    4 the graph may be a level below the exported combinatorial block,
    whose ids it then numbers as a prefix (newton_graph_to_json)."""
    edges = [
        {"from": e.tail, "to": e.head, "level": edge_levels[j], "samples": _samples_json(e.points)}
        for j, e in enumerate(graph.edges)
    ]
    return {"format": 4, "vertices": [_pos_json(v) for v in graph.vertices], "edges": edges}


def channel_diagram(f: NewtonMap) -> GeoGraph:
    """The invariant graph of all fixed rays: roots joined to infinity.

    Vertices are the roots in order followed by infinity; edges are grouped by
    root and sorted by ray direction, so the construction is deterministic.
    The rays stop at f.ray_radius. There the angle each ray's closing chord
    gives at infinity is within f.far_turn of its last sample of the true
    one, and the rays' cyclic order at infinity is certified once every gap
    between neighbouring angles exceeds the two bounds at its sides;
    otherwise the rays are traced again to twice the radius, up to the cap
    tol.escape_radius, where they are taken as they come. A map whose marks
    lie closer than match_tol raises NonPlanarIncidence.
    """
    f.require_separated_marks()
    verts = tuple(point(r) for r in f.roots) + (INF,)
    inf_index = len(f.roots)
    locals_ = [bottcher_local(f, i) for i in range(len(f.roots))]
    radius, cap = f.ray_radius, f.tol.escape_radius
    while True:
        edges = []
        for i, loc in enumerate(locals_):
            for j, theta in enumerate(loc.fixed_directions):
                ray = trace_fixed_ray(f, loc, j, radius)
                at_infinity = _mod_tau(cmath.phase(offset(INF, complex(ray[-2]))))
                edges.append(GeoEdge(i, inf_index, ray, (theta, at_infinity)))
        if radius >= cap or _order_at_infinity_certified(f, edges):
            return GeoGraph(verts, tuple(edges), f.tol)
        radius = min(2 * radius, cap)


def _order_at_infinity_certified(f: NewtonMap, rays: list[GeoEdge]) -> bool:
    """Whether each gap between neighbouring angles at infinity of the rays
    exceeds the sum of the two rays' f.far_turn bounds."""
    ends = sorted((e.angles[1], f.far_turn(complex(e.points[-2]))) for e in rays)
    return all(
        _mod_tau(b - a) > ea + eb
        for (a, ea), (b, eb) in zip(ends, ends[1:] + ends[:1])
    )
