"""Fixed internal rays and the channel diagram.

Each root is a superattracting fixed point of local degree k >= 2, so its
immediate basin carries k - 1 invariant accesses to infinity. A ray is traced
from a short straight fundamental segment in an invariant direction near the
root, then continued by repeated inverse lifts: the preimage of each traced
segment, taken along the branch that starts at the segment's outer endpoint,
extends the ray outward until it escapes past the chart radius. Forward
iteration is useless here (it contracts into the root), so tracing runs
against the dynamics. trace_fixed_ray returns a ray as a frozen polyline,
root first and inf last; channel_diagram joins the rays of every root into
a GeoGraph.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BranchJump,
    NoEscape,
    NonPlanarIncidence,
    NotARoot,
    RayCollision,
)
from .poly import NewtonMap, horner
from .sphere import INF, SpherePoint, chordal_distance
from .tolerances import DEFAULT_TOL, Tolerances

_TAU = 2 * math.pi
# Inverse lifts a fixed ray may take before it must have escaped.
MAX_RAY_LIFTS = 512


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
    """Local model f(xi + w) = xi + a w^k + O(w^(k+1)) at a root."""

    root: complex
    local_degree: int
    coefficient: complex
    fixed_directions: tuple[float, ...]  # angles in [0, 2pi), sorted


def bottcher_local(f: NewtonMap, root_index: int) -> BottcherLocal:
    """Leading local coefficient and the k-1 invariant ray directions."""
    if not 0 <= root_index < len(f.roots):
        raise NotARoot(f"no root with index {root_index}")
    xi = f.roots[root_index]
    k = f.local_degree(xi)
    if k < 2:
        raise NotARoot(f"point {xi} is not superattracting")
    a = f.leading_coefficient(xi, k, xi)
    dirs = sorted(
        _mod_tau((-cmath.phase(a) + _TAU * j) / (k - 1)) for j in range(k - 1)
    )
    return BottcherLocal(xi, k, a, tuple(dirs))


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

    Newton's method on a/b = target with the rows of f.corrector_rows: f = w
    in the plane, or 1/f = 1/w for a target beyond the chart radius, where a
    pole of f is a regular point of 1/f.
    """
    tol = f.tol
    inverted = abs(w) > tol.chart_radius
    target = 1 / w if inverted else w
    a, b, da, db = f.corrector_rows(inverted)
    x = x0
    for _ in range(50):
        av, bv = horner(a, x), horner(b, x)
        if bv == 0:
            x += 1e-12 * (1 + abs(x))
            continue
        g = av / bv - target
        gp = (horner(da, x) * bv - av * horner(db, x)) / (bv * bv)
        if gp == 0:
            x += 1e-12 * (1 + abs(x))
            continue
        step = g / gp
        x = x - step
        if converged(step, x, tol):
            break
    else:
        return None
    bv = horner(b, x)
    res = abs(horner(a, x) / bv - target) if bv != 0 else math.inf
    if not residual_ok(res, target, tol):
        return None
    return x


def continue_inverse_branch(
    f: NewtonMap,
    w_from: complex,
    w_to: complex,
    x0: complex,
    depth: int = 0,
) -> complex:
    """Continue the branch of f^{-1} from x0 (a preimage of w_from) to w_to."""
    x = solve_preimage_near(f, w_to, x0)
    if x is not None and on_branch(x, x0):
        return x
    if depth >= 24:
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


def trace_fixed_ray(f: NewtonMap, local: BottcherLocal, direction_index: int) -> np.ndarray:
    """Trace one invariant ray from the root out to infinity.

    Returns the ray as a frozen polyline: the root first, inf last, and in
    between the samples up to the first one past escape_radius. Its first
    chord leaves the root in the fixed direction, and its last chord, drawn
    in the w = 1/z chart, gives the ray's angle at infinity.

    The ray starts with a fundamental segment spaced at sample_ratio; each
    further segment is the inverse lift of the previous one, thinned
    greedily (_thinned) so that its samples lie about sample_ratio apart in
    log-polar distance about the root. Every sample of lift n+1 maps onto a
    sample of lift n, f(points[j of segment n+1]) = points[i(j) of segment n]
    to solver accuracy, so forward invariance is structural, and the next
    lift continues over the thinned segment.
    """
    tol = f.tol
    theta = local.fixed_directions[direction_index]
    xi, k, a = local.root, local.local_degree, local.coefficient

    clearance = min(
        [abs(q - xi) for q in f.roots if q != xi]
        + [abs(q - xi) for q, _ in f.poles],
        default=1.0,
    )
    r0 = min(0.02, 0.25 * clearance)
    while abs(a) * r0 ** (k - 1) > 0.25:
        r0 *= 0.5
    inner = abs(a) * r0**k
    m = max(2, math.ceil(math.log(r0 / inner) / math.log(tol.sample_ratio)))
    seg = [
        xi + inner * (r0 / inner) ** (j / m) * cmath.exp(1j * theta)
        for j in range(m + 1)
    ]

    crit_hot = [c for c, _ in f.critical_points]
    points: list[complex] = list(seg)
    cur = seg
    escaped = False
    for _ in range(MAX_RAY_LIFTS):
        new = [cur[-1]]
        for j in range(1, len(cur)):
            x = continue_inverse_branch(f, cur[j - 1], cur[j], new[-1])
            for c in crit_hot:
                if abs(x - c) <= 1e-12 * (1 + abs(c)) and abs(c - xi) > 1e-9:
                    raise RayCollision(f"ray lift landed on critical point {c}")
            new.append(x)
        cur = _thinned(new, xi, tol.sample_ratio)
        points.extend(cur[1:])
        if abs(cur[-1]) >= tol.escape_radius:
            escaped = True
            break
    if not escaped:
        raise NoEscape(
            f"ray from root {xi} direction {theta:.6f} did not reach "
            f"radius {tol.escape_radius:g} within {MAX_RAY_LIFTS} lifts"
        )
    # truncate at the first escaped sample, then close with infinity
    cut = next(i for i, z in enumerate(points) if abs(z) >= tol.escape_radius)
    return frozen_polyline([xi] + points[: cut + 1] + [complex(INF)])


# --- geometric embedded graphs ----------------------------------------------


@dataclass(frozen=True, eq=False)
class GeoEdge:
    """Polyline edge; points[0] and points[-1] are the vertex locations."""

    tail: int
    head: int
    points: np.ndarray  # complex polyline, inf only at an end at infinity

    def __post_init__(self):
        object.__setattr__(self, "points", frozen_polyline(self.points))

    def __eq__(self, other):
        if not isinstance(other, GeoEdge):
            return NotImplemented
        return (self.tail, self.head) == (other.tail, other.head) and np.array_equal(
            self.points, other.points
        )

    def __hash__(self):
        return hash((self.tail, self.head, len(self.points)))


@dataclass(frozen=True)
class GeoGraph:
    vertices: tuple[SpherePoint, ...]
    edges: tuple[GeoEdge, ...]

    def find_vertex(
        self, q: SpherePoint | complex, tol: Tolerances | None = None
    ) -> int | None:
        tol = tol or DEFAULT_TOL
        pt = q if isinstance(q, SpherePoint) else SpherePoint.of(q)
        best, best_d = None, tol.match_tol
        for i, v in enumerate(self.vertices):
            d = chordal_distance(v, pt)
            if d <= best_d:
                best, best_d = i, d
        return best

    def direction_at(self, edge_index: int, end: str) -> float:
        """Initial tangent angle of the edge at one end, in that vertex's chart.

        Finite vertices use the plane chart, infinity uses w = 1/z. The angle
        orders edge ends counterclockwise around the vertex.
        """
        pts = self.edges[edge_index].points
        if end != "tail":
            pts = pts[::-1]
        v = complex(pts[0])
        at_infinity = not cmath.isfinite(v)
        for k in range(1, len(pts)):
            p = complex(pts[k])
            if not cmath.isfinite(p):
                continue
            if at_infinity and p != 0:
                return _mod_tau(cmath.phase(1 / p))
            if not at_infinity and p != v:
                return _mod_tau(cmath.phase(p - v))
        if at_infinity:
            raise ValueError("degenerate edge at infinity")
        raise ValueError("degenerate edge: no distinct neighbor point")

    def vertex_star(self, vertex: int) -> tuple[tuple[float, int], ...]:
        """(angle, dart) pairs of the edge ends at a vertex, counterclockwise
        by initial angle; dart 2j is the tail of edge j, 2j + 1 its head.
        Two ends closer than 1e-9 in angle cannot be ordered and raise."""
        ends = []
        for j, e in enumerate(self.edges):
            if e.tail == vertex:
                ends.append((self.direction_at(j, "tail"), 2 * j))
            if e.head == vertex:
                ends.append((self.direction_at(j, "head"), 2 * j + 1))
        ends.sort()
        for t in range(len(ends)):
            gap = _circular_gap(ends[t][0], ends[(t + 1) % len(ends)][0])
            if len(ends) > 1 and gap < 1e-9:
                raise NonPlanarIncidence(
                    f"edge ends {ends[t][1]} and {ends[(t + 1) % len(ends)][1]} at "
                    f"vertex {vertex} are angularly indistinguishable"
                )
        return tuple(ends)

    @cached_property
    def _geometry(self) -> "_Geometry":
        return _Geometry(self)


class _Geometry:
    """Flattened segment arrays for vectorized distance queries.

    Segments with two finite endpoints live in the plane chart; segments whose
    endpoints both admit w = 1/z (nonzero or infinite) live in the inverted
    chart. Every polyline point also sits in a baseline endpoint array, so a
    segment excluded from both charts still contributes through its ends.
    """

    def __init__(self, graph: GeoGraph):
        lengths = np.array([len(e.points) for e in graph.edges], dtype=np.int64)
        pts = np.concatenate([e.points for e in graph.edges] or [np.zeros(0, complex)])
        edge = np.repeat(np.arange(len(lengths)), lengths)
        first = np.cumsum(lengths) - lengths
        index = np.arange(len(pts)) - first[edge]
        last_seg = lengths[edge] - 2
        seg = np.minimum(index, last_seg)

        finite = np.isfinite(pts)
        self.pts, self.pe, self.ps = pts[finite], edge[finite], seg[finite]
        self.inf_refs = list(zip(edge[~finite].tolist(), seg[~finite].tolist()))

        # segment s runs from point s to point s + 1 of the same edge
        starts = np.flatnonzero(index <= last_seg)
        ends = starts + 1
        plane = finite[starts] & finite[ends]
        self.zp0, self.zp1 = pts[starts[plane]], pts[ends[plane]]
        self.ze, self.zs = edge[starts[plane]], index[starts[plane]]

        admits_w = ~finite | (pts != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(finite, 1 / np.where(admits_w, pts, 1), 0j)
        inverted = admits_w[starts] & admits_w[ends]
        self.wp0, self.wp1 = w[starts[inverted]], w[ends[inverted]]
        self.we, self.ws = edge[starts[inverted]], index[starts[inverted]]


def _project_distances(q: complex, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Chordal distance from q to each chord, all drawn in one chart."""
    d = p1 - p0
    dd = np.abs(d) ** 2
    t = np.where(dd > 0, ((q - p0) * np.conj(d)).real / np.where(dd > 0, dd, 1), 0)
    s = p0 + np.clip(t, 0.0, 1.0) * d
    return 2 * np.abs(q - s) / np.sqrt((1 + abs(q) ** 2) * (1 + np.abs(s) ** 2))


def _distance_candidates(
    graph: GeoGraph, q: SpherePoint
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    geom = graph._geometry
    out = []
    if geom.pts.size:
        if q.is_infinity:
            base = 2 / np.sqrt(1 + np.abs(geom.pts) ** 2)
        else:
            base = 2 * np.abs(q.value - geom.pts) / np.sqrt(
                (1 + abs(q.value) ** 2) * (1 + np.abs(geom.pts) ** 2)
            )
        out.append((base, geom.pe, geom.ps))
    if geom.inf_refs:
        dinf = 0.0 if q.is_infinity else 2 / math.sqrt(1 + abs(q.value) ** 2)
        ei, si = geom.inf_refs[0]
        out.append(
            (np.array([dinf]), np.array([ei]), np.array([si]))
        )
    if not q.is_infinity and geom.zp0.size:
        out.append((_project_distances(q.value, geom.zp0, geom.zp1), geom.ze, geom.zs))
    qw = 0j if q.is_infinity else (1 / q.value if q.value != 0 else None)
    if qw is not None and geom.wp0.size:
        out.append((_project_distances(qw, geom.wp0, geom.wp1), geom.we, geom.ws))
    return out


def nearest_edge_point(
    graph: GeoGraph, q: SpherePoint | complex
) -> tuple[int, int, float]:
    """(edge index, segment index, distance) of the closest edge point."""
    pt = q if isinstance(q, SpherePoint) else SpherePoint.of(q)
    best = (0, 0, math.inf)
    for d, earr, sarr in _distance_candidates(graph, pt):
        if not d.size:
            continue
        k = int(np.argmin(d))
        if d[k] < best[2]:
            best = (int(earr[k]), int(sarr[k]), float(d[k]))
    return best


def graph_distance(graph: GeoGraph, q: SpherePoint | complex) -> float:
    """Chordal distance from a point to the union of the graph's edges."""
    return nearest_edge_point(graph, q)[2]


# --- export -------------------------------------------------------------


def _pos_json(p: SpherePoint):
    if p.is_infinity:
        return "inf"
    return [p.value.real, p.value.imag]


def _samples_json(points: np.ndarray) -> list:
    """[re, im] pairs straight from the array; "inf" at an end at infinity."""
    out = np.stack((points.real, points.imag), axis=1).tolist()
    for k in (0, -1):
        if np.isinf(points[k]):
            out[k] = "inf"
    return out


def geograph_to_json(
    graph: GeoGraph,
    kinds: tuple[str, ...],
    labels: tuple[str, ...],
    edge_levels: tuple[int, ...],
    edge_maps: tuple[int, ...],
) -> dict:
    """Plain-data form of a geometric graph.

    Vertices carry id/kind/pos/label; edges carry id/from/to/level/maps_to
    and their full sample polylines; cyclic orders list edge-end dart ids
    (2j for the tail of edge j, 2j+1 for its head) counterclockwise.
    """
    vertices = [
        {"id": i, "kind": kinds[i], "pos": _pos_json(v), "label": labels[i]}
        for i, v in enumerate(graph.vertices)
    ]
    edges = [
        {
            "id": j,
            "from": e.tail,
            "to": e.head,
            "level": edge_levels[j],
            "maps_to": edge_maps[j],
            "samples": _samples_json(e.points),
        }
        for j, e in enumerate(graph.edges)
    ]
    orders = {
        str(v): [dart for _, dart in graph.vertex_star(v)]
        for v in range(len(graph.vertices))
    }
    return {"vertices": vertices, "edges": edges, "cyclic_orders": orders}


def channel_diagram(f: NewtonMap) -> GeoGraph:
    """The invariant graph of all fixed rays: roots joined to infinity.

    Vertices are the roots in order followed by infinity; edges are grouped by
    root and sorted by ray direction, so the construction is deterministic.
    """
    verts = tuple(SpherePoint.of(r) for r in f.roots) + (INF,)
    inf_index = len(f.roots)
    edges = []
    for i in range(len(f.roots)):
        loc = bottcher_local(f, i)
        for j in range(len(loc.fixed_directions)):
            ray = trace_fixed_ray(f, loc, j)
            edges.append(GeoEdge(tail=i, head=inf_index, points=ray))
    return GeoGraph(verts, tuple(edges))
