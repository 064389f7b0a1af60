"""Shared fixtures: the small pool of Newton maps used across the suite,
and the geometric oracles several test modules share."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from newtongraph import (
    Polynomial,
    channel_diagram,
    compute_newton_graph,
    make_newton_map,
    pullback,
)
from newtongraph.combinatorial import (
    GraphDynamics,
    KIND_INFINITY,
    KIND_PLAIN,
    KIND_POLE,
    KIND_ROOT,
    embedded_graph_from_rotations,
)
from newtongraph.rays import continue_inverse_branch, nearest_edge_point
from newtongraph.sphere import INF, chordal_distance, offset, point


def nearest_vertex(geo, q):
    """The vertex of a geometric graph nearest q within the graph's
    match_tol (chordal), or None."""
    q = point(q)
    best, best_d = None, geo.tol.match_tol
    for i, v in enumerate(geo.vertices):
        d = chordal_distance(v, q)
        if d <= best_d:
            best, best_d = i, d
    return best


def graph_distance(geo, q):
    """Chordal distance from a point to the union of the graph's edges."""
    return nearest_edge_point(geo, q)[2]


def scalar_lift(f, points, start, branch_direction=None):
    """Reference lift of one polyline from a preimage of its tail, sample by
    sample: the branched first step off a critical start, by the local
    model of the start's mark, then continue_inverse_branch per sample, and
    the end read off the local models of the marks over the head."""
    head = point(points[-1])
    x = start
    out = [x]
    for k in range(1, len(points) - 1):
        w0, w1 = complex(points[k - 1]), complex(points[k])
        if k == 1 and branch_direction is not None:
            mark = f.marked_point(start)
            x = pullback._branched_first_step(f, w0, w1, mark, branch_direction)
        else:
            x = continue_inverse_branch(f, w0, w1, x)
        out.append(x)
    [fiber] = pullback._fibers(f, [f.marked_point(head).value])
    end, _ = pullback._read_head(fiber, head, complex(points[-2]), x, 0.0, None)
    out.append(end.value)
    return np.array(out, dtype=complex)


def pullback_defects(top):
    """The local model at both ends of every lifted edge of a tower's top
    graph, f(c + u) = f(c) + b u^m in the charts at c and its image (1/z at
    infinity).

    Returns the defects: per end, how far m * angle + arg b lies from the
    angle of the image dart under the edge map, mod 2 pi. And the residuals:
    per head of local degree m >= 2, the turn by which the lift's last
    sample u misses the nearest sheet over its source's last sample W, the
    argument of b u^m / W over 2 pi.
    """
    defects, residuals = [], []
    for j, e in enumerate(top.geo.edges):
        if top.edge_level[j] == 0:
            continue
        image = top.geo.edges[top.edge_map[j]]
        for end, v in enumerate((e.tail, e.head)):
            _, _, m, b = top.marks[v]
            pushed = m * e.angles[end] + cmath.phase(b)
            defects.append(abs(math.remainder(pushed - image.angles[end], 2 * math.pi)))
        c, _, m, b = top.marks[e.head]
        if m > 1:
            u = offset(c, complex(e.points[-2]))
            w = offset(top.geo.vertices[image.head], complex(image.points[-2]))
            residuals.append(abs(cmath.phase(b * u**m / w)) / (2 * math.pi))
    return defects, residuals


def log_polar_within(a, c, centers, ratio):
    """Whether the chord from a to c lies within log(ratio) in log-polar
    distance |log((c - center) / (a - center))| about every center."""
    return all(abs(cmath.log((c - o) / (a - o))) <= math.log(ratio) for o in centers)


def lift_ends(points):
    """The centers a lifted polyline is thinned about: its tail, and its
    head, or 0 for a head at infinity (the distance in the 1/z chart)."""
    head = point(points[-1])
    return complex(points[0]), 0j if head == INF else head


def scalar_thinned(points, ratio):
    """Reference thinning of one lifted polyline, sample by sample: the
    greedy rule of rays._thinned taken about both ends at once, keeping the
    two samples at each end."""
    seg = [complex(z) for z in points[1:-1]]
    if len(seg) < 2:
        return np.array(points, dtype=complex)
    centers = lift_ends(points)
    kept = [seg[0]]
    for j in range(1, len(seg) - 1):
        if not log_polar_within(kept[-1], seg[j + 1], centers, ratio):
            kept.append(seg[j])
    kept.append(seg[-1])
    return np.array([points[0], *kept, points[-1]], dtype=complex)


def fraction_radius_below_one(entries):
    """Reference exact test of rho(A) < 1 for a non-negative rational matrix
    A: Bareiss elimination on L (I - A), L the lcm of the reduced entry
    denominators, converted from the Fraction entries. Every leading
    principal minor of I - A is positive exactly when rho(A) < 1."""
    entries = [[Fraction(x) for x in row] for row in entries]
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    b = [
        [(scale if i == j else 0) - int(x * scale) for j, x in enumerate(row)]
        for i, row in enumerate(entries)
    ]
    m, prev = len(b), 1
    for k in range(m):
        pivot = b[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                b[i][j] = (b[i][j] * pivot - b[i][k] * b[k][j]) // prev
        prev = pivot
    return True


def aligned_dart_map(edge_map):
    """Dart map for orientation-aligned edge lifts: tail end to tail end."""
    return tuple(2 * edge_map[d >> 1] + (d & 1) for d in range(2 * len(edge_map)))


class HandBuiltModel:
    """A graph-with-dynamics model assembled from plain lists, so tests can
    mutate individual pieces before building."""

    def __init__(self, endpoints, rotations, kinds, vertex_map, edge_map,
                 local_degree, channel, level):
        self._data = (endpoints, rotations, kinds, vertex_map, edge_map,
                      local_degree, channel, level)

    def parts(self):
        endpoints, rotations, kinds, vertex_map, edge_map, degree, channel, level = self._data
        return {
            "endpoints": [tuple(e) for e in endpoints],
            "rotations": [list(r) for r in rotations],
            "kinds": list(kinds),
            "vertex_map": list(vertex_map),
            "edge_map": list(edge_map),
            "local_degree": list(degree),
            "channel": set(channel),
            "level": level,
        }

    @staticmethod
    def assemble(parts):
        graph = embedded_graph_from_rotations(
            parts["endpoints"], parts["rotations"], parts["kinds"])
        return GraphDynamics(
            graph=graph,
            vertex_map=tuple(parts["vertex_map"]),
            edge_map=tuple(parts["edge_map"]),
            dart_map=aligned_dart_map(parts["edge_map"]),
            local_degree=tuple(parts["local_degree"]),
            channel_edges=frozenset(parts["channel"]),
            level=parts["level"],
        )

    def dynamics(self):
        return self.assemble(self.parts())


def _pm_level1_model():
    """Level-1 graph of the Newton map of z^3 - z, built by hand.

    Vertices: 0 root at 0, 1 root at +1, 2 root at -1, 3 infinity,
    4 pole +1/sqrt3, 5 pole -1/sqrt3, 6 point +1/2, 7 point -1/2.
    Edges 0-3 are the fixed rays (up/down from 0, right from +1, left
    from -1); edges 4-11 are their remaining lifts.  Rotation data comes
    from germ directions: at the triple root 0 the new lifts of the up ray
    sit at -30/210 degrees and of the down ray at 30/150 degrees; at the
    simple poles the four germs point at 0/90/180/270 degrees toward the
    lift of the right/down/left/up ray respectively; the segment tails
    +1/2 -> pole+ and -1/2 -> pole- point along the real axis.
    """
    endpoints = [
        (0, 3), (0, 3), (1, 3), (2, 3),   # fixed rays: up, down, right, left
        (0, 4), (0, 5),                   # lifts of up ray at -30 / 210 degrees
        (0, 4), (0, 5),                   # lifts of down ray at 30 / 150 degrees
        (1, 4), (2, 5),                   # in-segment lifts of right / left ray
        (7, 5), (6, 4),                   # far lifts of right / left ray
    ]
    rotations = [
        [12, 0, 14, 10, 2, 8],    # root 0: 30, 90, 150, 210, 270, 330 degrees
        [4, 16],                  # root +1: ray at 0, segment toward pole+ at 180
        [18, 6],                  # root -1: segment toward pole- at 0, ray at 180
        [5, 3, 7, 1],             # infinity, ccw in the 1/z chart
        [17, 13, 23, 9],          # pole+: germs at 0, 90, 180, 270 degrees
        [21, 15, 19, 11],         # pole-: germs at 0, 90, 180, 270 degrees
        [22],                     # +1/2
        [20],                     # -1/2
    ]
    kinds = [KIND_ROOT, KIND_ROOT, KIND_ROOT, KIND_INFINITY,
             KIND_POLE, KIND_POLE, KIND_PLAIN, KIND_PLAIN]
    vertex_map = [0, 1, 2, 3, 3, 3, 2, 1]
    edge_map = [0, 1, 2, 3, 0, 0, 1, 1, 2, 3, 2, 3]
    local_degree = [3, 2, 2, 1, 1, 1, 1, 1]
    return HandBuiltModel(endpoints, rotations, kinds, vertex_map, edge_map,
                          local_degree, {0, 1, 2, 3}, 1)


def _pm_level0_model():
    """Channel diagram of the Newton map of z^3 - z as a bare self-map:
    the two imaginary-axis rays from 0 plus one real ray from each of +1/-1."""
    endpoints = [(0, 3), (0, 3), (1, 3), (2, 3)]
    rotations = [[0, 2], [4], [6], [5, 3, 7, 1]]
    kinds = [KIND_ROOT, KIND_ROOT, KIND_ROOT, KIND_INFINITY]
    return HandBuiltModel(endpoints, rotations, kinds,
                          [0, 1, 2, 3], [0, 1, 2, 3], [3, 2, 2, 1],
                          {0, 1, 2, 3}, 1)


@pytest.fixture(scope="session")
def handbuilt_pm_level1():
    return _pm_level1_model()


@pytest.fixture(scope="session")
def handbuilt_pm_level0():
    return _pm_level0_model()


@pytest.fixture(scope="session")
def cubic_unity():
    # p = z^3 - 1: three simple roots, one double pole at 0 (p' = 3z^2)
    return make_newton_map(Polynomial((-1, 0, 0, 1)))


@pytest.fixture(scope="session")
def cubic_pm():
    # p = z^3 - z: critical set equals root set, 0 has local degree 3
    return make_newton_map(Polynomial((0, -1, 0, 1)))


@pytest.fixture(scope="session")
def cubic_pm_plus():
    # p = z^3 + z: conjugate of z^3 - z under w = iz
    return make_newton_map(Polynomial((0, 1, 0, 1)))


@pytest.fixture(scope="session")
def quartic_unity():
    # p = z^4 - 1: triple pole at 0 of local degree 3
    return make_newton_map(Polynomial((-1, 0, 0, 0, 1)))


@pytest.fixture(scope="session")
def quartic_monic():
    # p = z^4 - z: root 0 has local degree 4
    return make_newton_map(Polynomial((0, -1, 0, 0, 1)))


@pytest.fixture(scope="session")
def delta0_unity(cubic_unity):
    return channel_diagram(cubic_unity)


@pytest.fixture(scope="session")
def delta0_pm(cubic_pm):
    return channel_diagram(cubic_pm)


@pytest.fixture(scope="session")
def delta0_pm_plus(cubic_pm_plus):
    return channel_diagram(cubic_pm_plus)


@pytest.fixture(scope="session")
def delta0_q_unity(quartic_unity):
    return channel_diagram(quartic_unity)


@pytest.fixture(scope="session")
def delta0_q_monic(quartic_monic):
    return channel_diagram(quartic_monic)


@pytest.fixture(scope="session")
def graph_unity(cubic_unity):
    return compute_newton_graph(cubic_unity)


@pytest.fixture(scope="session")
def graph_pm(cubic_pm):
    return compute_newton_graph(cubic_pm)


@pytest.fixture(scope="session")
def graph_pm_plus(cubic_pm_plus):
    return compute_newton_graph(cubic_pm_plus)


@pytest.fixture(scope="session")
def graph_q_unity(quartic_unity):
    return compute_newton_graph(quartic_unity)


@pytest.fixture(scope="session")
def graph_q_monic(quartic_monic):
    return compute_newton_graph(quartic_monic)


# --- reference full scan for nearest_edge_point ------------------------------


def _full_scan_project(q, p0, p1):
    d = p1 - p0
    dd = np.abs(d) ** 2
    t = np.where(dd > 0, ((q - p0) * np.conj(d)).real / np.where(dd > 0, dd, 1), 0)
    s = p0 + np.clip(t, 0.0, 1.0) * d
    return 2 * np.abs(q - s) / np.sqrt((1 + abs(q) ** 2) * (1 + np.abs(s) ** 2))


def full_scan_nearest_edge_point(graph, q):
    """nearest_edge_point by measuring every sample and every chord: the
    samples, then infinity, then the chords in the plane chart, then those
    in the w = 1/z chart, each group's first least distance replacing the
    best so far only when strictly smaller."""
    q = point(q)
    lengths = np.array([len(e.points) for e in graph.edges], dtype=np.int64)
    pts = np.concatenate([e.points for e in graph.edges] or [np.zeros(0, complex)])
    edge = np.repeat(np.arange(len(lengths)), lengths)
    first = np.cumsum(lengths) - lengths
    index = np.arange(len(pts)) - first[edge]
    last_seg = lengths[edge] - 2
    seg = np.minimum(index, last_seg)
    finite = np.isfinite(pts)
    starts = np.flatnonzero(index <= last_seg)
    ends = starts + 1
    admits_w = ~finite | (pts != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(finite, 1 / np.where(admits_w, pts, 1), 0j)

    groups = []
    fp = pts[finite]
    if fp.size:
        if q == INF:
            base = 2 / np.sqrt(1 + np.abs(fp) ** 2)
        else:
            base = 2 * np.abs(q - fp) / np.sqrt((1 + abs(q) ** 2) * (1 + np.abs(fp) ** 2))
        groups.append((base, edge[finite], seg[finite]))
    if (~finite).any():
        dinf = 0.0 if q == INF else 2 / math.sqrt(1 + abs(q) ** 2)
        groups.append((np.array([dinf]), edge[~finite][:1], seg[~finite][:1]))
    plane = starts[finite[starts] & finite[ends]]
    if q != INF and plane.size:
        groups.append((_full_scan_project(q, pts[plane], pts[plane + 1]), edge[plane], index[plane]))
    inverted = starts[admits_w[starts] & admits_w[ends]]
    qw = 0j if q == INF else (1 / q if q != 0 else None)
    if qw is not None and inverted.size:
        groups.append((_full_scan_project(qw, w[inverted], w[inverted + 1]), edge[inverted], index[inverted]))
    best = (0, 0, math.inf)
    for d, earr, sarr in groups:
        k = int(np.argmin(d))
        if d[k] < best[2]:
            best = (int(earr[k]), int(sarr[k]), float(d[k]))
    return best


def reference_classify_point(f, z, max_iter=256, keep_trace=False):
    """classify_point measuring every root and every pole at every step: the
    orbit loop without the root and pole bands."""
    from newtongraph.dynamics import STAY_ITERATES, OrbitResult, _snap_pole

    z = point(z)
    trace = [z] if keep_trace else None

    def result(kind, **fields):
        return OrbitResult(kind, trace=tuple(trace) if trace else None, **fields)

    if z == INF:
        return result("fixed_infinity", entry_step=0)
    basin_tol, rho = f.tol.basin_tol, f.exit_radius
    cand, step = -1, 0
    for s in range(max_iter + STAY_ITERATES + 1):
        if z == INF or _snap_pole(f, z):
            if z != INF and trace is not None:
                trace.append(INF)
            return result("unresolved", hit_prepole=True)
        idx, dist = f.nearest_root(z)
        near = dist <= basin_tol
        if not (near and idx == cand):
            cand, step = (idx if near else -1), s
        if near and (s - step >= STAY_ITERATES or (dist < rho and step <= max_iter)):
            return result("basin", root_index=cand, entry_step=step)
        z = f.evaluate(z)
        if trace is not None:
            trace.append(z)
    return result("unresolved")


def conjugate_coeffs(coeffs, a):
    """Coefficients of a^d p(z / a), lowest first: the roots scaled by a."""
    d = len(coeffs) - 1
    return tuple(complex(c) * a ** (d - k) for k, c in enumerate(coeffs))
