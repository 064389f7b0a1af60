"""Pullback of the channel diagram under the Newton map.

Each pass lifts the newest edges: an edge with tail t is lifted once from
every preimage x of t, along each of the local-degree-many inverse branches
at x. Each newest edge is cut into the fewest near-equal segments of at
most _CUT_SPACING samples, and the fibers over all heads and tails of those
edges and over every cut sample are solved first, in one batched root
solve over one array of rows. A cut is used only if its fiber
certifies as deg f simple points pairwise at least match_tol apart
(chordal); otherwise it is dropped and its two segments run as one. All
segments of all lifts run in one lockstep run, the later segments of an
edge from every point over their cut, so the run is as long as the longest
segment, not the longest edge. Each lift is then chained through the cuts:
its segment's end must lie within match_tol of exactly one point over the
cut, and no two lifts of an edge may take one point, or BranchJump names
the edge and the cut sample. A failed segment raises only if a kept lift
runs through it, and the first lift in lane order that failed raises. A
fiber takes its marked points, each with its local model, from the map (the
marks over its target); its other points are unmarked. A fiber comes out
bit for bit the same at every level, so a vertex is found by its exact
value, not by distance, and each fiber is solved once per tower. A lift's
head is read once, from r = b u^m / W of the local model f(c + u) = f(c) +
b u^m at each point c over it: |r| picks the point, arg r the sheet. The
lifts are then thinned to the rays' sample spacing about both ends. Tails
of lifts map onto tails of sources, so orientation, the edge map and the
vertex map come from lift bookkeeping instead of after-the-fact geometry
matching; so do the stars, as each end of a lift takes its angle from its
source's on its own sheet. Fixed edges are their own lifts; on the first
pass the branch that retraces the source is skipped and the existing edge
kept. A lift runs from the mark of a fiber point to the mark of another,
and every vertex carries its mark from there on. The tower stops one
pullback after the marks' branching indices add up to 2d - 2, that is
after every critical point has become a vertex. Let M be the first level
that holds every critical value. When that last pass builds level M + 2,
it is not traced: combinatorial.lift_level builds it from level M + 1 alone,
as every face of level M then has deg f disjoint preimage disks. Its
geometry is traced by the same pass only when graphs[-1] is first read,
and renumbered as the combinatorial block. Levels up to M + 1, and
locate_face on any traced level, stay geometric.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .combinatorial import (
    KIND_POLE,
    KIND_ROOT,
    ConditionCheck,
    EmbeddedGraph,
    GraphDynamics,
    UnionFind,
    ValidationReport,
    dart_closure,
    embedded_graph_from_rotations,
    graph_to_json,
    lift_level,
    validate_newton_graph,
)
from .dynamics import critical_orbits, require_postcritically_fixed
from .errors import (
    BranchJump,
    EndpointUnmatched,
    InvalidGraph,
    LevelCapExceeded,
    NonPlanarIncidence,
)
from .poly import MarkedPoint, NewtonMap, horner, roots_of_rows
from .rays import (
    _TAU,
    MAX_BISECTION_DEPTH,
    GeoEdge,
    GeoGraph,
    _circular_gap,
    _mod_tau,
    channel_diagram,
    continue_inverse_branch,
    converged,
    frozen_polyline,
    geograph_to_json,
    nearest_edge_point,
    on_branch,
    residual_ok,
    solve_preimage_near,
)
from .sphere import (
    INF,
    SpherePoint,
    chordal_distance,
    chordal_distances,
    closest_pair,
    offset,
    point,
)
from .tolerances import Tolerances


@dataclass(frozen=True)
class DynamicGraph:
    """Geometric graph with the self-map bookkeeping of a pullback tower.

    vertex_map/edge_map give the image vertex/edge under f (fixed for the
    level-0 core); edge_level records the pass on which each edge first
    appeared, so the level-n subgraph is a prefix slice; marks[i] is the
    map's mark at vertex i, as its fiber solve gave it.
    """

    geo: GeoGraph
    level: int
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]
    edge_level: tuple[int, ...]
    marks: tuple[MarkedPoint, ...]

    def root_owner(self, edge: int) -> int:
        """Vertex index of the root whose basin carries this edge: the tail
        of the edge's level-0 ancestor under the edge map."""
        j = edge
        while self.edge_level[j] > 0:
            j = self.edge_map[j]
        return self.geo.edges[j].tail

    def edges_at_level(self, level: int) -> tuple[int, ...]:
        return tuple(j for j, l in enumerate(self.edge_level) if l == level)


def base_dynamic_graph(f: NewtonMap) -> DynamicGraph:
    """The channel diagram as a level-0 tower: every vertex and edge fixed."""
    geo = channel_diagram(f)
    n_v, n_e = len(geo.vertices), len(geo.edges)
    return DynamicGraph(
        geo=geo,
        level=0,
        vertex_map=tuple(range(n_v)),
        edge_map=tuple(range(n_e)),
        edge_level=(0,) * n_e,
        marks=f.marked_points[: len(f.roots)] + (f.infinity,),
    )


# --- preimages ----------------------------------------------------------


def _fibers(
    f: NewtonMap, targets: list[complex], cuts: list[complex] = ()
) -> list[tuple[MarkedPoint, ...] | np.ndarray | None]:
    """The fiber over each target point, each point as its mark, then the
    fiber over each cut sample, as an array of its points or None; the
    polynomials numerator - w * denominator of all finite targets and of all
    cuts formed in one broadcast (NewtonMap.fiber_rows) and solved in one
    roots_of_rows call.

    The marks over a target w (f.marks_over) are its fiber's marked points:
    over INF they are the whole fiber, and over a finite w each is divided
    out of numerator - w * denominator to its local degree, so it comes back
    exactly and only the simple remainder is solved. The other points are
    unmarked. The map's marks must lie match_tol apart, so that each target
    finds its own. Each fiber is checked on its own, in order: each point's
    multiplicity in the solve must be its mark's local degree, with b finite
    and nonzero, the degrees must sum to deg f, and two points closer than
    match_tol abort rather than silently merging. A cut's fiber is kept only
    if it certifies as deg f simple points pairwise at least match_tol apart
    (chordal); else it is None, as is a cut whose row cannot be certified,
    so a cut never fails a solve.
    """
    f.require_separated_marks()
    over = [f.marks_over(w) for w in targets]
    ends = [k for k, w in enumerate(targets) if w != INF]
    solved = roots_of_rows(
        f.fiber_rows(np.array([targets[k] for k in ends] + list(cuts), dtype=complex)),
        known=[[(mark.value, mark.local_degree) for mark in over[k]] for k in ends]
        + [()] * len(cuts),
        names=[f"the fiber over {targets[k]}" for k in ends] + [None] * len(cuts),
    )
    at_ends = iter(solved[: len(ends)])
    out, solves = [], []
    for w, marks in zip(targets, over):
        solve = [(mark.value, mark.local_degree) for mark in marks] if w == INF else next(at_ends)
        known = {mark.value: mark for mark in marks}
        out.append(tuple(known[z] if z in known else f.unmarked(z) for z, _ in solve))
        solves.append(solve)
    crowded = _crowded([[mark.value for mark in fiber] for fiber in out], f.tol.match_tol)
    for w, fiber, solve, near in zip(targets, out, solves, crowded):
        for mark, (_, m) in zip(fiber, solve):
            if m != mark.local_degree or not 0 < abs(mark.coefficient) < math.inf:
                raise NonPlanarIncidence(
                    f"fiber point {mark.value} over {w} has multiplicity {m} in the "
                    f"solve, its mark local degree {mark.local_degree} and b = "
                    f"{mark.coefficient}"
                )
        total = sum(m for _, m in solve)
        if total != f.degree:
            raise NonPlanarIncidence(
                f"fiber over {w} carries total degree {total}, expected {f.degree}"
            )
        gap, i, j = closest_pair([mark.value for mark in fiber]) if near else (math.inf, 0, 0)
        if gap < f.tol.match_tol:
            raise NonPlanarIncidence(
                f"fiber points {fiber[i].value} and {fiber[j].value} over {w} "
                f"collide below match_tol; vertex merging would corrupt "
                f"the embedding"
            )
    return out + _cut_fibers(f, solved[len(ends):])


def _crowded(fibers: list[list[complex]], tol: float) -> np.ndarray:
    """Whether each fiber may hold two points closer than tol (chordal), by
    one chordal_distances pass over all of them: a pair within 2 tol, or a
    point at infinity or past sphere's overflow guard, where the pass reads
    0 or not a number. closest_pair then decides on the crowded ones. A lone
    fiber, which closest_pair measures faster than the pass, is crowded."""
    if len(fibers) < 2:
        return np.ones(len(fibers), dtype=bool)
    width = max(len(points) for points in fibers)
    z = np.zeros((len(fibers), width), dtype=complex)
    held = np.zeros((len(fibers), width), dtype=bool)
    for k, points in enumerate(fibers):
        z[k, : len(points)] = points
        held[k, : len(points)] = True
    pairs = held[:, :, None] & held[:, None, :] & ~np.eye(width, dtype=bool)
    apart = chordal_distances(z[:, :, None], z[:, None, :]) >= 2 * tol
    return (pairs & ~apart).any(axis=(1, 2))


def _cut_fibers(f: NewtonMap, solved: list[np.ndarray | None]) -> list[np.ndarray | None]:
    """Each cut fiber as the array of its deg f simple points, as the solve
    gives it, or None unless they are pairwise at least match_tol apart
    (chordal)."""
    out: list[np.ndarray | None] = [None] * len(solved)
    simple = [k for k, row in enumerate(solved) if row is not None]
    if simple:
        z = np.stack([solved[k] for k in simple])
        gap = chordal_distances(z[:, :, None], z[:, None, :])
        gap[:, np.eye(f.degree, dtype=bool)] = math.inf
        # a point past sphere._BIG gives a gap of 0 or not a number: dropped
        apart = (gap >= f.tol.match_tol).all(axis=(1, 2))
        for k in np.array(simple)[apart].tolist():
            out[k] = solved[k]
    return out


def lift_point(f: NewtonMap, w: complex) -> tuple[tuple[SpherePoint, int], ...]:
    """All preimages of w under f with their local degrees, summing to deg f.

    Finite fibers solve numerator - w * denominator = 0; the fiber over
    infinity is the poles plus infinity itself. This is _fibers, the fiber
    solve that pullback_level runs for a whole level at once, over the mark
    at w. Each point is a SpherePoint, a complex number that also answers
    value and is_infinity.
    """
    fiber = _fibers(f, [f.marked_point(w).value])[0]
    return tuple((SpherePoint(mark.value), mark.local_degree) for mark in fiber)


def _branched_first_step(
    f: NewtonMap, w0: complex, w1: complex, start: MarkedPoint, direction: float, depth: int = 0
) -> complex:
    """First continuation step away from the critical start mark x0, on
    the inverse branch that leaves x0 in the given direction.

    Its local model places the preimage of w1 near x0 + rho e^{i phi} with
    rho = (|w1 - w0| / |b|)^(1/order); the corrected point must stay within
    0.6 rho of that seed (adjacent branches are 2 rho sin(pi/order) apart),
    otherwise the segment is subdivided until the model holds.
    """
    x0, _, order, coeff = start
    rho = (abs(w1 - w0) / abs(coeff)) ** (1.0 / order)
    seed = x0 + rho * cmath.exp(1j * direction)
    x = solve_preimage_near(f, w1, seed)
    if x is not None and abs(x - seed) <= 0.6 * rho:
        return x
    if depth >= MAX_BISECTION_DEPTH:
        raise BranchJump(
            f"inverse branch at direction {direction:.6f} lost leaving "
            f"critical point {x0}"
        )
    mid = (w0 + w1) / 2
    xm = _branched_first_step(f, w0, mid, start, direction, depth + 1)
    return continue_inverse_branch(f, mid, w1, xm)


# Gates on the fiber point a lift ran into: the best score, the runner-up's
# lead over it (a factor 5 in distance), and the lift's turn off its sheet.
_END_SCORE = math.log(2)
_END_MARGIN = math.log(5)
_END_TURN = 0.25


def _head_ranking(
    fiber: tuple[MarkedPoint, ...], head: complex, w_last: complex, x_last: complex
) -> list[tuple[float, int, complex]]:
    """(score, index into the fiber over head, r) per fiber point, best first.
    Near a point c of local degree m the model is W = b u^m, u = offset(c,
    x_last) and W = offset(head, w_last), so r = b u^m / W is 1 for an exact
    fit. The score |log|r|| / m = |log(|u| / rho)|, rho = (|W| / |b|)^(1/m)
    the predicted distance, is unchanged when the map is scaled."""
    gap = offset(head, w_last)
    ranked = []
    for i, (c, _, m, b) in enumerate(fiber):
        # x_last = 0 has no offset from c = INF: it fits no model there
        r = b * offset(c, x_last) ** m / gap if x_last != 0 or c != INF else 0j
        fits = 0 < abs(r) < math.inf
        ranked.append((abs(math.log(abs(r))) / m if fits else math.inf, i, r))
    ranked.sort()
    return ranked


def _read_head(
    fiber: tuple[MarkedPoint, ...], head: complex, w_last: complex, x_last: complex,
    theta: float, edge: int | None,
) -> tuple[MarkedPoint, float]:
    """The mark a lift ends at, one sample after x_last over w_last, and the
    angle it leaves it at. By _head_ranking the best score must be at most
    log 2 (the distance within a factor 2 of the prediction) and the
    runner-up's at least log 5 larger: ratios, unchanged when the map is
    scaled. They hold for a lift of a ray's closing chord because the ray
    radius keeps its end within a quarter of the clearance of the pole, or
    the mark over a pole, it ends at (NewtonMap.ray_radius); a fixed radius
    below that, such as 4 for z^7 - 1, leaves the reading ambiguous over the
    pole 0 at level 2. arg r, the turn by which the lift misses its
    sheet t, must be at most _END_TURN; the lift leaves its head at (theta -
    arg b + 2 pi t) / m, the source's head angle theta moved onto W's turn.
    edge names the source edge in the errors."""
    ranked = _head_ranking(fiber, head, w_last, x_last)
    best, i, r = ranked[0]
    runner_up = ranked[1][0] if len(ranked) > 1 else math.inf
    where = "lift" if edge is None else f"lift of source edge {edge}"
    scores = f"scores {best:.3g} and {runner_up:.3g}"
    if best > _END_SCORE:
        raise EndpointUnmatched(
            f"{where} ends at {x_last}, away from every preimage of the head "
            f"{head}: {scores}, the best above log 2"
        )
    if runner_up - best < _END_MARGIN:
        raise EndpointUnmatched(
            f"{where} ends at {x_last}, ambiguous between fiber points "
            f"{fiber[i].value} and {fiber[ranked[1][1]].value} over the head {head}: "
            f"{scores}, less than log 5 apart"
        )
    miss = cmath.phase(r)
    if abs(miss) > _END_TURN * _TAU:
        raise EndpointUnmatched(
            f"{where} ends at {x_last}, {abs(miss) / _TAU:.3g} turn "
            f"off the sheets of the local model at the head {head}, above {_END_TURN}"
        )
    c, _, m, _ = end = fiber[i]
    u, gap = offset(c, x_last), offset(head, w_last)
    turn = math.remainder(theta - cmath.phase(gap), _TAU)
    return end, _mod_tau(cmath.phase(u) + (turn - miss) / m)


def lift_edge(
    f: NewtonMap,
    edge_points: np.ndarray,
    start: complex,
    branch_direction: float | None = None,
) -> np.ndarray:
    """Lift a polyline under f, starting at the given preimage of its tail.

    The one-edge call of the level lift (_lift_lanes on one lane, in the
    segments of _solve_ends_and_cuts, whose one solve gives the fiber over
    the head and those over the cuts); no two consecutive samples may be
    equal. The final vertex is never solved for directly (it is typically a
    critical point or infinity) but read off the fiber over the source head
    by the local model there (_read_head), under the level lift's gates on
    the end match and on the sheet. At a start of local degree m >= 2 the m
    lifts are distinguished by branch_direction, the initial tangent of the
    desired lift; a simple start has one lift and takes None. The lift is a
    read-only complex array, inf at an end at infinity, with one sample over
    each sample of the polyline: it is not thinned as the lifts of a
    pullback pass are.
    """
    points = frozen_polyline(edge_points)
    start = point(start)
    if len(points) < 3:
        raise ValueError("polyline needs interior samples to continue along")
    tail, head = point(points[0]), point(points[-1])
    if tail == INF or start == INF:
        raise ValueError("edge tails and lift starts must be finite points")
    if not np.isfinite(points[1:-1]).all():
        raise ValueError("interior samples must be finite")
    repeats = np.flatnonzero(points[1:] == points[:-1])
    if len(repeats):
        raise ValueError(f"sample {repeats[0] + 1} repeats the sample before it")
    if chordal_distance(f.evaluate(start), tail) > f.tol.match_tol:
        raise ValueError(f"start {start} is not a preimage of the tail {tail}")

    mark = f.marked_point(start)
    if (mark.local_degree > 1) != (branch_direction is not None):
        raise ValueError(
            f"start {start} has local degree {mark.local_degree}; a branch "
            f"direction selects one of its lifts exactly when that is above 1"
        )
    [head_fiber], cuts = _solve_ends_and_cuts(f, [f.marked_point(head).value], {0: points})
    [samples] = _lift_lanes(f, {0: points}, cuts, [(0, mark, branch_direction)])
    # the source carries no head angle here; the angle read is not kept
    end, _ = _read_head(head_fiber, head, complex(points[-2]), complex(samples[-1]), 0.0, None)
    return frozen_polyline(np.append(samples, end.value))


# --- lockstep lifting -------------------------------------------------------


def _newton_round(
    coeffs: np.ndarray,
    far: np.ndarray | None,
    values: np.ndarray,
    x0: np.ndarray,
    target: np.ndarray,
    active: np.ndarray,
    tol: Tolerances,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One continuation step on every active lane: the Newton iteration of
    solve_preimage_near from x0 toward a/b = target, with its step and
    gates and those of continue_inverse_branch. values holds the three rows
    of coeffs at x0; far marks the lanes in the 1/z chart, None where there
    are none. Returns the new points (x0 on inactive lanes), the rows
    there, and which active lanes passed every gate."""
    n = len(x0)
    x = x0
    done = ~active
    for _ in range(50):
        a, b, e = values[:n], values[n : 2 * n], values[2 * n :]
        line = x * b - a if far is None else np.where(far, b - x * a, x * b - a)
        step = (a - target * b) * b / (e * line)
        x_new = x - step
        np.copyto(x_new, x, where=done)
        done |= converged(step, x_new, tol)
        x = x_new
        values = horner(coeffs, np.concatenate((x,) * 3))
        if np.count_nonzero(done) == n:
            break
    res = np.abs(values[:n] / values[n : 2 * n] - target)
    ok = done & active & residual_ok(res, target, tol) & on_branch(x, x0)
    return x, values, ok


# A level lift cuts each source into the fewest near-equal segments of at
# most _CUT_SPACING samples, so no segment runs more than _CUT_SPACING rounds
# of the lockstep kernel, whose round costs about the same at 10 lanes as at
# 100, while each cut adds one row to the level's fiber solve. Measured on
# the seven timed seed-7 tower maps of perfbench, one build each: fiber rows,
# kernel rounds, and build time against the layout before equal segments
# and array fiber rows (24-sample cuts: 245 rows, 312 rounds), the least of
# 20 runs interleaved in one process, over three runs at seeds 7 and 11:
#   spacing      8      12      16      24
#   rows       853     578     450     313
#   rounds      88     131     167     239
#   time     0.920   0.902   0.896   0.922
_CUT_SPACING = 16


def _cut_samples(last: int) -> list[int]:
    """The cut samples of a source whose last lifted sample is last: the
    fewest that leave no segment longer than _CUT_SPACING, spread so that
    segment lengths differ by at most one. A source no longer than
    _CUT_SPACING is not cut."""
    parts = -(-last // _CUT_SPACING)
    return [i * last // parts for i in range(1, parts)]


def _solve_ends_and_cuts(
    f: NewtonMap, targets: list[complex], polylines: dict[int, np.ndarray]
) -> tuple[list[tuple[MarkedPoint, ...]], dict[int, list]]:
    """The fibers over targets, and by edge the cuts of each polyline
    (_cut_samples), each as (sample index, the fiber over it): all those
    fibers in one _fibers call. A cut whose fiber does not certify is
    dropped, and its two segments run as one."""
    cut_at = {j: _cut_samples(len(p) - 2) for j, p in polylines.items()}
    solved = _fibers(
        f, targets, [complex(polylines[j][c]) for j in polylines for c in cut_at[j]]
    )
    over_cuts = iter(solved[len(targets):])
    cuts = {
        j: [(c, fiber) for c, fiber in zip(cut_at[j], over_cuts) if fiber is not None]
        for j in polylines
    }
    return solved[: len(targets)], cuts


def _lift_lanes(
    f: NewtonMap,
    sources: dict[int, np.ndarray],
    cuts: dict[int, list],
    lanes: list[tuple[int, MarkedPoint, float | None]],
) -> list[np.ndarray]:
    """Every lane's lift at once, in segments between the cuts of its source.

    sources maps an edge to its polyline, and cuts an edge to its cuts as
    _solve_ends_and_cuts gives them; an edge without cuts is lifted uncut.
    A lane (edge, start, direction) lifts that edge from the mark of one
    preimage of its tail, in the branch direction of _branched_first_step,
    None at a simple start. Segment 0 of each lane runs from its start to
    the first cut; each later segment of a source runs from every point of
    the fiber over its cut to the next cut, or to the last sample before
    the head. All segments advance in one lockstep run, one sample per
    round, padded to the longest segment. A segment lane that fails a gate
    in a round, and the branched first step off a critical start, take the
    scalar continuation for that round.

    Each lane's lift is then chained through the cuts: a segment's end must
    lie within match_tol (chordal) of exactly one point of the fiber over
    the cut, that point becomes the lift's sample there, and the lift goes
    on in the segment lifted from it; no two lifts of one source may take
    one point. Returns each lane's samples, one over each sample of its
    source but the head. A segment that fails fails only the lifts chained
    through it, so a segment no lift takes (as the fixed branch of a level-0
    edge) never raises. The error raised is the first lane's, in lane order,
    whose lift failed, the error a lift of the lanes one after another
    raises; a failed match raises BranchJump naming the source edge and the
    cut sample.
    """
    if not lanes:
        return []
    tol = f.tol
    n_lanes = len(lanes)
    edges = list(dict.fromkeys(j for j, _, _ in lanes))
    # (first, last) sample of each segment of each source
    stops = {j: [c for c, _ in cuts.get(j, ())] + [len(sources[j]) - 2] for j in edges}
    seg_edge = [j for j, _, _ in lanes]
    seg_first = [0] * n_lanes
    seg_last = [stops[j][0] for j in seg_edge]
    starts = [start.value for _, start, _ in lanes]
    fanned = {}  # (edge, cut number): the first segment lane from that cut's fiber
    for j in edges:
        for i, (c, fiber) in enumerate(cuts.get(j, ())):
            fanned[j, i] = len(seg_edge)
            seg_edge += [j] * len(fiber)
            seg_first += [c] * len(fiber)
            seg_last += [stops[j][i + 1]] * len(fiber)
            starts += fiber.tolist()
    first = np.array(seg_first, dtype=np.int64)
    steps = np.array(seg_last, dtype=np.int64) - first
    n_seg, n_rounds = len(seg_edge), int(steps.max())
    # round k of a segment lane lifts onto its sample first + k, held at its last
    at = dict(zip(edges, np.cumsum([0] + [len(sources[j]) for j in edges]).tolist()))
    flat = np.concatenate([sources[j] for j in edges])
    base = np.array([at[j] for j in seg_edge], dtype=np.int64) + first
    w = flat[base + np.minimum(np.arange(n_rounds + 1)[:, None], steps)]
    alive = np.arange(n_rounds + 1)[:, None] <= steps
    branched = np.zeros(n_seg, dtype=bool)
    branched[:n_lanes] = [direction is not None for _, _, direction in lanes]
    x = np.empty_like(w)
    x[0] = starts
    failed = np.zeros(n_seg, dtype=bool)
    errors: dict[int, BranchJump] = {}

    def scalar_step(lane: int, k: int) -> None:
        w0, w1 = complex(w[k - 1, lane]), complex(w[k, lane])
        x0 = complex(x[k - 1, lane])
        try:
            if k == 1 and branched[lane]:
                x[k, lane] = _branched_first_step(f, w0, w1, *lanes[lane][1:])
            else:
                x[k, lane] = continue_inverse_branch(f, w0, w1, x0)
        except BranchJump as exc:
            errors[lane] = exc
            failed[lane] = True

    with np.errstate(all="ignore"):
        # each lane solves in the map's chart for its round's target; coeffs,
        # and the rows' values at x, are made afresh when a lane's chart changes
        far, target = f.lane_targets(w)
        for k in range(1, n_rounds + 1):
            if k == 1 or (far[k] != chart).any():
                chart = far[k]
                coeffs = f.lane_rows(chart)
                lanes_far = chart if chart.any() else None
                values = horner(coeffs, np.concatenate((x[k - 1],) * 3))
            active = alive[k] & ~failed if errors else alive[k]
            if k == 1:
                active = active & ~branched
            x[k], values, ok = _newton_round(
                coeffs, lanes_far, values, x[k - 1], target[k], active, tol
            )
            scalar = active & ~ok
            if k == 1:
                scalar |= branched
            if np.count_nonzero(scalar):
                for lane in np.flatnonzero(scalar).tolist():
                    scalar_step(lane, k)
                values = horner(coeffs, np.concatenate((x[k],) * 3))

    # chain every lane through its source's cuts, cut by cut: chain[lane, i]
    # is its segment lane after its source's i-th cut, and the cut tables
    # hold, by source and cut, its sample, first segment lane and fiber
    source_of = {j: k for k, j in enumerate(edges)}
    lane_source = np.array([source_of[j] for j in seg_edge[:n_lanes]])
    n_cuts = np.array([len(cuts.get(j, ())) for j in edges])
    depth = int(n_cuts.max())
    cut_sample = np.zeros((len(edges), depth), dtype=np.int64)
    cut_lane = np.zeros((len(edges), depth), dtype=np.int64)
    cut_fiber = np.zeros((len(edges), depth, f.degree), dtype=complex)
    for k, j in enumerate(edges):
        for i, (c, fiber) in enumerate(cuts.get(j, ())):
            cut_sample[k, i], cut_lane[k, i], cut_fiber[k, i] = c, fanned[j, i], fiber
    chain = np.empty((n_lanes, depth + 1), dtype=np.int64)
    chain[:, 0] = np.arange(n_lanes)
    lane_cuts = n_cuts[lane_source]
    failures: dict[int, BranchJump] = {}  # per lane, the first failure of its lift

    def segment_errors(lanes: list[int], stages: list[int]) -> None:
        for lane, i in zip(lanes, stages):
            seg = int(chain[lane, i])
            if seg in errors:
                failures.setdefault(lane, errors[seg])

    for i in range(depth):
        live = np.flatnonzero(lane_cuts > i)
        if errors:
            segment_errors(live.tolist(), [i] * len(live))
        src, seg = lane_source[live], chain[live, i]
        c = cut_sample[src, i]
        ends = x[c - first[seg], seg]
        near = chordal_distances(ends[:, None], cut_fiber[src, i]) <= tol.match_tol
        hits, pick = near.sum(axis=1), near.argmax(axis=1)
        chain[live, i + 1] = cut_lane[src, i] + pick
        # a lane not failed yet fails on any hit count but one, and where
        # another such lane of its source takes its point
        kept = ~np.isin(live, list(failures))
        single = kept & (hits == 1)
        _, where, count = np.unique(src[single] * f.degree + pick[single],
                                    return_inverse=True, return_counts=True)
        met = np.zeros(len(live), dtype=bool)
        met[single] = count[where] > 1
        for k in np.flatnonzero((kept & (hits != 1)) | met).tolist():
            j, at = edges[src[k]], complex(sources[edges[src[k]]][c[k]])
            failures[int(live[k])] = BranchJump(
                f"lift of source edge {j} jumps sheets at cut sample {c[k]}: its "
                f"end {complex(ends[k])} lies within match_tol of {hits[k]} "
                f"points over {at}"
            ) if hits[k] != 1 else BranchJump(
                f"lifts of source edge {j} meet at cut sample {c[k]}, at the "
                f"point {complex(cut_fiber[src[k], i, pick[k]])} over {at}"
            )
    if errors:
        segment_errors(list(range(n_lanes)), lane_cuts.tolist())
    if failures:
        raise failures[min(failures)]

    # sample t of a lift is sample t - first of the segment lane it is in
    out: list[np.ndarray] = [None] * n_lanes
    for k, j in enumerate(edges):
        lanes_j = np.flatnonzero(lane_source == k)
        cut_at = np.concatenate(([0], cut_sample[k, : n_cuts[k]]))
        t = np.arange(len(sources[j]) - 1)
        stage = np.searchsorted(cut_at, t, side="right") - 1
        lifted = x[t - cut_at[stage], chain[lanes_j][:, stage]]
        for lane, samples in zip(lanes_j.tolist(), lifted):
            out[lane] = samples
    return out


def _thinned_lifts(paths: list[np.ndarray], ratio: float) -> list[np.ndarray]:
    """Every lifted polyline thinned by the greedy rule of rays._thinned,
    taken about both of its ends.

    Near an end of local degree m the lift divides log-polar distance by m,
    so it is m-fold oversampled there. An interior sample is dropped when
    the chord from the last kept sample to the sample after it lies within
    log(ratio) in log-polar distance about the tail and also about the head;
    about a head at infinity the distance is taken in the 1/z chart, which
    is the same distance about 0. The two samples at each end are kept, so
    end matches and branch seeds read the lift's own samples.

    Each sample's log-polar coordinates log|u| + i arg u about both ends are
    computed once, with the argument continued along the polyline. A chord
    that turns less than half a turn about an end has the distance of the
    principal logarithm there, and one that turns more a larger distance,
    so a chord that winds around an end is never taken as short. The lanes
    then run in lockstep, one sample per round.
    """
    if not paths:
        return []
    n_lanes = len(paths)
    lengths = np.array([len(p) for p in paths], dtype=np.int64)
    rows = int(lengths.max())
    flat = np.concatenate(paths)
    stops = np.cumsum(lengths)
    lane_of = np.repeat(np.arange(n_lanes), lengths)
    row_of = np.arange(len(flat)) - np.repeat(stops - lengths, lengths)
    # every lane without its head, padded with its last interior sample
    x = np.empty((rows, n_lanes), dtype=complex)
    x[:] = flat[stops - 2]
    body = row_of < lengths[lane_of] - 1
    x[row_of[body], lane_of[body]] = flat[body]
    heads = flat[stops - 1]
    # offsets from the tail and from the head, shape (rows, 2, lanes)
    u = np.stack((x - x[0], x - np.where(np.isinf(heads), 0, heads)), axis=1)
    polar = np.empty_like(u)
    keep = np.zeros((rows, n_lanes), dtype=bool)
    limit = math.log(ratio)
    with np.errstate(all="ignore"):
        polar.real = np.log(np.abs(u))
        polar.imag[0] = 0
        np.cumsum(np.angle(u[1:] * u[:-1].conj()), axis=0, out=polar.imag[1:])
        last = polar[1].copy()
        # a lane's rows past its end decide nothing; they are masked below
        for k in range(2, rows - 2):
            far = np.abs(polar[k + 1] - last) > limit
            np.logical_or(far[0], far[1], out=keep[k])
            np.copyto(last, polar[k], where=keep[k])
    keep &= np.arange(rows)[:, None] < lengths - 2
    keep[:2] = True
    lanes = np.arange(n_lanes)
    keep[lengths - 2, lanes] = keep[lengths - 1, lanes] = True
    kept = frozen_polyline(flat[keep[row_of, lane_of]])
    return np.split(kept, np.cumsum(keep.sum(axis=0))[:-1])


# --- one pullback pass ----------------------------------------------------


def pullback_level(
    f: NewtonMap,
    current: DynamicGraph,
    fibers: dict[complex, tuple[MarkedPoint, ...]] | None = None,
) -> DynamicGraph:
    """One pullback pass: lift every newest edge from every preimage of its
    tail, thin the lifts, merge endpoints, and keep the connected component
    of the core.

    Lifts of older edges are already present (a level-n edge maps onto a
    level-(n-1) edge), so only the top level is lifted; on the first pass the
    branch retracing a fixed edge is recognized by its direction and skipped.
    All lifts of the level run together, in lockstep (_lift_lanes), each
    in segments between the cuts of its source (_solve_ends_and_cuts); each
    head is then read once (_read_head) for its mark and angle, and the
    lifts, closed by their heads, are thinned to the rays' spacing about
    both their ends (_thinned_lifts), so each kept sample maps onto a sample
    of its source. A lift leaves its tail on the sheet whose branch seed
    lies over the source's first chord psi, at the source's tail angle moved
    onto psi's turn. fibers holds the fibers solved so far in the tower,
    keyed by exact target value; the fibers over the ends of the newest
    edges that it lacks are solved in one call with the fibers over their
    cuts, and added to it.
    """
    geo = current.geo
    newest = current.edges_at_level(current.level)
    fibers = {} if fibers is None else fibers
    ends = dict.fromkeys(
        geo.vertices[v] for j in newest for v in (geo.edges[j].head, geo.edges[j].tail)
    )
    new = [w for w in ends if w not in fibers]
    sources = {j: geo.edges[j].points for j in newest}
    solved, cuts = _solve_ends_and_cuts(f, new, sources)
    fibers.update(zip(new, solved))

    lanes = []  # (source edge, start mark, branch direction or None)
    tail_angles = []
    for j in newest:
        e = geo.edges[j]
        tail_pt = geo.vertices[e.tail]
        psi = cmath.phase(complex(e.points[1]) - tail_pt)
        bend = math.remainder(e.angles[0] - psi, _TAU)
        for start in fibers[tail_pt]:
            x, _, order, coeff = start
            base = (psi - cmath.phase(coeff)) / order
            directions = [_mod_tau(base + _TAU * t / order) for t in range(order)]
            if current.level == 0 and x == tail_pt:
                # a fixed edge is one of its own lifts; drop that branch
                directions.remove(min(directions, key=lambda d: _circular_gap(d, psi)))
            for direction in directions:
                lanes.append((j, start, direction if order > 1 else None))
                tail_angles.append(_mod_tau(direction + bend / order))
    lifted = _lift_lanes(f, sources, cuts, lanes)
    heads = []  # (head mark, head angle) per lane
    for (j, _, _), samples in zip(lanes, lifted):
        e, head = geo.edges[j], geo.vertices[geo.edges[j].head]
        w_last, x_last = complex(e.points[-2]), complex(samples[-1])
        heads.append(_read_head(fibers[head], head, w_last, x_last, e.angles[1], j))
    paths = _thinned_lifts(
        [np.append(samples, end.value) for samples, (end, _) in zip(lifted, heads)],
        f.tol.sample_ratio,
    )

    # merge endpoints into the vertex list, newest last; a vertex is its mark
    marks = list(current.marks)
    vmap = list(current.vertex_map)

    # a fiber point is a vertex exactly when its value is one (module docstring)
    index = {v: i for i, v in enumerate(geo.vertices)}

    def locate_or_add(mark: MarkedPoint, image_vertex: int) -> int:
        i = index.get(mark.value)
        if i is None:
            i = index[mark.value] = len(marks)
            marks.append(mark)
            vmap.append(image_vertex)
        if vmap[i] != image_vertex:
            raise NonPlanarIncidence(
                f"point {mark.value} merges with vertex {i} whose image is "
                f"vertex {vmap[i]}, not {image_vertex}"
            )
        return i

    edges = list(geo.edges)
    emap = list(current.edge_map)
    elevel = list(current.edge_level)
    for (source, tail, _), tail_angle, (head, head_angle), pts in zip(
        lanes, tail_angles, heads, paths
    ):
        e = geo.edges[source]
        ti, hi = locate_or_add(tail, e.tail), locate_or_add(head, e.head)
        edges.append(GeoEdge(ti, hi, pts, (tail_angle, head_angle)))
        emap.append(source)
        elevel.append(current.level + 1)

    # keep the connected component containing the core (vertex 0 is a root)
    components = UnionFind(len(marks))
    for e in edges:
        components.union(e.tail, e.head)
    vkeep = components.classes()[0]
    if len(vkeep) != len(marks):
        vindex = {old: new for new, old in enumerate(vkeep)}
        ekeep = [j for j, e in enumerate(edges) if e.tail in vindex]
        eindex = {old: new for new, old in enumerate(ekeep)}
        marks = [marks[i] for i in vkeep]
        vmap = [vindex[vmap[i]] for i in vkeep]
        edges = [
            GeoEdge(vindex[edges[j].tail], vindex[edges[j].head], edges[j].points, edges[j].angles)
            for j in ekeep
        ]
        emap = [eindex[emap[j]] for j in ekeep]
        elevel = [elevel[j] for j in ekeep]

    return DynamicGraph(
        geo=GeoGraph(tuple(m.value for m in marks), tuple(edges), f.tol),
        level=current.level + 1,
        vertex_map=tuple(vmap),
        edge_map=tuple(emap),
        edge_level=tuple(elevel),
        marks=tuple(marks),
    )


# --- the full tower -------------------------------------------------------


def extract_combinatorial(dg: DynamicGraph) -> GraphDynamics:
    """Rotation system and self-map data of a pullback level.

    Cyclic orders sort the angles the edges carry (GeoEdge.angles, each
    lift's from its source's by the local model at its ends); the dart map
    aligns tails with tails since lifts inherit orientation from their
    sources. Vertex kinds and local degrees are the vertices' marks.
    """
    geo = dg.geo
    kinds = tuple(m.kind for m in dg.marks)
    rotations = [
        [d for _, d in geo.vertex_star(v)] for v in range(len(geo.vertices))
    ]
    graph = embedded_graph_from_rotations(
        [(e.tail, e.head) for e in geo.edges], rotations, kinds
    )
    dart_map = tuple(2 * dg.edge_map[d >> 1] + (d & 1) for d in range(2 * len(geo.edges)))
    return GraphDynamics(
        graph=graph,
        vertex_map=tuple(dg.vertex_map),
        edge_map=tuple(dg.edge_map),
        dart_map=dart_map,
        local_degree=tuple(m.local_degree for m in dg.marks),
        channel_edges=frozenset(j for j, l in enumerate(dg.edge_level) if l == 0),
        level=dg.level,
    )


class Tower(Sequence):
    """The levels of a pullback tower, level n at index n.

    traced holds the levels whose geometry the build traced. A top level
    built by combinatorics (lift_level) follows them, and its geometry is
    traced by trace() when that index is first read.
    """

    def __init__(self, traced, trace=None):
        self.traced = tuple(traced)
        self._size = len(self.traced) + (trace is not None)
        self._trace = trace
        self._top = None

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        n = len(self)
        if not -n <= index < n:
            raise IndexError(f"level {index} of a tower of {n}")
        index %= n
        if index < len(self.traced):
            return self.traced[index]
        if self._top is None:
            self._top, self._trace = self._trace(), None
        return self._top


@dataclass(frozen=True)
class NewtonGraphResult:
    """The pullback tower with its combinatorial extraction.

    graphs[n] is the level-n graph (a Tower, whose combinatorial top level
    is traced when first read); minimal_level is the first level whose
    predecessor contains every critical point as a vertex (the tower height);
    pole_cover_level is the first level containing every pole, or None if
    the tower never covered them.
    """

    graphs: Tower
    minimal_level: int
    pole_cover_level: int | None
    dynamics: GraphDynamics

    @property
    def embedded(self) -> EmbeddedGraph:
        return self.dynamics.graph


def _critical_value_level(tower: list[DynamicGraph]) -> int:
    """M: the first level of the tower that holds the image (vertex_map) of
    every vertex of local degree > 1 of its top. Vertex ids of a level are
    a prefix of the next level's, so vertex u is first at the first level
    with more than u vertices."""
    top = tower[-1]
    sizes = [len(dg.marks) for dg in tower]
    return max(
        bisect_right(sizes, top.vertex_map[v])
        for v, mark in enumerate(top.marks) if mark.local_degree > 1
    )


def _traced_top(
    f: NewtonMap,
    below: DynamicGraph,
    fibers: dict[complex, tuple[MarkedPoint, ...]],
    lifted: GraphDynamics,
) -> DynamicGraph:
    """The geometry of a combinatorial top level: pullback_level over the
    level below with the build's fiber cache, renumbered as lifted by the
    closure from dart 0 to dart 0 (dart_closure). That closure must be the
    identity on the level below and keep each dart's parity, else
    InvalidGraph."""
    traced = pullback_level(f, below, fibers)
    dyn = extract_combinatorial(traced)
    kept = 2 * len(below.geo.edges)
    match = dart_closure(dyn, lifted, 0) if dyn.graph.n_darts == lifted.graph.n_darts else None
    if match is None or match[:kept] != list(range(kept)) or any(y & 1 for y in match[::2]):
        raise InvalidGraph(
            f"the traced level {traced.level} is not its combinatorial lift through "
            f"the closure from dart 0 to dart 0, fixing level {below.level} and the "
            f"ends of each edge"
        )
    geo = traced.geo
    vertex_of = lifted.graph.vertex_of
    edge_to = [y >> 1 for y in match[::2]]
    vertex_to = [0] * len(geo.vertices)
    for x, v in enumerate(dyn.graph.vertex_of):
        vertex_to[v] = vertex_of[match[x]]
    vertices, marks, vertex_map = [None] * len(vertex_to), [None] * len(vertex_to), [0] * len(vertex_to)
    for v, u in enumerate(vertex_to):
        vertices[u], marks[u] = geo.vertices[v], traced.marks[v]
        vertex_map[u] = vertex_to[traced.vertex_map[v]]
    edges, edge_map, edge_level = [None] * len(edge_to), [0] * len(edge_to), [0] * len(edge_to)
    for j, k in enumerate(edge_to):
        e = geo.edges[j]
        edges[k] = GeoEdge(vertex_to[e.tail], vertex_to[e.head], e.points, e.angles)
        edge_map[k] = edge_to[traced.edge_map[j]]
        edge_level[k] = traced.edge_level[j]
    return DynamicGraph(
        geo=GeoGraph(tuple(vertices), tuple(edges), geo.tol),
        level=traced.level,
        vertex_map=tuple(vertex_map),
        edge_map=tuple(edge_map),
        edge_level=tuple(edge_level),
        marks=tuple(marks),
    )


def compute_newton_graph(f: NewtonMap, max_level: int = 8) -> NewtonGraphResult:
    """Pull the channel diagram back until the graph certifies itself.

    Requires a postcritically fixed map. Levels are added until every
    critical point is a vertex, plus one more pass; LevelCapExceeded carries
    the partial tower when max_level is hit first. Coverage is counted over
    the vertex marks, one per vertex: every critical point is a vertex when
    the branching indices (local degree minus one) add up to 2d - 2, every
    pole when len(f.poles) marks are poles. Let M be the first level that
    holds the image of every vertex of local degree > 1. When the last pass
    builds level M + 2, that level comes from lift_level on level M + 1, by
    combinatorics alone, and its geometry (graphs[-1]) is traced only when
    first read (Tower); its new vertices are plain, so it covers no pole
    that level M + 1 lacks. Every other level is traced by pullback_level.
    Every stage reads its numeric policy from f.tol. The top level leaves
    only once certified: it must pass the seven conditions of
    validate_newton_graph and the face counts of verify_face_counts, else
    InvalidGraph names each failed check with its witness.
    """
    require_postcritically_fixed(critical_orbits(f))
    cur = base_dynamic_graph(f)
    tower = [cur]
    fibers: dict[complex, tuple[MarkedPoint, ...]] = {}  # one solve per target
    crit_level = pole_level = None
    lifted = None
    while True:
        if crit_level is None and sum(m.local_degree - 1 for m in cur.marks) == 2 * f.degree - 2:
            crit_level = cur.level
        if pole_level is None and sum(m.kind == KIND_POLE for m in cur.marks) == len(f.poles):
            pole_level = cur.level
        if crit_level is not None and cur.level > crit_level:
            break
        if cur.level >= max_level:
            raise LevelCapExceeded(
                f"critical points still missing from the graph at the level "
                f"cap {max_level}",
                partial=tuple(tower),
            )
        if crit_level is not None and _critical_value_level(tower) == cur.level - 1:
            lifted = lift_level(extract_combinatorial(cur), cur.edge_level)
            break
        cur = pullback_level(f, cur, fibers)
        tower.append(cur)

    if lifted is None:
        graphs, dynamics = Tower(tower), extract_combinatorial(cur)
    else:
        graphs, dynamics = Tower(tower, partial(_traced_top, f, cur, fibers, lifted)), lifted
    result = NewtonGraphResult(
        graphs=graphs,
        minimal_level=crit_level + 1,
        pole_cover_level=pole_level,
        dynamics=dynamics,
    )
    failures = (
        validate_newton_graph(result.dynamics).failures
        + verify_face_counts(result, f).failures
    )
    if failures:
        raise InvalidGraph("; ".join(
            f"{c.name} failed" + (f" ({c.witness})" if c.witness else "")
            for c in failures
        ) + f" at level {dynamics.level}")
    return result


# --- point location and face counting --------------------------------------


def _cross(a: complex, b: complex) -> float:
    return (a.conjugate() * b).imag


def _chart_values(points: list[complex]) -> list[complex] | None:
    """All points (inf for infinity) in one common chart: the plane if every
    point is finite, else the 1/z chart if every point admits it."""
    if all(cmath.isfinite(p) for p in points):
        return points
    if all(p != 0 for p in points):
        return [1 / p if cmath.isfinite(p) else 0j for p in points]
    return None


def locate_face(geo: GeoGraph, embedded: EmbeddedGraph, q: complex) -> int | None:
    """Face of the embedding containing q, or None if q lies on the graph,
    within the graph's match_tol.

    The query point is sided against the nearest graph point: against the
    directed nearest segment when that point is interior to it, with the
    corner rule at polyline bends, and by rotation sector when the nearest
    point is a vertex. All side tests run in a chart containing the local
    data (1/z near infinity), so counterclockwise order is preserved. Beyond
    the map's ray radius a channel edge is its chord to infinity, so a point
    out there is sided against that chord.
    """
    q = point(q)
    ei, si, dist = nearest_edge_point(geo, q)
    if dist <= geo.tol.match_tol:
        return None

    pts = geo.edges[ei].points
    chart = _chart_values(pts[si : si + 2].tolist() + [q])
    if chart is None:
        raise ValueError(f"no common chart for segment {si} of edge {ei}")
    c0, c1, cq = chart

    seg = c1 - c0
    t = ((cq - c0) * seg.conjugate()).real / abs(seg) ** 2 if seg != 0 else 0.0
    if 0.0 < t < 1.0:
        side = _cross(seg, cq - c0)
        return embedded.face_of[2 * ei if side < 0 else 2 * ei + 1]

    corner = si if t <= 0.0 else si + 1
    if corner == 0 or corner == len(pts) - 1:
        vertex = geo.edges[ei].tail if corner == 0 else geo.edges[ei].head
        return _face_at_vertex(geo, embedded, vertex, q)

    trio = _chart_values(pts[corner - 1 : corner + 2].tolist() + [q])
    if trio is None:
        raise ValueError(f"no common chart at corner {corner} of edge {ei}")
    a, b, c, qq = trio
    incoming, outgoing, rel = b - a, c - b, qq - b
    cross_in, cross_out = _cross(incoming, rel), _cross(outgoing, rel)
    if _cross(incoming, outgoing) < 0:
        right = cross_in < 0 and cross_out < 0
    else:
        right = cross_in < 0 or cross_out < 0
    return embedded.face_of[2 * ei if right else 2 * ei + 1]


def _face_at_vertex(
    geo: GeoGraph, embedded: EmbeddedGraph, vertex: int, q: complex
) -> int:
    star = geo.vertex_star(vertex)
    alpha = _mod_tau(cmath.phase(offset(geo.vertices[vertex], q)))
    chosen = star[-1][1]
    for angle, dart in star:
        if angle <= alpha:
            chosen = dart
        else:
            break
    return embedded.face_of_corner(chosen)


def verify_face_counts(result: NewtonGraphResult, f: NewtonMap) -> ValidationReport:
    """Face bookkeeping of the basin structure.

    - boundary_fixed_points: each face of the level-0 diagram has one more
      root on its boundary than poles (with multiplicity) strictly inside it,
      and every pole lies inside some face: a pole on the diagram fails it.
    - shared_pole_access: each level-0 face contains a level-1 pole vertex
      whose incident edges belong to at least two distinct roots' basins.
    - simple_pole_basin_bound: a simple pole meets immediate basins of at
      most two roots; at level 1 an incident edge lies in an immediate basin
      exactly when its tail is the owning root itself.
    """
    base = result.graphs[0]
    level1 = result.graphs[1]
    emb0 = extract_combinatorial(base).graph
    kinds0 = emb0.vertex_kinds

    boundary_roots: dict[int, set[int]] = {i: set() for i in range(emb0.n_faces)}
    for dart in range(emb0.n_darts):
        v = emb0.vertex_of[dart]
        if kinds0[v] == KIND_ROOT:
            boundary_roots[emb0.face_of[dart]].add(v)

    # level-0 face of each pole; a level-1 pole vertex is its pole's exact
    # value, as the fiber over INF is f.marks_over(INF)
    pole_face = {q: locate_face(base.geo, emb0, q) for q, _ in f.poles}
    interior_poles = Counter()
    for q, mult in f.poles:
        interior_poles[pole_face[q]] += mult
    mismatches = [f"pole {q} lies in no face" for q, face in pole_face.items() if face is None]
    mismatches += [
        f"face {i}: {len(boundary_roots[i])} boundary roots vs "
        f"{interior_poles[i]} interior poles"
        for i in range(emb0.n_faces)
        if len(boundary_roots[i]) != interior_poles[i] + 1
    ]

    # owners of level-1 edges at each pole vertex
    geo1 = level1.geo
    pole_owner_sets: dict[int, set[int]] = {}
    pole_immediate_sets: dict[int, set[int]] = {}
    for j, e in enumerate(geo1.edges):
        owner = level1.root_owner(j)
        for v in (e.tail, e.head):
            if level1.marks[v].kind != KIND_POLE:
                continue
            pole_owner_sets.setdefault(v, set()).add(owner)
            if e.tail == owner:
                pole_immediate_sets.setdefault(v, set()).add(owner)

    shared = {pole_face[geo1.vertices[v]]
              for v, owners in pole_owner_sets.items() if len(owners) >= 2}
    uncovered = [face for face in range(emb0.n_faces) if face not in shared]
    crowded = [
        (v, sorted(pole_immediate_sets[v]))
        for v, mark in enumerate(level1.marks)
        if mark.kind == KIND_POLE and mark.local_degree == 1  # simple poles only
        and len(pole_immediate_sets.get(v, ())) > 2
    ]
    return ValidationReport((
        ConditionCheck("boundary_fixed_points", not mismatches, "; ".join(mismatches) or None),
        ConditionCheck("shared_pole_access", not uncovered,
                       f"faces without a two-basin pole: {uncovered}" if uncovered else None),
        ConditionCheck("simple_pole_basin_bound", not crowded,
                       f"simple poles meeting too many immediate basins: {crowded}"
                       if crowded else None),
    ))


# --- export -----------------------------------------------------------------


def newton_graph_to_json(result: NewtonGraphResult) -> dict:
    """Plain-data export at format 4: the combinatorial block of the top
    level, which holds every vertex kind, local degree, map and rotation,
    with N and the pole cover level, beside the geometry the block lacks:
    each vertex's position and each edge's ends, level and samples, for the
    highest level the build traced (Tower.traced). Below a combinatorial
    top level that is level M + 1, whose vertex and edge ids are a prefix
    of the block's; its geometry is not built here."""
    traced = result.graphs.traced[-1]
    data = geograph_to_json(traced.geo, traced.edge_level)
    data["N"] = result.minimal_level
    data["pole_cover_level"] = result.pole_cover_level
    data["combinatorial"] = graph_to_json(result.dynamics)
    return data
