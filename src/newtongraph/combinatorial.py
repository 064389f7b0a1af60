"""Embedded graphs on the sphere as rotation systems, plus self-map data.

A graph is stored dart-wise: edge j owns dart 2j (tail end) and dart 2j + 1
(head end), so the end-swapping involution is fixed once and for all as
``d ^ 1``.  What varies is the counterclockwise successor ``sigma`` at each
vertex and the dart -> vertex assignment.  Faces are the orbits of
"cross the edge, then turn counterclockwise at the far vertex"; the orbit
through a dart walks the boundary of the face lying on the right of that
dart (oriented from its vertex toward the far end).

On top of the bare graphs sit: a validator for the axioms of an abstract
channel diagram, a validator for the seven abstract-Newton-graph axioms, a
sector-model injectivity check for the extension of the graph map to the
sphere, the combinatorial pullback of a level whose level below holds every
critical value (lift_level: each face below has deg f disjoint preimage
disks, so the level above follows by copying, with no angle, sample or
tolerance), and an orientation-preserving equivalence search: dart 0's image
closed under sigma, the mate and the dart map, each dart's label (vertex kind,
local degree, channel flag) checked on the way (dart_closure, which also
numbers a traced level as its combinatorial lift).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidGraph

KIND_INFINITY = "infinity"
KIND_ROOT = "root"
KIND_POLE = "pole"
KIND_PLAIN = "point"


def _outside(values, n: int) -> bool:
    """Whether some value lies outside 0..n-1."""
    return bool(values) and (min(values) < 0 or max(values) >= n)


@dataclass(frozen=True)
class EmbeddedGraph:
    """Rotation system: ccw successor per dart, vertex per dart, kind per vertex."""

    sigma: tuple[int, ...]
    vertex_of: tuple[int, ...]
    vertex_kinds: tuple[str, ...]

    def __post_init__(self):
        sigma, vertex_of = self.sigma, self.vertex_of
        n = len(sigma)
        if n == 0 or n % 2 != 0:
            raise InvalidGraph("dart count must be positive and even")
        if len(vertex_of) != n:
            raise InvalidGraph("vertex_of length does not match dart count")
        if len(set(sigma)) != n or _outside(sigma, n):
            raise InvalidGraph("sigma is not a permutation of the darts")
        moved = [vertex_of[s] != v for s, v in zip(sigma, vertex_of)]
        if True in moved:
            raise InvalidGraph(f"sigma moves dart {moved.index(True)} to a different vertex")
        n_vertices = max(vertex_of) + 1
        if min(vertex_of) < 0 or len(set(vertex_of)) != n_vertices:
            raise InvalidGraph("vertex ids must be 0..V-1 with no gaps")
        if len(self.vertex_kinds) != n_vertices:
            raise InvalidGraph("vertex_kinds length does not match vertex count")
        # one sigma-cycle per vertex: sigma keeps each dart at its vertex, so
        # the cycles through the vertices' least darts cover every dart or
        # some vertex has darts off its cycle
        stars = self.vertex_darts
        if sum(map(len, stars)) != n:
            v = min(vertex_of[d] for d in set(range(n)).difference(*stars))
            raise InvalidGraph(f"vertex {v} has more than one sigma cycle")
        # connectivity under <sigma, mate>: each vertex is one sigma-cycle, so
        # it is connectivity of the vertices under the edges
        reached = [False] * n_vertices
        reached[0] = True
        stack = [0]
        while stack:
            for d in stars[stack.pop()]:
                w = vertex_of[d ^ 1]
                if not reached[w]:
                    reached[w] = True
                    stack.append(w)
        if not all(reached):
            raise InvalidGraph("graph is not connected")
        if n_vertices - n // 2 + self.n_faces != 2:
            raise InvalidGraph("rotation system is not spherical (Euler count != 2)")

    # -- basic structure ---------------------------------------------------

    @property
    def n_darts(self) -> int:
        return len(self.sigma)

    @property
    def n_edges(self) -> int:
        return len(self.sigma) // 2

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_kinds)

    def endpoints(self, edge: int) -> tuple[int, int]:
        return self.vertex_of[2 * edge], self.vertex_of[2 * edge + 1]

    def degree(self, vertex: int) -> int:
        return len(self.vertex_darts[vertex])

    @cached_property
    def vertex_darts(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, its darts in ccw order, starting from the least dart id."""
        sigma = self.sigma
        # read backwards, so each vertex keeps its least dart
        first = dict(zip(reversed(self.vertex_of), reversed(range(len(sigma)))))
        cycles = []
        for v in range(self.n_vertices):
            start = first[v]
            cycle = [start]
            d = sigma[start]
            while d != start:
                cycle.append(d)
                d = sigma[d]
            cycles.append(tuple(cycle))
        return tuple(cycles)

    @cached_property
    def star_position(self) -> tuple[int, ...]:
        """Per dart, its index in its vertex's ``vertex_darts`` entry."""
        position = [0] * self.n_darts
        for star in self.vertex_darts:
            for i, d in enumerate(star):
                position[d] = i
        return tuple(position)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of dart -> sigma[dart ^ 1], each from its least dart, in that dart's order."""
        sigma = self.sigma
        assigned = [False] * len(sigma)
        walks = []
        for d in range(len(sigma)):
            if assigned[d]:
                continue
            # d is the least dart not yet walked, so the least of its orbit
            walk = []
            x = d
            while not assigned[x]:
                assigned[x] = True
                walk.append(x)
                x = sigma[x ^ 1]
            walks.append(tuple(walk))
        return tuple(walks)

    @cached_property
    def face_of(self) -> tuple[int, ...]:
        """Face index per dart: the face on the right of the dart."""
        owner = [0] * self.n_darts
        for i, walk in enumerate(self.faces):
            for d in walk:
                owner[d] = i
        return tuple(owner)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_of_corner(self, dart: int) -> int:
        """Face containing the ccw sector between ``dart`` and its sigma successor."""
        return self.face_of[self.sigma[dart]]


def embedded_graph_from_rotations(edge_endpoints, rotations, vertex_kinds) -> EmbeddedGraph:
    """Build a graph from edge endpoint pairs and per-vertex ccw dart lists.

    ``edge_endpoints[j]`` is (tail vertex, head vertex) of edge j, owning darts
    2j and 2j + 1.  ``rotations[v]`` lists the darts at vertex v in ccw order.
    """
    n = 2 * len(edge_endpoints)
    vertex_of = [v for tail, head in edge_endpoints for v in (tail, head)]
    sigma = [None] * n
    for v, cycle in enumerate(rotations):
        for d, successor in zip(cycle, [*cycle[1:], *cycle[:1]]):
            if not 0 <= d < n or sigma[d] is not None:
                raise InvalidGraph(f"dart {d} repeated or out of range in rotations")
            if vertex_of[d] != v:
                raise InvalidGraph(f"dart {d} listed at vertex {v} but belongs to vertex {vertex_of[d]}")
            sigma[d] = successor
    if None in sigma:
        raise InvalidGraph("rotations do not cover every dart")
    return EmbeddedGraph(tuple(sigma), tuple(vertex_of), tuple(vertex_kinds))


class UnionFind:
    """Disjoint sets over 0..n-1, with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)

    def classes(self) -> list[list[int]]:
        """Every set in increasing order, the sets ordered by least member."""
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def _depths(image: tuple[int, ...], core) -> tuple[int | None, ...]:
    """Least number of steps of the self-map i -> image[i] taking each item
    into core, None for an item that never gets there."""
    n = len(image)
    depth = [0 if i in core else None for i in range(n)]
    for _ in range(n):
        changed = False
        for i in range(n):
            if depth[i] is None and depth[image[i]] is not None:
                depth[i] = depth[image[i]] + 1
                changed = True
        if not changed:
            break
    return tuple(depth)


@dataclass(frozen=True)
class GraphDynamics:
    """A graph self-map: where vertices, edges and darts go, and how many
    sheets the map has locally at each vertex.

    ``channel_edges`` marks the invariant core subgraph (the channel diagram)
    and ``level`` is the number of pullback steps the graph represents.
    """

    graph: EmbeddedGraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]
    dart_map: tuple[int, ...]
    local_degree: tuple[int, ...]
    channel_edges: frozenset[int]
    level: int

    def __post_init__(self):
        g = self.graph
        n_vertices, n_edges, n_darts = g.n_vertices, g.n_edges, g.n_darts
        vertex_map, edge_map, dart_map = self.vertex_map, self.edge_map, self.dart_map
        if len(vertex_map) != n_vertices or len(self.local_degree) != n_vertices:
            raise InvalidGraph("vertex_map/local_degree length mismatch")
        if len(edge_map) != n_edges or len(dart_map) != n_darts:
            raise InvalidGraph("edge_map/dart_map length mismatch")
        if _outside(vertex_map, n_vertices):
            raise InvalidGraph("vertex_map value out of range")
        if _outside(edge_map, n_edges):
            raise InvalidGraph("edge_map value out of range")
        if _outside(dart_map, n_darts):
            raise InvalidGraph("dart_map value out of range")
        if min(self.local_degree) < 1:
            raise InvalidGraph("local degrees must be >= 1")
        if self.level < 0:
            raise InvalidGraph("level must be >= 0")
        if _outside(self.channel_edges, n_edges):
            raise InvalidGraph("channel edge id out of range")
        vertex_of = g.vertex_of
        for d, (image, v) in enumerate(zip(dart_map, vertex_of)):
            if vertex_of[image] != vertex_map[v]:
                raise InvalidGraph(f"dart_map({d}) lands at the wrong vertex")
            if image >> 1 != edge_map[d >> 1]:
                raise InvalidGraph(f"dart_map({d}) lands on the wrong edge")
            if dart_map[d ^ 1] != image ^ 1:
                raise InvalidGraph(f"dart_map does not pair the two ends of edge {d >> 1}")

    @cached_property
    def channel_vertices(self) -> frozenset[int]:
        members = set()
        for e in self.channel_edges:
            members.update(self.graph.endpoints(e))
        return frozenset(members)

    @cached_property
    def center_vertex(self) -> int | None:
        """The unique vertex marked as the point at infinity, if there is one."""
        hits = [v for v, k in enumerate(self.graph.vertex_kinds) if k == KIND_INFINITY]
        return hits[0] if len(hits) == 1 else None

    @cached_property
    def dart_labels(self) -> tuple[tuple[str, int, bool], ...]:
        """Per dart, what an equivalence must keep: its vertex's kind and
        local degree, and whether its edge is a channel edge."""
        kinds, channel = self.graph.vertex_kinds, self.channel_edges
        return tuple((kinds[v], self.local_degree[v], d >> 1 in channel)
                     for d, v in enumerate(self.graph.vertex_of))

    @property
    def channel_degree(self) -> int:
        """Number of non-center channel vertices (the degree of the core diagram)."""
        center = self.center_vertex
        return len(self.channel_vertices - ({center} if center is not None else set()))

    @cached_property
    def edge_depths(self) -> tuple[int | None, ...]:
        """Least number of edge_map steps taking each edge into the channel core."""
        return _depths(self.edge_map, self.channel_edges)

    @cached_property
    def vertex_depths(self) -> tuple[int | None, ...]:
        """Least number of vertex_map steps taking each vertex into the channel core."""
        return _depths(self.vertex_map, self.channel_vertices)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


def _bigon_sides(graph: EmbeddedGraph, first_edge: int, second_edge: int):
    """The two sides of the closed curve formed by two distinct edges
    between the same two vertices, as two sets of face indices, found by
    dual connectivity across every other edge.

    There are always exactly two. EmbeddedGraph admits only connected
    rotation systems of Euler count 2, so the graph is embedded in the
    sphere, and the two edges form a simple closed curve there. By the
    Jordan curve theorem that curve cuts the sphere into two open discs,
    and every face lies in one of them. Within one disc, any two faces are
    joined by a path that avoids the finitely many vertices and so crosses
    only interiors of edges inside the disc: the faces of a disc form one
    class. No face is joined across the curve, since only the two edges
    lie on it.
    """
    faces = UnionFind(graph.n_faces)
    for e in range(graph.n_edges):
        if e == first_edge or e == second_edge:
            continue
        faces.union(graph.face_of[2 * e], graph.face_of[2 * e + 1])
    return [set(side) for side in faces.classes()]


def validate_channel_diagram(graph: EmbeddedGraph, channel_edges=None, center=None,
                             members=None) -> ValidationReport:
    """Check the four axioms of an abstract channel diagram.

    With only ``graph`` given, the whole graph is taken as the diagram and the
    center is the unique vertex of kind ``infinity``.  When called on a marked
    subgraph, ``channel_edges``/``center``/``members`` restrict the checks.
    """
    if channel_edges is None:
        channel_edges = frozenset(range(graph.n_edges))
    channel_edges = frozenset(channel_edges)
    if center is None:
        hits = [v for v, k in enumerate(graph.vertex_kinds) if k == KIND_INFINITY]
        center = hits[0] if len(hits) == 1 else None
    if members is None:
        members = frozenset(range(graph.n_vertices))
    members = frozenset(members)
    roots = members - ({center} if center is not None else set())

    checks = []

    budget = 2 * len(roots) - 2
    checks.append(ConditionCheck(
        "edge_budget",
        center is not None and len(channel_edges) <= budget,
        None if center is not None and len(channel_edges) <= budget
        else f"{len(channel_edges)} edges exceed the budget {budget}"))

    bad_edge = None
    if center is None:
        bad_edge = "no center vertex marked"
    else:
        for e in sorted(channel_edges):
            a, b = graph.endpoints(e)
            if a == b or center not in (a, b) or (a if b == center else b) not in roots:
                bad_edge = f"edge {e} joins {a} and {b}"
                break
    checks.append(ConditionCheck("edges_join_center", bad_edge is None, bad_edge))

    linked = set()
    if center is not None:
        for e in channel_edges:
            a, b = graph.endpoints(e)
            if center in (a, b) and a != b:
                linked.add(a if b == center else b)
    missing = sorted(roots - linked)
    checks.append(ConditionCheck(
        "roots_linked", not missing,
        None if not missing else f"vertex {missing[0]} has no edge to the center"))

    parallel_witness = None
    if center is not None:
        by_far_end = {}
        for e in sorted(channel_edges):
            a, b = graph.endpoints(e)
            if a == b or center not in (a, b):
                continue
            by_far_end.setdefault(a if b == center else b, []).append(e)
        for other, bundle in sorted(by_far_end.items()):
            if parallel_witness:
                break
            for e_i, e_j in itertools.combinations(bundle, 2):
                ok = True
                for side in _bigon_sides(graph, e_i, e_j):
                    side_vertices = {graph.vertex_of[d] for d in range(graph.n_darts)
                                     if graph.face_of[d] in side and (d >> 1) not in (e_i, e_j)}
                    if not (side_vertices & members - {center, other}):
                        ok = False
                if not ok:
                    parallel_witness = f"edges {e_i},{e_j} bound a side with no further vertex"
                    break
    checks.append(ConditionCheck("parallel_separation", parallel_witness is None, parallel_witness))

    return ValidationReport(tuple(checks))


def regular_extension_check(dyn: GraphDynamics) -> ValidationReport:
    """Sector-model check that the graph map extends injectively off the graph.

    Each corner (ccw sector between consecutive darts) at a vertex v maps to a
    run of corners at vertex_map(v): the run starts at the image of the
    corner's first dart and spans the ccw gap to the image of the second dart,
    a full turn when the two images coincide, and local_degree(v) full turns
    for a one-dart star.  Per target vertex and per source face, the runs of
    distinct corners must not overlap.

    Both checks run as array passes over every corner, and over every target
    corner of every run, in the order of a loop over the vertices, their
    corners and each run's corners, and name the first witness that loop
    meets: the first vertex whose runs miss their count, and the first run
    corner whose (source face, target corner) an earlier run took, with that
    run's vertex. A vertex whose count fails takes no part in the overlaps.
    """
    graph = dyn.graph
    stars, n_darts = graph.vertex_darts, graph.n_darts
    sizes = np.array([len(star) for star in stars])
    darts = np.fromiter(itertools.chain.from_iterable(stars), dtype=np.int64, count=n_darts)
    first = np.cumsum(sizes) - sizes  # where each star starts in darts
    vertex = np.repeat(np.arange(len(stars)), sizes)
    # the entry of the next dart ccw: the corner from entry i is closed by it
    nxt = np.arange(n_darts) + 1
    nxt[first + sizes - 1] = first
    target = np.array(dyn.vertex_map)
    l = sizes[target][vertex]
    starts = np.array(graph.star_position)[np.array(dyn.dart_map)[darts]]
    counts = (starts[nxt] - starts) % l
    counts[counts == 0] = l[counts == 0]
    turns = np.array(dyn.local_degree) * sizes[target]
    lone = sizes[vertex] == 1  # a one-dart star's corner runs all its turns
    counts[lone] = turns[vertex[lone]]
    covered = np.add.reduceat(counts, first)
    winding_witness = None
    wrong = np.flatnonzero(covered != turns)
    if len(wrong):
        v = int(wrong[0])
        winding_witness = (f"vertex {v}: corner runs cover {int(covered[v])} "
                           f"target corners, expected {int(turns[v])}")
    # each run corner as (source face, target corner) in one key, the target
    # corner named by the dart it starts at
    corner = np.flatnonzero(covered[vertex] == turns[vertex])
    runs = counts[corner]
    run_of = np.repeat(corner, runs)
    step = np.arange(len(run_of)) - np.repeat(np.cumsum(runs) - runs, runs)
    at = (starts[run_of] + step) % l[run_of]
    face = np.array(graph.face_of)[darts[nxt]]
    keys = face[run_of] * n_darts + darts[first[target[vertex[run_of]]] + at]
    # the first repeated key: of the later occurrences of keys in stable
    # sorted order, the least in loop order; its key was met once before
    overlap_witness = None
    order = np.argsort(keys, kind="stable")
    repeated = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    if len(repeated):
        i = int(repeated[np.argmin(order[repeated + 1])])
        j, taken = order[i + 1], order[i]
        v, owner = int(vertex[run_of[j]]), int(vertex[run_of[taken]])
        overlap_witness = (f"target vertex {int(target[v])}, face {int(face[run_of[j]])}: "
                           f"corner images of vertices {owner} and {v} overlap")
    return ValidationReport((
        ConditionCheck("sector_winding", winding_witness is None, winding_witness),
        ConditionCheck("sector_injective", overlap_witness is None, overlap_witness),
    ))


def validate_newton_graph(dyn: GraphDynamics) -> ValidationReport:
    """Check the seven axioms of an abstract Newton graph."""
    graph = dyn.graph
    center = dyn.center_vertex
    channel = dyn.channel_edges
    members = dyn.channel_vertices
    d_core = dyn.channel_degree
    checks = []

    # (1) the marked core is a channel diagram of degree >= 3, fixed by the map
    witness = None
    if center is None:
        witness = "no unique center vertex"
    elif not channel:
        witness = "no channel edges marked"
    elif center not in members:
        witness = "center vertex not on any channel edge"
    elif d_core < 3:
        witness = f"channel degree {d_core} below 3"
    else:
        sub = validate_channel_diagram(graph, channel, center, members)
        if not sub.passed:
            bad = sub.failures[0]
            witness = f"core diagram fails {bad.name}: {bad.witness}"
        else:
            # no vertex check is needed: a fixed edge keeps its two ends as a
            # set, the center ends every channel edge, so it and each root stay
            unfixed = [e for e in sorted(channel) if dyn.edge_map[e] != e]
            if unfixed:
                witness = f"channel edge {unfixed[0]} not fixed"
    checks.append(ConditionCheck("channel_core", witness is None, witness))

    # (2) roots touch the pulled-back material, the center does not, and each
    # root keeps exactly local_degree - 1 >= 1 channel edges to the center
    witness = None
    if center is not None:
        # darts at each vertex, less the ends of channel edges
        non_channel_at = [len(star) for star in graph.vertex_darts]
        channel_to_center = [0] * graph.n_vertices
        for e in channel:
            a, b = graph.endpoints(e)
            non_channel_at[a] -= 1
            non_channel_at[b] -= 1
            if center in (a, b) and a != b:
                channel_to_center[a if b == center else b] += 1
        if non_channel_at[center]:
            witness = "center vertex meets a non-channel edge"
        else:
            for r in sorted(members - {center}):
                expected = dyn.local_degree[r] - 1
                if expected < 1:
                    witness = f"root {r} has local degree 1"
                    break
                if channel_to_center[r] != expected:
                    witness = (f"root {r} has {channel_to_center[r]} channel edges "
                               f"to the center, expected {expected}")
                    break
                if non_channel_at[r] == 0:
                    witness = f"root {r} meets no non-channel edge"
                    break
    else:
        witness = "no unique center vertex"
    checks.append(ConditionCheck("root_contact", witness is None, witness))

    # (3) total branching matches the declared degree
    total = sum(m - 1 for m in dyn.local_degree)
    witness = (None if total == 2 * d_core - 2
               else f"sum of (local degree - 1) is {total}, expected {2 * d_core - 2}")
    checks.append(ConditionCheck("branch_total", witness is None, witness))

    # (4) every edge falls into the core within `level` steps, and `level` is
    # minimal: the deepest branch vertex reaches the core in exactly level - 1
    witness = None
    depths = dyn.edge_depths
    stray = [e for e, d in enumerate(depths) if d is None]
    if stray:
        witness = f"edge {stray[0]} never reaches the channel core"
    elif max(depths) > dyn.level:
        witness = f"edge depth {max(depths)} exceeds level {dyn.level}"
    else:
        branch = [v for v, m in enumerate(dyn.local_degree) if m > 1]
        if not branch:
            witness = "no branch vertices"
        else:
            # none strays: a vertex ends an edge and reaches the core with it
            deepest = max(dyn.vertex_depths[v] for v in branch)
            if deepest != dyn.level - 1:
                witness = (f"deepest branch vertex reaches the core in {deepest} "
                           f"steps, expected {dyn.level - 1}")
    checks.append(ConditionCheck("depth_minimal", witness is None, witness))

    # (5) the non-channel part, with its endpoints, is connected: each
    # component is found from its first end in edge order
    vertex_of, stars = graph.vertex_of, graph.vertex_darts
    reached = [False] * graph.n_vertices
    firsts = []
    for d, v in enumerate(vertex_of):
        if reached[v] or d >> 1 in channel:
            continue
        firsts.append(v)
        reached[v] = True
        stack = [v]
        while stack:
            for x in stars[stack.pop()]:
                w = vertex_of[x ^ 1]
                if not reached[w] and x >> 1 not in channel:
                    reached[w] = True
                    stack.append(w)
    reps = sorted(firsts)[:2]
    witness = f"non-channel part splits, e.g. vertices {reps[0]} and {reps[1]}" if len(reps) > 1 else None
    checks.append(ConditionCheck("complement_connected", witness is None, witness))

    # (6) sector model of the extension is injective off the graph
    extension = regular_extension_check(dyn)
    witness = None if extension.passed else extension.failures[0].witness
    checks.append(ConditionCheck("sector_injective", witness is None, witness))

    # (7) star saturation: every liftable dart at the image vertex is hit by
    # exactly local_degree(v) darts at v, else pullback material is missing
    witness = None
    position = graph.star_position
    liftable = [d is not None and d < dyn.level for d in depths]
    for v, star in enumerate(stars):
        target_star = stars[dyn.vertex_map[v]]
        hits = [0] * len(target_star)
        for x in star:
            hits[position[dyn.dart_map[x]]] += 1
        m = dyn.local_degree[v]
        bad = next((i for i, t in enumerate(target_star) if liftable[t >> 1] and hits[i] != m), None)
        if bad is not None:
            witness = (f"vertex {v}: dart {target_star[bad]} at its image has {hits[bad]} "
                       f"preimage darts, expected {m}")
            break
    checks.append(ConditionCheck("star_saturated", witness is None, witness))

    return ValidationReport(tuple(checks))


def lift_level(dyn: GraphDynamics, edge_level) -> GraphDynamics:
    """The pullback level above dyn, by combinatorics alone.

    dyn is level n = dyn.level, edge_level[e] is the level at which edge e
    first appeared, and level n - 1 holds every critical value, so that
    each face F of level n - 1 has deg f disjoint preimage disks. The faces
    of level n, merged across its edges of level n, are the faces F. The
    sheets over F are the faces of level n whose corners dart_map sends
    into F, one corner over each corner of F. Each edge of level n gets one
    copy in every sheet over its F: an end at a vertex of level n - 1
    attaches at the sheet's corner over the corner of F it leaves, in the
    order it has there, and an end inside F becomes one new plain vertex of
    local degree 1 per sheet. A copy maps to its original. Copies are
    numbered after dyn's edges, by original edge and then by sheet, and new
    vertices after dyn's vertices as the copies first reach them, tail
    before head, so dyn's ids are a prefix of the result's.

    A level that is not such a cover raises InvalidGraph naming the level,
    a face of level n and the gate: a face lies over more than one face of
    level n - 1 (sheet_over_one_face), a sheet has other than one corner
    over each corner of its face (sheet_corners), or a face of level n - 1
    has other than deg f sheets (sheet_count), deg f being the channel
    degree. A face of level n - 1 is named by the least face of level n in
    it.
    """
    g, n = dyn.graph, dyn.level
    sigma, vertex_of, face_of, dart_map = g.sigma, g.vertex_of, g.face_of, dyn.dart_map
    n_darts = g.n_darts
    new_edges = [e for e, level in enumerate(edge_level) if level == n]
    is_new = [edge_level[d >> 1] == n for d in range(n_darts)]
    merged = UnionFind(g.n_faces)
    for e in new_edges:
        merged.union(face_of[2 * e], face_of[2 * e + 1])
    below = [0] * g.n_faces  # per face of level n, its face of level n - 1
    for faces in merged.classes():
        for s in faces:
            below[s] = faces[0]

    def image_face(p: int) -> int:
        """The face of level n - 1 holding the corner after dart p."""
        return below[face_of[sigma[p]]]

    n_corners = Counter(image_face(p) for p in range(n_darts) if not is_new[p])
    sheets: dict[int, list[int]] = {}
    # the corners of a face are the mates of the darts of its walk
    for s, walk in enumerate(g.faces):
        over = image_face(dart_map[walk[0] ^ 1])
        images = set()
        for y in walk:
            p = dart_map[y ^ 1]
            if image_face(p) != over:
                raise InvalidGraph(
                    f"sheet_over_one_face failed at level {n}, face {s}: it lies over "
                    f"faces {over} and {image_face(p)} of level {n - 1}")
            images.add(p)
        if len(images) != len(walk) or len(walk) != n_corners[over]:
            raise InvalidGraph(
                f"sheet_corners failed at level {n}, face {s}: its {len(walk)} corners "
                f"lie over {len(images)} of the {n_corners[over]} corners of face "
                f"{over} of level {n - 1}")
        sheets.setdefault(over, []).append(s)
    degree = dyn.channel_degree
    for face in sorted(set(below)):
        count = len(sheets.get(face, ()))
        if count != degree:
            raise InvalidGraph(
                f"sheet_count failed at level {n}, face {face}: face {face} of level "
                f"{n - 1} has {count} sheets, expected {degree}")

    # copy (e, s) of edge e in sheet s owns darts copy[e, s] and copy[e, s] + 1
    copy = {}
    for e in new_edges:
        for s in sheets[below[face_of[2 * e]]]:
            copy[e, s] = n_darts + 2 * len(copy)
    grown = [0] * (2 * len(copy))
    new_sigma, new_vertex_of = list(sigma) + grown, list(vertex_of) + grown
    new_dart_map = list(dart_map) + grown
    vertex_map, local_degree = list(dyn.vertex_map), list(dyn.local_degree)
    kinds = list(g.vertex_kinds)
    # after each dart of level n - 1, the darts of level n up to the next one
    after: dict[int, list[int]] = {}
    for p in range(n_darts):
        if not is_new[p]:
            q, run = sigma[p], []
            while is_new[q]:
                run.append(q)
                q = sigma[q]
            after[p] = run
    # each corner of a sheet takes the copies of the run of its image
    for x in range(n_darts):
        run = after.get(dart_map[x])
        if run:
            s = face_of[sigma[x]]
            ids = [copy[q >> 1, s] + (q & 1) for q in run]
            for a, b in zip(ids, ids[1:] + [sigma[x]]):
                new_sigma[a] = b
                new_vertex_of[a] = vertex_of[x]
            new_sigma[x] = ids[0]
    # an end inside its face of level n - 1: one new vertex per sheet, with
    # the copies of its darts in their order there
    old_vertices = {vertex_of[p] for p in after}
    inside: dict[tuple[int, int], int] = {}
    for (e, s), base in copy.items():
        for y in (2 * e, 2 * e + 1):
            new_dart_map[base + (y & 1)] = y
            w = vertex_of[y]
            if w in old_vertices:
                continue
            if (w, s) not in inside:
                inside[w, s] = len(vertex_map)
                vertex_map.append(w)
                local_degree.append(1)
                kinds.append(KIND_PLAIN)
            z = sigma[y]
            new_sigma[base + (y & 1)] = copy[z >> 1, s] + (z & 1)
            new_vertex_of[base + (y & 1)] = inside[w, s]
    graph = EmbeddedGraph(tuple(new_sigma), tuple(new_vertex_of), tuple(kinds))
    return GraphDynamics(
        graph=graph,
        vertex_map=tuple(vertex_map),
        edge_map=tuple(dyn.edge_map) + tuple(e for e, _ in copy),
        dart_map=tuple(new_dart_map),
        local_degree=tuple(local_degree),
        channel_edges=dyn.channel_edges,
        level=n + 1,
    )


@dataclass(frozen=True)
class Isomorphism:
    """Orientation-preserving match between two graph dynamics."""

    dart_bijection: tuple[int, ...]
    vertex_bijection: tuple[int, ...]
    edge_bijection: tuple[int, ...]


def dart_closure(first: GraphDynamics, second: GraphDynamics, anchor: int) -> list[int] | None:
    """The match of first's darts onto second's that takes dart 0 to anchor,
    closed under sigma, the mate d ^ 1 and dart_map together: per dart of
    first, its image. None on the first clash, reused image or mismatch of
    dart_labels, the anchor's included. The two graphs must have equally
    many darts. A closure that finishes maps vertices (sigma cycles) onto
    vertices and keeps every label and dart_map, which vertex_map and
    edge_map follow."""
    la, lb = first.dart_labels, second.dart_labels
    if la[0] != lb[anchor]:
        return None
    sa, sb = first.graph.sigma, second.graph.sigma
    ma, mb = first.dart_map, second.dart_map
    n = len(sa)
    match, used, stack = [-1] * n, [False] * n, [0]
    match[0], used[anchor] = anchor, True
    while stack:
        x = stack.pop()
        y = match[x]
        for nxt, img in ((sa[x], sb[y]), (x ^ 1, y ^ 1), (ma[x], mb[y])):
            if match[nxt] == -1:
                if used[img] or la[nxt] != lb[img]:
                    return None
                match[nxt], used[img] = img, True
                stack.append(nxt)
            elif match[nxt] != img:
                return None
    return match


def graphs_equivalent(first: GraphDynamics, second: GraphDynamics) -> Isomorphism | None:
    """Search for an orientation-preserving isomorphism conjugating the maps.

    Each dart of ``second`` labelled like dart 0 is tried, in increasing
    order, as dart 0's image, by dart_closure; the first closure that
    finishes is the witness, the one with the least anchor dart.
    """
    ga, gb = first.graph, second.graph
    if (ga.n_darts, ga.n_vertices, first.level) != (gb.n_darts, gb.n_vertices, second.level):
        return None
    label = first.dart_labels[0]
    for anchor in [y for y, other in enumerate(second.dart_labels) if other == label]:
        match = dart_closure(first, second, anchor)
        if match is not None:
            vertex_bij = (gb.vertex_of[match[darts[0]]] for darts in ga.vertex_darts)
            return Isomorphism(tuple(match), tuple(vertex_bij), tuple(y >> 1 for y in match[::2]))
    return None


def graph_to_json(value) -> dict:
    """Serialize an EmbeddedGraph or GraphDynamics to the interchange format."""
    graph = value.graph if isinstance(value, GraphDynamics) else value
    data = {
        "darts": list(range(graph.n_darts)),
        "alpha": [[2 * j, 2 * j + 1] for j in range(graph.n_edges)],
        "sigma": {str(v): list(graph.vertex_darts[v]) for v in range(graph.n_vertices)},
        "vertex_kinds": {str(v): graph.vertex_kinds[v] for v in range(graph.n_vertices)},
    }
    if isinstance(value, GraphDynamics):
        data["dynamics"] = {
            "vertex_map": {str(v): value.vertex_map[v] for v in range(graph.n_vertices)},
            "edge_map": {str(e): value.edge_map[e] for e in range(graph.n_edges)},
            "dart_map": {str(d): value.dart_map[d] for d in range(graph.n_darts)},
            "local_degree": {str(v): value.local_degree[v] for v in range(graph.n_vertices)},
            "delta_edges": sorted(value.channel_edges),
            "N": value.level,
        }
    return data


def _ints(values) -> list[int]:
    """values as a list of integers: JSON's 1.5, 2.0, "2" and true are not."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{bad!r} is not an integer")
    return values


def _object(data, field: str) -> dict:
    """data[field], which must be a JSON object (a dict), not a list."""
    value = data[field]
    if not isinstance(value, dict):
        raise TypeError(f"{field} must be a JSON object, not {type(value).__name__}")
    return value


def graph_from_json(data) -> EmbeddedGraph | GraphDynamics:
    """Rebuild a graph (with dynamics when present) from the interchange format.

    Dart and vertex ids are normalized: edges are numbered by their position
    in the "alpha" list, vertices by increasing original id. Every value
    that is an id, a degree or N must be a JSON integer. The data are read
    and checked in passes linear in the number of darts, apart from sorting
    the vertex ids.
    """
    try:
        darts = list(data["darts"])
        alpha_pairs = [tuple(p) for p in data["alpha"]]
        sigma_cycles = {int(v): list(c) for v, c in _object(data, "sigma").items()}
        _ints(darts)
        _ints(itertools.chain.from_iterable(alpha_pairs))
        _ints(itertools.chain.from_iterable(sigma_cycles.values()))
        kind_by_old = {int(v): k for v, k in _object(data, "vertex_kinds").items()}
        unknown = set(kind_by_old.values()) - {KIND_ROOT, KIND_POLE, KIND_INFINITY, KIND_PLAIN}
        if unknown:
            raise ValueError(f"unknown vertex kind {unknown.pop()!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraph(f"malformed graph data: {exc}") from exc
    new_dart = {}
    for j, p in enumerate(alpha_pairs):
        if len(p) != 2:
            raise InvalidGraph(f"alpha entry {list(p)} is not a pair of darts")
        new_dart[p[0]] = 2 * j
        new_dart[p[1]] = 2 * j + 1
    n = len(darts)
    # n distinct darts, each in exactly one pair
    if n != 2 * len(alpha_pairs) or len(new_dart) != n or new_dart.keys() != set(darts):
        raise InvalidGraph("alpha pairs do not partition the darts")
    if kind_by_old.keys() != sigma_cycles.keys():
        raise InvalidGraph("vertex_kinds and sigma keys disagree")
    old_vertices = sorted(sigma_cycles)
    new_vertex = {v: i for i, v in enumerate(old_vertices)}
    sigma = [None] * n
    vertex_of = [None] * n
    for old_v, cycle in sigma_cycles.items():
        try:
            ids = list(map(new_dart.__getitem__, cycle))
        except KeyError as exc:
            raise InvalidGraph(f"sigma names dart {exc.args[0]}, which is in no alpha pair") from None
        v = new_vertex[old_v]
        for d, i, successor in zip(cycle, ids, ids[1:] + ids[:1]):
            if sigma[i] is not None:
                raise InvalidGraph(f"dart {d} missing or repeated in sigma")
            sigma[i] = successor
            vertex_of[i] = v
    if None in sigma:
        raise InvalidGraph("sigma does not cover every dart")
    graph = EmbeddedGraph(tuple(sigma), tuple(vertex_of),
                          tuple(map(kind_by_old.__getitem__, old_vertices)))
    if "dynamics" not in data:
        return graph
    dyn = data["dynamics"]
    vertex_keys = [str(v) for v in old_vertices]
    try:
        field = "vertex_map"
        vertex_map = tuple(map(new_vertex.__getitem__, _ints([dyn[field][k] for k in vertex_keys])))
        field = "edge_map"
        edge_map = tuple(_ints([dyn[field][str(e)] for e in range(graph.n_edges)]))
        field = "dart_map"
        images = _object(dyn, field)
        _ints(images.values())
        # zip reads key i, then image i: the first bad id is the first one read
        by_dart = dict(zip(map(new_dart.__getitem__, map(int, images)),
                           map(new_dart.__getitem__, images.values())))
        dart_map = tuple(map(by_dart.get, range(n)))
        field = "local_degree"
        local_degree = tuple(_ints([dyn[field][k] for k in vertex_keys]))
        field = "delta_edges"
        channel = frozenset(_ints(dyn[field]))
        field = "N"
        [level] = _ints([dyn[field]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraph(f"malformed dynamics data in {field}: {exc}") from exc
    if None in dart_map:
        raise InvalidGraph("dart_map does not cover every dart")
    return GraphDynamics(graph, vertex_map, edge_map, dart_map, local_degree, channel, level)
