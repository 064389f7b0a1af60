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
sphere, and an orientation-preserving equivalence search: dart 0's image
closed under sigma, the mate and the dart map, each dart's label (vertex kind,
local degree, channel flag) checked on the way.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidGraph

KIND_INFINITY = "infinity"
KIND_ROOT = "root"
KIND_POLE = "pole"
KIND_PLAIN = "point"


@dataclass(frozen=True)
class EmbeddedGraph:
    """Rotation system: ccw successor per dart, vertex per dart, kind per vertex."""

    sigma: tuple[int, ...]
    vertex_of: tuple[int, ...]
    vertex_kinds: tuple[str, ...]

    def __post_init__(self):
        n = len(self.sigma)
        if n == 0 or n % 2 != 0:
            raise InvalidGraph("dart count must be positive and even")
        if len(self.vertex_of) != n:
            raise InvalidGraph("vertex_of length does not match dart count")
        if sorted(self.sigma) != list(range(n)):
            raise InvalidGraph("sigma is not a permutation of the darts")
        for d in range(n):
            if self.vertex_of[self.sigma[d]] != self.vertex_of[d]:
                raise InvalidGraph(f"sigma moves dart {d} to a different vertex")
        n_vertices = max(self.vertex_of) + 1
        if sorted(set(self.vertex_of)) != list(range(n_vertices)):
            raise InvalidGraph("vertex ids must be 0..V-1 with no gaps")
        if len(self.vertex_kinds) != n_vertices:
            raise InvalidGraph("vertex_kinds length does not match vertex count")
        # one sigma-cycle per vertex: sigma keeps each dart at its vertex, so
        # the cycle through a vertex's least dart holds all its darts or fewer
        counts = Counter(self.vertex_of)
        for v, cycle in enumerate(self.vertex_darts):
            if len(cycle) != counts[v]:
                raise InvalidGraph(f"vertex {v} has more than one sigma cycle")
        # connectivity under <sigma, mate>
        reached = [False] * n
        stack = [0]
        reached[0] = True
        while stack:
            d = stack.pop()
            for nxt in (self.sigma[d], d ^ 1):
                if not reached[nxt]:
                    reached[nxt] = True
                    stack.append(nxt)
        if not all(reached):
            raise InvalidGraph("graph is not connected")
        if self.n_vertices - self.n_edges + self.n_faces != 2:
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
        first = [None] * self.n_vertices
        for d in reversed(range(self.n_darts)):
            first[self.vertex_of[d]] = d
        cycles = []
        for start in first:
            cycle = [start]
            d = self.sigma[start]
            while d != start:
                cycle.append(d)
                d = self.sigma[d]
            cycles.append(tuple(cycle))
        return tuple(cycles)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of dart -> sigma[dart ^ 1], each rotated to start at its least dart."""
        n = self.n_darts
        assigned = [False] * n
        walks = []
        for d in range(n):
            if assigned[d]:
                continue
            walk = []
            x = d
            while not assigned[x]:
                assigned[x] = True
                walk.append(x)
                x = self.sigma[x ^ 1]
            walks.append(tuple(walk))
        return tuple(sorted(walks, key=lambda w: w[0]))

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
    n_edges = len(edge_endpoints)
    vertex_of = [None] * (2 * n_edges)
    for j, (tail, head) in enumerate(edge_endpoints):
        vertex_of[2 * j] = tail
        vertex_of[2 * j + 1] = head
    sigma = [None] * (2 * n_edges)
    seen = set()
    for v, cycle in enumerate(rotations):
        for i, d in enumerate(cycle):
            if d in seen or not 0 <= d < 2 * n_edges:
                raise InvalidGraph(f"dart {d} repeated or out of range in rotations")
            if vertex_of[d] != v:
                raise InvalidGraph(f"dart {d} listed at vertex {v} but belongs to vertex {vertex_of[d]}")
            seen.add(d)
            sigma[d] = cycle[(i + 1) % len(cycle)]
    if len(seen) != 2 * n_edges:
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
        if len(self.vertex_map) != g.n_vertices or len(self.local_degree) != g.n_vertices:
            raise InvalidGraph("vertex_map/local_degree length mismatch")
        if len(self.edge_map) != g.n_edges or len(self.dart_map) != g.n_darts:
            raise InvalidGraph("edge_map/dart_map length mismatch")
        if any(not 0 <= v < g.n_vertices for v in self.vertex_map):
            raise InvalidGraph("vertex_map value out of range")
        if any(not 0 <= e < g.n_edges for e in self.edge_map):
            raise InvalidGraph("edge_map value out of range")
        if any(not 0 <= d < g.n_darts for d in self.dart_map):
            raise InvalidGraph("dart_map value out of range")
        if any(m < 1 for m in self.local_degree):
            raise InvalidGraph("local degrees must be >= 1")
        if self.level < 0:
            raise InvalidGraph("level must be >= 0")
        if any(not 0 <= e < g.n_edges for e in self.channel_edges):
            raise InvalidGraph("channel edge id out of range")
        for d in range(g.n_darts):
            image = self.dart_map[d]
            if g.vertex_of[image] != self.vertex_map[g.vertex_of[d]]:
                raise InvalidGraph(f"dart_map({d}) lands at the wrong vertex")
            if image >> 1 != self.edge_map[d >> 1]:
                raise InvalidGraph(f"dart_map({d}) lands on the wrong edge")
            if self.dart_map[d ^ 1] != image ^ 1:
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
    """
    graph = dyn.graph
    winding_witness = None
    overlap_witness = None
    coverage = {}
    for v in range(graph.n_vertices):
        star = graph.vertex_darts[v]
        k = len(star)
        m = dyn.local_degree[v]
        y = dyn.vertex_map[v]
        target_star = graph.vertex_darts[y]
        l = len(target_star)
        position = {d: i for i, d in enumerate(target_star)}
        image_pos = [position[dyn.dart_map[x]] for x in star]
        if k == 1:
            counts = [m * l]
        else:
            counts = [((image_pos[(t + 1) % k] - image_pos[t]) % l) or l for t in range(k)]
        if sum(counts) != m * l:
            if winding_witness is None:
                winding_witness = (f"vertex {v}: corner runs cover {sum(counts)} "
                                   f"target corners, expected {m * l}")
            continue
        for t in range(k):
            source_face = graph.face_of[star[(t + 1) % k]]
            bucket = coverage.setdefault((y, source_face), {})
            start = image_pos[t]
            for r in range(counts[t]):
                corner = (start + r) % l
                if corner in bucket and overlap_witness is None:
                    overlap_witness = (f"target vertex {y}, face {source_face}: corner images "
                                       f"of vertices {bucket[corner]} and {v} overlap")
                bucket[corner] = v
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
        non_channel_at = [0] * graph.n_vertices
        channel_to_center = [0] * graph.n_vertices
        for e in range(graph.n_edges):
            a, b = graph.endpoints(e)
            if e in channel:
                if center in (a, b) and a != b:
                    channel_to_center[a if b == center else b] += 1
            else:
                non_channel_at[a] += 1
                non_channel_at[b] += 1
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

    # (5) the non-channel part, with its endpoints, is connected
    witness = None
    non_channel = [e for e in range(graph.n_edges) if e not in channel]
    if non_channel:
        index = {}
        for e in non_channel:
            for v in graph.endpoints(e):
                index.setdefault(v, len(index))
        parts = UnionFind(len(index))
        for e in non_channel:
            a, b = graph.endpoints(e)
            parts.union(index[a], index[b])
        groups = parts.classes()
        if len(groups) > 1:
            vertices = list(index)
            reps = sorted(vertices[group[0]] for group in groups)[:2]
            witness = f"non-channel part splits, e.g. vertices {reps[0]} and {reps[1]}"
    checks.append(ConditionCheck("complement_connected", witness is None, witness))

    # (6) sector model of the extension is injective off the graph
    extension = regular_extension_check(dyn)
    witness = None if extension.passed else extension.failures[0].witness
    checks.append(ConditionCheck("sector_injective", witness is None, witness))

    # (7) star saturation: every liftable dart at the image vertex is hit by
    # exactly local_degree(v) darts at v, else pullback material is missing
    witness = None
    for v in range(graph.n_vertices):
        if witness:
            break
        star = graph.vertex_darts[v]
        y = dyn.vertex_map[v]
        hits = {}
        for x in star:
            hits[dyn.dart_map[x]] = hits.get(dyn.dart_map[x], 0) + 1
        for target_dart in graph.vertex_darts[y]:
            depth = depths[target_dart >> 1]
            if depth is None or depth > dyn.level - 1:
                continue
            got = hits.get(target_dart, 0)
            if got != dyn.local_degree[v]:
                witness = (f"vertex {v}: dart {target_dart} at its image has {got} "
                           f"preimage darts, expected {dyn.local_degree[v]}")
                break
    checks.append(ConditionCheck("star_saturated", witness is None, witness))

    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class Isomorphism:
    """Orientation-preserving match between two graph dynamics."""

    dart_bijection: tuple[int, ...]
    vertex_bijection: tuple[int, ...]
    edge_bijection: tuple[int, ...]


def graphs_equivalent(first: GraphDynamics, second: GraphDynamics) -> Isomorphism | None:
    """Search for an orientation-preserving isomorphism conjugating the maps.

    Each dart of ``second`` labelled like dart 0 is tried, in increasing
    order, as dart 0's image; the choice is closed under sigma, the mate d ^ 1
    and dart_map together, and given up on the first clash, reused image or
    label mismatch. A closure that finishes maps vertices (sigma cycles) onto
    vertices and keeps every label and dart_map, which vertex_map and
    edge_map follow: it is the witness, the one with the least anchor dart.
    """
    ga, gb = first.graph, second.graph
    if (ga.n_darts, ga.n_vertices, first.level) != (gb.n_darts, gb.n_vertices, second.level):
        return None
    la, lb = first.dart_labels, second.dart_labels

    def closure(anchor: int) -> list[int] | None:
        match, used, stack = [-1] * ga.n_darts, [False] * ga.n_darts, [0]
        match[0], used[anchor] = anchor, True
        while stack:
            x = stack.pop()
            y = match[x]
            for nxt, img in ((ga.sigma[x], gb.sigma[y]), (x ^ 1, y ^ 1),
                             (first.dart_map[x], second.dart_map[y])):
                if match[nxt] == -1:
                    if used[img] or la[nxt] != lb[img]:
                        return None
                    match[nxt], used[img] = img, True
                    stack.append(nxt)
                elif match[nxt] != img:
                    return None
        return match

    for anchor in range(gb.n_darts):
        match = closure(anchor) if lb[anchor] == la[0] else None
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
    that is an id, a degree or N must be a JSON integer.
    """
    try:
        darts = list(data["darts"])
        alpha_pairs = [tuple(p) for p in data["alpha"]]
        sigma_cycles = {int(v): list(c) for v, c in _object(data, "sigma").items()}
        _ints(itertools.chain(darts, *alpha_pairs, *sigma_cycles.values()))
        kind_by_old = {int(v): k for v, k in _object(data, "vertex_kinds").items()}
        unknown = set(kind_by_old.values()) - {KIND_ROOT, KIND_POLE, KIND_INFINITY, KIND_PLAIN}
        if unknown:
            raise ValueError(f"unknown vertex kind {unknown.pop()!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraph(f"malformed graph data: {exc}") from exc
    for p in alpha_pairs:
        if len(p) != 2:
            raise InvalidGraph(f"alpha entry {list(p)} is not a pair of darts")
    if sorted(d for p in alpha_pairs for d in p) != sorted(darts):
        raise InvalidGraph("alpha pairs do not partition the darts")
    new_dart = {}
    for j, (a, b) in enumerate(alpha_pairs):
        new_dart[a] = 2 * j
        new_dart[b] = 2 * j + 1
    old_vertices = sorted(sigma_cycles)
    if sorted(kind_by_old) != old_vertices:
        raise InvalidGraph("vertex_kinds and sigma keys disagree")
    new_vertex = {v: i for i, v in enumerate(old_vertices)}
    n = len(darts)
    sigma = [None] * n
    vertex_of = [None] * n
    for old_v, cycle in sigma_cycles.items():
        unknown = [d for d in cycle if d not in new_dart]
        if unknown:
            raise InvalidGraph(f"sigma names dart {unknown[0]}, which is in no alpha pair")
        for d, successor in zip(cycle, cycle[1:] + cycle[:1]):
            if sigma[new_dart[d]] is not None:
                raise InvalidGraph(f"dart {d} missing or repeated in sigma")
            sigma[new_dart[d]] = new_dart[successor]
            vertex_of[new_dart[d]] = new_vertex[old_v]
    if any(s is None for s in sigma):
        raise InvalidGraph("sigma does not cover every dart")
    graph = EmbeddedGraph(tuple(sigma), tuple(vertex_of),
                          tuple(kind_by_old[v] for v in old_vertices))
    if "dynamics" not in data:
        return graph
    dyn = data["dynamics"]
    try:
        field = "vertex_map"
        vertex_map = tuple(new_vertex[w] for w in _ints(dyn[field][str(v)] for v in old_vertices))
        field = "edge_map"
        edge_map = tuple(_ints(dyn[field][str(e)] for e in range(graph.n_edges)))
        field = "dart_map"
        images = _object(dyn, field)
        dart_map = [None] * n
        for old_d, old_img in zip(images, _ints(images.values())):
            dart_map[new_dart[int(old_d)]] = new_dart[old_img]
        field = "local_degree"
        local_degree = tuple(_ints(dyn[field][str(v)] for v in old_vertices))
        field = "delta_edges"
        channel = frozenset(_ints(dyn[field]))
        field = "N"
        [level] = _ints([dyn[field]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraph(f"malformed dynamics data in {field}: {exc}") from exc
    if any(d is None for d in dart_map):
        raise InvalidGraph("dart_map does not cover every dart")
    return GraphDynamics(graph, vertex_map, edge_map, tuple(dart_map),
                         local_degree, channel, level)
