"""Combinatorial layer: rotation systems, validators, equivalence, JSON.

The main oracle here is a hand-built model of the level-1 graph of the
Newton map of z^3 - z (see conftest), whose rotation data was derived from
germ directions on paper, independently of the numerical pipeline.
"""

import dataclasses
import json
import random
import re
import time

import pytest

from newtongraph import (
    InvalidGraph,
    graph_from_json,
    graph_to_json,
    graphs_equivalent,
    validate_newton_graph,
)
from newtongraph.combinatorial import (
    ConditionCheck,
    EmbeddedGraph,
    GraphDynamics,
    KIND_INFINITY,
    KIND_PLAIN,
    KIND_POLE,
    KIND_ROOT,
    ValidationReport,
    embedded_graph_from_rotations,
    regular_extension_check,
    validate_channel_diagram,
)
from conftest import HandBuiltModel, aligned_dart_map


def single_edge():
    return embedded_graph_from_rotations(
        [(0, 1)], [[0], [1]], [KIND_PLAIN, KIND_PLAIN])


def triangle():
    # vertices at the corners of a ccw triangle; rotations by germ angle
    return embedded_graph_from_rotations(
        [(0, 1), (1, 2), (2, 0)],
        [[0, 5], [1, 2], [3, 4]],
        [KIND_PLAIN, KIND_PLAIN, KIND_PLAIN])


class TestEmbeddedGraph:
    def test_single_edge_one_face(self):
        g = single_edge()
        assert g.n_faces == 1
        assert len(g.faces[0]) == 2

    def test_triangle_two_faces(self):
        g = triangle()
        assert g.n_faces == 2
        assert g.n_vertices - g.n_edges + g.n_faces == 2

    def test_star_tree_single_face(self):
        # three edges joining three leaves to a hub: a tree has one face
        g = embedded_graph_from_rotations(
            [(0, 3), (1, 3), (2, 3)],
            [[0], [2], [4], [1, 3, 5]],
            [KIND_ROOT, KIND_ROOT, KIND_ROOT, KIND_INFINITY])
        assert (g.n_vertices, g.n_edges, g.n_faces) == (4, 3, 1)
        assert len(g.faces[0]) == 6

    def test_faces_partition_darts(self):
        g = triangle()
        seen = [d for walk in g.faces for d in walk]
        assert sorted(seen) == list(range(g.n_darts))
        for d in range(g.n_darts):
            assert d in g.faces[g.face_of[d]]

    def test_corner_faces_on_triangle(self):
        g = triangle()
        # at vertex 1 the sector from dart 1 ccw to dart 2 is the outer face,
        # the one from dart 2 back to dart 1 is the inner face
        outer = g.face_of_corner(1)
        inner = g.face_of_corner(2)
        assert outer != inner
        assert set(g.faces[inner]) == {1, 3, 5}

    def test_vertex_darts_follow_rotation(self):
        g = triangle()
        assert g.vertex_darts[0] == (0, 5)
        assert g.degree(0) == 2

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidGraph):
            EmbeddedGraph((0, 0), (0, 1), (KIND_PLAIN, KIND_PLAIN))

    def test_rejects_sigma_across_vertices(self):
        with pytest.raises(InvalidGraph):
            EmbeddedGraph((1, 0), (0, 1), (KIND_PLAIN, KIND_PLAIN))

    def test_rejects_split_rotation_at_vertex(self):
        # two edges between the same endpoints, each dart a fixed point of
        # sigma: vertex 0 would carry two rotation cycles
        with pytest.raises(InvalidGraph):
            EmbeddedGraph((0, 1, 2, 3), (0, 1, 0, 1), (KIND_PLAIN, KIND_PLAIN))

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidGraph):
            EmbeddedGraph((0, 1, 2, 3), (0, 1, 2, 3),
                          (KIND_PLAIN,) * 4)

    def test_rejects_torus_rotation(self):
        # two interleaved loops at one vertex give Euler count 0
        with pytest.raises(InvalidGraph):
            embedded_graph_from_rotations(
                [(0, 0), (0, 0)], [[0, 2, 1, 3]], [KIND_PLAIN])

    def test_rejects_dart_at_wrong_vertex(self):
        with pytest.raises(InvalidGraph):
            embedded_graph_from_rotations(
                [(0, 1)], [[1], [0]], [KIND_PLAIN, KIND_PLAIN])


    @pytest.mark.parametrize("sigma, vertex_of, message", [
        ((), (), "dart count must be positive and even"),
        ((0,), (0,), "dart count must be positive and even"),
        ((0, 1), (0,), "vertex_of length does not match dart count"),
    ])
    def test_rejects_malformed_dart_arrays(self, sigma, vertex_of, message):
        with pytest.raises(InvalidGraph, match=message):
            EmbeddedGraph(sigma, vertex_of, (KIND_PLAIN,))

    @pytest.mark.parametrize("rotations, message", [
        ([[0, 0], [1]], "dart 0 repeated or out of range"),
        ([[2], [1]], "dart 2 repeated or out of range"),
        ([[0], []], "rotations do not cover every dart"),
    ])
    def test_rejects_bad_rotations(self, rotations, message):
        with pytest.raises(InvalidGraph, match=message):
            embedded_graph_from_rotations([(0, 1)], rotations, [KIND_PLAIN, KIND_PLAIN])

    @pytest.mark.parametrize("sigma, vertex_of, n_kinds, message", [
        ((0, 0), (0, 1), 2, "sigma is not a permutation of the darts"),
        ((0, 1, 3, 2), (0, 1, 0, 1), 2, "sigma moves dart 2 to a different vertex"),
        ((0, 1), (0, 2), 3, "vertex ids must be 0..V-1 with no gaps"),
        ((0, 1), (0, 1), 1, "vertex_kinds length does not match vertex count"),
        # vertex 0 is one cycle (0 2), vertex 1 two fixed darts
        ((2, 1, 0, 3), (0, 1, 0, 1), 2, "vertex 1 has more than one sigma cycle"),
        ((0, 1, 2, 3), (0, 1, 2, 3), 4, "graph is not connected"),
    ])
    def test_each_rejection_names_its_check(self, sigma, vertex_of, n_kinds, message):
        with pytest.raises(InvalidGraph, match=f"^{re.escape(message)}$"):
            EmbeddedGraph(sigma, vertex_of, (KIND_PLAIN,) * n_kinds)


class TestGraphDynamics:
    # the identity on one edge is a valid self-map; each case breaks one rule
    IDENTITY = dict(vertex_map=(0, 1), edge_map=(0,), dart_map=(0, 1),
                    local_degree=(1, 1), channel_edges=frozenset({0}), level=0)

    @pytest.mark.parametrize("changes, message", [
        (dict(vertex_map=(0,)), "vertex_map/local_degree length mismatch"),
        (dict(edge_map=(0, 0)), "edge_map/dart_map length mismatch"),
        (dict(vertex_map=(0, 2)), "vertex_map value out of range"),
        (dict(edge_map=(1,)), "edge_map value out of range"),
        (dict(dart_map=(0, 2)), "dart_map value out of range"),
        (dict(local_degree=(0, 1)), "local degrees must be >= 1"),
        (dict(level=-1), "level must be >= 0"),
        (dict(channel_edges=frozenset({1})), "channel edge id out of range"),
        (dict(vertex_map=(1, 0)), r"dart_map\(0\) lands at the wrong vertex"),
        # on the triangle, dart 0 and dart 5 both sit at vertex 0
        (dict(graph="triangle", vertex_map=(0, 1, 2), edge_map=(0, 1, 2),
              dart_map=(5, 1, 2, 3, 4, 5), local_degree=(1, 1, 1)),
         r"dart_map\(0\) lands on the wrong edge"),
        (dict(vertex_map=(0, 0), dart_map=(0, 0)),
         "dart_map does not pair the two ends of edge 0"),
    ])
    def test_rejects_inconsistent_maps(self, changes, message):
        fields = {**self.IDENTITY, **changes}
        graph = triangle() if fields.pop("graph", None) == "triangle" else single_edge()
        with pytest.raises(InvalidGraph, match=message):
            GraphDynamics(graph, **fields)

    def test_the_identity_is_valid(self):
        GraphDynamics(single_edge(), **self.IDENTITY)


class TestChannelDiagramValidator:
    def test_handbuilt_level0_passes(self, handbuilt_pm_level0):
        graph = handbuilt_pm_level0.dynamics().graph
        report = validate_channel_diagram(graph)
        assert report.passed, report.failures

    def test_parallel_pair_must_separate(self):
        # center 0 with roots 1..3; edges 0 and 1 are parallel to root 1.
        # First embedding: both other roots on the same side -> fail.
        endpoints = [(0, 1), (0, 1), (0, 2), (0, 3)]
        kinds = [KIND_INFINITY, KIND_ROOT, KIND_ROOT, KIND_ROOT]
        empty_lens = embedded_graph_from_rotations(
            endpoints, [[0, 6, 4, 2], [1, 3], [5], [7]], kinds)
        report = validate_channel_diagram(empty_lens)
        assert not report.check("parallel_separation").passed
        assert report.check("parallel_separation").witness == (
            "edges 0,1 bound a side with no further vertex")
        assert report.check("edge_budget").passed
        # Second embedding: one root between the parallel edges on each side.
        split = embedded_graph_from_rotations(
            endpoints, [[0, 6, 2, 4], [1, 3], [5], [7]], kinds)
        report = validate_channel_diagram(split)
        assert report.passed, report.failures
        assert report.check("parallel_separation").witness is None

    def test_root_to_root_edge_rejected(self):
        endpoints = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]
        kinds = [KIND_INFINITY] + [KIND_ROOT] * 4
        g = embedded_graph_from_rotations(
            endpoints,
            [[0, 2, 4, 6], [1, 8], [3, 9], [5], [7]],
            kinds)
        report = validate_channel_diagram(g)
        assert not report.check("edges_join_center").passed
        assert "edge 4" in report.check("edges_join_center").witness
        assert report.check("edge_budget").passed

    def test_edge_budget(self, handbuilt_pm_level0):
        # marking only two of the three roots leaves 4 edges > 2*2 - 2
        graph = handbuilt_pm_level0.dynamics().graph
        report = validate_channel_diagram(graph, members={0, 1, 3})
        assert not report.check("edge_budget").passed

    def test_missing_center_reported(self):
        g = embedded_graph_from_rotations(
            [(0, 1)], [[0], [1]], [KIND_PLAIN, KIND_PLAIN])
        report = validate_channel_diagram(g)
        assert not report.passed
        assert "center" in report.check("edges_join_center").witness


class TestNewtonGraphValidator:
    def test_handbuilt_level1_passes_all_seven(self, handbuilt_pm_level1):
        report = validate_newton_graph(handbuilt_pm_level1.dynamics())
        names = [c.name for c in report.checks]
        assert names == ["channel_core", "root_contact", "branch_total",
                         "depth_minimal", "complement_connected",
                         "sector_injective", "star_saturated"]
        assert report.passed, report.failures

    def test_level0_fails_star_saturation(self, handbuilt_pm_level0):
        report = validate_newton_graph(handbuilt_pm_level0.dynamics())
        assert not report.passed
        saturation = report.check("star_saturated")
        assert not saturation.passed
        assert "vertex 0" in saturation.witness

    def test_degree_sum_mutation(self, handbuilt_pm_level1):
        parts = handbuilt_pm_level1.parts()
        parts["local_degree"][0] = 2
        report = validate_newton_graph(HandBuiltModel.assemble(parts))
        assert not report.check("branch_total").passed

    def test_unfixed_channel_edge_mutation(self, handbuilt_pm_level1):
        parts = handbuilt_pm_level1.parts()
        parts["edge_map"][0], parts["edge_map"][1] = 1, 0
        report = validate_newton_graph(HandBuiltModel.assemble(parts))
        assert not report.check("channel_core").passed
        assert "not fixed" in report.check("channel_core").witness

    def test_wrong_level_mutation(self, handbuilt_pm_level1):
        parts = handbuilt_pm_level1.parts()
        parts["level"] = 2
        report = validate_newton_graph(HandBuiltModel.assemble(parts))
        assert not report.check("depth_minimal").passed

    def test_unmarked_channel_edge_mutation(self, handbuilt_pm_level1):
        parts = handbuilt_pm_level1.parts()
        parts["channel"].discard(3)
        report = validate_newton_graph(HandBuiltModel.assemble(parts))
        assert not report.check("channel_core").passed

    def test_split_complement_mutation(self, handbuilt_pm_level1):
        # with the four lifts at root 0 marked as channel, the remaining
        # lifts form two pieces: {+1, pole+, +1/2} and {-1, pole-, -1/2}
        parts = handbuilt_pm_level1.parts()
        parts["channel"] |= {4, 5, 6, 7}
        check = validate_newton_graph(HandBuiltModel.assemble(parts)).check(
            "complement_connected")
        assert not check.passed
        assert check.witness == "non-channel part splits, e.g. vertices 1 and 2"

    def test_missing_lift_fails_saturation_only_there(self, handbuilt_pm_level1):
        # drop the two far lifts (edges 10, 11) and their leaf vertices:
        # the poles lose one germ each, so saturation at the poles breaks
        parts = handbuilt_pm_level1.parts()
        for key in ("endpoints", "edge_map"):
            parts[key] = parts[key][:10]
        parts["rotations"] = parts["rotations"][:6]
        parts["rotations"][4] = [17, 13, 9]
        parts["rotations"][5] = [15, 19, 11]
        for key in ("kinds", "vertex_map", "local_degree"):
            parts[key] = parts[key][:6]
        report = validate_newton_graph(HandBuiltModel.assemble(parts))
        assert not report.check("star_saturated").passed
        for name in ("channel_core", "root_contact", "branch_total",
                     "depth_minimal", "complement_connected", "sector_injective"):
            assert report.check(name).passed, report.check(name)

    @pytest.mark.parametrize("mutation, name, witness", [
        (("channel", set()), "channel_core", "no channel edges marked"),
        (("channel", {4}), "channel_core", "center vertex not on any channel edge"),
        (("kinds", 3, KIND_PLAIN), "channel_core", "no unique center vertex"),
        (("kinds", 3, KIND_PLAIN), "root_contact", "no unique center vertex"),
        (("local_degree", 1, 1), "root_contact", "root 1 has local degree 1"),
        (("level", 0), "depth_minimal", "edge depth 1 exceeds level 0"),
        (("local_degree", [1] * 8), "depth_minimal", "no branch vertices"),
    ])
    def test_witnesses(self, handbuilt_pm_level1, mutation, name, witness):
        parts = handbuilt_pm_level1.parts()
        if len(mutation) == 2:
            parts[mutation[0]] = mutation[1]
        else:
            parts[mutation[0]][mutation[1]] = mutation[2]
        check = validate_newton_graph(HandBuiltModel.assemble(parts)).check(name)
        assert not check.passed
        assert check.witness == witness

    def test_a_map_fixing_the_channel_edges_fixes_their_vertices(self, handbuilt_pm_level1):
        # channel_core checks edges only: to move root 1 while fixing its
        # channel edge 2, the map must reverse that edge, taking the center
        # to root 1 and off the other channel edges at the center
        dyn = handbuilt_pm_level1.dynamics()
        dart_map, vertex_map = list(dyn.dart_map), list(dyn.vertex_map)
        dart_map[4], dart_map[5] = 5, 4
        vertex_map[1], vertex_map[3] = 3, 1
        with pytest.raises(InvalidGraph, match="lands at the wrong vertex"):
            GraphDynamics(dyn.graph, tuple(vertex_map), dyn.edge_map, tuple(dart_map),
                          dyn.local_degree, dyn.channel_edges, dyn.level)

    def test_reports_are_stable(self, handbuilt_pm_level1):
        dyn = handbuilt_pm_level1.dynamics()
        assert validate_newton_graph(dyn) == validate_newton_graph(dyn)


class TestRegularExtension:
    def test_identity_dynamics_pass(self, handbuilt_pm_level1):
        graph = handbuilt_pm_level1.dynamics().graph
        n_e, n_v = graph.n_edges, graph.n_vertices
        identity = GraphDynamics(
            graph=graph,
            vertex_map=tuple(range(n_v)),
            edge_map=tuple(range(n_e)),
            dart_map=tuple(range(2 * n_e)),
            local_degree=(1,) * n_v,
            channel_edges=frozenset(range(n_e)),
            level=0)
        report = regular_extension_check(identity)
        assert report.passed

    def test_handbuilt_level1_extension_passes(self, handbuilt_pm_level1):
        report = regular_extension_check(handbuilt_pm_level1.dynamics())
        assert report.passed, report.failures

    def test_two_sectors_in_one_face_overlap(self):
        # path a - v - b, v of local degree 2, both edges collapsing onto
        # the first one: both sectors at v live in the single face and both
        # wrap fully around the image vertex
        graph = embedded_graph_from_rotations(
            [(0, 1), (1, 2)],
            [[0], [1, 2], [3]],
            [KIND_PLAIN, KIND_PLAIN, KIND_PLAIN])
        dyn = GraphDynamics(
            graph=graph,
            vertex_map=(0, 1, 0),
            edge_map=(0, 0),
            dart_map=(0, 1, 1, 0),
            local_degree=(1, 2, 1),
            channel_edges=frozenset({0}),
            level=1)
        report = regular_extension_check(dyn)
        assert report.check("sector_winding").passed
        assert not report.check("sector_injective").passed

    def test_under_winding_detected(self, handbuilt_pm_level0):
        # local degree 3 declared at the hub, but only the two fixed germs
        # are present: the sector images cover too little
        report = regular_extension_check(handbuilt_pm_level0.dynamics())
        assert not report.check("sector_winding").passed
        assert "vertex 0" in report.check("sector_winding").witness

    @pytest.mark.parametrize("name", ["graph_unity", "graph_q_unity", "graph_q_monic"])
    def test_the_array_passes_report_as_the_corner_loop(self, request, name):
        # rotation systems with two darts of one star swapped, some with a
        # local degree raised too: every report, witnesses included, is the
        # one a loop over the vertices, their corners and each run gives
        dyn = request.getfixturevalue(name).dynamics
        g = dyn.graph
        rng = random.Random(name)
        reports = []
        while len(reports) < 40:
            sigma, degrees = list(g.sigma), list(dyn.local_degree)
            v = rng.choice([v for v in range(g.n_vertices) if len(g.vertex_darts[v]) >= 3])
            star = list(g.vertex_darts[v])
            i, j = rng.sample(range(len(star)), 2)
            star[i], star[j] = star[j], star[i]
            for a, b in zip(star, star[1:] + star[:1]):
                sigma[a] = b
            if rng.random() < 0.3:
                degrees[rng.randrange(g.n_vertices)] += 1
            try:
                graph = EmbeddedGraph(tuple(sigma), g.vertex_of, g.vertex_kinds)
            except InvalidGraph:  # not spherical
                continue
            mutant = dataclasses.replace(dyn, graph=graph, local_degree=tuple(degrees))
            report = regular_extension_check(mutant)
            assert report == corner_loop_check(mutant)
            reports.append(report)
        assert regular_extension_check(dyn) == corner_loop_check(dyn)
        assert regular_extension_check(dyn).passed
        assert any(not r.check("sector_injective").passed for r in reports)


def corner_loop_check(dyn):
    """regular_extension_check as a loop over the vertices, their corners
    and each corner's run: the oracle of its array passes."""
    graph = dyn.graph
    stars, face_of, n_darts = graph.vertex_darts, graph.face_of, graph.n_darts
    winding_witness = overlap_witness = None
    owner = {}
    for v, star in enumerate(stars):
        y = dyn.vertex_map[v]
        target_star = stars[y]
        l = len(target_star)
        turns = dyn.local_degree[v] * l
        starts = [graph.star_position[dyn.dart_map[x]] for x in star]
        if len(star) == 1:
            counts = [turns]
        else:
            counts = [((b - a) % l) or l for a, b in zip(starts, starts[1:] + starts[:1])]
        if sum(counts) != turns:
            if winding_witness is None:
                winding_witness = (f"vertex {v}: corner runs cover {sum(counts)} "
                                   f"target corners, expected {turns}")
            continue
        for start, count, x in zip(starts, counts, star[1:] + star[:1]):
            for r in range(start, start + count):
                key = (face_of[x], target_star[r % l])
                if key in owner and overlap_witness is None:
                    overlap_witness = (f"target vertex {y}, face {face_of[x]}: corner images "
                                       f"of vertices {owner[key]} and {v} overlap")
                owner[key] = v
    return ValidationReport((
        ConditionCheck("sector_winding", winding_witness is None, winding_witness),
        ConditionCheck("sector_injective", overlap_witness is None, overlap_witness),
    ))


def permute_edges(parts, perm):
    """Relabel edge j as perm[j] (darts 2j+s as 2 perm[j]+s) in a parts dict."""
    n = len(perm)
    new = {
        "endpoints": [None] * n,
        "rotations": [[2 * perm[d >> 1] + (d & 1) for d in rot]
                      for rot in parts["rotations"]],
        "kinds": list(parts["kinds"]),
        "vertex_map": list(parts["vertex_map"]),
        "edge_map": [None] * n,
        "local_degree": list(parts["local_degree"]),
        "channel": {perm[e] for e in parts["channel"]},
        "level": parts["level"],
    }
    for j, (a, b) in enumerate(parts["endpoints"]):
        new["endpoints"][perm[j]] = (a, b)
    for j, image in enumerate(parts["edge_map"]):
        new["edge_map"][perm[j]] = perm[image]
    return new


def mirrored(dyn):
    """Same data with every rotation reversed (the mirror embedding)."""
    graph = dyn.graph
    sigma_inv = [0] * graph.n_darts
    for d in range(graph.n_darts):
        sigma_inv[graph.sigma[d]] = d
    mirror_graph = EmbeddedGraph(tuple(sigma_inv), graph.vertex_of, graph.vertex_kinds)
    return GraphDynamics(mirror_graph, dyn.vertex_map, dyn.edge_map, dyn.dart_map,
                         dyn.local_degree, dyn.channel_edges, dyn.level)


def chiral_star(clockwise):
    """Three leaves of three different kinds around a hub; the two rotation
    senses give the two mirror images."""
    rotation = [0, 4, 2] if clockwise else [0, 2, 4]
    graph = embedded_graph_from_rotations(
        [(0, 1), (0, 2), (0, 3)],
        [rotation, [1], [3], [5]],
        [KIND_INFINITY, KIND_ROOT, KIND_POLE, KIND_PLAIN])
    return GraphDynamics(graph, (0, 1, 2, 3), (0, 1, 2), tuple(range(6)),
                         (1, 1, 1, 1), frozenset(), 0)


class TestEquivalence:
    def test_reflexive_with_identity_witness(self, handbuilt_pm_level1):
        dyn = handbuilt_pm_level1.dynamics()
        iso = graphs_equivalent(dyn, dyn)
        assert iso is not None
        assert iso.dart_bijection == tuple(range(dyn.graph.n_darts))

    def test_edge_relabeling_is_equivalent(self, handbuilt_pm_level1):
        parts = handbuilt_pm_level1.parts()
        perm = [(j + 5) % 12 for j in range(12)]
        relabeled = HandBuiltModel.assemble(permute_edges(parts, perm))
        dyn = handbuilt_pm_level1.dynamics()
        iso = graphs_equivalent(dyn, relabeled)
        assert iso is not None
        assert iso.vertex_bijection == tuple(range(8))
        assert iso.edge_bijection == tuple(perm)

    def test_symmetry_and_composition(self, handbuilt_pm_level1):
        parts = handbuilt_pm_level1.parts()
        perm = [(j + 5) % 12 for j in range(12)]
        relabeled = HandBuiltModel.assemble(permute_edges(parts, perm))
        dyn = handbuilt_pm_level1.dynamics()
        forward = graphs_equivalent(dyn, relabeled)
        backward = graphs_equivalent(relabeled, dyn)
        assert forward is not None
        assert backward is not None

    def test_mirror_of_symmetric_graph_is_equivalent(self, handbuilt_pm_level1):
        # the z^3 - z graph has a reflection symmetry across the real axis,
        # so its mirror admits an orientation-preserving match
        dyn = handbuilt_pm_level1.dynamics()
        assert graphs_equivalent(dyn, mirrored(dyn)) is not None

    def test_chiral_graph_mirror_not_equivalent(self):
        left, right = chiral_star(False), chiral_star(True)
        assert graphs_equivalent(left, left) is not None
        assert graphs_equivalent(left, right) is None

    def test_edge_count_fast_reject(self, handbuilt_pm_level1, handbuilt_pm_level0):
        big = handbuilt_pm_level1.dynamics()
        small = handbuilt_pm_level0.dynamics()
        start = time.perf_counter()
        assert graphs_equivalent(big, small) is None
        assert time.perf_counter() - start < 0.001

    def test_kind_mismatch_rejected(self, handbuilt_pm_level1):
        parts = handbuilt_pm_level1.parts()
        parts["kinds"][6], parts["kinds"][7] = KIND_POLE, KIND_POLE
        other = HandBuiltModel.assemble(parts)
        assert graphs_equivalent(handbuilt_pm_level1.dynamics(), other) is None


POOL_GRAPHS = ("graph_unity", "graph_pm", "graph_pm_plus", "graph_q_unity", "graph_q_monic")


def old_prechecks(dyn):
    """Every count and multiset that a cheap precheck could compare."""
    g = dyn.graph
    return (g.n_darts, g.n_vertices, g.n_faces, sorted(g.vertex_kinds),
            sorted(g.degree(v) for v in range(g.n_vertices)), sorted(dyn.local_degree),
            len(dyn.channel_edges), dyn.level)


def vertex_triples(dyn):
    g = dyn.graph
    return sorted((g.vertex_kinds[v], g.degree(v), dyn.local_degree[v])
                  for v in range(g.n_vertices))


def edge_flags(dyn):
    g = dyn.graph
    return sorted((e in dyn.channel_edges, tuple(sorted(g.vertex_kinds[v] for v in g.endpoints(e))))
                  for e in range(g.n_edges))


def with_parts(dyn, kinds=None, local_degree=None, channel=None, edge_map=None):
    """A copy of a pipeline graph (whose dart map aligns tails with tails)
    with some parts replaced."""
    g = dyn.graph
    graph = g if kinds is None else EmbeddedGraph(g.sigma, g.vertex_of, tuple(kinds))
    edge_map = dyn.edge_map if edge_map is None else tuple(edge_map)
    return GraphDynamics(
        graph, dyn.vertex_map, edge_map, aligned_dart_map(edge_map),
        dyn.local_degree if local_degree is None else tuple(local_degree),
        dyn.channel_edges if channel is None else frozenset(channel), dyn.level)


def label_swaps(dyn):
    """Per label component, the first swap that keeps old_prechecks and
    changes the invariant the component feeds."""
    g, ld = dyn.graph, dyn.local_degree
    kinds, size = g.vertex_kinds, g.degree
    pairs = [(a, b) for a in range(g.n_vertices) for b in range(a + 1, g.n_vertices)]
    out = {}
    for a, b in pairs:
        if kinds[a] != kinds[b] and size(a) != size(b):
            swapped = list(kinds)
            swapped[a], swapped[b] = kinds[b], kinds[a]
            out["kind"] = with_parts(dyn, kinds=swapped)
            break
    for a, b in pairs:
        if ld[a] != ld[b] and (kinds[a], size(a)) != (kinds[b], size(b)):
            swapped = list(ld)
            swapped[a], swapped[b] = ld[b], ld[a]
            out["local_degree"] = with_parts(dyn, local_degree=swapped)
            break
    core = sorted(dyn.channel_edges)
    outside = [e for e in range(g.n_edges) if e not in dyn.channel_edges]
    out["channel"] = with_parts(dyn, channel=set(core[1:]) | {outside[0]})
    return out


class TestEquivalenceLabels:
    """Mutants that pass every cheap precheck, so that only the labels or
    the dart map checked inside the closure can tell them apart."""

    @pytest.mark.parametrize("name", POOL_GRAPHS)
    def test_label_swap_mutants_rejected(self, request, name):
        dyn = request.getfixturevalue(name).dynamics
        mutants = label_swaps(dyn)
        assert sorted(mutants) == ["channel", "kind", "local_degree"]
        for component, mutant in mutants.items():
            assert old_prechecks(mutant) == old_prechecks(dyn), component
            invariant = edge_flags if component == "channel" else vertex_triples
            assert invariant(mutant) != invariant(dyn), component
            assert graphs_equivalent(dyn, mutant) is None, component
            assert graphs_equivalent(mutant, dyn) is None, component
            assert graphs_equivalent(mutant, mutant) is not None, component

    @pytest.mark.parametrize("name", ["graph_pm", "graph_pm_plus", "graph_q_monic"])
    def test_dart_map_mutant_rejected(self, request, name):
        # two channel edges at a root of local degree >= 3 join the same two
        # vertices; mapping each onto the other keeps every label and the
        # vertex map but fixes fewer darts, a conjugacy invariant
        dyn = request.getfixturevalue(name).dynamics
        g = dyn.graph
        by_ends = {}
        for e in sorted(dyn.channel_edges):
            by_ends.setdefault(g.endpoints(e), []).append(e)
        e1, e2 = next(bundle for bundle in by_ends.values() if len(bundle) > 1)[:2]
        edge_map = list(dyn.edge_map)
        edge_map[e1], edge_map[e2] = edge_map[e2], edge_map[e1]
        mutant = with_parts(dyn, edge_map=edge_map)
        assert mutant.dart_labels == dyn.dart_labels
        fixed = [sum(x.dart_map[d] == d for d in range(g.n_darts)) for x in (dyn, mutant)]
        assert fixed[0] != fixed[1]
        assert graphs_equivalent(dyn, mutant) is None
        assert graphs_equivalent(mutant, dyn) is None

    def test_witness_is_least_anchor(self, graph_unity):
        # z^3 - 1 has a threefold rotation, so dart 0 of a relabeled copy has
        # three images; a brute-force search over every anchor finds them all,
        # and the witness uses the least
        dyn = graph_unity.dynamics
        g, n_e = dyn.graph, dyn.graph.n_edges

        def r(d):
            return 2 * ((d // 2 + 5) % n_e) + (d & 1 ^ (d // 2) & 1)

        sigma, vertex_of, dart_map = [0] * g.n_darts, [0] * g.n_darts, [0] * g.n_darts
        for d in range(g.n_darts):
            sigma[r(d)], vertex_of[r(d)] = r(g.sigma[d]), g.vertex_of[d]
            dart_map[r(d)] = r(dyn.dart_map[d])
        edge_map = [0] * n_e
        for e in range(n_e):
            edge_map[r(2 * e) // 2] = r(2 * dyn.edge_map[e]) // 2
        copy = GraphDynamics(
            EmbeddedGraph(tuple(sigma), tuple(vertex_of), g.vertex_kinds), dyn.vertex_map,
            tuple(edge_map), tuple(dart_map), dyn.local_degree,
            frozenset(r(2 * e) // 2 for e in dyn.channel_edges), dyn.level)
        h = copy.graph
        anchors = []
        for anchor in range(h.n_darts):
            match, stack, ok = {0: anchor}, [0], True
            while stack and ok:
                x = stack.pop()
                for nxt, img in ((g.sigma[x], h.sigma[match[x]]), (x ^ 1, match[x] ^ 1),
                                 (dyn.dart_map[x], copy.dart_map[match[x]])):
                    if nxt not in match:
                        match[nxt] = img
                        stack.append(nxt)
                    elif match[nxt] != img:
                        ok = False
            vertex = {g.vertex_of[d]: h.vertex_of[img] for d, img in match.items()}
            if (ok and len(set(match.values())) == g.n_darts
                    and all(g.vertex_kinds[v] == h.vertex_kinds[w]
                            and dyn.local_degree[v] == copy.local_degree[w]
                            for v, w in vertex.items())
                    and {match[2 * e] // 2 for e in dyn.channel_edges} == copy.channel_edges):
                anchors.append(anchor)
        assert len(anchors) == 3
        assert graphs_equivalent(dyn, copy).dart_bijection[0] == min(anchors)


class TestJsonInterchange:
    def test_graph_round_trip(self):
        g = triangle()
        assert graph_from_json(graph_to_json(g)) == g

    def test_dynamics_round_trip(self, handbuilt_pm_level1):
        dyn = handbuilt_pm_level1.dynamics()
        again = graph_from_json(graph_to_json(dyn))
        assert again == dyn

    def test_serialization_is_deterministic(self, handbuilt_pm_level1):
        a = json.dumps(graph_to_json(handbuilt_pm_level1.dynamics()), sort_keys=True)
        b = json.dumps(graph_to_json(handbuilt_pm_level1.dynamics()), sort_keys=True)
        assert a == b

    def test_foreign_ids_normalized(self, handbuilt_pm_level0):
        dyn = handbuilt_pm_level0.dynamics()
        data = graph_to_json(dyn)
        dart_name = {d: 10 * d + 7 for d in data["darts"]}
        vertex_name = {v: v + 100 for v in range(4)}
        scrambled = {
            "darts": [dart_name[d] for d in data["darts"]],
            "alpha": [[dart_name[a], dart_name[b]] for a, b in data["alpha"]],
            "sigma": {str(vertex_name[int(v)]): [dart_name[d] for d in cycle]
                      for v, cycle in data["sigma"].items()},
            "vertex_kinds": {str(vertex_name[int(v)]): k
                             for v, k in data["vertex_kinds"].items()},
            "dynamics": {
                "vertex_map": {str(vertex_name[int(v)]): vertex_name[w]
                               for v, w in data["dynamics"]["vertex_map"].items()},
                "edge_map": dict(data["dynamics"]["edge_map"]),
                "dart_map": {str(dart_name[int(d)]): dart_name[i]
                             for d, i in data["dynamics"]["dart_map"].items()},
                "local_degree": {str(vertex_name[int(v)]): m
                                 for v, m in data["dynamics"]["local_degree"].items()},
                "delta_edges": list(data["dynamics"]["delta_edges"]),
                "N": data["dynamics"]["N"],
            },
        }
        assert graph_from_json(scrambled) == dyn

    def test_unknown_dart_after_a_known_one_in_sigma(self):
        data = {"darts": [0, 1], "alpha": [[0, 1]], "sigma": {"0": [0, 999], "1": [1]},
                "vertex_kinds": {"0": "point", "1": "point"}}
        with pytest.raises(InvalidGraph, match="dart 999"):
            graph_from_json(data)

    def test_kind_and_sigma_keys_must_agree(self):
        data = graph_to_json(triangle())
        data["vertex_kinds"]["5"] = data["vertex_kinds"].pop("2")
        with pytest.raises(InvalidGraph, match="^vertex_kinds and sigma keys disagree$"):
            graph_from_json(data)

    def test_malformed_rejected(self):
        data = graph_to_json(triangle())
        del data["vertex_kinds"]["2"]
        with pytest.raises(InvalidGraph):
            graph_from_json(data)


def failing_handbuilt(level1, level0):
    """The hand-built graphs of the validator tests above that fail some
    condition, each of the seven failing in at least one."""
    base = level1.parts()
    changes = [
        ("local_degree", [2] + base["local_degree"][1:]),
        ("local_degree", base["local_degree"][:1] + [1] + base["local_degree"][2:]),
        ("local_degree", [1] * 8),
        ("kinds", base["kinds"][:3] + [KIND_PLAIN] + base["kinds"][4:]),
        ("edge_map", [1, 0] + base["edge_map"][2:]),
        ("level", 2), ("level", 0),
        ("channel", {0, 1, 2}), ("channel", set(range(8))), ("channel", set()), ("channel", {4}),
    ]
    graphs = [level0.dynamics()]
    for key, value in changes:
        parts = level1.parts()
        parts[key] = value
        graphs.append(HandBuiltModel.assemble(parts))
    # two sectors of one vertex in one face, as in TestRegularExtension
    path = embedded_graph_from_rotations([(0, 1), (1, 2)], [[0], [1, 2], [3]], [KIND_PLAIN] * 3)
    graphs.append(GraphDynamics(path, (0, 1, 0), (0, 0), (0, 1, 1, 0), (1, 2, 1),
                                frozenset({0}), 1))
    return graphs


def relabelled(dyn, rng):
    """The interchange form of dyn under foreign dart and vertex ids, shuffled
    edge order and key order, flipped edge ends and rotated sigma cycles."""
    data = graph_to_json(dyn)
    n, n_vertices = len(data["darts"]), len(data["sigma"])
    dart = dict(zip(range(n), rng.sample(range(1000, 1000 + 7 * n), n)))
    vertex = dict(zip(range(n_vertices), rng.sample(range(-3 * n_vertices, 0), n_vertices)))
    order = rng.sample(range(n // 2), n // 2)  # new edge position -> old edge
    edge = {old: new for new, old in enumerate(order)}

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return dict(items)

    alpha = [[dart[2 * old], dart[2 * old + 1]][::rng.choice((1, -1))] for old in order]
    sigma = {}
    for v, cycle in data["sigma"].items():
        k = rng.randrange(len(cycle))
        sigma[str(vertex[int(v)])] = [dart[d] for d in cycle[k:] + cycle[:k]]
    dynamics = data["dynamics"]
    return {
        "darts": rng.sample(list(dart.values()), n),
        "alpha": alpha,
        "sigma": shuffled(sigma.items()),
        "vertex_kinds": shuffled((str(vertex[int(v)]), k) for v, k in data["vertex_kinds"].items()),
        "dynamics": {
            "vertex_map": shuffled((str(vertex[int(v)]), vertex[w])
                                   for v, w in dynamics["vertex_map"].items()),
            "edge_map": shuffled((str(edge[int(e)]), edge[i]) for e, i in dynamics["edge_map"].items()),
            "dart_map": shuffled((str(dart[int(d)]), dart[i]) for d, i in dynamics["dart_map"].items()),
            "local_degree": shuffled((str(vertex[int(v)]), m)
                                     for v, m in dynamics["local_degree"].items()),
            "delta_edges": rng.sample([edge[e] for e in dynamics["delta_edges"]],
                                      len(dynamics["delta_edges"])),
            "N": dynamics["N"],
        },
    }


def verdicts(dyn):
    return [(c.name, c.passed) for c in validate_newton_graph(dyn).checks]


class TestValidationIgnoresLabels:
    def test_pool_and_failing_handbuilt_graphs(self, request, handbuilt_pm_level1,
                                               handbuilt_pm_level0):
        graphs = [request.getfixturevalue(name).dynamics for name in POOL_GRAPHS]
        graphs.append(handbuilt_pm_level1.dynamics())
        failing = failing_handbuilt(handbuilt_pm_level1, handbuilt_pm_level0)
        assert all(not validate_newton_graph(dyn).passed for dyn in failing)
        graphs += failing
        failed = {name for dyn in failing for name, passed in verdicts(dyn) if not passed}
        assert len(failed) == 7
        rng = random.Random(41)
        for dyn in graphs:
            for _ in range(3):
                copy = graph_from_json(relabelled(dyn, rng))
                assert verdicts(copy) == verdicts(dyn)
                assert graphs_equivalent(dyn, copy) is not None
