"""Combinatorial layer: rotation systems, validators, equivalence, JSON.

The main oracle here is a hand-built model of the level-1 graph of the
Newton map of z^3 - z (see conftest), whose rotation data was derived from
germ directions on paper, independently of the numerical pipeline.
"""

import json
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
    EmbeddedGraph,
    GraphDynamics,
    KIND_INFINITY,
    KIND_PLAIN,
    KIND_POLE,
    KIND_ROOT,
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
        assert report.check("edge_budget").passed
        # Second embedding: one root between the parallel edges on each side.
        split = embedded_graph_from_rotations(
            endpoints, [[0, 6, 2, 4], [1, 3], [5], [7]], kinds)
        report = validate_channel_diagram(split)
        assert report.passed, report.failures

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

    def test_malformed_rejected(self):
        data = graph_to_json(triangle())
        del data["vertex_kinds"]["2"]
        with pytest.raises(InvalidGraph):
            graph_from_json(data)
