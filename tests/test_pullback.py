"""Pullback tower: point fibers, edge lifts, level structure, face counts,
point location, and the export format."""

import cmath
import json
import math
import random

import numpy as np
import pytest

from newtongraph import (
    BranchJump,
    EndpointUnmatched,
    LevelCapExceeded,
    Polynomial,
    SpherePoint,
    UnresolvedOrbit,
    compute_newton_graph,
    graph_from_json,
    graph_to_json,
    graphs_equivalent,
    lift_edge,
    lift_point,
    locate_face,
    make_newton_map,
    newton_graph_to_json,
    pullback,
    validate_newton_graph,
)
from newtongraph.combinatorial import regular_extension_check
from newtongraph.pullback import (
    base_dynamic_graph,
    extract_combinatorial,
    verify_face_counts,
)
from newtongraph.rays import (
    GeoEdge,
    GeoGraph,
    continue_inverse_branch,
    graph_distance,
    on_branch,
    solve_preimage_near,
)
from newtongraph.sphere import INF, chordal_distance
from newtongraph.tolerances import Tolerances

CONDITION_NAMES = [
    "channel_core",
    "root_contact",
    "branch_total",
    "depth_minimal",
    "complement_connected",
    "sector_injective",
    "star_saturated",
]


def fiber_as_dict(fiber):
    return {p: m for p, m in fiber}


def end_count(geo, vertex):
    return sum((e.tail == vertex) + (e.head == vertex) for e in geo.edges)


def single_edge_graph(tail_pt, head_pt, points):
    return GeoGraph((tail_pt, head_pt), (GeoEdge(0, 1, points),))


class TestLiftPoint:
    def test_fiber_over_infinity(self, cubic_unity):
        # preimages of infinity: the double pole 0 plus infinity itself
        fiber = fiber_as_dict(lift_point(cubic_unity, INF))
        assert fiber[INF] == 1
        assert fiber[SpherePoint.of(0j)] == 2

    def test_fiber_over_fixed_root(self, cubic_unity):
        # 2z^3 - 3z^2 + 1 = (z - 1)^2 (2z + 1)
        fiber = lift_point(cubic_unity, 1 + 0j)
        by_mult = {m: p for p, m in fiber}
        assert chordal_distance(by_mult[2], 1 + 0j) < 1e-9
        assert chordal_distance(by_mult[1], -0.5 + 0j) < 1e-9

    def test_fiber_over_fixed_root_quartic(self, quartic_unity):
        # 3z^4 - 4z^3 + 1 = (z - 1)^2 (3z^2 + 2z + 1)
        fiber = lift_point(quartic_unity, 1 + 0j)
        expected = {
            complex(1): 2,
            (-1 + 1j * math.sqrt(2)) / 3: 1,
            (-1 - 1j * math.sqrt(2)) / 3: 1,
        }
        assert sum(m for _, m in fiber) == 4
        for want, mult in expected.items():
            hits = [m for p, m in fiber if chordal_distance(p, want) < 1e-9]
            assert hits == [mult]

    def test_generic_fiber(self, cubic_pm):
        w = 0.3 + 0.7j
        fiber = lift_point(cubic_pm, w)
        assert [m for _, m in fiber] == [1, 1, 1]
        for p, _ in fiber:
            assert chordal_distance(cubic_pm.evaluate(p), w) < 1e-8

    def test_random_fibers_sum_to_degree(
        self, cubic_unity, cubic_pm, quartic_unity, quartic_monic
    ):
        rng = random.Random(20260816)
        for f in (cubic_unity, cubic_pm, quartic_unity, quartic_monic):
            for _ in range(8):
                w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                fiber = lift_point(f, w)
                assert sum(m for _, m in fiber) == f.degree
                for p, _ in fiber:
                    assert chordal_distance(f.evaluate(p), w) < 1e-6


class TestLiftEdge:
    def test_lift_from_extra_preimage_ends_at_pole(self, cubic_unity, delta0_unity):
        # the ray of root 1 is edge 2 (roots are sorted, 1 comes last);
        # its lift from -1/2 must run into a preimage of infinity
        ray = delta0_unity.edges[2]
        assert chordal_distance(delta0_unity.vertices[ray.tail], 1 + 0j) < 1e-9
        lifted = lift_edge(cubic_unity, ray.points, -0.5 + 0j)
        assert np.isfinite(lifted[-1])
        assert chordal_distance(lifted[-1], 0j) < 1e-9

    def test_lift_forward_invariance(self, cubic_unity, delta0_unity):
        ray = delta0_unity.edges[2]
        source = single_edge_graph(
            delta0_unity.vertices[ray.tail], SpherePoint.infinity(), ray.points
        )
        lifted = lift_edge(cubic_unity, ray.points, -0.5 + 0j)
        for x in lifted[:-1]:
            assert graph_distance(source, cubic_unity.evaluate(x)) < 1e-4

    def test_self_lift_reproduces_ray(self, cubic_unity, delta0_unity):
        ray = delta0_unity.edges[2]
        direction = delta0_unity.direction_at(2, "tail")
        lifted = lift_edge(
            cubic_unity, ray.points, 1 + 0j, branch_direction=direction
        )
        assert np.isinf(lifted[-1])
        source = single_edge_graph(
            delta0_unity.vertices[ray.tail], SpherePoint.infinity(), ray.points
        )
        for x in lifted[1:-1]:
            assert graph_distance(source, x) < 1e-4

    def test_start_must_be_preimage(self, cubic_unity, delta0_unity):
        with pytest.raises(ValueError):
            lift_edge(cubic_unity, delta0_unity.edges[2].points, 0.3 + 0.2j)

    def test_critical_start_needs_branch_direction(self, cubic_unity, delta0_unity):
        with pytest.raises(ValueError):
            lift_edge(cubic_unity, delta0_unity.edges[2].points, 1 + 0j)


class TestLockstepLift:
    """The level lift runs every lift of a pullback pass at once; lift_edge,
    which lifts one edge sample by sample, is its reference."""

    @staticmethod
    def assert_same_lift(lane, reference):
        assert len(lane) == len(reference)
        assert np.array_equal(np.isinf(lane), np.isinf(reference))
        a, b = lane[np.isfinite(lane)], reference[np.isfinite(reference)]
        chordal = 2 * np.abs(a - b) / np.sqrt((1 + np.abs(a) ** 2) * (1 + np.abs(b) ** 2))
        assert chordal.max() < 1e-12

    def test_level_lift_matches_lift_edge(
        self, cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic,
        monkeypatch,
    ):
        levels = []
        lift_lanes = pullback._lift_lanes

        def recording(f, sources, lanes):
            lifted = lift_lanes(f, sources, lanes)
            levels.append((f, sources, lanes, lifted))
            return lifted

        monkeypatch.setattr(pullback, "_lift_lanes", recording)
        for f in (cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic):
            compute_newton_graph(f)
        assert len(levels) == 7  # one per pass; the towers are 2, 1, 1, 2, 1 high
        for f, sources, lanes, lifted in levels:
            assert len(lifted) == len(lanes)
            for (edge, start, direction), (head, lane) in zip(lanes, lifted):
                points, head_fiber = sources[edge]
                reference = lift_edge(
                    f, points, start, direction, head_candidates=head_fiber
                )
                self.assert_same_lift(lane, reference)
                assert head == SpherePoint.of(reference[-1])

    def test_strayed_lane_takes_scalar_continuation(self, cubic_unity, delta0_unity):
        # the ray of root 1 with one long jump after its fifth sample, out to
        # the first sample 12 or more from the root (whatever the sampling
        # density): the lift from -1/2 strays there and is bisected like the
        # scalar path
        f = cubic_unity
        ray = delta0_unity.edges[2].points
        jump = 5
        far = np.flatnonzero(np.abs(ray - ray[0]) >= 12)[0]
        source = np.concatenate((ray[:jump], ray[far:]))
        head_fiber = lift_point(f, INF)
        start = SpherePoint.of(-0.5)
        [(_, lane)] = pullback._lift_lanes(
            f, {0: (source, head_fiber)}, [(0, start, None)]
        )
        x0, w0, w1 = complex(lane[jump - 1]), complex(source[jump - 1]), complex(source[jump])
        direct = solve_preimage_near(f, w1, x0)
        assert direct is None or not on_branch(direct, x0)
        assert lane[jump] == continue_inverse_branch(f, w0, w1, x0)
        reference = lift_edge(f, source, start, head_candidates=head_fiber)
        self.assert_same_lift(lane, reference)

    def test_first_failing_lane_in_lane_order_raises(
        self, cubic_unity, delta0_unity, monkeypatch
    ):
        # every lane takes the scalar continuation; lane 1 fails in round 1,
        # lane 0 in round 2, and the lift raises lane 0's error, as lifting
        # the lanes one after another would
        f = cubic_unity
        newton_round = pullback._newton_round
        continuation = pullback.continue_inverse_branch
        calls = []

        def gates_fail(coeffs, values, x0, target, active, tol):
            x, rows, ok = newton_round(coeffs, values, x0, target, active, tol)
            return x, rows, np.zeros_like(ok)

        def flaky(f, w0, w1, x0):
            calls.append(x0)
            if len(calls) == 2:
                raise BranchJump("lane 1 lost in round 1")
            if len(calls) == 3:
                raise BranchJump("lane 0 lost in round 2")
            return continuation(f, w0, w1, x0)

        monkeypatch.setattr(pullback, "_newton_round", gates_fail)
        monkeypatch.setattr(pullback, "continue_inverse_branch", flaky)
        head_fiber = lift_point(f, INF)
        sources, lanes = {}, []
        for j in (0, 2):
            e = delta0_unity.edges[j]
            # the simple preimage of the root cubic_unity.roots[t] is -root/2
            start = SpherePoint.of(-f.roots[e.tail] / 2)
            sources[j] = (e.points, head_fiber)
            lanes.append((j, start, None))
        with pytest.raises(BranchJump, match="lane 0 lost in round 2"):
            pullback._lift_lanes(f, sources, lanes)
        assert len(calls) == 3


class TestMatchEndpoint:
    """The two gates on the fiber point a lift ran into, on synthetic fibers."""

    @staticmethod
    def fiber(*points):
        return tuple((SpherePoint.of(p), 1) for p in points)

    def test_clear_nearest_point_is_matched(self):
        last = SpherePoint.of(1e-3)
        assert pullback._match_endpoint(last, self.fiber(1, 0, -1)) == SpherePoint.of(0)

    def test_endpoint_far_from_every_candidate(self):
        # 0.5 is 0.894 chordal from 0 and 1.2 from 2, both beyond 0.1
        with pytest.raises(EndpointUnmatched, match="away from every preimage"):
            pullback._match_endpoint(SpherePoint.of(0.5), self.fiber(0, 2))

    def test_runner_up_within_five_times_the_best(self):
        # about 0.04 and 0.08 chordal away: the runner-up is closer than 5 x
        # the best
        with pytest.raises(EndpointUnmatched, match="ambiguous"):
            pullback._match_endpoint(SpherePoint.of(0), self.fiber(0.02, -0.04))


class TestPullbackLevel:
    def test_unity_level_one_structure(self, graph_unity):
        d1 = graph_unity.graphs[1]
        assert len(d1.geo.vertices) == 8
        assert len(d1.geo.edges) == 9
        pole = d1.geo.find_vertex(0j)
        assert pole is not None
        # each of the three rays lifts once through the double pole
        assert end_count(d1.geo, pole) == 6
        # the extra preimage of each root xi is -xi/2
        omega = cmath.exp(2j * math.pi / 3)
        for xi in (1, omega, omega.conjugate()):
            assert d1.geo.find_vertex(-xi / 2) is not None

    def test_pm_level_one_structure(self, graph_pm):
        d1 = graph_pm.graphs[1]
        assert len(d1.geo.vertices) == 8
        assert len(d1.geo.edges) == 12
        s = 1 / math.sqrt(3)
        for q in (s, -s):
            assert d1.geo.find_vertex(complex(q)) is not None
        # the extra preimages of the roots +-1 are real: -+1/2
        for x in (0.5, -0.5):
            assert d1.geo.find_vertex(complex(x)) is not None

    def test_base_prefix_preserved(self, graph_unity):
        d0, d1 = graph_unity.graphs[0], graph_unity.graphs[1]
        nv, ne = len(d0.geo.vertices), len(d0.geo.edges)
        assert d1.geo.vertices[:nv] == d0.geo.vertices
        assert d1.geo.edges[:ne] == d0.geo.edges
        assert d1.edge_map[:ne] == tuple(range(ne))
        assert d1.edge_level[:ne] == (0,) * ne
        assert d1.vertex_level[:nv] == (0,) * nv

    def test_vertex_map_forward_consistent(self, graph_unity, cubic_unity):
        top = graph_unity.graphs[-1]
        for i, v in enumerate(top.geo.vertices):
            image = top.geo.vertices[top.vertex_map[i]]
            assert chordal_distance(cubic_unity.evaluate(v), image) < 1e-6

    def test_edge_map_levels(self, graph_unity):
        top = graph_unity.graphs[-1]
        for j, level in enumerate(top.edge_level):
            if level == 0:
                assert top.edge_map[j] == j
            else:
                assert top.edge_level[top.edge_map[j]] == level - 1

    def test_lifts_map_onto_sources(self, graph_unity, cubic_unity):
        # forward images of lifted samples stay on the source polyline
        top = graph_unity.graphs[-1]
        for j in top.edges_at_level(top.level):
            e = top.geo.edges[j]
            src = top.geo.edges[top.edge_map[j]]
            source = single_edge_graph(
                top.geo.vertices[src.tail], top.geo.vertices[src.head], src.points
            )
            for x in e.points[:-1:10]:
                assert graph_distance(source, cubic_unity.evaluate(x)) < 1e-4

    def test_root_owner_follows_edge_map(self, graph_pm):
        top = graph_pm.graphs[-1]
        for j in range(len(top.geo.edges)):
            owner = top.root_owner(j)
            assert top.vertex_level[owner] == 0
            assert top.vertex_map[owner] == owner


class TestSamplingInvariance:
    """The graph depends on the isotopy class of the rays, not on how densely
    they are sampled: a spacing four times finer gives the same graph. The
    finer spacing is set on the map alone, so the sample count also shows
    that the map's policy reaches the ray tracer."""

    @pytest.mark.parametrize(
        "coeffs",
        [(-1, 0, 0, 1), (0, -1, 0, 1), (0, -1, 0, 0, 1), (-1, 0, 0, 0, 0, 1),
         (-1, 0, 0, 0, 0, 0, 1)],
        ids=["z3-1", "z3-z", "z4-z", "z5-1", "z6-1"],
    )
    def test_finer_sampling_gives_equivalent_graph(self, coeffs):
        default = compute_newton_graph(make_newton_map(Polynomial(coeffs)))
        finer = compute_newton_graph(
            make_newton_map(Polynomial(coeffs), Tolerances(sample_ratio=1.25**0.25))
        )
        for result in (default, finer):
            assert validate_newton_graph(result.dynamics).passed
        assert (finer.minimal_level, finer.pole_cover_level) == (
            default.minimal_level, default.pole_cover_level,
        )
        assert graphs_equivalent(default.dynamics, finer.dynamics) is not None
        finer_samples = sum(len(e.points) for e in finer.graphs[0].geo.edges)
        default_samples = sum(len(e.points) for e in default.graphs[0].geo.edges)
        assert finer_samples > 2 * default_samples


class TestComputeNewtonGraph:
    def test_minimal_levels(
        self, graph_unity, graph_pm, graph_pm_plus, graph_q_unity, graph_q_monic
    ):
        assert graph_unity.minimal_level == 2
        assert graph_pm.minimal_level == 1
        assert graph_pm_plus.minimal_level == 1
        assert graph_q_unity.minimal_level == 2
        assert graph_q_monic.minimal_level == 1

    def test_pole_cover_levels(
        self, graph_unity, graph_pm, graph_pm_plus, graph_q_unity, graph_q_monic
    ):
        for res in (graph_unity, graph_pm, graph_pm_plus, graph_q_unity, graph_q_monic):
            assert res.pole_cover_level == 1

    def test_tower_height_matches_top(self, graph_unity, graph_pm):
        for res in (graph_unity, graph_pm):
            assert len(res.graphs) == res.minimal_level + 1
            assert res.graphs[-1].level == res.minimal_level
            assert res.dynamics.level == res.minimal_level

    def test_unity_pole_vertex(self, graph_unity, cubic_unity):
        d1 = graph_unity.graphs[1]
        pole = d1.geo.find_vertex(0j)
        assert pole is not None
        assert cubic_unity.local_degree(0j) == 2

    def test_quartic_triple_pole_vertex(self, graph_q_unity, quartic_unity):
        d1 = graph_q_unity.graphs[1]
        pole = d1.geo.find_vertex(0j)
        assert pole is not None
        assert quartic_unity.local_degree(0j) == 3

    def test_branch_count_identity(
        self,
        graph_unity,
        graph_pm,
        graph_pm_plus,
        graph_q_unity,
        graph_q_monic,
        cubic_unity,
        cubic_pm,
        cubic_pm_plus,
        quartic_unity,
        quartic_monic,
    ):
        pairs = [
            (graph_unity, cubic_unity),
            (graph_pm, cubic_pm),
            (graph_pm_plus, cubic_pm_plus),
            (graph_q_unity, quartic_unity),
            (graph_q_monic, quartic_monic),
        ]
        for res, f in pairs:
            total = sum(m - 1 for m in res.dynamics.local_degree)
            assert total == 2 * f.degree - 2

    def test_spherical_euler_count(
        self, graph_unity, graph_pm, graph_pm_plus, graph_q_unity, graph_q_monic
    ):
        for res in (graph_unity, graph_pm, graph_pm_plus, graph_q_unity, graph_q_monic):
            emb = res.embedded
            assert emb.n_vertices - emb.n_edges + emb.n_faces == 2

    def test_all_conditions_pass(
        self, graph_unity, graph_pm, graph_pm_plus, graph_q_unity, graph_q_monic
    ):
        for res in (graph_unity, graph_pm, graph_pm_plus, graph_q_unity, graph_q_monic):
            report = validate_newton_graph(res.dynamics)
            assert [c.name for c in report.checks] == CONDITION_NAMES
            assert report.passed, [c for c in report.checks if not c.passed]

    def test_regular_extension_passes(self, graph_unity, graph_pm, graph_q_monic):
        for res in (graph_unity, graph_pm, graph_q_monic):
            report = regular_extension_check(res.dynamics)
            assert report.passed, [c for c in report.checks if not c.passed]

    def test_level_short_tower_fails_depth(self, graph_unity, cubic_unity):
        # one level below minimal: structurally sound but not deep enough
        dyn1 = extract_combinatorial(cubic_unity, graph_unity.graphs[1])
        report = validate_newton_graph(dyn1)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["depth_minimal"]

    def test_level_cap_carries_partial(self, cubic_unity):
        with pytest.raises(LevelCapExceeded) as err:
            compute_newton_graph(cubic_unity, max_level=1)
        partial = err.value.partial
        assert len(partial) == 2
        assert partial[-1].level == 1

    def test_wandering_critical_point_rejected(self):
        # z^3 - 2z + 2: the free critical point 0 cycles 0 -> 1 -> 0
        f = make_newton_map(Polynomial((2, -2, 0, 1)))
        with pytest.raises(UnresolvedOrbit):
            compute_newton_graph(f)

    def test_pipeline_matches_handbuilt_model(self, graph_pm, handbuilt_pm_level1):
        # the computed tower and the independently assembled combinatorial
        # model of the same map must be equivalent
        iso = graphs_equivalent(graph_pm.dynamics, handbuilt_pm_level1.dynamics())
        assert iso is not None

    def test_conjugate_maps_equivalent(self, graph_pm, graph_pm_plus):
        # z^3 + z is z^3 - z conjugated by a rotation
        assert graphs_equivalent(graph_pm.dynamics, graph_pm_plus.dynamics) is not None

    def test_different_towers_not_equivalent(self, graph_unity, graph_pm):
        assert graphs_equivalent(graph_unity.dynamics, graph_pm.dynamics) is None


class TestFaceCounts:
    def test_face_counts_pass_on_pool(
        self,
        graph_unity,
        cubic_unity,
        graph_pm,
        cubic_pm,
        graph_pm_plus,
        cubic_pm_plus,
        graph_q_unity,
        quartic_unity,
        graph_q_monic,
        quartic_monic,
    ):
        pairs = [
            (graph_unity, cubic_unity),
            (graph_pm, cubic_pm),
            (graph_pm_plus, cubic_pm_plus),
            (graph_q_unity, quartic_unity),
            (graph_q_monic, quartic_monic),
        ]
        for res, f in pairs:
            report = verify_face_counts(res, f)
            assert [c.name for c in report.checks] == [
                "boundary_fixed_points",
                "shared_pole_access",
                "simple_pole_basin_bound",
            ]
            assert report.passed, [c for c in report.checks if not c.passed]


@pytest.fixture(scope="module")
def pm_base(cubic_pm):
    dg = base_dynamic_graph(cubic_pm)
    dyn = extract_combinatorial(cubic_pm, dg)
    return dg.geo, dyn.graph


class TestLocateFace:
    # the level-0 diagram of z^3 - z is the imaginary axis plus the real
    # rays [1, inf) and (-inf, -1]: two faces, a slit right and left half plane

    def test_right_half_plane_is_one_face(self, pm_base):
        geo, emb = pm_base
        pole_face = locate_face(geo, emb, 1 / math.sqrt(3) + 0j)
        assert pole_face is not None
        assert locate_face(geo, emb, 0.3 + 0.3j) == pole_face
        assert locate_face(geo, emb, 0.3 - 0.3j) == pole_face
        assert locate_face(geo, emb, 1000 + 1000j) == pole_face

    def test_left_face_differs(self, pm_base):
        geo, emb = pm_base
        left = locate_face(geo, emb, -1 / math.sqrt(3) + 0j)
        right = locate_face(geo, emb, 1 / math.sqrt(3) + 0j)
        assert left is not None and left != right
        assert locate_face(geo, emb, -1e5 + 1e5j) == left

    def test_points_on_graph_return_none(self, pm_base):
        geo, emb = pm_base
        assert locate_face(geo, emb, 0.5j) is None
        assert locate_face(geo, emb, 2.0 + 0j) is None
        assert locate_face(geo, emb, SpherePoint.infinity()) is None

    def test_near_graph_but_off(self, pm_base):
        geo, emb = pm_base
        right = locate_face(geo, emb, 1 / math.sqrt(3) + 0j)
        assert locate_face(geo, emb, 1e-3 + 0.5j) == right

    def test_far_field_sector(self, pm_base):
        geo, emb = pm_base
        right = locate_face(geo, emb, 1 / math.sqrt(3) + 0j)
        assert locate_face(geo, emb, 1e5 + 1e5j) == right

    def test_single_face_diagram(self, cubic_unity, graph_unity):
        # the level-0 diagram of z^3 - 1 has one face containing the pole
        dg = graph_unity.graphs[0]
        dyn = extract_combinatorial(cubic_unity, dg)
        assert dyn.graph.n_faces == 1
        assert locate_face(dg.geo, dyn.graph, 0j) == 0
        assert locate_face(dg.geo, dyn.graph, 5j) == 0

    def test_far_points_sided_in_the_inverted_chart(self, graph_unity, monkeypatch):
        # on the top graph of z^3 - 1 only the straight fixed rays reach past
        # |z| = 10, so a point far out in a direction between two of them
        # lies in the same face as the point at radius 10; that far, the
        # nearest segment ends at infinity and is sided in the w = 1/z chart
        geo, emb = graph_unity.graphs[-1].geo, graph_unity.dynamics.graph
        chart_values = pullback._chart_values
        inverted = []

        def recording(points):
            inverted.append(not all(cmath.isfinite(p) for p in points))
            return chart_values(points)

        monkeypatch.setattr(pullback, "_chart_values", recording)
        faces = []
        for theta in (math.pi / 3, math.pi, 5 * math.pi / 3):
            near = locate_face(geo, emb, 10 * cmath.exp(1j * theta))
            faces.append(near)
            for radius in (1.1e6, 1.3e6, 1.6e6):
                inverted.clear()
                assert locate_face(geo, emb, radius * cmath.exp(1j * theta)) == near
                assert inverted == [True]
        assert sorted(faces) == [0, 1, 2]


class TestExport:
    def test_newton_graph_json_shape(self, graph_unity):
        data = newton_graph_to_json(graph_unity)
        assert data["N"] == 2
        assert data["pole_cover_level"] == 1
        assert len(data["vertices"]) == 20
        assert len(data["edges"]) == 27
        top = graph_unity.graphs[-1]
        for rec in data["edges"]:
            j = rec["id"]
            assert rec["level"] == top.edge_level[j]
            assert rec["maps_to"] == top.edge_map[j]
            assert rec["samples"]
        assert set(data["cyclic_orders"]) == {str(v) for v in range(20)}
        degrees = data["local_degrees"]
        assert sum(m - 1 for m in degrees.values()) == 4
        assert data["combinatorial"]["dynamics"]["N"] == 2
        assert data["combinatorial"]["dynamics"]["delta_edges"] == [0, 1, 2]

    def test_json_deterministic(self):
        outs = []
        for _ in range(2):
            f = make_newton_map(Polynomial((0, -1, 0, 1)))
            res = compute_newton_graph(f)
            outs.append(
                json.dumps(newton_graph_to_json(res), sort_keys=True)
            )
        assert outs[0] == outs[1]

    def test_combinatorial_round_trip(self, graph_pm):
        rebuilt = graph_from_json(graph_to_json(graph_pm.dynamics))
        assert rebuilt == graph_pm.dynamics
