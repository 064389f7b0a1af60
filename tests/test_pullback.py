"""Pullback tower: point fibers, edge lifts, level structure, face counts,
point location, and the export format."""

import cmath
import json
import math
import random
import re

import numpy as np
import pytest

from newtongraph import (
    BranchJump,
    EndpointUnmatched,
    InvalidGraph,
    LevelCapExceeded,
    NonPlanarIncidence,
    Polynomial,
    UnresolvedOrbit,
    classify_point,
    compute_newton_graph,
    graph_from_json,
    graph_to_json,
    graphs_equivalent,
    lift_point,
    locate_face,
    make_newton_map,
    newton_graph_to_json,
    pullback,
    validate_newton_graph,
)
from newtongraph import poly
from newtongraph.combinatorial import (
    KIND_POLE,
    KIND_ROOT,
    ConditionCheck,
    ValidationReport,
    regular_extension_check,
)
from newtongraph.dynamics import critical_orbits, require_postcritically_fixed
from newtongraph.pullback import (
    base_dynamic_graph,
    extract_combinatorial,
    lift_edge,
    verify_face_counts,
)
from newtongraph.rays import (
    MAX_BISECTION_DEPTH,
    GeoEdge,
    GeoGraph,
    bottcher_local,
    continue_inverse_branch,
    on_branch,
    polyline_from_json,
    solve_preimage_near,
    trace_fixed_ray,
)
from newtongraph.sphere import INF, chordal_distance, closest_pair
from newtongraph.tolerances import Tolerances

from conftest import (
    graph_distance,
    lift_ends,
    log_polar_within,
    nearest_vertex,
    pullback_defects,
    scalar_lift,
    scalar_thinned,
)

CONDITION_NAMES = [
    "channel_core",
    "root_contact",
    "branch_total",
    "depth_minimal",
    "complement_connected",
    "sector_injective",
    "star_saturated",
]


POOL = [
    ("cubic_unity", "graph_unity"),
    ("cubic_pm", "graph_pm"),
    ("cubic_pm_plus", "graph_pm_plus"),
    ("quartic_unity", "graph_q_unity"),
    ("quartic_monic", "graph_q_monic"),
]


def fiber_as_dict(fiber):
    return {p: m for p, m in fiber}


def end_count(geo, vertex):
    return sum((e.tail == vertex) + (e.head == vertex) for e in geo.edges)


def single_edge_graph(tail_pt, head_pt, edge):
    return GeoGraph((tail_pt, head_pt), (GeoEdge(0, 1, edge.points, edge.angles),))


class TestLiftPoint:
    def test_fiber_over_infinity(self, cubic_unity):
        # preimages of infinity: the double pole 0 plus infinity itself
        fiber = fiber_as_dict(lift_point(cubic_unity, INF))
        assert fiber[INF] == 1
        assert fiber[0j] == 2

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

    def test_solver_multiplicity_must_be_the_local_degree(self, cubic_unity, monkeypatch):
        # a solve that gives the double pole 0 of z^3 - 1 as a simple
        # preimage of w, in place of a true one: the degrees still sum to 3
        # and no two points collide, but 0 is no regular point of f
        solve = pullback.roots_of_rows

        def wrong(polys, known=None, names=None):
            return [((0j, 1),) + row[1:] for row in solve(polys, known, names)]

        monkeypatch.setattr(pullback, "roots_of_rows", wrong)
        with pytest.raises(
            NonPlanarIncidence,
            match=r"fiber point 0j over \(0\.3\+0\.7j\) has multiplicity 1 .* b = \(inf",
        ):
            lift_point(cubic_unity, 0.3 + 0.7j)

    def test_degrees_must_sum_to_the_map_degree(self, cubic_unity, monkeypatch):
        # a solve that loses one simple preimage: every point left has its
        # mark's local degree and no two collide, but only 2 of 3 remain
        solve = pullback.roots_of_rows

        def short(polys, known=None, names=None):
            return [row[:-1] for row in solve(polys, known, names)]

        monkeypatch.setattr(pullback, "roots_of_rows", short)
        with pytest.raises(
            NonPlanarIncidence,
            match=r"fiber over \(0\.3\+0\.7j\) carries total degree 2, expected 3",
        ):
            lift_point(cubic_unity, 0.3 + 0.7j)


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
        source = single_edge_graph(delta0_unity.vertices[ray.tail], INF, ray)
        lifted = lift_edge(cubic_unity, ray.points, -0.5 + 0j)
        for x in lifted[:-1]:
            assert graph_distance(source, cubic_unity.evaluate(x)) < 1e-4

    def test_self_lift_reproduces_ray(self, cubic_unity, delta0_unity):
        ray = delta0_unity.edges[2]
        direction = ray.angles[0]
        lifted = lift_edge(
            cubic_unity, ray.points, 1 + 0j, branch_direction=direction
        )
        assert np.isinf(lifted[-1])
        source = single_edge_graph(delta0_unity.vertices[ray.tail], INF, ray)
        for x in lifted[1:-1]:
            assert graph_distance(source, x) < 1e-4

    def test_start_must_be_preimage(self, cubic_unity, delta0_unity):
        with pytest.raises(ValueError):
            lift_edge(cubic_unity, delta0_unity.edges[2].points, 0.3 + 0.2j)

    def test_critical_start_needs_branch_direction(self, cubic_unity, delta0_unity):
        with pytest.raises(ValueError):
            lift_edge(cubic_unity, delta0_unity.edges[2].points, 1 + 0j)

    @pytest.mark.parametrize("offset", [1.0, 3.0])
    def test_simple_start_takes_no_branch_direction(
        self, cubic_unity, delta0_unity, offset
    ):
        # -1/2 is a simple preimage of the root 1: a direction there has no
        # branch to select, whatever it is
        direction = delta0_unity.edges[2].angles[0] + offset
        with pytest.raises(ValueError, match=r"\(-0\.5\+0j\) has local degree 1"):
            lift_edge(cubic_unity, delta0_unity.edges[2].points, -0.5 + 0j, direction)

    def test_repeated_sample_is_refused(self, cubic_unity, delta0_unity):
        ray = delta0_unity.edges[2].points
        repeated = np.concatenate((ray[:4], ray[3:]))
        with pytest.raises(ValueError, match="sample 4 repeats the sample before it"):
            lift_edge(cubic_unity, repeated, -0.5 + 0j)

    def test_one_edge_lift_matches_the_scalar_reference(self, cubic_unity, delta0_unity):
        ray = delta0_unity.edges[2]
        direction = ray.angles[0]
        for start, branch in ((-0.5 + 0j, None), (1 + 0j, direction)):
            TestLockstepLift.assert_same_lift(
                lift_edge(cubic_unity, ray.points, start, branch),
                scalar_lift(cubic_unity, ray.points, start, branch),
            )


class TestLockstepLift:
    """The level lift runs every lift of a pullback pass at once; the tests'
    scalar_lift, which lifts one edge sample by sample with
    continue_inverse_branch, is its reference."""

    @staticmethod
    def assert_same_lift(lane, reference):
        assert len(lane) == len(reference)
        assert np.array_equal(np.isinf(lane), np.isinf(reference))
        a, b = lane[np.isfinite(lane)], reference[np.isfinite(reference)]
        chordal = 2 * np.abs(a - b) / np.sqrt((1 + np.abs(a) ** 2) * (1 + np.abs(b) ** 2))
        assert chordal.max() < 1e-12

    def test_level_lift_matches_scalar_lift(
        self, cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic,
        monkeypatch,
    ):
        # the kernel gives each lane's samples; pullback_level then reads
        # the lanes' heads, one after another in lane order
        levels, heads = [], []
        lift_lanes, read_head = pullback._lift_lanes, pullback._read_head

        def recording(f, sources, cuts, lanes):
            lifted = lift_lanes(f, sources, cuts, lanes)
            levels.append((f, sources, lanes, lifted, len(heads)))
            return lifted

        def reading(*args):
            out = read_head(*args)
            heads.append(out[0])
            return out

        monkeypatch.setattr(pullback, "_lift_lanes", recording)
        monkeypatch.setattr(pullback, "_read_head", reading)
        for f in (cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic):
            compute_newton_graph(f).graphs[-1]  # a combinatorial top is traced on demand
        monkeypatch.undo()
        assert len(levels) == 7  # one per pass; the towers are 2, 1, 1, 2, 1 high
        assert len(heads) == sum(len(lanes) for _, _, lanes, _, _ in levels)
        for f, sources, lanes, lifted, first in levels:
            assert len(lifted) == len(lanes)
            for k, ((edge, start, direction), lane) in enumerate(zip(lanes, lifted)):
                reference = scalar_lift(f, sources[edge], start.value, direction)
                self.assert_same_lift(lane, reference[:-1])
                assert heads[first + k].value == reference[-1]

    def test_strayed_lane_takes_scalar_continuation(self, cubic_unity):
        # the ray of root 1, traced out to the cap, with one long jump after
        # its fifth sample, out to the first sample 12 or more from the root
        # (whatever the sampling density): the lift from -1/2 strays there
        # and is bisected like the scalar path
        f = cubic_unity
        ray = trace_fixed_ray(f, bottcher_local(f, 2), 0, f.tol.escape_radius)
        jump = 5
        far = np.flatnonzero(np.abs(ray - ray[0]) >= 12)[0]
        source = np.concatenate((ray[:jump], ray[far:]))
        start = -0.5 + 0j
        [lane] = pullback._lift_lanes(f, {0: source}, {}, [(0, f.marked_point(start), None)])
        x0, w0, w1 = complex(lane[jump - 1]), complex(source[jump - 1]), complex(source[jump])
        direct = solve_preimage_near(f, w1, x0)
        assert direct is None or not on_branch(direct, x0)
        assert lane[jump] == continue_inverse_branch(f, w0, w1, x0)
        reference = scalar_lift(f, source, start)
        self.assert_same_lift(lane, reference[:-1])
        # with its head, read off the fiber over infinity
        self.assert_same_lift(lift_edge(f, source, start), reference)

    @pytest.mark.parametrize("graph_name", [graph for _, graph in POOL])
    def test_no_polyline_repeats_a_sample(self, request, graph_name):
        # the level lift continues over its source's samples as stored,
        # one step per sample, which needs every step to move
        for dg in request.getfixturevalue(graph_name).graphs:
            for j, e in enumerate(dg.geo.edges):
                assert not (e.points[1:] == e.points[:-1]).any(), (dg.level, j)

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

        def gates_fail(*args):
            x, rows, ok = newton_round(*args)
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
        sources, lanes = {}, []
        for j in (0, 2):
            e = delta0_unity.edges[j]
            # the simple preimage of the root cubic_unity.roots[t] is -root/2
            start = complex(-f.roots[e.tail] / 2)
            sources[j] = e.points
            lanes.append((j, f.marked_point(start), None))
        with pytest.raises(BranchJump, match="lane 0 lost in round 2"):
            pullback._lift_lanes(f, sources, {}, lanes)
        assert len(calls) == 3


def cut_sample(dg, w):
    """(edge, sample index) of the cut sample w among the newest edges of a
    tower level."""
    [found] = [(j, int(k)) for j in dg.edges_at_level(dg.level)
               for k in np.flatnonzero(dg.geo.edges[j].points == w)]
    return found


class TestSegmentedLift:
    """A level lift cuts its long sources at interior samples, solves the
    fibers over the cuts with the level's ends, and lifts every segment in
    one lockstep run; each lift is chained through the cut fibers."""

    SPACING = pullback._CUT_SPACING

    @pytest.mark.parametrize("map_name", ["cubic_unity", "quartic_unity"])
    def test_no_level_runs_more_rounds_than_its_longest_segment(
        self, request, monkeypatch, map_name
    ):
        # uncut, the levels of z^3 - 1 ran 87 and 57 rounds and those of
        # z^4 - 1 95 and 55: as many as their longest source
        f = request.getfixturevalue(map_name)
        newton_round, lift_lanes = pullback._newton_round, pullback._lift_lanes
        rounds, levels = [0], []

        def counted_round(*args):
            rounds[0] += 1
            return newton_round(*args)

        def counted_lift(f, sources, cuts, lanes):
            rounds[0] = 0
            lifted = lift_lanes(f, sources, cuts, lanes)
            levels.append((sources, cuts, rounds[0]))
            return lifted

        monkeypatch.setattr(pullback, "_newton_round", counted_round)
        monkeypatch.setattr(pullback, "_lift_lanes", counted_lift)
        compute_newton_graph(f).graphs[-1]  # a combinatorial top is traced on demand
        assert len(levels) == 2
        for sources, cuts, n in levels:
            longest = 0
            for j, points in sources.items():
                stops = [0] + [c for c, _ in cuts[j]] + [len(points) - 2]
                longest = max(longest, max(b - a for a, b in zip(stops, stops[1:])))
            assert n == longest <= self.SPACING
            assert n < max(len(points) for points in sources.values()) - 2

    def test_sources_are_cut_into_near_equal_segments(self):
        for last in range(1, 201):
            cuts = pullback._cut_samples(last)
            stops = [0] + cuts + [last]
            lengths = [b - a for a, b in zip(stops, stops[1:])]
            assert max(lengths) - min(lengths) <= 1
            assert max(lengths) <= self.SPACING
            # the fewest segments that keep to the spacing
            assert len(lengths) == -(-last // self.SPACING)
            if last <= self.SPACING:
                assert cuts == []

    @pytest.mark.parametrize("spoil", ["shifted", "far"])
    def test_a_segment_end_off_its_cut_fiber_raises(self, cubic_unity, monkeypatch, spoil):
        # one point of the first cut fiber of the first level is moved 10
        # match_tol (chordal) off, or far away. Two of the three points over
        # a cut of a ray of z^3 - 1 are taken by the lifts of the level; the
        # third lies on the ray's fixed branch, whose lift is not kept
        f = cubic_unity
        base = base_dynamic_graph(f)
        fibers = pullback._fibers
        raised = []
        for k in range(f.degree):
            def spoiled(f, targets, cuts=()):
                out = list(fibers(f, targets, cuts))
                if cuts and not spoiled.cut:
                    spoiled.cut = cuts[0]
                    points = out[len(targets)].copy()
                    z = points[k]
                    points[k] = (z + 5 * f.tol.match_tol * (1 + abs(z) ** 2)
                                 if spoil == "shifted" else -3 * z - 2)
                    out[len(targets)] = points
                return out

            spoiled.cut = None
            monkeypatch.setattr(pullback, "_fibers", spoiled)
            try:
                compute_newton_graph(f)
            except BranchJump as exc:
                edge, c = cut_sample(base, spoiled.cut)
                assert str(exc).startswith(
                    f"lift of source edge {edge} jumps sheets at cut sample {c}: "
                )
                raised.append(k)
        assert len(raised) == f.degree - 1

    def test_two_lifts_meeting_at_a_cut_raise(self, cubic_unity, delta0_unity):
        # two lanes from one start run one lift, which takes one point twice
        f = cubic_unity
        ray = delta0_unity.edges[2].points
        _, cuts = pullback._solve_ends_and_cuts(f, [], {2: ray})
        c = cuts[2][0][0]
        start = f.marked_point(-0.5 + 0j)
        with pytest.raises(BranchJump, match=rf"lifts of source edge 2 meet at cut sample {c}, "):
            pullback._lift_lanes(f, {2: ray}, cuts, [(2, start, None)] * 2)

    def test_a_cut_whose_fiber_does_not_certify_is_dropped(
        self, cubic_unity, quartic_unity, delta0_unity, monkeypatch
    ):
        # the solve gives the first cut of every call two points closer than
        # match_tol: that cut is dropped, its segments run as one, and every
        # lift is still the scalar one
        solve, fibers, lift_lanes = pullback.roots_of_rows, pullback._fibers, pullback._lift_lanes
        planned, levels = [], []

        def close_pair(polys, known=None, names=None):
            out = solve(polys, known, names)
            if None in names:
                k = names.index(None)  # an optional row: its simple roots
                points = out[k].copy()
                points[1] = points[0] + 1e-9
                out[k] = points
            return out

        def recording_fibers(f, targets, cuts=()):
            planned.append(list(cuts))
            return fibers(f, targets, cuts)

        def recording_lift(f, sources, cuts, lanes):
            lifted = lift_lanes(f, sources, cuts, lanes)
            levels.append((f, sources, cuts, lanes, lifted))
            return lifted

        monkeypatch.setattr(pullback, "roots_of_rows", close_pair)
        monkeypatch.setattr(pullback, "_fibers", recording_fibers)
        monkeypatch.setattr(pullback, "_lift_lanes", recording_lift)
        for f in (cubic_unity, quartic_unity):
            compute_newton_graph(f).graphs[-1]  # a combinatorial top is traced on demand
        # a branched lift from the root 1 over the cuts of its ray, into infinity
        ray = delta0_unity.edges[2]
        lifted = lift_edge(cubic_unity, ray.points, 1 + 0j, ray.angles[0])
        monkeypatch.undo()

        assert len(levels) == len(planned) == 5
        for planned_cuts, (f, sources, cuts, lanes, lifted_lanes) in zip(planned, levels):
            kept = [complex(sources[j][c]) for j in sources for c, _ in cuts[j]]
            assert kept == planned_cuts[1:]
            for (edge, start, direction), lane in zip(lanes, lifted_lanes):
                reference = scalar_lift(f, sources[edge], start.value, direction)
                TestLockstepLift.assert_same_lift(lane, reference[:-1])
        [(_, _, cuts, _, _)] = levels[-1:]
        assert [c for c, _ in cuts[0]] == pullback._cut_samples(len(ray.points) - 2)[1:]
        assert np.isinf(lifted[-1])
        TestLockstepLift.assert_same_lift(
            lifted, scalar_lift(cubic_unity, ray.points, 1 + 0j, ray.angles[0])
        )


class TestThinnedLifts:
    """pullback_level thins every level's lifts to the rays' spacing about
    both ends of the edge (_thinned_lifts, all lanes in lockstep);
    conftest.scalar_thinned, the greedy rule of rays._thinned run sample by
    sample, is its reference. Recorded on every level of the pool towers."""

    @pytest.fixture(scope="class")
    def recorded(self, cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic):
        """(lift, kept, sample_ratio) per lane of every pass, and the towers."""
        lanes, towers = [], []
        thin = pullback._thinned_lifts

        def recording(paths, ratio):
            kept = thin(paths, ratio)
            lanes.extend((path, k, ratio) for path, k in zip(paths, kept))
            return kept

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pullback, "_thinned_lifts", recording)
            for f in (cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic):
                towers.append(compute_newton_graph(f))
                towers[-1].graphs[-1]  # a combinatorial top is traced on demand
        return lanes, towers

    @staticmethod
    def positions(path, kept):
        index = {complex(z): i for i, z in enumerate(path)}
        return [index[complex(z)] for z in kept]

    def test_lockstep_matches_the_scalar_reference(self, recorded):
        lanes, _ = recorded
        for path, kept, ratio in lanes:
            assert np.array_equal(kept, scalar_thinned(path, ratio))

    def test_every_lifted_edge_is_a_thinned_lift(self, recorded):
        lanes, towers = recorded
        kept = {k.tobytes() for _, k, _ in lanes}
        assert sum(len(k) for _, k, _ in lanes) < sum(len(path) for path, _, _ in lanes)
        for result in towers:
            for dg in result.graphs:
                for j, e in enumerate(dg.geo.edges):
                    if dg.edge_level[j] > 0:
                        assert e.points.tobytes() in kept, (dg.level, j)

    def test_the_two_samples_at_each_end_are_the_lifts_own(self, recorded):
        lanes, _ = recorded
        for path, kept, _ in lanes:
            assert np.array_equal(kept[:2], path[:2])
            assert np.array_equal(kept[-2:], path[-2:])

    def test_kept_chords_are_steps_or_within_the_spacing_about_both_ends(self, recorded):
        lanes, _ = recorded
        for path, kept, ratio in lanes:
            at = self.positions(path, kept)
            assert at == sorted(set(at))  # a subsequence, no sample repeated
            centers = lift_ends(path)
            for i, j in zip(at[1:-2], at[2:-1]):
                assert j == i + 1 or log_polar_within(
                    complex(path[i]), complex(path[j]), centers, ratio
                ), (i, j)


class TestMatchEndpoint:
    """The two gates on the fiber point a lift ran into (_read_head, by the
    scores of _head_ranking), on the fibers of z^3 - 1. Over infinity lie the double pole 0 (|b| = 3) and infinity
    (|b| = 3/2); over the root 1 lie 1 itself (double, |b| = 1) and -1/2
    (|b| = 6)."""

    @staticmethod
    def model(f, head):
        [fiber] = pullback._fibers(f, [head])
        return fiber

    @staticmethod
    def preimage_near(f, w, guess):
        return min((complex(x) for x, _ in lift_point(f, w)), key=lambda x: abs(x - guess))

    def test_clear_nearest_point_is_matched(self, cubic_unity):
        # a lift over the ray of root 1 that stops at w = 1000: its preimage
        # near the pole sits the predicted (1e-3 / 3)^(1/2) from it, and the
        # one near infinity at |1/x| = 1e-3 / (3/2)
        f = cubic_unity
        model = self.model(f, INF)
        near_pole = self.preimage_near(f, 1000, -0.02)
        end, _ = pullback._read_head(model, INF, 1000, near_pole, 0.0, None)
        assert end.value == 0
        near_infinity = self.preimage_near(f, 1000, 1500)
        end, _ = pullback._read_head(model, INF, 1000, near_infinity, 0.0, None)
        assert end == f.infinity
        # that far out both models are exact to first order
        for x in (near_pole, near_infinity):
            assert pullback._head_ranking(model, INF, 1000, x)[0][0] < 1e-4

    def test_endpoint_far_from_every_candidate(self, cubic_unity):
        # 0.3 is 16 times the predicted distance from the pole, and far from
        # infinity: scores 2.8 and 8.5, both above log 2
        model = self.model(cubic_unity, INF)
        with pytest.raises(EndpointUnmatched, match="source edge 7 .* away from every preimage"):
            pullback._read_head(model, INF, 1000, 0.3 + 0j, 0.0, 7)

    def test_runner_up_within_five_times_the_best(self, cubic_unity):
        # a lift toward the root 1 that stops at w = 2.6, far from it: the
        # preimage near -0.34 fits the model at -1/2 (score 0.06) and, less
        # well, the one at 1 (score 0.53); the scores are within log 5
        f = cubic_unity
        model = self.model(f, 1 + 0j)
        x = self.preimage_near(f, 2.6, -0.34)
        with pytest.raises(EndpointUnmatched, match="ambiguous"):
            pullback._read_head(model, 1 + 0j, 2.6, x, 0.0, None)


class TestAnglesArePullbacks:
    """Each end of a lifted edge carries the angle its lift was made with:
    its source's, pulled back by the local model at its vertex on the sheet
    the lift runs in. A vertex's star is then the pullback of its image's,
    and no chord is measured for it."""

    @pytest.mark.parametrize("graph_name", [graph for _, graph in POOL])
    def test_every_end_maps_onto_its_image_dart(self, request, graph_name):
        defects, residuals = pullback_defects(request.getfixturevalue(graph_name).graphs[-1])
        assert max(defects) < 1e-9
        # the gate is a quarter turn
        assert max(residuals, default=0.0) < 0.01

    @pytest.mark.parametrize("lift", ["level", "one-edge"])
    def test_a_head_off_its_sheet_names_the_source_edge(
        self, cubic_unity, delta0_unity, monkeypatch, lift
    ):
        # the first lift of z^3 - 1 into the double pole 0, in the level-1
        # pass or the one-edge lift of the ray of root 1 from -1/2, has its
        # last sample turned about 0 by half a sheet, a quarter turn: its
        # distance, and so its end match, is unchanged, but it misses its
        # sheet by half a turn. Every source here ends at infinity, over
        # which lie 0 and infinity itself, so the lifts into 0 are the ones
        # whose last sample lies within 1 of it.
        lift_lanes = pullback._lift_lanes
        turned = []

        def off_sheet(f, sources, cuts, lanes):
            lifted = [samples.copy() for samples in lift_lanes(f, sources, cuts, lanes)]
            k = next(k for k, samples in enumerate(lifted) if abs(samples[-1]) < 1)
            lifted[k][-1] *= cmath.exp(1j * math.pi / 2)
            turned.append(lanes[k][0])
            return lifted

        monkeypatch.setattr(pullback, "_lift_lanes", off_sheet)
        with pytest.raises(EndpointUnmatched, match="turn off the sheets") as info:
            if lift == "level":
                pullback.pullback_level(cubic_unity, base_dynamic_graph(cubic_unity))
            else:
                lift_edge(cubic_unity, delta0_unity.edges[2].points, -0.5 + 0j)
        where = f"lift of source edge {turned[0]}" if lift == "level" else "lift"
        assert str(info.value).startswith(f"{where} ends at")


def unity(d):
    """Coefficients of z^d - 1, lowest first."""
    return (-1,) + (0,) * (d - 1) + (1,)


def conjugated(coeffs, a):
    """Coefficients of a^d p(z / a): the roots scaled by a."""
    d = len(coeffs) - 1
    return tuple(complex(c) * a ** (d - k) for k, c in enumerate(coeffs))


ROTATED_AND_SCALED = [
    conjugated(unity(5), cmath.exp(0.7j)),
    conjugated((0, -1, 0, 0, 1), 0.25 * cmath.exp(0.3j)),
    conjugated((0, -1, 0, 0, 0, 0, 1), 4 * cmath.exp(1.1j)),
    conjugated(unity(7), 4 * cmath.exp(1.3j)),
]
ROTATED_AND_SCALED_IDS = ["z5-1@rot", "z4-z@0.25", "z6-z@4", "z7-1@4"]


def assert_root_fibers(f):
    """The fiber over each root holds that root once, exactly, at its local
    degree; the other points are simple preimages, and the degrees sum to d."""
    for r in f.roots:
        fiber = lift_point(f, r)
        assert [m for p, m in fiber if p == r] == [f.marked_point(r).local_degree]
        assert sum(m for _, m in fiber) == f.degree
        for p, m in fiber:
            if p != r:
                assert m == 1
                assert chordal_distance(f.evaluate(p), r) < 1e-8


class TestLevelFibers:
    """pullback_level solves the fibers over all ends of its newest edges in
    one call, and a root's own factor is divided out before solving."""

    def test_root_fibers_on_the_pool(
        self, cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic
    ):
        for f in (cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic):
            assert_root_fibers(f)

    @pytest.mark.parametrize("coeffs", ROTATED_AND_SCALED, ids=ROTATED_AND_SCALED_IDS)
    def test_root_fibers_on_rotated_and_scaled_conjugates(self, coeffs):
        assert_root_fibers(make_newton_map(Polynomial(coeffs)))

    @pytest.mark.parametrize("c2", [1.360370250730394, -1.360370250730394], ids=["+", "-"])
    def test_an_inexact_remainder_root_is_polished(self, c2):
        # z^4 - 6 c^2 z^2 - 1 with +-c landing on a pole at step 2: once the
        # root -2.878 (-2.878i at -c^2) is divided out of the fiber over it,
        # the quotient's root near 0.0212 misses numerator - w * denominator
        # by more than the certification gate until it is polished on it
        f = make_newton_map(Polynomial((-1, 0, -6 * c2, 0, 1)))
        result = compute_newton_graph(f)
        assert (result.minimal_level, result.pole_cover_level) == (4, 1)
        assert validate_newton_graph(result.dynamics).passed
        assert verify_face_counts(result, f).passed

    @pytest.mark.parametrize("coeffs", ROTATED_AND_SCALED[:3], ids=ROTATED_AND_SCALED_IDS[:3])
    def test_one_solve_per_level_and_one_aberth_run_per_degree(self, monkeypatch, coeffs):
        f = make_newton_map(Polynomial(coeffs))
        solves = []  # per roots_of_rows call, the row shapes of its Aberth runs
        solve, aberth = pullback.roots_of_rows, poly._aberth_rows

        def counted_solve(*args, **kwargs):
            solves.append([])
            return solve(*args, **kwargs)

        def counted_aberth(c, z0, iters):
            solves[-1].append(z0.shape)
            return aberth(c, z0, iters)

        def no_lift_point(*args):
            raise AssertionError("pullback_level solves its fibers in one call")

        monkeypatch.setattr(pullback, "roots_of_rows", counted_solve)
        monkeypatch.setattr(poly, "_aberth_rows", counted_aberth)
        monkeypatch.setattr(pullback, "lift_point", no_lift_point)
        top = compute_newton_graph(f).graphs[-1]  # a combinatorial top is traced here
        assert len(solves) == top.level
        for runs in solves:
            degrees = [n for _, n in runs]
            assert len(degrees) == len(set(degrees))
        # a fiber over a root solves a remainder of lower degree
        assert any(n < f.degree for runs in solves for _, n in runs)

    @pytest.mark.parametrize("map_name, graph_name", POOL)
    def test_a_level_solve_is_each_fiber_solved_alone(self, request, map_name, graph_name):
        # all rows of a level in one call, as pullback_level solves them,
        # against each target and each cut in a call of its own
        f = request.getfixturevalue(map_name)
        for dg in request.getfixturevalue(graph_name).graphs[:-1]:
            geo = dg.geo
            newest = [geo.edges[j] for j in dg.edges_at_level(dg.level)]
            targets = list(dict.fromkeys(geo.vertices[v] for e in newest for v in (e.tail, e.head)))
            cuts = [complex(e.points[c]) for e in newest
                    for c in pullback._cut_samples(len(e.points) - 2)]
            together = pullback._fibers(f, targets, cuts)
            for w, fiber in zip(targets, together):
                [alone] = pullback._fibers(f, [w])
                assert ([(m.value, m.local_degree) for m in fiber]
                        == [(m.value, m.local_degree) for m in alone])
            for c, fiber in zip(cuts, together[len(targets):]):
                [alone] = pullback._fibers(f, [], [c])
                assert fiber is not None and np.array_equal(fiber, alone)

    # towers of two passes: the second solves over the first's ends again
    TWO_LEVEL = [unity(3), unity(4), ROTATED_AND_SCALED[0], ROTATED_AND_SCALED[3]]
    TWO_LEVEL_IDS = ["z3-1", "z4-1", "z5-1@rot", "z7-1@4"]

    @pytest.mark.parametrize("coeffs", TWO_LEVEL, ids=TWO_LEVEL_IDS)
    def test_each_target_is_solved_once_per_tower(self, monkeypatch, coeffs):
        f = make_newton_map(Polynomial(coeffs))
        targets = []
        fibers = pullback._fibers

        def recording(f, ws, cuts=()):
            targets.extend(ws)
            return fibers(f, ws, cuts)

        monkeypatch.setattr(pullback, "_fibers", recording)
        result = compute_newton_graph(f)
        assert result.graphs[-1].level == 2
        assert len(targets) == len(set(targets))
        ends = [
            {dg.geo.vertices[v] for j in dg.edges_at_level(dg.level)
             for v in (dg.geo.edges[j].tail, dg.geo.edges[j].head)}
            for dg in result.graphs[:-1]
        ]
        assert set(targets) == set().union(*ends)
        assert len(targets) < sum(len(level) for level in ends)

    @pytest.mark.parametrize("coeffs", TWO_LEVEL[:3], ids=TWO_LEVEL_IDS[:3])
    def test_the_memo_leaves_the_export_byte_identical(self, monkeypatch, coeffs):
        f = make_newton_map(Polynomial(coeffs))
        memo = json.dumps(newton_graph_to_json(compute_newton_graph(f)), sort_keys=True)
        level = pullback.pullback_level
        monkeypatch.setattr(pullback, "pullback_level", lambda f, cur, fibers: level(f, cur))
        fresh = json.dumps(newton_graph_to_json(compute_newton_graph(f)), sort_keys=True)
        assert memo == fresh


class TestScaleFreeEnds:
    """The endpoint gate compares each lift's end with the local model at
    its head, so it holds at high degree, at any scale of the map and at any
    escape radius."""

    def test_every_match_on_the_pool_clears_both_gates_by_a_factor(
        self, cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic,
        monkeypatch,
    ):
        ranked = []
        head_ranking = pullback._head_ranking

        def recording(*args):
            out = head_ranking(*args)
            ranked.append(out)
            return out

        monkeypatch.setattr(pullback, "_head_ranking", recording)
        z9 = make_newton_map(Polynomial(unity(9)))
        for f in (cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic, z9):
            before = len(ranked)
            compute_newton_graph(f)
            assert len(ranked) > before
        worst = max(scores[0][0] for scores in ranked)
        margin = min(scores[1][0] - scores[0][0] for scores in ranked if len(scores) > 1)
        # the gates are log 2 = 0.69 and log 5 = 1.61
        assert worst <= 0.35
        assert margin >= 2.0

    @pytest.mark.parametrize(
        "coeffs",
        [
            unity(7),
            unity(8),
            unity(9),
            conjugated(unity(5), 4 * cmath.exp(1.3j)),
            conjugated(unity(6), 4 * cmath.exp(1.3j)),
        ],
        ids=["z7-1", "z8-1", "z9-1", "z5-1@4", "z6-1@4"],
    )
    def test_high_order_poles_and_large_scales_build(self, coeffs):
        # lifts into the high-order poles of these maps end far from the pole
        # in the chordal metric (0.14 to 0.45 at radius 1e6), so only a
        # scale-free gate matches them
        f = make_newton_map(Polynomial(coeffs))
        result = compute_newton_graph(f)
        report = validate_newton_graph(result.dynamics)
        assert [c.name for c in report.checks] == CONDITION_NAMES
        assert report.passed, [c.witness for c in report.failures]
        assert verify_face_counts(result, f).passed

    @pytest.mark.parametrize(
        "coeffs",
        [unity(3), (0, -1, 0, 0, 1), unity(5), (0, -1, 0, 0, 0, 0, 1)],
        ids=["z3-1", "z4-z", "z5-1", "z6-z"],
    )
    def test_escape_radius_is_geometry_only(self, coeffs):
        p = Polynomial(coeffs)
        short = compute_newton_graph(make_newton_map(p))
        long = compute_newton_graph(make_newton_map(p, Tolerances(escape_radius=1e12)))
        assert graphs_equivalent(short.dynamics, long.dynamics) is not None
        assert short.minimal_level == long.minimal_level
        assert short.pole_cover_level == long.pole_cover_level


class TestPullbackLevel:
    def test_unity_level_one_structure(self, graph_unity):
        d1 = graph_unity.graphs[1]
        assert len(d1.geo.vertices) == 8
        assert len(d1.geo.edges) == 9
        pole = nearest_vertex(d1.geo, 0j)
        assert pole is not None
        # each of the three rays lifts once through the double pole
        assert end_count(d1.geo, pole) == 6
        # the extra preimage of each root xi is -xi/2
        omega = cmath.exp(2j * math.pi / 3)
        for xi in (1, omega, omega.conjugate()):
            assert nearest_vertex(d1.geo, -xi / 2) is not None

    def test_pm_level_one_structure(self, graph_pm):
        d1 = graph_pm.graphs[1]
        assert len(d1.geo.vertices) == 8
        assert len(d1.geo.edges) == 12
        s = 1 / math.sqrt(3)
        for q in (s, -s):
            assert nearest_vertex(d1.geo, complex(q)) is not None
        # the extra preimages of the roots +-1 are real: -+1/2
        for x in (0.5, -0.5):
            assert nearest_vertex(d1.geo, complex(x)) is not None

    def test_base_prefix_preserved(self, graph_unity):
        d0, d1 = graph_unity.graphs[0], graph_unity.graphs[1]
        nv, ne = len(d0.geo.vertices), len(d0.geo.edges)
        assert d1.geo.vertices[:nv] == d0.geo.vertices
        assert d1.geo.edges[:ne] == d0.geo.edges
        assert d1.edge_map[:ne] == tuple(range(ne))
        assert d1.edge_level[:ne] == (0,) * ne
        # the level-0 vertices keep their marks and stay fixed
        assert d1.marks[:nv] == d0.marks
        assert d1.vertex_map[:nv] == tuple(range(nv))

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

    def test_lifts_map_onto_sources(self, request):
        # each interior sample of a level-n edge lies over a sample of its
        # thinned source, to the corrector's lift_tol, and in the source's
        # order: forward invariance is structural, as for the rays
        for map_name, graph_name in POOL:
            f = request.getfixturevalue(map_name)
            top = request.getfixturevalue(graph_name).graphs[-1]
            for j, e in enumerate(top.geo.edges):
                if top.edge_level[j] == 0:
                    continue
                source = top.geo.edges[top.edge_map[j]].points
                over = []
                for x in e.points[1:-1]:
                    w = f.evaluate(complex(x))
                    gaps = [chordal_distance(w, complex(s)) for s in source]
                    over.append(int(np.argmin(gaps)))
                    assert gaps[over[-1]] <= f.tol.lift_tol, (map_name, j, x)
                assert over == sorted(set(over)), (map_name, j)

    def test_root_owner_follows_edge_map(self, graph_pm):
        top = graph_pm.graphs[-1]
        for j in range(len(top.geo.edges)):
            owner = top.root_owner(j)
            assert owner < len(graph_pm.graphs[0].geo.vertices)  # a level-0 vertex
            assert top.marks[owner].kind == KIND_ROOT
            assert top.vertex_map[owner] == owner

    @pytest.mark.parametrize("map_name, graph_name", POOL)
    def test_every_lifted_sample_lies_in_its_owners_basin(
        self, request, map_name, graph_name
    ):
        # an edge of any level is a preimage of a channel, so each interior
        # sample lies in the basin of the root owning the edge; roots are
        # compared by exact value, so a wrong-branch lift inside the gates
        # shows here
        f = request.getfixturevalue(map_name)
        top = request.getfixturevalue(graph_name).graphs[-1]
        misses = []
        for j, e in enumerate(top.geo.edges):
            owner = top.geo.vertices[top.root_owner(j)]
            for x in e.points[1:-1]:
                res = classify_point(f, complex(x))
                if res.kind != "basin" or f.roots[res.root_index] != owner:
                    misses.append((j, complex(x), res.kind))
        assert not misses, (map_name, misses[:5], len(misses))


class TestVertexIdentity:
    """pullback_level identifies a vertex by its exact value. That is sound
    because every vertex is a fiber point over its image, bit for bit as the
    fiber solve gives it alone, and no two vertices over one image are
    within match_tol of each other."""

    @pytest.mark.parametrize("map_name, graph_name", POOL)
    def test_vertices_are_exact_fiber_points_over_their_images(
        self, request, map_name, graph_name
    ):
        f = request.getfixturevalue(map_name)
        for dg in request.getfixturevalue(graph_name).graphs[1:]:
            verts = dg.geo.vertices
            fibers = {}
            for i, v in enumerate(verts):
                j = dg.vertex_map[i]
                if j not in fibers:
                    fibers[j] = {repr(complex(x)) for x, _ in lift_point(f, verts[j])}
                assert repr(v) in fibers[j], (dg.level, i, v)

    @pytest.mark.parametrize("map_name, graph_name", POOL)
    def test_vertices_over_one_image_are_apart(self, request, map_name, graph_name):
        f = request.getfixturevalue(map_name)
        for dg in request.getfixturevalue(graph_name).graphs[1:]:
            over = {}
            for i, v in enumerate(dg.geo.vertices):
                over.setdefault(dg.vertex_map[i], []).append(v)
            for points in over.values():
                for a in range(len(points)):
                    for b in range(a + 1, len(points)):
                        d = chordal_distance(points[a], points[b])
                        assert d > f.tol.match_tol, (dg.level, points[a], points[b])


# p = z^4 - 6 c^2 z^2 - 1 with c^2 = 0.303498782062455i: its free critical
# points +-c land on a pole, and the first pullback leaves a component off
# the core
POLE_LANDING_QUARTIC = (-1, 0, -6 * 0.303498782062455j, 0, 1)


class TestCoreComponentCut:
    """pullback_level keeps the connected component of the core. On the
    pole-landing quartic the first pass reaches 16 vertices in two
    components, of 11 and 5; the 5 go, the pole at 0 among them, and the
    kept vertices, their marks and the edges are renumbered together."""

    @pytest.fixture(scope="class")
    def quartic(self):
        f = make_newton_map(Polynomial(POLE_LANDING_QUARTIC))
        require_postcritically_fixed(critical_orbits(f))
        return f

    @pytest.fixture(scope="class")
    def level(self, quartic):
        return pullback.pullback_level(quartic, base_dynamic_graph(quartic))

    def test_the_cut_drops_the_off_core_component(self, quartic, monkeypatch):
        components = []

        class Recording(pullback.UnionFind):
            def classes(self):
                components.append(super().classes())
                return components[-1]

        monkeypatch.setattr(pullback, "UnionFind", Recording)
        level = pullback.pullback_level(quartic, base_dynamic_graph(quartic))
        [(core, cut)] = components
        assert (len(core), cut) == (11, [6, 7, 10, 13, 15])
        assert (len(level.geo.vertices), len(level.geo.edges)) == (11, 12)
        assert len(level.marks) == len(level.vertex_map) == len({m.value for m in level.marks}) == 11
        assert len(level.edge_map) == len(level.edge_level) == 12

    def test_pole_at_zero_is_cut(self, level):
        assert 0j not in level.geo.vertices
        assert sum(m.kind == KIND_POLE for m in level.marks) == 2

    def test_edges_end_at_their_vertices(self, level):
        geo = level.geo
        for e in geo.edges:
            assert repr(complex(e.points[0])) == repr(geo.vertices[e.tail])
            assert repr(complex(e.points[-1])) == repr(geo.vertices[e.head])

    def test_vertex_map_follows_the_edge_map(self, level):
        for e, image in zip(level.geo.edges, level.edge_map):
            source = level.geo.edges[image]
            assert level.vertex_map[e.tail] == source.tail
            assert level.vertex_map[e.head] == source.head

    def test_marks_stay_with_their_vertices(self, quartic, level):
        for i, v in enumerate(level.geo.vertices):
            assert level.marks[i] == quartic.marked_point(v)


class TestLevelCollisionGuards:
    """The two guards of a pullback pass against points that would merge:
    two points of one fiber, and a lift ending at a vertex over another
    image."""

    @staticmethod
    def spoiled_solve(monkeypatch, spoil):
        """roots_of_rows with the roots of each named row passed to spoil."""
        solve = pullback.roots_of_rows

        def spoiled(polys, known=None, names=None):
            rows = solve(polys, known, names)
            return [spoil(row) if name is not None else row for row, name in zip(rows, names)]

        monkeypatch.setattr(pullback, "roots_of_rows", spoiled)

    def test_fiber_points_colliding_below_match_tol_abort(self, cubic_unity, monkeypatch):
        w = 0.3 + 0.7j
        a = complex(lift_point(cubic_unity, w)[0][0])
        b = a + 1e-9
        solve = pullback.roots_of_rows

        def colliding(polys, known=None, names=None):
            return [row[:1] + ((b, 1),) + row[2:] for row in solve(polys, known, names)]

        monkeypatch.setattr(pullback, "roots_of_rows", colliding)
        message = (
            rf"fiber points {re.escape(str(a))} and {re.escape(str(b))} over "
            rf"{re.escape(str(w))} collide below match_tol"
        )
        with pytest.raises(NonPlanarIncidence, match=message):
            lift_point(cubic_unity, w)

    def test_the_closest_of_two_colliding_pairs_is_named(self, quartic_unity, monkeypatch):
        # every fiber of the call gets two pairs below match_tol, the second
        # closer: the first fiber in target order names its closest pair
        f = quartic_unity
        ws = [0.3 + 0.7j, -0.4 + 0.2j]
        a, b = (complex(z) for z, _ in lift_point(f, ws[1])[:2])
        pair = ((a, 1), (a + 4e-9, 1), (b, 1), (b + 1e-9, 1))
        assert closest_pair([a, a + 4e-9, b, b + 1e-9])[1:] == (2, 3)
        self.spoiled_solve(monkeypatch, lambda row: pair)
        message = (
            rf"fiber points {re.escape(str(b))} and {re.escape(str(b + 1e-9))} over "
            rf"{re.escape(str(ws[0]))} collide below match_tol"
        )
        with pytest.raises(NonPlanarIncidence, match=message):
            pullback._fibers(f, ws)

    def test_only_a_crowded_fiber_aborts(self, quartic_unity, monkeypatch):
        # one fiber of three holds two points 1.5 match_tol apart, which the
        # batched pass flags and the scalar closest pair clears; then the
        # third alone holds a pair at half of match_tol
        f = quartic_unity
        ws = [0.3 + 0.7j, -0.4 + 0.2j, 1.1 - 0.6j]
        fibers = [[complex(z) for z, _ in lift_point(f, w)] for w in ws]
        tol = f.tol.match_tol

        def nudged(k, gap):
            def spoil(row):
                points = [z for z, _ in row]
                if points[0] != fibers[k][0]:
                    return row
                z = points[0]
                apart = z + gap * tol * (1 + abs(z) ** 2) / 2
                assert chordal_distance(z, apart) == pytest.approx(gap * tol, rel=1e-6)
                return ((z, 1), (apart, 1)) + row[2:]
            return spoil

        self.spoiled_solve(monkeypatch, nudged(1, 1.5))
        assert [len(fiber) for fiber in pullback._fibers(f, ws)] == [4, 4, 4]
        monkeypatch.undo()
        self.spoiled_solve(monkeypatch, nudged(2, 0.5))
        with pytest.raises(NonPlanarIncidence, match=rf"over {re.escape(str(ws[2]))} collide"):
            pullback._fibers(f, ws)

    def test_lift_ending_at_a_vertex_over_another_image_aborts(
        self, cubic_unity, monkeypatch
    ):
        # the first lift of the ray of root 0 is made to end at root 0,
        # whose image is root 0, not the ray's head at infinity
        base = base_dynamic_graph(cubic_unity)
        root = base.marks[0]
        read_head = pullback._read_head
        reads = []

        def misplaced(*args):
            end, angle = read_head(*args)
            reads.append(end)
            return (root if len(reads) == 1 else end), angle

        monkeypatch.setattr(pullback, "_read_head", misplaced)
        [first, *_] = base.edges_at_level(0)
        head = base.geo.edges[first].head
        message = (
            rf"point {re.escape(str(root.value))} merges with vertex 0 whose image "
            rf"is vertex 0, not {head}"
        )
        with pytest.raises(NonPlanarIncidence, match=message):
            pullback.pullback_level(cubic_unity, base)


class TestBranchedFirstStep:
    def test_branch_lost_at_the_bisection_bound(self, cubic_unity, monkeypatch):
        # a corrector that always strays: the step off a root of z^3 - 1, a
        # critical point of local degree 2, halves its target segment
        # MAX_BISECTION_DEPTH times, one solve per halving, then gives up
        start = cubic_unity.marked_points[0]
        assert start.local_degree == 2
        targets = []

        def strays(f, w, x0):
            targets.append(w)
            return None

        monkeypatch.setattr(pullback, "solve_preimage_near", strays)
        w0, w1 = start.value, start.value + 0.01
        with pytest.raises(BranchJump, match="inverse branch at direction 0.500000 lost"):
            pullback._branched_first_step(cubic_unity, w0, w1, start, 0.5)
        assert len(targets) == MAX_BISECTION_DEPTH + 1
        assert targets[-1] == pytest.approx(w0 + 0.01 / 2**MAX_BISECTION_DEPTH, abs=1e-20)


class TestSamplingInvariance:
    """The graph depends on the isotopy class of the rays, not on how densely
    they are sampled: a spacing four times finer gives the same graph. The
    finer spacing is set on the map alone, so the sample counts also show
    that the map's policy reaches the ray tracer and the thinning of the
    lifts."""

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
        # the lifts are thinned to the map's spacing too: at the default
        # spacing they would keep about as many samples as the default does
        finer_lifted, default_lifted = (
            sum(len(e.points) for j, e in enumerate(top.geo.edges) if top.edge_level[j] > 0)
            for top in (finer.graphs[-1], default.graphs[-1])
        )
        assert finer_lifted > 2 * default_lifted


class TestThinningOracle:
    """Thinning the lifts changes their interior samples and nothing else:
    with the thinning made the identity, the pool's exports keep their
    combinatorial block (cyclic orders and maps), vertices, level-0 samples
    and each edge's first interior sample, and grow."""

    def test_thinning_changes_only_lifted_interiors(self, request, monkeypatch):
        thinned = [newton_graph_to_json(request.getfixturevalue(g)) for _, g in POOL]
        monkeypatch.setattr(pullback, "_thinned_lifts", lambda paths, ratio: paths)
        full = [
            newton_graph_to_json(compute_newton_graph(request.getfixturevalue(f)))
            for f, _ in POOL
        ]
        for a, b in zip(thinned, full):
            assert {k: v for k, v in a.items() if k != "edges"} == {
                k: v for k, v in b.items() if k != "edges"
            }
            assert len(a["edges"]) == len(b["edges"])
            for ea, eb in zip(a["edges"], b["edges"]):
                ends = [0, 1, -1]
                pa, pb = (polyline_from_json(e["samples"])[ends] for e in (ea, eb))
                assert pa.tobytes() == pb.tobytes()
                assert {k: v for k, v in ea.items() if k != "samples"} == {
                    k: v for k, v in eb.items() if k != "samples"
                }
                if ea["level"] == 0:
                    assert ea["samples"] == eb["samples"]
            assert len(json.dumps(a)) < len(json.dumps(b))


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
        pole = nearest_vertex(d1.geo, 0j)
        assert pole is not None
        assert cubic_unity.marked_point(0j).local_degree == 2

    def test_quartic_triple_pole_vertex(self, graph_q_unity, quartic_unity):
        d1 = graph_q_unity.graphs[1]
        pole = nearest_vertex(d1.geo, 0j)
        assert pole is not None
        assert quartic_unity.marked_point(0j).local_degree == 3

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

    def test_level_short_tower_fails_depth(self, graph_unity):
        # one level below minimal: structurally sound but not deep enough
        dyn1 = extract_combinatorial(graph_unity.graphs[1])
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

    def test_failed_checks_name_the_top_level(self, cubic_unity, monkeypatch):
        failing = ValidationReport((
            ConditionCheck("channel_core", False, "first witness"),
            ConditionCheck("root_contact", True),
            ConditionCheck("star_saturated", False, "second witness"),
        ))
        monkeypatch.setattr(pullback, "validate_newton_graph", lambda dyn: failing)
        with pytest.raises(InvalidGraph) as err:
            compute_newton_graph(cubic_unity)
        assert str(err.value) == (
            "channel_core failed (first witness); "
            "star_saturated failed (second witness) at level 2"
        )

    # z^4 - 6 c^2 z^2 - 1, whose Newton map is odd, with c^2 near the
    # imaginary axis, refined by Newton in c^2 on the landing condition of
    # the free critical orbits: four root-landing after k = 2 steps, two
    # pole-landing after k = 1 and six after k = 2. Their orbits land, but
    # level M + 1 (2 or 3) is no cover of level M: a face of it lies over two
    # faces of level M, so lift_level refuses it and no graph may leave.
    IMAGINARY_AXIS_C2 = [
        complex(re, im)
        for re in (0.0003115105291598439, -0.0003115105291598439)
        for im in (0.3009200719352122, -0.3009200719352122)
    ] + [
        complex(0, sign * y)
        for y in (0.3034987820624550, 0.2558629191616792,
                  0.3008441791478416, 0.3272017128922724)
        for sign in (1, -1)
    ]

    @pytest.mark.parametrize("c2", IMAGINARY_AXIS_C2, ids=str)
    def test_imaginary_axis_quartics_raise(self, c2):
        f = make_newton_map(Polynomial((-1, 0, -6 * c2, 0, 1)))
        with pytest.raises(InvalidGraph, match=r"sheet_over_one_face failed at level [23], face [01]: "):
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

    def test_pole_in_no_face_fails_and_is_named(self, graph_pm, cubic_pm, monkeypatch):
        # poles lie in the Julia set, which meets the level-0 diagram only at
        # infinity; a pole put on the diagram fails the count, not leaves it
        q = cubic_pm.poles[0][0]
        located = pullback.locate_face
        monkeypatch.setattr(
            pullback, "locate_face",
            lambda geo, emb, z: None if z == q else located(geo, emb, z),
        )
        check = verify_face_counts(graph_pm, cubic_pm).check("boundary_fixed_points")
        assert not check.passed
        assert check.witness.startswith(f"pole {q} lies in no face")


@pytest.fixture(scope="module")
def pm_base(cubic_pm):
    dg = base_dynamic_graph(cubic_pm)
    dyn = extract_combinatorial(dg)
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
        assert locate_face(geo, emb, INF) is None

    def test_near_graph_but_off(self, pm_base):
        geo, emb = pm_base
        right = locate_face(geo, emb, 1 / math.sqrt(3) + 0j)
        assert locate_face(geo, emb, 1e-3 + 0.5j) == right

    def test_far_field_sector(self, pm_base):
        geo, emb = pm_base
        right = locate_face(geo, emb, 1 / math.sqrt(3) + 0j)
        assert locate_face(geo, emb, 1e5 + 1e5j) == right

    def test_single_face_diagram(self, graph_unity):
        # the level-0 diagram of z^3 - 1 has one face containing the pole
        dg = graph_unity.graphs[0]
        dyn = extract_combinatorial(dg)
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


EXPORT_KEYS = {"format", "vertices", "edges", "N", "pole_cover_level", "combinatorial"}
EDGE_KEYS = {"from", "to", "level", "samples"}


def dart_vertices(block) -> dict[int, int]:
    """The vertex of each dart of an exported combinatorial block."""
    return {d: int(v) for v, cycle in block["sigma"].items() for d in cycle}


class TestExport:
    def test_newton_graph_json_shape(self, graph_unity):
        # the top level of z^3 - 1 is combinatorial: the geometry is level 1's,
        # 8 of the block's 20 vertices and 9 of its 27 edges
        data = newton_graph_to_json(graph_unity)
        assert set(data) == EXPORT_KEYS
        assert data["N"] == 2
        assert data["pole_cover_level"] == 1
        assert len(data["vertices"]) == 8
        assert len(data["edges"]) == 9
        top = graph_unity.graphs[-1]
        block = data["combinatorial"]
        assert len(block["alpha"]) == 27
        dynamics = block["dynamics"]
        vertex_of = dart_vertices(block)
        positions = [INF if v == "inf" else complex(*v) for v in data["vertices"]]
        for j, rec in enumerate(data["edges"]):
            assert set(rec) == EDGE_KEYS
            assert (rec["from"], rec["to"]) == (vertex_of[2 * j], vertex_of[2 * j + 1])
            assert rec["level"] == top.edge_level[j]
            assert dynamics["edge_map"][str(j)] == top.edge_map[j]
            assert rec["samples"]
            points = polyline_from_json(rec["samples"])
            assert (points[0], points[-1]) == (positions[rec["from"]], positions[rec["to"]])
        assert set(block["sigma"]) == {str(v) for v in range(20)}
        degrees = dynamics["local_degree"]
        assert sum(m - 1 for m in degrees.values()) == 4
        assert dynamics["N"] == 2
        assert dynamics["delta_edges"] == [0, 1, 2]

    @pytest.mark.parametrize("graph", [g for _, g in POOL])
    def test_samples_decode_bit_for_bit(self, request, graph):
        # a format-4 round trip: the block reads back as the top level, and
        # the geometry is the highest traced level, whose ids are a prefix of
        # the block's and of the top level traced on demand
        result = request.getfixturevalue(graph)
        data = json.loads(json.dumps(newton_graph_to_json(result)))
        assert data["format"] == 4
        assert set(data) == EXPORT_KEYS
        assert graph_from_json(data["combinatorial"]) == result.dynamics
        traced = result.graphs.traced[-1]
        edges = traced.geo.edges
        lifted = traced is not result.graphs[-1]
        assert lifted == (graph in ("graph_unity", "graph_q_unity"))
        assert traced.level == result.dynamics.level - lifted
        assert len(data["edges"]) == len(edges)
        assert (len(edges) < len(data["combinatorial"]["alpha"])) == lifted
        positions = [INF if v == "inf" else complex(*v) for v in data["vertices"]]
        assert positions == list(traced.geo.vertices)
        vertex_of = dart_vertices(data["combinatorial"])
        at_infinity = 0
        top = result.graphs[-1].geo
        for j, (rec, e) in enumerate(zip(data["edges"], edges)):
            assert set(rec) == EDGE_KEYS
            assert (rec["from"], rec["to"]) == (vertex_of[2 * j], vertex_of[2 * j + 1])
            assert rec["level"] == traced.edge_level[j] <= traced.level
            points = polyline_from_json(rec["samples"])
            assert points.view(np.float64).tobytes() == e.points.view(np.float64).tobytes()
            assert points.tobytes() == top.edges[j].points.tobytes()
            assert not points.flags.writeable
            at_infinity += (points[0] == INF) + (points[-1] == INF)
        assert at_infinity > 0

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
