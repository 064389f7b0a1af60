"""Ray tracing and channel diagram checks.

Frozen local data, each verified by hand from the local expansion
f(xi + w) = xi + a w^k + ... with a = T^(k)(xi) / (k! D(xi)), T = N - xi D:

  p = z^3 - z  at 0:  N = 2z^3, D = 3z^2 - 1, T = 2z^3, k = 3,
                      a = 12/(6 * -1) = -2, directions pi/2 and 3pi/2
               at 1:  T = 2z^3 - 3z^2 + 1, k = 2, a = 6/(2*2) = 1.5, dir 0
               at -1: T = 2z^3 + 3z^2 - 1, k = 2, a = -6/(2*2) = -1.5, dir pi
  p = z^3 - 1  at 1:  T = 2z^3 - 3z^2 + 1, k = 2, a = 6/(2*3) = 1, dir 0
  p = z^4 - z  at 0:  N = 3z^4, D = 4z^3 - 1, T = 3z^4, k = 4,
                      a = 72/(24 * -1) = -3, directions pi/3, pi, 5pi/3

The segments along the real and imaginary axes are dynamics-invariant lines,
giving exact geometric oracles for the traced rays.
"""

import base64
import cmath
import math
import random

import numpy as np
import pytest

from newtongraph import (
    BranchJump,
    NotARoot,
    Polynomial,
    channel_diagram,
    classify_point,
    compute_newton_graph,
    lift_point,
    make_newton_map,
    pullback,
    rays,
)
from newtongraph.combinatorial import KIND_POLE
from newtongraph.dynamics import RasterSpec, render_basins
from newtongraph.poly import CHART_RADIUS, horner
from newtongraph.pullback import extract_combinatorial, locate_face
from newtongraph.rays import GeoEdge, GeoGraph, bottcher_local, polyline_from_json, trace_fixed_ray
from newtongraph.sphere import INF, chordal_distance, offset
from newtongraph.tolerances import DEFAULT_TOL

from conftest import conjugate_coeffs, full_scan_nearest_edge_point, graph_distance
from test_pcf_cubics import LAMBDA_3, LAMBDA_4, LAMBDAS
from test_pcf_cubics import cubic as pcf_cubic

TAU = 2 * math.pi
PCF_LAMBDAS = LAMBDAS + [LAMBDA_3, LAMBDA_4]


def _root_index(f, value):
    return min(range(len(f.roots)), key=lambda i: abs(f.roots[i] - value))


class TestBottcherLocal:
    def test_cubic_pm_origin(self, cubic_pm):
        loc = bottcher_local(cubic_pm, _root_index(cubic_pm, 0))
        assert loc.mark.local_degree == 3
        assert loc.mark.coefficient == pytest.approx(-2)
        assert loc.fixed_directions == pytest.approx((math.pi / 2, 3 * math.pi / 2))

    def test_cubic_pm_unit_roots(self, cubic_pm):
        plus = bottcher_local(cubic_pm, _root_index(cubic_pm, 1))
        minus = bottcher_local(cubic_pm, _root_index(cubic_pm, -1))
        assert plus.mark.local_degree == 2
        assert plus.mark.coefficient == pytest.approx(1.5)
        assert plus.fixed_directions == pytest.approx((0.0,))
        assert minus.mark.coefficient == pytest.approx(-1.5)
        assert minus.fixed_directions == pytest.approx((math.pi,))

    def test_cubic_unity_all_roots(self, cubic_unity):
        w = cmath.exp(2j * math.pi / 3)
        one = bottcher_local(cubic_unity, _root_index(cubic_unity, 1))
        assert one.mark.local_degree == 2
        assert one.mark.coefficient == pytest.approx(1)
        assert one.fixed_directions == pytest.approx((0.0,))
        rot = bottcher_local(cubic_unity, _root_index(cubic_unity, w))
        assert rot.mark.coefficient == pytest.approx(w.conjugate())
        assert rot.fixed_directions == pytest.approx((2 * math.pi / 3,))

    def test_quartic_monic_origin(self, quartic_monic):
        loc = bottcher_local(quartic_monic, _root_index(quartic_monic, 0))
        assert loc.mark.local_degree == 4
        assert loc.mark.coefficient == pytest.approx(-3)
        assert loc.fixed_directions == pytest.approx(
            (math.pi / 3, math.pi, 5 * math.pi / 3)
        )

    def test_bad_index_raises(self, cubic_unity):
        with pytest.raises(NotARoot):
            bottcher_local(cubic_unity, 7)


def assert_forward_invariant(f, graph):
    """Every interior sample of the channel diagram maps into the diagram:
    within 1e-4 (chordal), and within 1e-7 beyond 0.05 of every root, where
    each sample is a lift."""
    checked = 0
    for e in graph.edges:
        for p in e.points[1:-1]:
            d = graph_distance(graph, f.evaluate(p))
            assert d < 1e-4
            if min(abs(p - r) for r in f.roots) > 0.05:
                assert d < 1e-7
            checked += 1
    assert checked > 50


class TestTraceFixedRay:
    def test_imaginary_axis_ray(self, cubic_pm):
        loc = bottcher_local(cubic_pm, _root_index(cubic_pm, 0))
        up = trace_fixed_ray(cubic_pm, loc, 0)
        assert rays._mod_tau(cmath.phase(up[1] - up[0])) == pytest.approx(math.pi / 2)
        finite = list(up[:-1])
        assert np.isinf(up[-1])
        assert all(abs(z.real) < 1e-9 for z in finite)
        imags = [z.imag for z in finite]
        assert all(b > a - 1e-15 for a, b in zip(imags, imags[1:]))
        # the ray stops at its first sample past the map's radius, which the
        # cap bounds
        assert imags[-2] < cubic_pm.ray_radius <= imags[-1]
        assert cubic_pm.ray_radius <= DEFAULT_TOL.escape_radius
        assert rays._mod_tau(-cmath.phase(up[-2])) == pytest.approx(3 * math.pi / 2)

    def test_positive_real_ray(self, cubic_unity):
        loc = bottcher_local(cubic_unity, _root_index(cubic_unity, 1))
        ray = trace_fixed_ray(cubic_unity, loc, 0)
        finite = list(ray[:-1])
        assert all(abs(z.imag) < 1e-9 for z in finite)
        reals = [z.real for z in finite]
        assert reals[0] == pytest.approx(1)
        assert all(b > a - 1e-15 for a, b in zip(reals, reals[1:]))
        assert rays._mod_tau(-cmath.phase(ray[-2])) == pytest.approx(0, abs=1e-9)

    def test_ray_is_forward_invariant(self, cubic_pm, delta0_pm):
        assert_forward_invariant(cubic_pm, delta0_pm)

    @pytest.mark.parametrize("lam", PCF_LAMBDAS, ids=lambda lam: f"{lam:.4g}")
    def test_rays_of_the_pcf_cubics_are_forward_invariant(self, lam):
        # the rays of z^3 - z, and of every conjugate of z^d - 1 and z^d - z,
        # are straight lines, where a starting segment has no model error;
        # those of the pcf cubics are curved
        f = pcf_cubic(lam)
        assert_forward_invariant(f, channel_diagram(f))

    def test_lifts_are_thinned_to_the_sample_ratio(
        self, cubic_pm, quartic_monic, monkeypatch
    ):
        # each lift keeps both ends of its segment, keeps no interior sample
        # that could have been dropped (the thinning is greedy-maximal),
        # leaves gaps of at most log(sample_ratio) in log-polar distance
        # where it dropped samples, and every kept sample maps onto the
        # sample of the previous kept segment it was lifted from
        lifts = []
        thinned = rays._thinned

        def recording(seg, center, ratio):
            kept = thinned(seg, center, ratio)
            lifts.append((list(seg), kept))
            return kept

        monkeypatch.setattr(rays, "_thinned", recording)
        limit = math.log(DEFAULT_TOL.sample_ratio)
        checked = 0
        for f in (cubic_pm, quartic_monic):
            for i in range(len(f.roots)):
                loc = bottcher_local(f, i)
                for j in range(len(loc.fixed_directions)):
                    lifts.clear()
                    ray = trace_fixed_ray(f, loc, j)
                    xi = loc.mark.value

                    def spread(a, c):
                        return abs(cmath.log((c - xi) / (a - xi)))

                    # the ray is the root, the fundamental segment, then the
                    # kept lifts, cut at the first escaped sample
                    m = len(lifts[0][0])
                    previous = list(ray[1 : m + 1])
                    kept_tail = np.concatenate([kept[1:] for _, kept in lifts])
                    n = len(ray) - m - 2
                    assert np.array_equal(ray[m + 1 : -1], kept_tail[:n])
                    for seg, kept in lifts:
                        assert kept[0] == seg[0] and kept[-1] == seg[-1]
                        index = [seg.index(x) for x in kept]
                        assert index == sorted(set(index))
                        for t in range(1, len(kept) - 1):
                            assert spread(kept[t - 1], kept[t + 1]) > limit
                        for t in range(1, len(kept)):
                            if index[t] > index[t - 1] + 1:
                                assert spread(kept[t - 1], kept[t]) <= limit
                            image = f.evaluate(kept[t])
                            assert chordal_distance(image, previous[index[t]]) < 1e-9
                            checked += 1
                        previous = kept
        assert checked > 100


class TestSolvePreimageNear:
    def test_target_beyond_chart_radius(self, cubic_pm):
        # |w| > CHART_RADIUS: the corrector solves D/N = 1/w, where each
        # simple pole of f is a regular point, and near infinity f ~ 2z/3.
        f, tol = cubic_pm, cubic_pm.tol
        for w in (2e3, 1e5 * cmath.exp(0.7j), -3e8j):
            assert abs(w) > CHART_RADIUS
            starts = [q + 1e-3 * (1 + 1j) * math.sqrt(1e5 / abs(w)) for q, _ in f.poles]
            for x0, near in zip(starts + [1.4 * w], [q for q, _ in f.poles] + [1.5 * w]):
                x = rays.solve_preimage_near(f, w, x0)
                assert x is not None
                assert abs(x - near) < 0.01 * (1 + abs(near))
                assert chordal_distance(f.evaluate(x), w) <= tol.lift_tol

    def test_no_convergence_in_fifty_steps_gives_none(self, cubic_unity, monkeypatch):
        # the solve of f(x) = 0.5 from 0.9 converges; with the step gate
        # never met it runs its 50 steps and gives up
        f = cubic_unity
        assert rays.solve_preimage_near(f, 0.5, 0.9) is not None
        steps = []

        def never(step, x, tol):
            steps.append(step)
            return False

        monkeypatch.setattr(rays, "converged", never)
        assert rays.solve_preimage_near(f, 0.5, 0.9) is None
        assert len(steps) == 50

    def test_failed_residual_gives_none(self, cubic_unity, monkeypatch):
        # the iteration converges, and only the residual gate refuses it
        f = cubic_unity
        residual_ok = rays.residual_ok
        seen = []

        def refuse(res, target, tol):
            seen.append(res)
            return False

        monkeypatch.setattr(rays, "residual_ok", refuse)
        assert rays.solve_preimage_near(f, 0.5, 0.9) is None
        [res] = seen
        assert residual_ok(res, 0.5, f.tol)


def horner_solve(f, w, x0):
    """solve_preimage_near as written with one horner call per row: the
    oracle of its inlined Horner loops."""
    tol = f.tol
    (a, b, e), target, far = f.corrector(w)
    x = x0
    for _ in range(50):
        av, bv = horner(a, x), horner(b, x)
        if bv == 0:
            x += 1e-12 * (1 + abs(x))
            continue
        slope = horner(e, x) * (bv - x * av if far else x * bv - av)
        if slope == 0:
            x += 1e-12 * (1 + abs(x))
            continue
        step = (av - target * bv) * bv / slope
        x = x - step
        if rays.converged(step, x, tol):
            break
    else:
        return None
    bv = horner(b, x)
    res = abs(horner(a, x) / bv - target) if bv != 0 else math.inf
    if not rays.residual_ok(res, target, tol):
        return None
    return x


POOL = ("cubic_unity", "cubic_pm", "cubic_pm_plus", "quartic_unity", "quartic_monic")


class TestInlinedCorrector:
    def test_the_inlined_loops_are_the_horner_calls_bit_for_bit(self, request):
        # targets from 1e-3 to 1e7 in modulus, a fifth beyond the chart
        # radius; starts near a preimage, where the solve converges, or
        # anywhere, where it may stray; repr tells every bit, -0.0 included.
        # The pool's maps have sparse coefficients, so (z - 1.5 - i)^3 - 1,
        # every coefficient of whose rows is nonzero, joins them
        rng = random.Random(20261020)
        beyond, found, strayed = 0, 0, 0
        t = 1.5 + 1j
        dense = make_newton_map(Polynomial((-1 - t**3, 3 * t**2, -3 * t, 1)))
        for f in [request.getfixturevalue(name) for name in POOL] + [dense]:
            for _ in range(420):
                w = cmath.rect(10 ** rng.uniform(-3, 7), rng.uniform(-math.pi, math.pi))
                if rng.random() < 0.5:
                    fiber = [x.value for x, _ in lift_point(f, w) if not x.is_infinity]
                    x0 = rng.choice(fiber) * (1 + complex(rng.gauss(0, 0.05), rng.gauss(0, 0.05)))
                else:
                    x0 = cmath.rect(10 ** rng.uniform(-3, 4), rng.uniform(-math.pi, math.pi))
                x = rays.solve_preimage_near(f, w, x0)
                assert repr(x) == repr(horner_solve(f, w, x0))
                beyond += abs(w) > CHART_RADIUS
                found += x is not None
                strayed += x is None
        assert beyond > 300 and found > 1000 and strayed > 20

    def test_a_start_where_the_denominator_vanishes(self, cubic_unity):
        # D = 3 z^2 is exactly 0 at the start 0, the double pole: the first
        # step only nudges x off it
        f = cubic_unity
        (_, b, _), _, _ = f.corrector(0.5)
        assert horner(b, 0j) == 0
        for w in (0.5, 0.5j, -2 + 1j, 900.0):
            x = rays.solve_preimage_near(f, w, 0j)
            assert repr(x) == repr(horner_solve(f, w, 0j))


def conjugated(f, a):
    """The Newton map of p(z/a) a^d, which z -> a z conjugates to f."""
    d = f.degree
    return make_newton_map(Polynomial(tuple(c * a ** (d - k) for k, c in enumerate(f.p.coeffs))))


def angle_at_infinity(ray):
    """A ray's angle at infinity as channel_diagram reads it: the angle of
    its closing chord in the w = 1/z chart."""
    return rays._mod_tau(cmath.phase(offset(INF, complex(ray[-2]))))


def clearance(f, x):
    """The distance from a mark of f to the nearest other mark."""
    return min(abs(mark.value - x) for mark in f.marked_points if mark.value != x)


class TestRayRadius:
    def test_only_the_rays_compute_the_radius(self):
        # the radius is computed once, when a ray first asks for it: a
        # raster, a classified point and a fiber never pay for it
        f = make_newton_map(Polynomial((-1, 0, 0, 0, 0, 1)))
        render_basins(f, RasterSpec(8, 8))
        classify_point(f, 0.3 + 0.2j)
        lift_point(f, 0.5j)
        assert "ray_radius" not in vars(f)
        channel_diagram(f)
        assert vars(f)["ray_radius"] == f.ray_radius

    def test_only_the_rays_compute_kappa(self):
        # kappa is computed for every root at once, when a ray first asks for
        # it: a raster, a classified point and a fiber never pay for it
        f = make_newton_map(Polynomial((-1, 0, 0, 0, 0, 1)))
        render_basins(f, RasterSpec(8, 8))
        classify_point(f, 0.3 + 0.2j)
        lift_point(f, 0.5j)
        assert "root_kappas" not in vars(f)
        channel_diagram(f)
        assert len(vars(f)["root_kappas"]) == 5

    @pytest.mark.parametrize("name", POOL)
    def test_the_radius_scales_with_the_map(self, request, name):
        f = request.getfixturevalue(name)
        cap = f.tol.escape_radius
        assert f.ray_radius < cap
        for a in (2**-3 * cmath.exp(0.7j), 2**3 * cmath.exp(0.7j)):
            expected = abs(a) * f.ray_radius
            g = conjugated(f, a)
            if expected < cap:
                assert g.ray_radius == pytest.approx(expected, rel=1e-9, abs=0)
            else:
                assert g.ray_radius == cap

    @pytest.mark.parametrize("name", POOL + ("shifted",))
    def test_the_angle_at_infinity_is_within_the_bound(self, request, name):
        # each ray stopped at the map's radius, against the same ray traced
        # on to 1e6: the same samples up to the stop, and angles at infinity
        # within the two bounds of far_turn; the pool's roots have centroid
        # 0, and (z - 1.5 - i)^3 - 1 has its roots about 1.5 + i
        if name == "shifted":
            t = 1.5 + 1j
            f = make_newton_map(Polynomial((-1 - t**3, 3 * t**2, -3 * t, 1)))
            assert abs(f._far_model[0] - t) < 1e-12
        else:
            f = request.getfixturevalue(name)
        for i in range(len(f.roots)):
            loc = bottcher_local(f, i)
            for j in range(len(loc.fixed_directions)):
                short = trace_fixed_ray(f, loc, j)
                far = trace_fixed_ray(f, loc, j, 1e6)
                assert abs(short[-3]) < f.ray_radius <= abs(short[-2])
                assert abs(far[-2]) >= 1e6
                assert np.array_equal(far[: len(short) - 1], short[:-1])
                bound = f.far_turn(complex(short[-2]))
                assert bound < math.pi / 4
                gap = rays._circular_gap(angle_at_infinity(short), angle_at_infinity(far))
                assert gap <= bound + f.far_turn(complex(far[-2]))

    @pytest.mark.parametrize("name", POOL + ("cubic_unity_conjugate",))
    def test_lifts_into_a_pole_end_within_a_quarter_of_its_clearance(self, request, name):
        # z^3 - 1 conjugated by 2^-2 e^(0.4i) takes its radius from its
        # pole: there its lifts ended 1.0098 times the quarter clearance
        # when the radius bounded them to leading order in the pole's model
        if name == "cubic_unity_conjugate":
            f = conjugated(request.getfixturevalue("cubic_unity"), 2**-2 * cmath.exp(0.4j))
            graph = compute_newton_graph(f)
        else:
            f = request.getfixturevalue(name)
            graph = request.getfixturevalue(name.replace("cubic", "graph").replace("quartic", "graph_q"))
        level = graph.graphs[1]
        ends = 0
        for j, e in enumerate(level.geo.edges):
            head = level.marks[e.head]
            if level.edge_level[j] == 1 and head.kind == KIND_POLE:
                assert abs(complex(e.points[-2]) - head.value) <= clearance(f, head.value) / 4
                ends += 1
        assert ends > 0

    @pytest.mark.parametrize("name", POOL)
    def test_no_lifted_sample_lies_beyond_the_radius(self, request, name):
        f = request.getfixturevalue(name)
        graph = request.getfixturevalue(name.replace("cubic", "graph").replace("quartic", "graph_q"))
        top = graph.graphs[-1]
        lifted = [e.points for j, e in enumerate(top.geo.edges) if top.edge_level[j] > 0]
        samples = np.concatenate(lifted)
        assert lifted and np.abs(samples[np.isfinite(samples)]).max() <= f.ray_radius

    def test_narrow_gaps_double_the_radius(self):
        # z^3 - z with its radius set to 1: up to |z| = 2 no bound on the
        # turn holds, and at 4 the four rays' bounds fit their gaps of pi/2,
        # so the rays are traced again to 2 and then to 4
        f = make_newton_map(Polynomial((0, -1, 0, 1)))
        f.__dict__["ray_radius"] = 1.0
        for radius, certified in ((1.0, False), (2.0, False), (4.0, True)):
            traced = []
            for i in range(3):
                loc = bottcher_local(f, i)
                for j in range(len(loc.fixed_directions)):
                    ray = trace_fixed_ray(f, loc, j, radius)
                    traced.append(GeoEdge(i, 3, ray, (0.0, angle_at_infinity(ray))))
            assert rays._order_at_infinity_certified(f, traced) == certified
        diagram = channel_diagram(f)
        assert len(diagram.edges) == 4
        for e in diagram.edges:
            assert abs(e.points[-3]) < 4.0 <= abs(e.points[-2])
            assert f.far_turn(complex(e.points[-2])) < math.pi / 4
        default = channel_diagram(make_newton_map(f.p))
        assert [e.tail for e in diagram.edges] == [e.tail for e in default.edges]
        assert [e.angles for e in diagram.edges] == pytest.approx(
            [e.angles for e in default.edges], abs=0.4)


class TestContinueInverseBranch:
    def test_branch_lost_at_the_bisection_bound(self, cubic_unity, monkeypatch):
        # a corrector that always strays: the continuation halves its target
        # segment MAX_BISECTION_DEPTH times, one solve per halving, then
        # gives the branch up
        targets = []

        def strays(f, w, x0):
            targets.append(w)
            return None

        monkeypatch.setattr(rays, "solve_preimage_near", strays)
        with pytest.raises(BranchJump, match="inverse branch lost between targets 0.5 and"):
            rays.continue_inverse_branch(cubic_unity, 0.5, 0.6, 0.9)
        assert len(targets) == rays.MAX_BISECTION_DEPTH + 1
        assert targets[-1] == pytest.approx(0.5 + 0.1 / 2**rays.MAX_BISECTION_DEPTH, abs=1e-15)


class TestChannelDiagram:
    def test_cubic_unity_structure(self, delta0_unity):
        g = delta0_unity
        assert len(g.vertices) == 4
        assert g.vertices[3] == INF
        assert len(g.edges) == 3
        assert {e.tail for e in g.edges} == {0, 1, 2}
        assert all(e.head == 3 for e in g.edges)
        angles = sorted(e.angles[1] for e in g.edges)
        assert angles == pytest.approx([0, TAU / 3, 2 * TAU / 3], abs=1e-8)

    def test_cubic_pm_structure(self, cubic_pm, delta0_pm):
        g = delta0_pm
        assert len(g.vertices) == 4
        assert len(g.edges) == 4
        center = _root_index(cubic_pm, 0)
        tails = sorted(e.tail for e in g.edges)
        expected = sorted([center, center] + [i for i in range(3) if i != center])
        assert tails == expected

    def test_quartic_structures(self, quartic_monic, delta0_q_unity, delta0_q_monic):
        gu = delta0_q_unity
        assert (len(gu.vertices), len(gu.edges)) == (5, 4)
        gm = delta0_q_monic
        assert (len(gm.vertices), len(gm.edges)) == (5, 6)
        center = _root_index(quartic_monic, 0)
        assert sum(1 for e in gm.edges if e.tail == center) == 3

    def test_vertex_star_at_infinity(self, delta0_unity):
        g = delta0_unity
        star = g.vertex_star(3)
        assert len(star) == 3
        assert all(dart % 2 == 1 for _, dart in star)
        angles = [g.edges[dart // 2].angles[1] for _, dart in star]
        assert angles == sorted(angles)
        assert angles == [angle for angle, _ in star]

    def test_vertex_star_is_local_and_built_once(self):
        # both edges leave vertex 0 along the positive real axis; the stars
        # at their far ends do not depend on that collision
        calls = []

        class Recorded(tuple):
            """An edge's angles that log the edge each time one is read."""

            def __getitem__(self, end):
                calls.append(self.edge)
                return super().__getitem__(end)

        def angles(edge, tail, head):
            out = Recorded((tail, head))
            out.edge = edge
            return out

        g = rays.GeoGraph(
            (0j, 1 + 0j, 2 + 1j),
            (GeoEdge(0, 1, [0j, 1 + 0j], angles(0, 0.0, math.pi)),
             GeoEdge(0, 2, [0j, 0.5 + 0j, 2 + 1j], angles(1, 0.0, math.atan2(-1, -1.5) % TAU))),
        )
        assert g.vertex_star(2) == ((math.atan2(-1, -1.5) % TAU, 3),)
        assert g.vertex_star(1) is g.vertex_star(1)
        assert sorted(calls) == [0, 1]
        with pytest.raises(rays.NonPlanarIncidence, match="vertex 0"):
            g.vertex_star(0)

    def test_graph_distance_separates_faces(self, delta0_pm):
        g = delta0_pm
        on_edge = g.edges[0].points[len(g.edges[0].points) // 2]
        assert graph_distance(g, on_edge) < 1e-12
        assert graph_distance(g, 1 + 1j) > 0.05

    def test_determinism(self, cubic_unity):
        a = channel_diagram(cubic_unity)
        b = channel_diagram(cubic_unity)
        assert a == b

    def test_edges_compare_and_freeze_their_polylines(self, delta0_unity):
        e = delta0_unity.edges[0]
        assert e == GeoEdge(e.tail, e.head, list(e.points), e.angles)
        assert e != GeoEdge(e.tail, e.head, e.points[::-1], e.angles)
        assert e != GeoEdge(e.tail, e.head, e.points, e.angles[::-1])
        with pytest.raises(ValueError):
            e.points[1] = 0j


def encoded(values) -> str:
    """The export encoding, written out here: base64 of little-endian
    complex128 values."""
    return base64.b64encode(np.array(values, dtype="<c16").tobytes()).decode("ascii")


class TestSampleEncoding:
    """A polyline's "samples" string is base64 of its complex128 values,
    little-endian, and polyline_from_json reads it back bit for bit or
    raises ValueError."""

    def test_layout_is_little_endian_complex128(self):
        points = [complex(-0.0, 1e-300), 1 / 3 + 2j, INF]
        text = rays._samples_json(rays.frozen_polyline(points))
        assert text == encoded(points)
        raw = base64.b64decode(text)
        assert len(raw) == 48
        assert raw[32:40] == np.array([math.inf], dtype="<f8").tobytes()

    def test_an_end_at_infinity_is_allowed_at_either_end(self):
        for points in ([INF, 1 + 1j], [0j, INF], [INF, 2j, INF]):
            assert polyline_from_json(encoded(points)).tolist() == points

    @pytest.mark.parametrize("text, message", [
        ("AAAA*AAA", "not base64"),
        ("AAAAAAAAAAAAAAAAAAAAAA", "not base64"),  # 16 bytes, padding missing
        ("ÄAAA", "not base64"),
        (None, "not base64"),
        (encoded([1j])[:-4], "bytes"),  # 15 bytes
        (encoded([1j]), "bytes"),  # one sample
        (base64.b64encode(bytes(40)).decode(), "bytes"),
        ("", "bytes"),
    ], ids=["bad-character", "bad-padding", "non-ascii", "not-a-string",
            "partial-sample", "one-sample", "not-whole-samples", "empty"])
    def test_malformed_strings_raise(self, text, message):
        with pytest.raises(ValueError, match=message):
            polyline_from_json(text)

    @pytest.mark.parametrize("points", [
        [0j, INF, 1j],
        [0j, complex(1, math.inf), 2j, 3j],
        [0j, complex(math.nan, 0), 1j],
    ], ids=["inf-interior", "half-inf-interior", "nan-interior"])
    def test_only_ends_may_be_infinite(self, points):
        with pytest.raises(ValueError, match="interior"):
            polyline_from_json(encoded(points))

    @pytest.mark.parametrize("end", [complex(math.nan, 0), complex(-math.inf, 0),
                                     complex(math.inf, 1)], ids=["nan", "minus-inf", "inf-plus-i"])
    def test_an_end_is_finite_or_inf(self, end):
        for points in ([end, 1j], [1j, end]):
            with pytest.raises(ValueError, match="end sample"):
                polyline_from_json(encoded(points))


# --- nearest_edge_point against the full scan --------------------------------

# the pool's towers, each with the fixture of its map
POOL_GRAPHS = (
    ("graph_unity", "cubic_unity"),
    ("graph_pm", "cubic_pm"),
    ("graph_pm_plus", "cubic_pm_plus"),
    ("graph_q_unity", "quartic_unity"),
    ("graph_q_monic", "quartic_monic"),
)
CONJUGATED = [
    (f"{label}@2^{e}", conjugate_coeffs(coeffs, 2.0**e * cmath.exp(0.7j)))
    for label, coeffs in (("z3-1", (-1, 0, 0, 1)), ("z4-z", (0, -1, 0, 0, 1)))
    for e in (3, -3)
]


@pytest.fixture(scope="module")
def located_graphs(request):
    """(label, map, level) over every level of the pool maps and of z^3 - 1
    and z^4 - z conjugated at a = 2^3 e^0.7i and 2^-3 e^0.7i, and the top
    levels of z^5 - 1 and z^6 - 1."""
    out = []
    for graph, fmap in POOL_GRAPHS:
        f = request.getfixturevalue(fmap)
        out += [(f"{graph}/{g.level}", f, g) for g in request.getfixturevalue(graph).graphs]
    for label, coeffs in CONJUGATED:
        f = make_newton_map(Polynomial(coeffs))
        out += [(f"{label}/{g.level}", f, g) for g in compute_newton_graph(f).graphs]
    for d in (5, 6):
        f = make_newton_map(Polynomial((-1,) + (0,) * (d - 1) + (1,)))
        out.append((f"z{d}-1/top", f, compute_newton_graph(f).graphs[-1]))
    return out


def query_points(f, geo, seed):
    """Seeded points at scales 1e-4 to 1e4, samples of every tenth edge moved
    off it by 1e-12 to 1e-2, the vertices, 0, inf, 1e6 + i, and points just
    beyond the ray radius."""
    rng = random.Random(seed)
    pts = [
        cmath.rect(scale * rng.random(), rng.uniform(0, TAU))
        for scale in (1e-4, 1e-2, 1.0, 3.0, 1e2, 1e4)
        for _ in range(25)
    ]
    for e in geo.edges[::10]:
        finite = [complex(p) for p in e.points if cmath.isfinite(p)]
        for p in rng.sample(finite, min(3, len(finite))):
            for eps in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2):
                pts.append(p + eps * (1 + abs(p)) * cmath.exp(1j * rng.uniform(0, TAU)))
    pts += list(geo.vertices) + [0j, INF, 1e6 + 1j]
    for factor in (1 + 1e-9, 1.01, 1.5):
        pts += [cmath.rect(f.ray_radius * factor, rng.uniform(0, TAU)) for _ in range(5)]
    return pts


class TestNearestEdgePoint:
    """nearest_edge_point measures exactly only the blocks whose certified
    lower bound can hold the nearest point, and returns the full scan's
    (edge, segment, distance) bit for bit, ties included."""

    def test_matches_the_full_scan(self, located_graphs):
        for label, f, g in located_graphs:
            for k, q in enumerate(query_points(f, g.geo, label)):
                got = rays.nearest_edge_point(g.geo, q)
                assert got == full_scan_nearest_edge_point(g.geo, q), (label, k, q)

    def test_overflow_measures_every_block(self, located_graphs):
        # so near inf or 0 that (1 + |q|^2)(1 + |s|^2) overflows for the far
        # samples, whose distances then read 0 in the full scan too
        for label, f, g in located_graphs[::3]:
            for q in (1e153 + 1e153j, -2e152 + 1e153j, 3e-154j, 1e-154 + 1e-155j):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = rays.nearest_edge_point(g.geo, q)
                    assert got == full_scan_nearest_edge_point(g.geo, q), (label, q)

    def test_locate_face_matches_the_full_scan(self, located_graphs, monkeypatch):
        for label, f, g in located_graphs[::2]:
            emb = extract_combinatorial(g).graph
            pts = query_points(f, g.geo, label)
            got = [locate_face(g.geo, emb, q) for q in pts]
            with monkeypatch.context() as m:
                m.setattr(pullback, "nearest_edge_point", full_scan_nearest_edge_point)
                assert got == [locate_face(g.geo, emb, q) for q in pts], label

    def test_ties_keep_the_full_scan_order(self):
        # a point equidistant from two edges, and one on a sample shared by
        # the end of a block and the start of the next
        edges = (
            GeoEdge(0, 1, [-1 + 1j, 1 + 1j], (0.0, math.pi)),
            GeoEdge(0, 1, [-1 - 1j, 1 - 1j], (0.0, math.pi)),
            GeoEdge(2, 3, np.linspace(2, 3, 40) + 0j, (0.0, math.pi)),
        )
        geo = GeoGraph((-1 + 1j, 1 + 1j, 2 + 0j, 3 + 0j), edges)
        pts = [0j, 0.5 + 0j, 2 + 16 / 39, 2 + 16 / 39 + 1e-3j, complex(edges[2].points[32])]
        for q in pts:
            assert rays.nearest_edge_point(geo, q) == full_scan_nearest_edge_point(geo, q), q
        assert rays.nearest_edge_point(geo, 0j)[:2] == (0, 0)
        # every point of the imaginary axis, infinity too, lies sqrt 2 from
        # 1 and from -1: the sample 0 comes before infinity
        axis = GeoGraph((0j, INF), (GeoEdge(0, 1, [0, 1j, 2j, 5j, INF], (math.pi / 2, 1.5 * math.pi)),))
        for q in (1 + 0j, -1 + 0j):
            assert rays.nearest_edge_point(axis, q) == full_scan_nearest_edge_point(axis, q)
            assert rays.nearest_edge_point(axis, q)[:2] == (0, 0)

    def test_each_chart_bounds_its_own_chords(self):
        # the plane chord of edge 0 passes 1e-3 from 0, while its inverted
        # chord, from 10 to about -10, and its disk in the w chart lie far
        # from 1/q: only the plane disk bounds the plane chord
        edges = (
            GeoEdge(0, 1, [0.1 + 0j, -0.1 + 0.002j], (0.0, math.pi)),
            GeoEdge(2, 3, [0.05 + 0.05j, 0.06 + 0.05j], (0.0, math.pi)),
        )
        geo = GeoGraph((0.1 + 0j, -0.1 + 0.002j, 0.05 + 0.05j, 0.06 + 0.05j), edges)
        for q in (0.0005j, 0.001j, -0.001j, 0.03 + 0.03j):
            assert rays.nearest_edge_point(geo, q) == full_scan_nearest_edge_point(geo, q), q
        assert rays.nearest_edge_point(geo, 0.0005j)[0] == 0

    def test_prunes_points_away_from_the_graph(self, located_graphs, monkeypatch):
        # on the z^6 - 1 top level, a point at least 0.05 from the graph is
        # measured exactly on fewer than 1/8 of the segments
        [(_, _, top)] = [x for x in located_graphs if x[0] == "z6-1/top"]
        segments = sum(len(e.points) - 1 for e in top.geo.edges)
        seen = []
        project = rays._project_distances

        def counted(q, qq, p0, *rest):
            seen[-1] += p0.shape[-2] * p0.shape[-1]  # the slots of one layer
            return project(q, qq, p0, *rest)

        monkeypatch.setattr(rays, "_project_distances", counted)
        rng = random.Random(38)
        far = 0
        while far < 100:
            q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if full_scan_nearest_edge_point(top.geo, q)[2] < 0.05:
                continue
            far += 1
            seen.append(0)
            rays.nearest_edge_point(top.geo, q)
            assert seen[-1] < segments / 8, (q, seen[-1], segments)
