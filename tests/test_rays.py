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

import cmath
import math

import numpy as np
import pytest

from newtongraph import NotARoot, channel_diagram, rays
from newtongraph.rays import GeoEdge, bottcher_local, graph_distance, trace_fixed_ray
from newtongraph.sphere import chordal_distance
from newtongraph.tolerances import DEFAULT_TOL

TAU = 2 * math.pi


def _root_index(f, value):
    return min(range(len(f.roots)), key=lambda i: abs(f.roots[i] - value))


class TestBottcherLocal:
    def test_cubic_pm_origin(self, cubic_pm):
        loc = bottcher_local(cubic_pm, _root_index(cubic_pm, 0))
        assert loc.local_degree == 3
        assert loc.coefficient == pytest.approx(-2)
        assert loc.fixed_directions == pytest.approx((math.pi / 2, 3 * math.pi / 2))

    def test_cubic_pm_unit_roots(self, cubic_pm):
        plus = bottcher_local(cubic_pm, _root_index(cubic_pm, 1))
        minus = bottcher_local(cubic_pm, _root_index(cubic_pm, -1))
        assert plus.local_degree == 2
        assert plus.coefficient == pytest.approx(1.5)
        assert plus.fixed_directions == pytest.approx((0.0,))
        assert minus.coefficient == pytest.approx(-1.5)
        assert minus.fixed_directions == pytest.approx((math.pi,))

    def test_cubic_unity_all_roots(self, cubic_unity):
        w = cmath.exp(2j * math.pi / 3)
        one = bottcher_local(cubic_unity, _root_index(cubic_unity, 1))
        assert one.local_degree == 2
        assert one.coefficient == pytest.approx(1)
        assert one.fixed_directions == pytest.approx((0.0,))
        rot = bottcher_local(cubic_unity, _root_index(cubic_unity, w))
        assert rot.coefficient == pytest.approx(w.conjugate())
        assert rot.fixed_directions == pytest.approx((2 * math.pi / 3,))

    def test_quartic_monic_origin(self, quartic_monic):
        loc = bottcher_local(quartic_monic, _root_index(quartic_monic, 0))
        assert loc.local_degree == 4
        assert loc.coefficient == pytest.approx(-3)
        assert loc.fixed_directions == pytest.approx(
            (math.pi / 3, math.pi, 5 * math.pi / 3)
        )

    def test_bad_index_raises(self, cubic_unity):
        with pytest.raises(NotARoot):
            bottcher_local(cubic_unity, 7)


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
        assert imags[-1] >= DEFAULT_TOL.escape_radius
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
        graph = delta0_pm
        checked = 0
        for e in graph.edges:
            for p in e.points[1:-1]:
                img = cubic_pm.evaluate(p)
                d = graph_distance(graph, img)
                assert d < 1e-4
                if min(abs(p - r) for r in cubic_pm.roots) > 0.05:
                    assert d < 1e-7
                checked += 1
        assert checked > 50

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
                    xi = loc.root

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
        # |w| > chart_radius: the corrector solves D/N = 1/w, where each
        # simple pole of f is a regular point, and near infinity f ~ 2z/3.
        f, tol = cubic_pm, cubic_pm.tol
        for w in (2e3, 1e5 * cmath.exp(0.7j), -3e8j):
            assert abs(w) > tol.chart_radius
            starts = [q + 1e-3 * (1 + 1j) * math.sqrt(1e5 / abs(w)) for q, _ in f.poles]
            for x0, near in zip(starts + [1.4 * w], [q for q, _ in f.poles] + [1.5 * w]):
                x = rays.solve_preimage_near(f, w, x0)
                assert x is not None
                assert abs(x - near) < 0.01 * (1 + abs(near))
                assert chordal_distance(f.evaluate(x), w) <= tol.lift_tol


class TestChannelDiagram:
    def test_cubic_unity_structure(self, delta0_unity):
        g = delta0_unity
        assert len(g.vertices) == 4
        assert g.vertices[3].is_infinity
        assert len(g.edges) == 3
        assert {e.tail for e in g.edges} == {0, 1, 2}
        assert all(e.head == 3 for e in g.edges)
        angles = sorted(g.direction_at(i, "head") for i in range(3))
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
        angles = [g.direction_at(dart // 2, "head") for _, dart in star]
        assert angles == sorted(angles)
        assert angles == [angle for angle, _ in star]

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
        assert e == GeoEdge(e.tail, e.head, list(e.points))
        assert e != GeoEdge(e.tail, e.head, e.points[::-1])
        with pytest.raises(ValueError):
            e.points[1] = 0j
