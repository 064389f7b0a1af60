"""The Newton map's marked points: one table of roots, poles and free
critical points, with kinds, local degrees and local models, the lookup for
bare points, and the marks over a target that each fiber takes. The oracles here do not go through the table: local degrees
are checked against fiber multiplicities from root clustering, root kinds
against f.roots, local models against closed forms, and fibers against a
solve over the exact marked point."""

import pytest

from newtongraph import Polynomial, compute_newton_graph, lift_point, newton_graph_to_json
from newtongraph.combinatorial import KIND_INFINITY, KIND_PLAIN, KIND_POLE, KIND_ROOT
from newtongraph.errors import NonPlanarIncidence
from newtongraph.poly import make_newton_map
from newtongraph.pullback import extract_combinatorial
from newtongraph.rays import channel_diagram
from newtongraph.sphere import INF

POOL = {
    "z3-1": (-1, 0, 0, 1),
    "z3-z": (0, -1, 0, 1),
    "z3+z": (0, 1, 0, 1),
    "z4-1": (-1, 0, 0, 0, 1),
    "z4-z": (0, -1, 0, 0, 1),
    "z5-z": (0, -1, 0, 0, 0, 1),
    "z6-1": (-1, 0, 0, 0, 0, 0, 1),
}


@pytest.fixture(scope="module")
def towers():
    out = {}
    for name, coeffs in POOL.items():
        f = make_newton_map(Polynomial(coeffs))
        out[name] = (f, compute_newton_graph(f))
    return out


class TestTable:
    def test_roots_poles_then_free_critical_points(self):
        # z^3 - z: roots -1, 0, 1 and simple poles +-1/sqrt(3); p'' = 6z
        # vanishes at the root 0, which therefore has local degree 3 and
        # leaves no free critical point
        f = make_newton_map(Polynomial((0, -1, 0, 1)))
        kinds = [m.kind for m in f.marked_points]
        assert kinds == [KIND_ROOT] * 3 + [KIND_POLE] * 2
        degrees = {complex(m.value): m.local_degree for m in f.marked_points}
        assert degrees[0j] == 3
        assert degrees[1 + 0j] == degrees[-1 + 0j] == 2
        assert [m.local_degree for m in f.marked_points[3:]] == [1, 1]

    def test_free_critical_point_and_multiple_pole(self):
        # z^3 - 2z + 2: p'' = 6z vanishes at 0, which is neither a root nor
        # a pole; z^3 - 1 has the double pole 0
        f = make_newton_map(Polynomial((2, -2, 0, 1)))
        [free] = [m for m in f.marked_points if m.kind == KIND_PLAIN]
        assert free.value == 0 and free.local_degree == 2
        g = make_newton_map(Polynomial((-1, 0, 0, 1)))
        [pole] = [m for m in g.marked_points if m.kind == KIND_POLE]
        assert pole.value == 0 and pole.local_degree == 2

    def test_zero_of_p2_next_to_a_simple_pole_stays_free(self):
        # z^3 - 1 from its roots to double precision: p' = 3z^2 - 2.2e-16 has
        # the simple zeros +-6.08e-9, and p'' = 6z vanishes between them, at
        # a free critical point no snap may join to a pole; z^4 + 1e-8 z^3 + 1
        # has the double pole 0, the simple pole -7.5e-9 and the free
        # critical point -5e-9
        f = make_newton_map(Polynomial.from_roots(
            [1, -0.5 + 0.8660254037844386j, -0.5 - 0.8660254037844386j]))
        assert [(m.kind, m.local_degree) for m in f.marked_points[3:]] == [
            (KIND_POLE, 1), (KIND_POLE, 1), (KIND_PLAIN, 2)]
        assert f.marked_points[5].value == 0
        g = make_newton_map(Polynomial((1, 0, 0, 1e-8, 1)))
        assert [(m.kind, m.local_degree) for m in g.marked_points[4:]] == [
            (KIND_POLE, 1), (KIND_POLE, 2), (KIND_PLAIN, 2)]
        assert [m.value for m in g.marked_points[4:7]] == pytest.approx([-7.5e-9, 0, -5e-9],
                                                                        rel=1e-9, abs=1e-30)

    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 1e-300), (-1e24, 0, 0, 1)])
    def test_the_tower_refuses_colliding_marks(self, coeffs):
        # every root lies beyond 1e8, within match_tol of infinity
        # (chordally), and for 1e-300 z^3 + 1 of the other roots too
        f = make_newton_map(Polynomial(coeffs))
        for build in (lambda: lift_point(f, f.roots[0]), lambda: channel_diagram(f)):
            with pytest.raises(NonPlanarIncidence, match="below match_tol"):
                build()

    def test_lookup(self):
        f = make_newton_map(Polynomial((-1, 0, 0, 1)))
        root = f.marked_point(1 + 1e-9j)
        assert (root.kind, root.local_degree, root.value) == (KIND_ROOT, 2, f.roots[2])
        assert f.marked_point(INF).kind == KIND_INFINITY
        assert f.marked_point(INF).local_degree == 1
        plain = f.marked_point(0.5 + 0.5j)
        assert (plain.value, plain.kind, plain.local_degree) == (0.5 + 0.5j, KIND_PLAIN, 1)
        # beyond match_tol a point is unmarked
        assert f.marked_point(1 + 1e-3j).kind == KIND_PLAIN


class TestLocalModels:
    """Each mark's b against closed forms, which do not go through
    leading_coefficient, and the marks over a target."""

    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    def test_unity(self, d):
        # z^d - 1: f(r + u) = r + (d - 1)/(2r) u^2 at a root r; 1/f(u) =
        # d u^(d-1) + ... at the pole 0; 1/f(1/u) = d/(d - 1) u at infinity
        f = make_newton_map(Polynomial((-1,) + (0,) * (d - 1) + (1,)))
        for r in f.roots:
            root = f.marked_point(r)
            assert root.local_degree == 2
            assert root.coefficient == pytest.approx((d - 1) / (2 * r), rel=1e-12)
            assert f.marks_over(r) == (root,)
        [pole] = [m for m in f.marked_points if m.kind == KIND_POLE]
        assert (pole.value, pole.local_degree) == (0, d - 1)
        assert pole.coefficient == pytest.approx(d, rel=1e-12)
        assert f.infinity.coefficient == pytest.approx(d / (d - 1), rel=1e-12)
        assert f.marks_over(INF) == (pole, f.infinity)

    def test_free_critical_point(self):
        # p = z^3 + az + c with a = -2/3, c = -1/3 (lambda = 1/3 in
        # tests/test_pcf_cubics.py): f(u) = -c/a + (3c/a^2) u^2 + ... at the
        # free critical point 0, whose image -1/2 is a level-1 vertex
        lam = 1 / 3
        f = make_newton_map(Polynomial((-lam, lam - 1, 0, 1)))
        [free] = [m for m in f.marked_points if m.kind == KIND_PLAIN]
        assert (free.value, free.local_degree) == (0, 2)
        assert free.coefficient == pytest.approx(-9 / 4, rel=1e-12)
        result = compute_newton_graph(f)
        [v] = [x for x in result.graphs[1].geo.vertices if abs(x + 0.5) < 1e-9]
        assert f.marks_over(v) == (free,)
        assert free in result.graphs[-1].marks

    def test_plain_point(self):
        f = make_newton_map(Polynomial((2, -2, 0, 1)))
        z, h = 0.3 + 0.7j, 1e-5
        plain = f.marked_point(z)
        assert (plain.kind, plain.local_degree) == (KIND_PLAIN, 1)
        difference = (f.evaluate(z + h) - f.evaluate(z - h)) / (2 * h)
        assert plain.coefficient == pytest.approx(difference, rel=1e-8)
        assert f.marks_over(z) == ()


class TestEveryVertex:
    @pytest.mark.parametrize("name", POOL)
    def test_carried_mark_is_the_lookup_at_the_vertex(self, towers, name):
        # each vertex carries the mark its fiber solve gave it; the lookup
        # at the vertex, which the tower no longer runs, agrees with it
        f, result = towers[name]
        for dg in result.graphs:
            assert len(dg.marks) == len(dg.geo.vertices)
            for v, (mark, x) in enumerate(zip(dg.marks, dg.geo.vertices)):
                assert repr(mark.value) == repr(x), (name, dg.level, v)
                assert mark == f.marked_point(x), (name, dg.level, v)

    @pytest.mark.parametrize("name", POOL)
    def test_local_degree_is_fiber_multiplicity(self, towers, name):
        f, result = towers[name]
        for dg in result.graphs:
            geo = dg.geo
            degrees = extract_combinatorial(dg).local_degree
            for v, x in enumerate(geo.vertices):
                fiber = dict(lift_point(f, geo.vertices[dg.vertex_map[v]]))
                assert degrees[v] == fiber[x] == f.marked_point(x).local_degree, (name, dg.level, v)

    @pytest.mark.parametrize("name", POOL)
    def test_root_vertices_are_the_roots(self, towers, name):
        f, result = towers[name]
        for dg in result.graphs:
            kinds = extract_combinatorial(dg).graph.vertex_kinds
            roots = {complex(v) for v, k in zip(dg.geo.vertices, kinds) if k == KIND_ROOT}
            assert roots == {complex(r) for r in f.roots}
            assert kinds.count(KIND_ROOT) == len(f.roots)

    @pytest.mark.parametrize("name", POOL)
    def test_export_reads_the_extraction(self, towers, name):
        f, result = towers[name]
        block = newton_graph_to_json(result)["combinatorial"]
        dyn = result.dynamics
        assert block["vertex_kinds"] == {str(v): k for v, k in enumerate(dyn.graph.vertex_kinds)}
        assert block["dynamics"]["local_degree"] == {
            str(v): m for v, m in enumerate(dyn.local_degree)
        }

    def test_vertex_count(self, towers):
        total = sum(len(dg.geo.vertices) for _, r in towers.values() for dg in r.graphs)
        assert total == 393


class TestFiberNextToMarkedPoint:
    def test_double_preimage_stays_whole(self):
        # z^4 - z: the root 1 has local degree 2; a target a rounding error
        # off it used to split that double preimage into two points 1
        f = make_newton_map(Polynomial((0, -1, 0, 0, 1)))
        root = f.roots[f.nearest_root(1)[0]]
        exact = lift_point(f, root)
        assert (root, 2) in exact
        assert lift_point(f, 1 + 1e-12j) == exact
        # the image of the level-1 vertex -1/3 + 0.4714i, a preimage of 1
        [v] = [x for x, m in exact if m == 1 and x.imag > 0]
        assert lift_point(f, f.evaluate(v)) == exact

    def test_no_spurious_neighbour(self):
        # z^3 - 1: over 1 + 1e-12j the root 1 came back simple, with a second
        # point 1e-6 away
        f = make_newton_map(Polynomial((-1, 0, 0, 1)))
        fiber = lift_point(f, 1 + 1e-12j)
        assert len(fiber) == 2
        assert (f.roots[f.nearest_root(1)[0]], 2) in fiber

    def test_far_target_unchanged(self):
        # a target beyond match_tol of every marked point is solved as given
        f = make_newton_map(Polynomial((-1, 0, 0, 1)))
        fiber = lift_point(f, 1 + 1e-3j)
        assert len(fiber) == 3
        for x, m in fiber:
            assert m == 1
            assert abs(f.evaluate(x) - (1 + 1e-3j)) < 1e-12
