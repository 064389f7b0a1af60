"""Acceptance gate: nine end-to-end criteria, one test per criterion.

Run with -v for one pass/fail line per criterion.  Each test pins its own
tolerances and uses oracles independent of the code paths it checks: exact
factorizations for fibers, rational characteristic polynomials for spectral
radii, boolean reachability powers for irreducibility, and hand-derived
counts for the small graphs.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from newtongraph import (
    Polynomial,
    channel_diagram,
    classify_point,
    compute_newton_graph,
    graphs_equivalent,
    is_irreducible_obstruction,
    lift_point,
    make_newton_map,
    transition_matrix,
    validate_newton_graph,
)
from newtongraph.combinatorial import GraphDynamics, embedded_graph_from_rotations
from newtongraph.dynamics import critical_orbits, require_postcritically_fixed
from newtongraph.pullback import (
    base_dynamic_graph,
    extract_combinatorial,
    verify_face_counts,
)
from newtongraph.rays import GeoEdge, GeoGraph
from newtongraph.sphere import chordal_distance, point
from newtongraph.thurston import MulticurveSpec, is_irreducible
from newtongraph.cli import main
from newtongraph.errors import InvalidGraph

from conftest import graph_distance, nearest_vertex

CONDITIONS = [
    "channel_core",
    "root_contact",
    "branch_total",
    "depth_minimal",
    "complement_connected",
    "sector_injective",
    "star_saturated",
]

FACE_CHECKS = [
    "boundary_fixed_points",
    "shared_pole_access",
    "simple_pole_basin_bound",
]


@pytest.fixture()
def pool(cubic_unity, cubic_pm, cubic_pm_plus, quartic_unity, quartic_monic,
         graph_unity, graph_pm, graph_pm_plus, graph_q_unity, graph_q_monic):
    """Certified postcritically fixed members of degrees 3 and 4."""
    return [
        ("cubic_unity", cubic_unity, graph_unity),
        ("cubic_pm", cubic_pm, graph_pm),
        ("cubic_pm_plus", cubic_pm_plus, graph_pm_plus),
        ("quartic_unity", quartic_unity, graph_q_unity),
        ("quartic_monic", quartic_monic, graph_q_monic),
    ]


# --- graph rebuild helpers (independent of the pipeline's own extraction) ---


def rotations_of(graph):
    rots = []
    for v in range(graph.n_vertices):
        start = min(d for d in range(graph.n_darts) if graph.vertex_of[d] == v)
        cyc = [start]
        d = graph.sigma[start]
        while d != start:
            cyc.append(d)
            d = graph.sigma[d]
        rots.append(cyc)
    return rots


def relabel(dyn, rng):
    """Conjugate a graph-with-dynamics by random vertex/edge/orientation
    relabeling; the result is equivalent to the input by construction."""
    g = dyn.graph
    n_e, n_v = g.n_edges, g.n_vertices
    rho = rng.sample(range(n_e), n_e)
    tau = rng.sample(range(n_v), n_v)
    flip = [rng.random() < 0.5 for _ in range(n_e)]

    def dmap(d):
        e, side = d >> 1, d & 1
        return 2 * rho[e] + (side ^ flip[e])

    n_d = g.n_darts
    sigma = [0] * n_d
    vertex_of = [0] * n_d
    dart_map = [0] * n_d
    for d in range(n_d):
        sigma[dmap(d)] = dmap(g.sigma[d])
        vertex_of[dmap(d)] = tau[g.vertex_of[d]]
        dart_map[dmap(d)] = dmap(dyn.dart_map[d])
    kinds = [""] * n_v
    vertex_map = [0] * n_v
    local_degree = [0] * n_v
    for v in range(n_v):
        kinds[tau[v]] = g.vertex_kinds[v]
        vertex_map[tau[v]] = tau[dyn.vertex_map[v]]
        local_degree[tau[v]] = dyn.local_degree[v]
    edge_map = [0] * n_e
    for e in range(n_e):
        edge_map[rho[e]] = rho[dyn.edge_map[e]]
    graph = type(g)(tuple(sigma), tuple(vertex_of), tuple(kinds))
    return GraphDynamics(
        graph=graph,
        vertex_map=tuple(vertex_map),
        edge_map=tuple(edge_map),
        dart_map=tuple(dart_map),
        local_degree=tuple(local_degree),
        channel_edges=frozenset(rho[e] for e in dyn.channel_edges),
        level=dyn.level,
    )


def mutate(dyn, kind, rng):
    """One random corruption; returns (mutated, site_tokens) or None when the
    draw does not yield a constructible embedded graph."""
    g = dyn.graph
    vm = dyn.vertex_map
    rots = rotations_of(g)
    endpoints = [(g.vertex_of[2 * e], g.vertex_of[2 * e + 1]) for e in range(g.n_edges)]
    if kind == "degree":
        v = rng.randrange(g.n_vertices)
        degree = list(dyn.local_degree)
        degree[v] += 1
        mutated = GraphDynamics(
            graph=g, vertex_map=vm, edge_map=dyn.edge_map, dart_map=dyn.dart_map,
            local_degree=tuple(degree), channel_edges=dyn.channel_edges,
            level=dyn.level)
        return mutated, {f"vertex {v}", f"root {v}", f"vertex {vm[v]}"}
    if kind == "swap":
        v = rng.randrange(g.n_vertices)
        r = rots[v]
        if len(r) < 3:
            return None
        i, j = rng.sample(range(len(r)), 2)
        r2 = [list(x) for x in rots]
        r2[v][i], r2[v][j] = r2[v][j], r2[v][i]
        try:
            graph = embedded_graph_from_rotations(endpoints, r2, list(g.vertex_kinds))
        except InvalidGraph:
            return None
        mutated = GraphDynamics(
            graph=graph, vertex_map=vm, edge_map=dyn.edge_map,
            dart_map=dyn.dart_map, local_degree=dyn.local_degree,
            channel_edges=dyn.channel_edges, level=dyn.level)
        site = {f"vertex {v}", f"root {v}", f"vertex {vm[v]}"}
        site |= {f"dart {d}" for d in r}
        return mutated, site
    # deletion: only edges that are not the image of any edge can vanish
    # without leaving a dangling edge_map entry
    images = set(dyn.edge_map)
    cands = [e for e in range(g.n_edges)
             if e not in images and e not in dyn.channel_edges]
    if not cands:
        return None
    e = rng.choice(cands)
    t, h = endpoints[e]

    def shift(d):
        return d - 2 if d >= 2 * e + 2 else d

    eps = [x for k, x in enumerate(endpoints) if k != e]
    r2 = [[shift(d) for d in r if d not in (2 * e, 2 * e + 1)] for r in rots]
    edge_map = [x - 1 if x > e else x
                for k, x in enumerate(dyn.edge_map) if k != e]
    dart_map = [shift(x) for k, x in enumerate(dyn.dart_map)
                if k not in (2 * e, 2 * e + 1)]
    channel = frozenset(x - 1 if x > e else x for x in dyn.channel_edges)
    try:
        graph = embedded_graph_from_rotations(eps, r2, list(g.vertex_kinds))
    except InvalidGraph:
        return None
    mutated = GraphDynamics(
        graph=graph, vertex_map=vm, edge_map=tuple(edge_map),
        dart_map=tuple(dart_map), local_degree=dyn.local_degree,
        channel_edges=channel, level=dyn.level)
    site = set()
    for x in (t, h, vm[t], vm[h]):
        site |= {f"vertex {x}", f"root {x}"}
    return mutated, site


def single_edge_graph(edge):
    return GeoGraph(
        vertices=(point(edge.points[0]), point(edge.points[-1])),
        edges=(GeoEdge(0, 1, edge.points, edge.angles),),
    )


def fiber_as_dict(fiber):
    return {p: m for p, m in fiber}


def nearest_root_index(f, point, tol):
    dists = [chordal_distance(point, r) for r in f.roots]
    idx = min(range(len(dists)), key=dists.__getitem__)
    assert dists[idx] < tol
    return idx


# --- the nine criteria -------------------------------------------------------


def test_a1_cubic_unity_pipeline():
    started = time.perf_counter()
    f = make_newton_map(Polynomial((-1, 0, 0, 1)))
    result = compute_newton_graph(f)
    elapsed = time.perf_counter() - started

    assert f.degree == 3
    assert len(f.roots) == 3
    # every root is superattracting with one fixed ray (local degree 2)
    for r in f.roots:
        assert f.marked_point(r).local_degree == 2

    base = extract_combinatorial(base_dynamic_graph(f))
    assert base.graph.n_edges == 3
    assert base.graph.n_vertices == 4
    assert base.graph.n_faces == 1

    # fiber over 1 from the exact factorization of 2z^3 - 3z^2 + 1
    fiber = fiber_as_dict(lift_point(f, 1 + 0j))
    assert len(fiber) == 2
    by_mult = {m: p for p, m in fiber.items()}
    assert chordal_distance(by_mult[2], 1 + 0j) < 1e-6
    assert chordal_distance(by_mult[1], -0.5 + 0j) < 1e-6

    # the double pole at 0 is a vertex one pullback later
    assert f.poles == ((0j, 2),)
    assert nearest_vertex(result.graphs[1].geo, 0j) is not None

    assert result.minimal_level == 2
    report = validate_newton_graph(result.dynamics)
    assert [c.name for c in report.checks] == CONDITIONS
    assert report.passed, [c.witness for c in report.checks if not c.passed]
    assert elapsed < 10.0


def test_a2_cubic_pm_pipeline():
    started = time.perf_counter()
    f = make_newton_map(Polynomial((0, -1, 0, 1)))
    result = compute_newton_graph(f)
    elapsed = time.perf_counter() - started

    assert f.marked_point(0j).local_degree == 3

    delta0 = channel_diagram(f)
    assert len(delta0.edges) == 4
    v0 = nearest_vertex(delta0, 0j)
    directions = sorted(e.angles[0] for e in delta0.edges if e.tail == v0)
    assert len(directions) == 2
    assert abs(directions[0] - math.pi / 2) < 1e-6
    assert abs(directions[1] - 3 * math.pi / 2) < 1e-6

    level1 = result.graphs[1].geo
    pole = 1 / math.sqrt(3)
    assert nearest_vertex(level1, pole + 0j) is not None
    assert nearest_vertex(level1, -pole + 0j) is not None

    assert result.minimal_level == 1
    report = validate_newton_graph(result.dynamics)
    assert [c.name for c in report.checks] == CONDITIONS
    assert report.passed, [c.witness for c in report.checks if not c.passed]
    assert elapsed < 10.0


def test_a3_degree_and_euler_bookkeeping(pool):
    assert len(pool) >= 4
    for name, f, result in pool:
        require_postcritically_fixed(critical_orbits(f))  # raises UnresolvedOrbit if not
        assert f.degree in (3, 4), name
        dyn = result.dynamics
        assert sum(k - 1 for k in dyn.local_degree) == 2 * f.degree - 2, name
        g = dyn.graph
        assert g.n_vertices - g.n_edges + g.n_faces == 2, name


def test_a4_face_counts_on_pool(pool):
    for name, f, result in pool:
        report = verify_face_counts(result, f)
        assert [c.name for c in report.checks] == FACE_CHECKS, name
        assert report.passed, (
            name, [c.witness for c in report.checks if not c.passed])


def test_a5_equivalence_suite(pool):
    rng = random.Random(40961)

    # witness against a randomly relabeled copy
    for name, _, result in pool:
        dyn = result.dynamics
        shuffled = relabel(dyn, rng)
        iso = graphs_equivalent(dyn, shuffled)
        assert iso is not None, name
        for v in range(dyn.graph.n_vertices):
            assert (shuffled.graph.vertex_kinds[iso.vertex_bijection[v]]
                    == dyn.graph.vertex_kinds[v])

    # mismatched (V, E) rejects in under a millisecond
    big = pool[0][2].dynamics
    small = pool[1][2].dynamics
    assert (big.graph.n_vertices, big.graph.n_edges) != (
        small.graph.n_vertices, small.graph.n_edges)
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        assert graphs_equivalent(big, small) is None
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 1e-3

    # reflexive, symmetric, transitive across the pool
    dyns = [result.dynamics for _, _, result in pool]
    n = len(dyns)
    table = {}
    for i in range(n):
        for j in range(n):
            table[i, j] = graphs_equivalent(dyns[i], dyns[j]) is not None
    for i in range(n):
        assert table[i, i]
        for j in range(n):
            assert table[i, j] == table[j, i]
            for k in range(n):
                if table[i, j] and table[j, k]:
                    assert table[i, k]
    # the conjugate pair is the one nontrivial equivalence
    assert table[1, 2]
    assert not table[0, 1]


def test_a6_validator_specificity(pool):
    rng = random.Random(2061983)
    for name, _, result in pool:
        dyn = result.dynamics
        assert validate_newton_graph(dyn).passed, name
        produced = 0
        attempts = 0
        while produced < 20:
            attempts += 1
            assert attempts < 5000, name
            drawn = mutate(dyn, rng.choice(("delete", "degree", "swap")), rng)
            if drawn is None:
                continue
            mutated, site = drawn
            report = validate_newton_graph(mutated)
            failed = [c for c in report.checks if not c.passed]
            assert failed, (name, site)
            witnesses = [c.witness or "" for c in failed]
            assert any(tok in w for w in witnesses for tok in site), (
                name, site, witnesses)
            produced += 1


def test_a7_transition_matrix_layer():
    # exact hand examples
    half = MulticurveSpec(1, (((0, 2),),))
    tm = transition_matrix(half)
    assert tm.entries == ((Fraction(1, 2),),)
    assert tm.leading == 0.5
    assert is_irreducible_obstruction(half) is False

    swap = MulticurveSpec(2, (((1, 1),), ((0, 1),)))
    tm = transition_matrix(swap)
    assert tm.entries == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert tm.leading == 1.0
    assert tm.irreducible is True
    assert is_irreducible_obstruction(swap) is True

    five_sixths = MulticurveSpec(1, (((0, 2), (0, 3)),))
    tm = transition_matrix(five_sixths)
    assert tm.entries == ((Fraction(5, 6),),)
    assert tm.leading == float(Fraction(5, 6))

    # random specs against exact characteristic polynomial coefficients;
    # dividing out the exact gcd with the derivative leaves only simple
    # roots, so np.roots stays well-conditioned even at repeated eigenvalues
    def poly_mod(a, b):
        r = list(a)
        while len(r) >= len(b) and any(r):
            if r[0] == 0:
                r.pop(0)
                continue
            q = r[0] / b[0]
            for i in range(len(b)):
                r[i] -= q * b[i]
            r.pop(0)
        while r and r[0] == 0:
            r.pop(0)
        return r

    def squarefree(coeffs):
        deriv = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
        a, b = list(coeffs), deriv
        while b:
            a, b = b, poly_mod(a, b)
        gcd = [c / a[0] for c in a]
        quo = []
        rem = list(coeffs)
        for _ in range(len(rem) - len(gcd) + 1):
            q = rem[0] / gcd[0]
            quo.append(q)
            for i in range(len(gcd)):
                rem[i] -= q * gcd[i]
            rem.pop(0)
        return quo

    def char_poly_radius(matrix):
        m = len(matrix)
        a = [[Fraction(x) for x in row] for row in matrix]

        def mat_mul(p, q):
            return [
                [sum(p[i][k] * q[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)
            ]

        coeffs = [Fraction(1)]
        work = [row[:] for row in a]
        for k in range(1, m + 1):
            ck = -sum(work[i][i] for i in range(m)) / k
            coeffs.append(ck)
            if k < m:
                for i in range(m):
                    work[i][i] += ck
                work = mat_mul(a, work)
        roots = np.roots([float(c) for c in squarefree(coeffs)])
        return float(max(abs(r) for r in roots)) if len(roots) else 0.0

    def bool_power_irreducible(matrix):
        m = len(matrix)
        support = [[matrix[i][j] > 0 for j in range(m)] for i in range(m)]
        acc = [row[:] for row in support]
        power = [row[:] for row in support]
        for _ in range(m - 1):
            power = [
                [any(power[i][k] and support[k][j] for k in range(m))
                 for j in range(m)]
                for i in range(m)
            ]
            acc = [[acc[i][j] or power[i][j] for j in range(m)] for i in range(m)]
        return all(all(row) for row in acc)

    rng = random.Random(31415926)
    for _ in range(100):
        m = rng.randint(1, 4)
        table = []
        for _ in range(m):
            row = []
            for _ in range(rng.randint(0, 3)):
                target = rng.choice([None] + list(range(m)))
                row.append((target, rng.randint(1, 3)))
            table.append(row)
        spec = MulticurveSpec(m, tuple(tuple(r) for r in table))
        tm = transition_matrix(spec)
        oracle = char_poly_radius(tm.entries)
        assert abs(tm.leading - oracle) < 1e-8, (table, tm.leading, oracle)
        assert tm.irreducible == bool_power_irreducible(tm.entries), table


def test_a8_channel_invariance_and_basins(pool):
    for name, f, _ in pool:
        delta0 = channel_diagram(f)
        for i, edge in enumerate(delta0.edges):
            samples = [p for p in edge.points
                       if np.isfinite(p) and abs(p) < 1e3]
            assert samples
            own = single_edge_graph(edge)
            worst = max(graph_distance(own, f.evaluate(p)) for p in samples)
            assert worst < 1e-4, (name, i, worst)

            owner = nearest_root_index(f, delta0.vertices[edge.tail], 1e-6)
            for p in samples:
                orbit = classify_point(f, p)
                assert orbit.root_index == owner, (name, i, p)


def test_a9_deterministic_graph_export(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"coeffs": [[-1, 0], [0, 0], [0, 0], [1, 0]]}))
    blobs = []
    for run in range(2):
        out = tmp_path / f"graph{run}.json"
        assert main(["graph", str(poly), "--out", str(out)]) == 0
        capsys.readouterr()
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert len(blobs[0]) > 1000
