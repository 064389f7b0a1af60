"""The combinatorial pullback (combinatorial.lift_level) and the top level
built with it.

The oracle: on each map, the lift of the traced level M + 1 equals the
traced level M + 2, through the closure from dart 0 to dart 0, which must
be the identity on level M + 1 and keep every dart's parity. Then the
switch: which maps take the combinatorial top level, the level cap, and the
top level's geometry traced on demand. Then the gates, on hand-built levels
that are not covers.
"""

import cmath
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from newtongraph import (
    InvalidGraph,
    LevelCapExceeded,
    Polynomial,
    compute_newton_graph,
    locate_face,
    make_newton_map,
    pullback,
)
from newtongraph.combinatorial import (
    KIND_INFINITY,
    KIND_POLE,
    KIND_ROOT,
    EmbeddedGraph,
    GraphDynamics,
    dart_closure,
    lift_level,
)
from newtongraph.pullback import extract_combinatorial, pullback_level

from test_pcf_cubics import LAMBDA_3, LAMBDA_4, LAMBDAS, cubic


def _perfbench_inputs():
    """perfbench/inputs.py, loaded by path: the benchmark's seeded tower maps."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unity(d):
    return [-1] + [0] * (d - 1) + [1]


def minus_z(d):
    return [0, -1] + [0] * (d - 2) + [1]


def newton(coeffs):
    return make_newton_map(Polynomial(tuple(complex(c) for c in coeffs)))


# (name, map, M, whether the top level is M + 2 and so combinatorial)
MAPS = [(f"z{d}-1", lambda d=d: newton(unity(d)), 0, True) for d in range(3, 8)]
MAPS += [(f"z{d}-z", lambda d=d: newton(minus_z(d)), 0, False) for d in range(3, 6)]
MAPS += [
    (f"seed7:{label}", lambda c=coeffs: newton(c), 0, not label.endswith("-z"))
    for label, _, coeffs in _perfbench_inputs().tower_inputs(7)[0]
]
CUBICS = [(lam, 1) for lam in LAMBDAS] + [(LAMBDA_3, 2), (LAMBDA_4, 3)]
MAPS += [(f"cubic{lam:.4g}", lambda lam=lam: cubic(lam), m, True) for lam, m in CUBICS]


def assert_lift_matches(f, below):
    """The oracle on one traced level M + 1 (below): its lift and the traced
    level above it match through the closure from dart 0 to dart 0."""
    lifted = lift_level(extract_combinatorial(below), below.edge_level)
    traced = extract_combinatorial(pullback_level(f, below))
    assert lifted.level == traced.level == below.level + 1
    assert lifted.graph.n_darts == traced.graph.n_darts
    assert lifted.graph.n_vertices == traced.graph.n_vertices
    match = dart_closure(traced, lifted, 0)
    assert match is not None
    kept = 2 * len(below.geo.edges)
    assert match[:kept] == list(range(kept))
    assert all(y % 2 == x % 2 for x, y in enumerate(match))
    return lifted


@pytest.mark.parametrize("name, build, m, combinatorial", MAPS, ids=[m[0] for m in MAPS])
def test_the_lift_of_level_m_plus_1_is_the_traced_level_m_plus_2(name, build, m, combinatorial):
    f = build()
    result = compute_newton_graph(f)
    traced = result.graphs.traced
    assert pullback._critical_value_level(list(traced)) == m
    # the switch: the top level is M + 2 exactly when it is combinatorial
    assert result.dynamics.level == m + 1 + combinatorial
    assert (len(result.graphs) > len(traced)) == combinatorial
    below = traced[-1]
    assert below.level == m + 1
    lifted = assert_lift_matches(f, below)
    if combinatorial:
        assert lifted == result.dynamics
        # the top traced on demand is the block, numbered as it is
        assert extract_combinatorial(result.graphs[-1]) == result.dynamics
        assert len(result.graphs.traced) == len(traced)


def test_the_level_cap_counts_the_combinatorial_level(monkeypatch):
    calls = []
    level = pullback.pullback_level

    def counted(*args):
        calls.append(args[1].level)
        return level(*args)

    monkeypatch.setattr(pullback, "pullback_level", counted)
    f = newton(unity(3))
    with pytest.raises(LevelCapExceeded) as err:
        compute_newton_graph(f, max_level=1)
    assert [dg.level for dg in err.value.partial] == [0, 1]
    assert calls == [0]
    result = compute_newton_graph(f, max_level=2)
    assert result.dynamics.level == 2 and len(result.graphs) == 3
    assert calls == [0, 0]
    result.graphs[-1]
    result.graphs[-1]
    assert calls == [0, 0, 1]


@pytest.mark.parametrize("d", [5, 6])
def test_locate_face_reads_the_top_traced_on_demand(d):
    # the query workload's call: the geometry of graphs[-1] with the block's
    # graph; every seeded point off the graph lies in the face that the
    # traced level's own rotation system gives it, carried to the block
    f = newton(unity(d))
    result = compute_newton_graph(f)
    top = result.graphs[-1]
    own = extract_combinatorial(top).graph
    assert own == result.embedded
    points = [cmath.rect(r, t) for r in (0.3, 0.9, 1.1, 4.0) for t in (0.1, 1.3, 2.9, 4.4)]
    faces = [locate_face(top.geo, result.embedded, z) for z in points]
    assert None not in faces
    assert len(set(faces)) > 1


def test_levels_below_the_top_are_read_without_tracing(monkeypatch):
    result = compute_newton_graph(newton(unity(3)))

    def refused(*args):
        raise AssertionError("the top level was traced")

    monkeypatch.setattr(pullback, "pullback_level", refused)
    assert [dg.level for dg in result.graphs[:-1]] == [0, 1]
    assert result.graphs[1] is result.graphs[-2] is result.graphs.traced[1]
    with pytest.raises(IndexError):
        result.graphs[3]
    with pytest.raises(IndexError):
        result.graphs[-4]
    with pytest.raises(AssertionError, match="traced"):
        result.graphs[2]


# --- the gates ----------------------------------------------------------------


def test_a_sheet_wrapping_its_face_twice_fails_sheet_corners():
    # level 1 over the one-edge diagram root 0 -> infinity 1: edge 1 from the
    # root to a pole 2 maps onto edge 0, so the one face of level 1 has four
    # corners over the two of the face of level 0
    graph = EmbeddedGraph(
        sigma=(2, 1, 0, 3), vertex_of=(0, 1, 0, 2),
        vertex_kinds=(KIND_ROOT, KIND_INFINITY, KIND_POLE),
    )
    dyn = GraphDynamics(graph, (0, 1, 1), (0, 0), (0, 1, 0, 1), (2, 1, 1), frozenset({0}), 1)
    with pytest.raises(InvalidGraph, match=(
        r"^sheet_corners failed at level 1, face 0: its 4 corners lie over 2 of the 2 "
        r"corners of face 0 of level 0$"
    )):
        lift_level(dyn, (0, 1))


def test_a_face_with_other_than_deg_f_sheets_fails_sheet_count():
    # z^3 - 1 at level 1 with one channel edge unmarked: its channel degree,
    # the degree lift_level expects, reads 2, but every face has 3 sheets
    below = compute_newton_graph(newton(unity(3))).graphs.traced[1]
    dyn = extract_combinatorial(below)
    dyn = dataclasses.replace(dyn, channel_edges=dyn.channel_edges - {0})
    with pytest.raises(InvalidGraph, match=(
        r"^sheet_count failed at level 1, face \d+: face \d+ of level 0 has 3 sheets, "
        r"expected 2$"
    )):
        lift_level(dyn, below.edge_level)
