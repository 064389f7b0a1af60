"""The paper's class: postcritically finite cubic Newton maps whose free
critical point is a vertex of the graph. The family is p_λ = z³ + (λ−1)z − λ
= (z − 1)(z² + z + λ), with free critical point 0 (Tan Lei, Fund. Math.
1997). Two orbits land:
- root-landing, k = 2: N²(0) is a root, at λ ∈ {1/3, i√3, −i√3};
- pole-landing, j = 1: N(0) is a pole, at the roots of λ³ + 3λ − 1;
- deeper root-landing, k = 3 and 4, at one real λ each and its conjugates.

In both, 0 is a double preimage of a vertex that is not itself marked: its
critical value, a preimage of a root, or a pole. The classes come from an
oracle that builds no graph: z ↦ z/a moves the root a of z² + z + λ to 1 and
sends λ to λ/a³, so λ and λ′ give equivalent graphs exactly when λ′ is λ,
λ/a³ or λ/b³, with a and b the roots of z² + z + λ.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from newtongraph import (
    Polynomial,
    compute_newton_graph,
    graphs_equivalent,
    make_newton_map,
    validate_newton_graph,
)
from newtongraph.combinatorial import graph_to_json
from newtongraph.pullback import verify_face_counts

from conftest import pullback_defects

ROOT_LANDING = [1 / 3, 1j * math.sqrt(3), -1j * math.sqrt(3)]
POLE_LANDING = [complex(lam) for lam in np.roots([1, 0, 3, -1])]
LAMBDAS = ROOT_LANDING + POLE_LANDING
# N^3(0) is a root at LAMBDA_3, N^4(0) at LAMBDA_4
LAMBDA_3 = 0.26560637591791053
LAMBDA_4 = 0.253565071120999


def cubic(lam):
    return make_newton_map(Polynomial((-lam, lam - 1, 0, 1)))


def same_class(lam, other):
    """The oracle: other is lam, lam/a^3 or lam/b^3."""
    a, b = np.roots([1, 1, lam])
    return any(abs(other - x) <= 1e-9 * (1 + abs(x)) for x in (lam, lam / a**3, lam / b**3))


@pytest.fixture(scope="module")
def built():
    out = []
    for lam in LAMBDAS:
        f = cubic(lam)
        out.append((f, compute_newton_graph(f)))
    return out


def test_the_orbit_of_zero_lands():
    for lam in ROOT_LANDING:
        f = cubic(lam)
        image = f.evaluate(f.evaluate(0j))
        assert min(abs(image - r) for r in f.roots) < 1e-12
    for lam in POLE_LANDING:
        f = cubic(lam)
        assert min(abs(f.evaluate(0j) - q) for q, _ in f.poles) < 1e-12


@pytest.mark.parametrize("index", range(len(LAMBDAS)))
def test_builds_and_validates(built, index):
    f, result = built[index]
    assert validate_newton_graph(result.dynamics).passed
    assert verify_face_counts(result, f).passed
    # the free critical point is a vertex of local degree 2
    [zero] = [m for m in result.graphs[-1].marks if m.value == 0]
    assert zero.local_degree == 2


def test_two_classes_as_the_oracle_predicts(built):
    expected = [[same_class(a, b) for b in LAMBDAS] for a in LAMBDAS]
    # each triple is one class, and the two triples differ
    assert expected == [[(i < 3) == (j < 3) for j in range(6)] for i in range(6)]
    found = [[bool(graphs_equivalent(r.dynamics, s.dynamics)) for _, s in built]
             for _, r in built]
    assert found == expected


def conjugates(lam):
    """lam and the two parameters the oracle puts in its class."""
    a, b = np.roots([1, 1, lam])
    return [complex(lam), lam / a**3, lam / b**3]


DEEPER = conjugates(LAMBDA_3) + conjugates(LAMBDA_4)


@pytest.fixture(scope="module")
def built_deeper():
    out = []
    for lam in DEEPER:
        f = cubic(lam)
        out.append((f, compute_newton_graph(f)))
    return out


def test_the_deeper_orbits_land_at_three_and_four_steps():
    for i, lam in enumerate(DEEPER):
        f, k = cubic(lam), 3 if i < 3 else 4
        orbit = [0j]
        for _ in range(k):
            orbit.append(f.evaluate(orbit[-1]))
        distance = [min(abs(x - r) for r in f.roots) for x in orbit]
        assert distance[k] < 1e-9 < distance[k - 1], (lam, distance)


@pytest.mark.parametrize("index", range(len(DEEPER)))
def test_deeper_landings_build_and_validate(built_deeper, index):
    f, result = built_deeper[index]
    assert validate_newton_graph(result.dynamics).passed
    assert verify_face_counts(result, f).passed


def test_deeper_landings_fall_into_two_classes(built_deeper):
    expected = [[same_class(a, b) for b in DEEPER] for a in DEEPER]
    assert expected == [[(i < 3) == (j < 3) for j in range(6)] for i in range(6)]
    found = [[bool(graphs_equivalent(r.dynamics, s.dynamics)) for _, s in built_deeper]
             for _, r in built_deeper]
    assert found == expected


def test_the_rotation_system_at_lambda_3_is_pinned(built_deeper):
    # the numbering, not only the class: at the real root 1 a level-1 edge
    # leaves along the negative real axis, and the sign of its first chord's
    # zero imaginary part (a rounding residue) decides whether the two
    # lifts from the root at level 2 are taken in the order pi/2, 3pi/2 or
    # 3pi/2, pi/2; a change to the rays' samples may renumber them
    _, result = built_deeper[0]
    block = json.dumps(graph_to_json(result.dynamics), sort_keys=True)
    assert hashlib.sha256(block.encode()).hexdigest() == (
        "1af877164857c20a84944f063f757bf1dce3d9389f96980bb0c7cbd3cf36d7cc"
    )


@pytest.mark.parametrize("maps", ["built", "built_deeper"])
def test_every_star_is_the_pullback_of_its_image(request, maps):
    # the critical heads are the free critical point 0 where N(0) is a pole;
    # where it lands on a root, 0 is a tail
    defects, residuals = [], []
    for _, result in request.getfixturevalue(maps):
        d, r = pullback_defects(result.graphs[-1])
        defects += d
        residuals += r
    assert max(defects) < 1e-9
    assert bool(residuals) == (maps == "built")
    assert max(residuals, default=0.0) < 0.01
