"""The benchmark's combinatorics in the tier-1 suite: the seven maps of
perfbench/reference, as given, rotated and scaled, build graphs equivalent
to the reference graphs there, with the same N and pole cover level, and
z^7 - 1 builds a valid graph. Only the reference files are read from
perfbench; the maps are rebuilt from their names."""

import cmath
import json
from pathlib import Path

import pytest

from newtongraph import (
    Polynomial,
    compute_newton_graph,
    graph_from_json,
    graphs_equivalent,
    make_newton_map,
    validate_newton_graph,
)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
NAMES = ("z3-1", "z3-z", "z4-1", "z4-z", "z5-1", "z5-z", "z6-1")


def coefficients(name):
    """z^d - 1 or z^d - z from a name like "z5-1", lowest degree first."""
    d, tail = int(name[1]), name[3:]
    low = [-1] + [0] * (d - 1) if tail == "1" else [0, -1] + [0] * (d - 2)
    return low + [1]


def conjugated(coeffs, a):
    """The coefficients of p(z/a) a^d."""
    d = len(coeffs) - 1
    return [c * a ** (d - k) for k, c in enumerate(coeffs)]


def built(coeffs):
    return compute_newton_graph(make_newton_map(Polynomial(coeffs)))


CASES = [(name, 1) for name in NAMES] + [(name, cmath.exp(0.7j)) for name in NAMES]
CASES += [(name, 2 * cmath.exp(0.7j)) for name in ("z3-1", "z4-1", "z5-1", "z6-1")]


@pytest.mark.parametrize("name, a", CASES, ids=[f"{n}@{a:.3g}" for n, a in CASES])
def test_a_reference_map_builds_the_reference_graph(name, a):
    reference = json.loads((REFERENCE / f"{name}.json").read_text())
    assert reference["map"] == name
    result = built(conjugated(coefficients(name), a))
    assert result.minimal_level == reference["N"]
    assert result.pole_cover_level == reference["pole_cover_level"]
    assert graphs_equivalent(result.dynamics, graph_from_json(reference["combinatorial"])) is not None


def test_z7_minus_1_builds_a_valid_graph():
    assert validate_newton_graph(built(coefficients("z7-1")).dynamics).passed
