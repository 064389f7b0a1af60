"""Seeded input generation.

Everything a workload feeds the program is made here from one integer seed:
affine conjugates of the corpus polynomials, raster zoom windows, relabelled
and mutated graph files, multicurve specs and query points. The program only
ever sees the generated files and points.
"""

from __future__ import annotations

import cmath
import json
import math
import random

import numpy as np


# corpus maps, coefficients lowest degree first
def unity(d: int) -> list[complex]:
    """z^d - 1."""
    return [-1] + [0] * (d - 1) + [1]


def minus_z(d: int) -> list[complex]:
    """z^d - z."""
    return [0, -1] + [0] * (d - 2) + [1]


def conjugate(coeffs: list[complex], a: complex) -> list[complex]:
    """Coefficients of p(z/a) * a^d: the roots of p scaled by a, so the Newton
    map is conjugated by z -> a z and its graph is equivalent to p's."""
    d = len(coeffs) - 1
    return [complex(c) * a ** (d - k) for k, c in enumerate(coeffs)]


def poly_json(coeffs: list[complex]) -> dict:
    return {"coeffs": [[complex(c).real, complex(c).imag] for c in coeffs]}


# --- tower ------------------------------------------------------------------

# The timed corpus, in pass order: (name, family, degree).
TOWER_CORPUS = (
    ("z3-1", unity, 3),
    ("z3-z", minus_z, 3),
    ("z4-1", unity, 4),
    ("z4-z", minus_z, 4),
    ("z5-1", unity, 5),
    ("z5-z", minus_z, 5),
    ("z6-1", unity, 6),
)
SMALL_MAPS = ("z3-1", "z3-z", "z4-1", "z4-z")
# Runs per pass of the maps whose command takes well under a second.
TOWER_REPEATS = {"z3-1": 4, "z3-z": 4, "z4-z": 2}
# Scale band of the timed conjugates, and the larger scale attempted untimed.
TIMED_SCALE = (0.9, 1.0)
LARGE_SCALE = 2.0
LARGE_SCALE_MAPS = ("z3-1", "z4-1", "z5-1", "z6-1")


def tower_inputs(seed: int, corpus=TOWER_CORPUS, large=LARGE_SCALE_MAPS):
    """(timed, untimed) lists of (label, reference name, coefficients).

    Timed maps are conjugated by a with a uniform argument and |a| log-uniform
    in TIMED_SCALE. The untimed list holds z^7 - 1 as given and the z^d - 1
    maps conjugated at |a| = LARGE_SCALE, the top of the scale range the
    pipeline should handle; they are attempted and checked every pass but
    kept out of the timings.
    """
    rng = random.Random(f"tower:{seed}")
    lo, hi = (math.log(s) for s in TIMED_SCALE)
    timed = []
    for name, family, d in corpus:
        a = cmath.rect(math.exp(rng.uniform(lo, hi)), rng.uniform(0, 2 * math.pi))
        timed.append((name, name, conjugate(family(d), a)))
    untimed = [("z7-1", None, unity(7))]
    for name, family, d in corpus:
        if name in large:
            a = cmath.rect(LARGE_SCALE, rng.uniform(0, 2 * math.pi))
            untimed.append((f"{name}@{LARGE_SCALE:g}", name, conjugate(family(d), a)))
    return timed, untimed


# --- raster -----------------------------------------------------------------

RASTER_MAPS = (("z3-1", unity, 3), ("z4-z", minus_z, 4), ("z5-1", unity, 5), ("z6-z", minus_z, 6))
RASTER_SIZE = 512
ZOOM_HALF_WIDTH = (0.06, 0.08)
PIXEL_SAMPLES = 24


def newton_poles(coeffs: list[complex]) -> list[complex]:
    """Zeros of p' that are not zeros of p, by numpy (independent of the
    program's root solver)."""
    d = len(coeffs) - 1
    deriv = [k * complex(coeffs[k]) for k in range(1, d + 1)]
    crit = np.roots(deriv[::-1])
    roots = np.roots([complex(c) for c in coeffs[::-1]])
    return [complex(q) for q in crit if np.min(np.abs(roots - q)) > 1e-6]


def raster_inputs(seed: int, maps=RASTER_MAPS, size: int = RASTER_SIZE):
    """List of (label, coefficients, center, half_width, sample pixels).

    Each map is rendered in the full window and in a zoom onto a seeded pole
    neighbourhood; the zoom depth is kept in a narrow band because the orbit
    steps per pixel, and so the cost, grow with it.
    """
    rng = random.Random(f"raster:{seed}")
    lo, hi = (math.log(s) for s in ZOOM_HALF_WIDTH)
    out = []
    for name, family, d in maps:
        coeffs = family(d)
        windows = [("full", 0j, 2.0)]
        poles = newton_poles(coeffs)
        q = poles[rng.randrange(len(poles))]
        hw = math.exp(rng.uniform(lo, hi))
        center = q + cmath.rect(0.25 * hw * rng.random(), rng.uniform(0, 2 * math.pi))
        windows.append(("zoom", center, hw))
        for kind, center, hw in windows:
            pixels = [(rng.randrange(size), rng.randrange(size)) for _ in range(PIXEL_SAMPLES)]
            out.append((f"{name}/{kind}", coeffs, center, hw, pixels))
    return out


def pixel_center(center: complex, half_width: float, size: int, row: int, col: int) -> complex:
    """Cell center of a square raster; row 0 is the top."""
    x = center.real + half_width * ((col + 0.5) / size * 2 - 1)
    y = center.imag + half_width * (1 - (row + 0.5) / size * 2)
    return complex(x, y)


# --- query: graph files -----------------------------------------------------


def relabel(data: dict, rng: random.Random) -> dict:
    """A copy of a combinatorial graph file under random vertex, dart and edge
    labels, edge order, edge orientation and sigma-cycle starting points."""
    n = len(data["darts"])
    pairs = [tuple(p) for p in data["alpha"]]
    vertices = sorted(int(v) for v in data["sigma"])
    vlabel = dict(zip(vertices, rng.sample(range(len(vertices)), len(vertices))))
    dlabel = dict(zip(range(n), rng.sample(range(n), n)))
    order = rng.sample(range(len(pairs)), len(pairs))  # new position -> old edge
    epos = {old: new for new, old in enumerate(order)}
    alpha = []
    for old in order:
        a, b = pairs[old]
        if rng.random() < 0.5:
            a, b = b, a
        alpha.append([dlabel[a], dlabel[b]])
    sigma = {}
    for v, cycle in data["sigma"].items():
        k = rng.randrange(len(cycle))
        sigma[str(vlabel[int(v)])] = [dlabel[d] for d in cycle[k:] + cycle[:k]]
    out = {
        "darts": sorted(dlabel.values()),
        "alpha": alpha,
        "sigma": sigma,
        "vertex_kinds": {str(vlabel[int(v)]): k for v, k in data["vertex_kinds"].items()},
    }
    dyn = data["dynamics"]
    out["dynamics"] = {
        "vertex_map": {str(vlabel[int(v)]): vlabel[int(w)] for v, w in dyn["vertex_map"].items()},
        "edge_map": {str(epos[int(e)]): epos[int(i)] for e, i in dyn["edge_map"].items()},
        "dart_map": {str(dlabel[int(d)]): dlabel[int(i)] for d, i in dyn["dart_map"].items()},
        "local_degree": {str(vlabel[int(v)]): m for v, m in dyn["local_degree"].items()},
        "delta_edges": sorted(epos[int(e)] for e in dyn["delta_edges"]),
        "N": dyn["N"],
    }
    return out


class Combinatorics:
    """The benchmark's own reading of a combinatorial graph file with darts
    2j, 2j+1 on edge j, as graph_to_json writes them; used by the mutant
    generator and its certificate."""

    def __init__(self, data: dict):
        self.vertex_of = {}
        for v, cycle in data["sigma"].items():
            for d in cycle:
                self.vertex_of[d] = int(v)
        self.star = {int(v): list(c) for v, c in data["sigma"].items()}
        dyn = data["dynamics"]
        self.vertex_map = {int(v): w for v, w in dyn["vertex_map"].items()}
        self.edge_map = {int(e): i for e, i in dyn["edge_map"].items()}
        self.dart_map = {int(d): i for d, i in dyn["dart_map"].items()}
        self.local_degree = {int(v): m for v, m in dyn["local_degree"].items()}
        self.level = dyn["N"]
        depth = {e: 0 for e in dyn["delta_edges"]}
        for _ in range(len(self.edge_map)):
            grown = {e: depth[i] + 1 for e, i in self.edge_map.items()
                     if e not in depth and i in depth}
            if not grown:
                break
            depth.update(grown)
        self.depth = depth

    def saturation_profile(self) -> list[tuple]:
        """Per vertex, the preimage-dart counts on each liftable dart of its
        image star, sorted; an invariant of orientation-preserving conjugacy.
        A valid Newton graph has every count equal to the local degree."""
        profile = []
        for v, star in self.star.items():
            hits = {}
            for x in star:
                hits[self.dart_map[x]] = hits.get(self.dart_map[x], 0) + 1
            counts = sorted(
                hits.get(t, 0) for t in self.star[self.vertex_map[v]]
                if self.depth.get(t >> 1, self.level) <= self.level - 1
            )
            profile.append((self.local_degree[v], tuple(counts)))
        return sorted(profile)

    def saturated(self) -> bool:
        return all(all(c == m for c in counts) for m, counts in self.saturation_profile())


def mutant(data: dict, rng: random.Random) -> dict:
    """Swap the images of two top-level edges.

    The graphs of the corpus have no parallel edges, so no two image edges
    share both endpoints. Instead the two edges each end in a leaf, hang off
    different vertices, and have images that meet at the image of their
    non-leaf ends, on the same side; the leaves' images move along with the
    swap. Every cheap invariant that graphs_equivalent tests first survives,
    so its anchor search runs over every dart, while the star-saturation
    profile changes, which certifies that the mutant is not equivalent to the
    original.
    """
    g = Combinatorics(data)
    by_shared: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for e, k in sorted(g.depth.items()):
        if k != g.level:
            continue
        for end in (0, 1):
            leaf, hub = 2 * e + (1 - end), 2 * e + end
            if len(g.star[g.vertex_of[leaf]]) == 1 and g.local_degree[g.vertex_of[leaf]] == 1:
                shared = g.dart_map[hub]
                by_shared.setdefault((g.vertex_of[shared], end), []).append((e, end))
    candidates = [
        (x, y)
        for group in by_shared.values()
        for i, x in enumerate(group)
        for y in group[i + 1:]
        if g.edge_map[x[0]] != g.edge_map[y[0]]
        and g.vertex_of[2 * x[0] + x[1]] != g.vertex_of[2 * y[0] + y[1]]
    ]
    rng.shuffle(candidates)
    original = g.saturation_profile()
    for (e1, end), (e2, _) in candidates:
        out = json.loads(json.dumps(data))
        dyn = out["dynamics"]
        dyn["edge_map"][str(e1)], dyn["edge_map"][str(e2)] = g.edge_map[e2], g.edge_map[e1]
        for side in (0, 1):
            d1, d2 = str(2 * e1 + side), str(2 * e2 + side)
            dyn["dart_map"][d1], dyn["dart_map"][d2] = dyn["dart_map"][d2], dyn["dart_map"][d1]
        leaf1, leaf2 = g.vertex_of[2 * e1 + 1 - end], g.vertex_of[2 * e2 + 1 - end]
        vmap = dyn["vertex_map"]
        vmap[str(leaf1)], vmap[str(leaf2)] = vmap[str(leaf2)], vmap[str(leaf1)]
        if Combinatorics(out).saturation_profile() != original:
            return out
    raise ValueError("graph has no pair of top-level edges to swap")


# --- query: specs and points ------------------------------------------------

# The 1x1 spec whose entry 1/2 + 1/3 + 1/7 + 1/43 + 1/1807 + 1/3263443 =
# 1 - 1/10650056950806 lies below 1 by less than the float verdict's slack.
SYLVESTER_SPEC = {
    "classes": 1,
    "lifts": {"0": [{"target": 0, "degree": k} for k in (2, 3, 7, 43, 1807, 3263443)]},
}
SPEC_SIZES = (10, 20, 30, 40, 50)


def thurston_spec(classes: int, rng: random.Random) -> dict:
    """Random lifting table: each class lifts onto the next one, onto itself
    and onto one random class or none. Irreducible and aperiodic, so the cost
    of its eigenvalue depends mainly on the class count."""
    lifts = {}
    for j in range(classes):
        other = None if rng.random() < 0.1 else rng.randrange(classes)
        lifts[str(j)] = [{"target": (j + 1) % classes, "degree": rng.randint(1, 5)},
                         {"target": j, "degree": rng.randint(2, 8)},
                         {"target": other, "degree": rng.randint(1, 6)}]
    return {"classes": classes, "lifts": lifts}


def query_specs(seed: int, sizes=SPEC_SIZES, per_size: int = 2) -> list[tuple[str, dict]]:
    """per_size specs of each class count, plus the 1x1 false-positive spec."""
    rng = random.Random(f"specs:{seed}")
    specs = []
    for m in sizes:
        for k in range(per_size):
            specs.append((f"spec{m}-{k}", thurston_spec(m, rng)))
    specs.append(("sylvester1x1", SYLVESTER_SPEC))
    return specs


def query_points(seed: int, name: str, count: int, radius: float = 1.5) -> list[complex]:
    """Uniform points in the disk |z| <= radius."""
    rng = random.Random(f"points:{seed}:{name}")
    return [
        cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        for _ in range(count)
    ]
