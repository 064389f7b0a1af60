"""Output checks. Each returns None when the output is right, else a reason.

The exact Thurston oracle, the Newton-iteration basin oracle, the fiber
residuals and the PPM histogram are the benchmark's own arithmetic; graph
exports are checked with the package's validator and equivalence search
against committed reference graphs.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np


def chordal(a: complex, b: complex) -> float:
    return 2 * abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


def newton_step(coeffs: list[complex], z: complex) -> complex:
    """z - p(z)/p'(z) by Horner, with coefficients lowest degree first."""
    p = dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return z - p / dp


# --- tower ------------------------------------------------------------------


def check_export(ng, export: dict, reference: dict | None) -> str | None:
    """All seven conditions pass, and the graph is equivalent to the
    reference with the same N and pole cover level."""
    graph = ng.graph_from_json(export["combinatorial"])
    report = ng.validate_newton_graph(graph)
    if not report.passed:
        return "validator: " + ", ".join(c.name for c in report.failures)
    if reference is None:
        return None
    for key in ("N", "pole_cover_level"):
        if export[key] != reference[key]:
            return f"{key} is {export[key]}, reference has {reference[key]}"
    if ng.graphs_equivalent(graph, reference["graph"]) is None:
        return "not equivalent to the reference graph"
    return None


# --- raster -----------------------------------------------------------------


def read_ppm(payload: bytes) -> np.ndarray:
    magic, dims, maxval, rest = payload.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError("not a binary 8-bit PPM")
    w, h = (int(x) for x in dims.split())
    if len(rest) != w * h * 3:
        raise ValueError("PPM size does not match its header")
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)


def check_raster(ng, f, report: dict, image: np.ndarray, samples) -> str | None:
    """Basin counts sum to the pixel count, the image's colour histogram is
    the basin counts, and sampled pixels agree with scalar classify_point:
    pixels of one basin share a colour and different basins differ."""
    h, w, _ = image.shape
    counts = report["basin_pixels"]
    if sum(counts) != w * h:
        return f"basin counts sum to {sum(counts)}, not {w * h} pixels"
    packed = (image[..., 0].astype(np.int64) << 16) | (image[..., 1].astype(np.int64) << 8) | image[..., 2]
    _, hist = np.unique(packed, return_counts=True)
    if sorted(hist.tolist()) != sorted(c for c in counts if c):
        return "image colours do not match the basin counts"
    colour_of: dict[int, tuple] = {}
    for (row, col), z in samples:
        result = ng.classify_point(f, z)
        if result.kind != "basin":
            return f"pixel {row},{col} classified {result.kind}"
        colour = tuple(image[row, col])
        if colour_of.setdefault(result.root_index, colour) != colour:
            return f"pixel {row},{col}: basin {result.root_index} drawn in two colours"
    if len(set(colour_of.values())) != len(colour_of):
        return "two basins drawn in one colour"
    return None


# --- query ------------------------------------------------------------------


def spectral_radius_below_one(spec: dict) -> bool:
    """Exact: rho(A) < 1 iff I - A is a nonsingular M-matrix iff every
    leading principal minor of I - A is positive. Fraction-free Bareiss
    elimination on L (I - A), L the common denominator, gives those minors
    (times powers of L) on the diagonal."""
    m = spec["classes"]
    a = [[Fraction(0)] * m for _ in range(m)]
    for j, row in spec["lifts"].items():
        for lift in row:
            if lift["target"] is not None:
                a[lift["target"]][int(j)] += Fraction(1, lift["degree"])
    scale = math.lcm(*(x.denominator for row in a for x in row))
    b = [[(scale if i == j else 0) - int(a[i][j] * scale) for j in range(m)] for i in range(m)]
    prev = 1
    for k in range(m):
        if b[k][k] <= 0:
            return False
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                b[i][j] = (b[i][j] * b[k][k] - b[i][k] * b[k][j]) // prev
        prev = b[k][k]
    return True


def irreducible(spec: dict) -> bool:
    """Strong connectivity of the support digraph; one class needs a loop."""
    m = spec["classes"]
    edges = {j: set() for j in range(m)}
    for j, row in spec["lifts"].items():
        for lift in row:
            if lift["target"] is not None:
                edges[int(j)].add(lift["target"])
    if m == 1:
        return 0 in edges[0]
    for graph in (edges, {j: {i for i in range(m) if j in edges[i]} for j in range(m)}):
        seen, todo = {0}, [0]
        while todo:
            for nxt in graph[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        if len(seen) != m:
            return False
    return True


def check_thurston(spec: dict, out: dict) -> str | None:
    expected = irreducible(spec) and not spectral_radius_below_one(spec)
    if out["obstruction"] != expected:
        return f"obstruction {out['obstruction']}, exact verdict {expected}"
    return None


def check_classify(coeffs: list[complex], roots, z: complex, result) -> str | None:
    """The basin found by plain Newton iteration from z."""
    w = z
    for _ in range(500):
        w = newton_step(coeffs, w)
        if not cmath.isfinite(w):
            break
        near = min(range(len(roots)), key=lambda i: abs(w - roots[i]))
        if abs(w - roots[near]) < 1e-12 * (1 + abs(w)):
            if result.kind != "basin" or result.root_index != near:
                return f"point {z}: {result.kind} {result.root_index}, Newton iteration reaches root {near}"
            return None
    return f"point {z}: Newton iteration did not settle"


def check_fiber(coeffs: list[complex], degree: int, w: complex, fiber) -> str | None:
    """Multiplicities add up to the degree and each point maps onto w."""
    if sum(m for _, m in fiber) != degree:
        return f"fiber over {w} has total multiplicity {sum(m for _, m in fiber)}"
    for point, _ in fiber:
        if point.is_infinity or chordal(newton_step(coeffs, point.value), w) > 1e-6:
            return f"fiber point {point} does not map onto {w}"
    return None
