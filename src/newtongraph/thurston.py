"""Transition matrices of curve-lifting data and their leading eigenvalues.

A multicurve spec records, for each curve class, how its preimage components
distribute over the classes and with what mapping degrees. The induced linear
map has matrix entry A[i][j] = sum of 1/degree over lifts of class j landing
in class i; lifts landing outside the system contribute nothing. The decision
of interest is whether the matrix is irreducible with leading eigenvalue >= 1.

Every answer is read off one integer matrix S = L A, where L is the lcm of the
degrees of the lifts that land in the system (1 if none do): S[i][j] sums
L // degree over those lifts. The rational entries (for display), the
floating-point leading eigenvalue (only reported) and the support come from S.

The verdict is decided exactly, and no float is compared with 1. The one
floating-point eigendecomposition that gives the leading eigenvalue also gives
the eigenvector of the eigenvalue of largest real part, which for a
non-negative matrix is the Perron root. Its moduli, converted exactly to
integers V over one power of two, are a certificate checked in integers in
O(m^2) for m classes. If every V_i > 0, then S V < L V in every row proves
rho(A) < 1, since rho(A) <= max_i (A V)_i / V_i, and S V >= L V in every row
proves rho(A) >= 1, since then A^k V >= V for every k. Only when the rows are
mixed, or some V_i is 0, does fraction-free elimination on the integer matrix
L (I - A) = L I - S decide, in O(m^3).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _is_int(x) -> bool:
    """An integer that is not a bool: JSON's 1.5, "2" and true are not."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class MulticurveSpec:
    """Lifting table: lifts[j] lists (target class or None, degree) for each
    preimage component of class j."""

    classes: int
    lifts: tuple[tuple[tuple[int | None, int], ...], ...]

    def __post_init__(self):
        if not _is_int(self.classes) or self.classes < 1:
            raise ValueError(f"need a positive integer class count, got {self.classes!r}")
        if len(self.lifts) != self.classes:
            raise ValueError("lift table length does not match class count")
        for j, row in enumerate(self.lifts):
            for target, degree in row:
                if not _is_int(degree) or degree < 1:
                    raise ValueError(
                        f"lift of class {j}: degree must be a positive integer"
                    )
                if target is not None and not (_is_int(target) and 0 <= target < self.classes):
                    raise ValueError(
                        f"lift of class {j}: target {target!r} is not an integer in range"
                    )


def multicurve_from_json(data) -> MulticurveSpec:
    """Parse {"classes": m, "lifts": {"j": [{"target": i|null, "degree": d}]}}.

    m, i and d are taken as given, and MulticurveSpec accepts only integers.
    The lift table is an object keyed by class, each entry a list of objects
    with exactly the keys target and degree. Classes with no entry have no
    lifts; unknown keys are rejected.
    """
    try:
        classes = data["classes"]
        table = data.get("lifts", {})
        indices = range(classes)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed multicurve spec: {exc}") from exc
    if not isinstance(table, dict):
        raise ValueError(f"lift table: need an object keyed by class, got a {type(table).__name__}")
    table = dict(table)
    rows = []
    for j in indices:
        entry = table.pop(str(j), [])
        if not isinstance(entry, list):
            raise ValueError(f"lifts of class {j}: need a list, got a {type(entry).__name__}")
        for item in entry:
            if not isinstance(item, dict) or item.keys() != {"target", "degree"}:
                raise ValueError(
                    f"lift of class {j}: need an object with keys target and degree, got {item!r}"
                )
        rows.append(tuple((item["target"], item["degree"]) for item in entry))
    if table:
        raise ValueError(f"lift table keys outside 0..{classes - 1}: {sorted(table)}")
    return MulticurveSpec(classes, tuple(rows))


def _validated(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("matrix must be square and non-empty")
    if not (np.isfinite(a).all() and (a >= 0).all()):
        raise ValueError("matrix entries must be finite and non-negative")
    return a


def _leading_eigenpair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Spectral radius of a validated matrix, and the moduli of the
    eigenvector of its eigenvalue of largest real part. For a non-negative
    matrix that eigenvalue is the Perron root, whose eigenvector is positive
    when the matrix is irreducible. A pick by modulus could take another
    eigenvalue on the same circle, which may round above the root."""
    values, vectors = np.linalg.eig(a)
    return float(np.abs(values).max()), np.abs(vectors[:, np.argmax(values.real)])


def leading_eigenvalue(matrix) -> float:
    """Spectral radius of a non-negative square matrix, in floating point."""
    return _leading_eigenpair(_validated(matrix))[0]


def _eliminated_below_one(scaled: list[list[int]], scale: int) -> bool:
    """rho(A) < 1 for A = scaled / scale, decided by elimination.

    I - A is a Z-matrix, so rho(A) < 1 exactly when I - A is a nonsingular
    M-matrix, which holds exactly when every leading principal minor of
    I - A is positive. Fraction-free (Bareiss) elimination on the integer
    matrix scale (I - A) leaves the k-th leading minor times scale^k as the
    k-th pivot.
    """
    b = [[-s for s in row] for row in scaled]
    for k, row in enumerate(b):
        row[k] += scale
    m, prev = len(b), 1
    for k in range(m):
        pivot = b[k][k]
        if pivot <= 0:
            return False
        below = b[k][k + 1:]
        for row in b[k + 1:]:
            lead = row[k]
            row[k + 1:] = [(x * pivot - lead * y) // prev
                           for x, y in zip(row[k + 1:], below)]
        prev = pivot
    return True


def _spectral_radius_below_one(scaled: list[list[int]], scale: int,
                               vector: np.ndarray) -> bool:
    """Exact test of rho(A) < 1 for the non-negative matrix A = scaled / scale,
    with integer entries scaled, a positive integer scale and a non-negative
    float vector, meant to approximate the Perron vector of A.

    The vector is converted exactly to integers V over one power of two, and
    row i of scaled V is compared with scale V_i in integers. If every
    V_i > 0, a strict drop in every row proves rho(A) < 1, by the
    Collatz-Wielandt bound rho(A) <= max_i (A V)_i / V_i, and no drop in any
    row proves rho(A) >= 1: A V >= V gives A^k V >= V, so the V-weighted
    max norm of every power A^k is at least 1. Otherwise, with mixed rows or
    some V_i = 0, elimination decides.
    """
    ratios = [x.as_integer_ratio() for x in vector.tolist()]
    denominator = max(d for _, d in ratios)
    v = [n * (denominator // d) for n, d in ratios]
    if min(v) > 0:
        drops = [sum(map(operator.mul, row, v)) < scale * x_i
                 for row, x_i in zip(scaled, v)]
        if all(drops):
            return True
        if not any(drops):
            return False
    return _eliminated_below_one(scaled, scale)


@dataclass(frozen=True)
class TransitionMatrix:
    entries: tuple[tuple[Fraction, ...], ...]
    entry_text: tuple[tuple[str, ...], ...]  # str of each entry, for display
    leading: float  # floating-point spectral radius, for display
    irreducible: bool
    # irreducible with leading eigenvalue at least 1, decided exactly
    obstruction: bool


def is_irreducible(matrix) -> bool:
    """True iff every class reaches every class through the support digraph
    in at least one step. A 1x1 matrix needs a self-loop."""
    support = _validated(matrix) > 0
    m = len(support)
    if m == 1:
        return bool(support[0, 0])
    rows, columns = np.nonzero(support)
    forward, backward = [[] for _ in range(m)], [[] for _ in range(m)]
    for i, j in zip(rows.tolist(), columns.tolist()):
        forward[i].append(j)
        backward[j].append(i)
    for adjacency in (forward, backward):
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != m:
            return False
    return True


def transition_matrix(spec: MulticurveSpec) -> TransitionMatrix:
    """Weighted preimage-count matrix of a lifting table, with its leading
    eigenvalue, irreducibility and obstruction verdicts."""
    m = spec.classes
    landed = [(target, j, degree) for j, row in enumerate(spec.lifts)
              for target, degree in row if target is not None]
    scale = math.lcm(*(degree for _, _, degree in landed))
    scaled = [[0] * m for _ in range(m)]
    for target, j, degree in landed:
        scaled[target][j] += scale // degree
    # int / int rounds the rational correctly, as float(Fraction) does
    values = np.zeros((m, m))
    for target, j, _ in landed:
        values[target, j] = scaled[target][j] / scale
    leading, vector = _leading_eigenpair(values)
    irreducible = is_irreducible(values)
    # one Fraction and one string per distinct entry, shared by every cell
    # that holds it: a cell is looked up by its integer, whose hash is cheap
    fractions = {s: Fraction(s, scale) for s in set(itertools.chain(*scaled))}
    texts = {s: str(x) for s, x in fractions.items()}
    return TransitionMatrix(
        entries=tuple(tuple(map(fractions.__getitem__, row)) for row in scaled),
        entry_text=tuple(tuple(map(texts.__getitem__, row)) for row in scaled),
        leading=leading,
        irreducible=irreducible,
        obstruction=irreducible and not _spectral_radius_below_one(scaled, scale, vector),
    )


def is_irreducible_obstruction(spec: MulticurveSpec) -> bool:
    """True iff the transition matrix is irreducible with leading eigenvalue
    at least 1, decided exactly."""
    return transition_matrix(spec).obstruction
