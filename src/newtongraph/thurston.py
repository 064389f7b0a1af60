"""Transition matrices of curve-lifting data and their leading eigenvalues.

A multicurve spec records, for each curve class, how its preimage components
distribute over the classes and with what mapping degrees. The induced linear
map has matrix entry A[i][j] = sum of 1/degree over lifts of class j landing
in class i; lifts landing outside the system contribute nothing. The decision
of interest is whether the matrix is irreducible with leading eigenvalue >= 1.

Every answer is read off one integer matrix S = L A, where L is the lcm of the
degrees of the lifts that land in the system (1 if none do): S[i][j] sums
L // degree over those lifts. The verdict is decided exactly, by fraction-free
elimination on the integer matrix L (I - A) = L I - S; the rational entries
(for display), the floating-point leading eigenvalue (only reported) and the
support come from S as well.
"""

from __future__ import annotations

import math
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
    Classes with no entry have no lifts; unknown keys are rejected.
    """
    try:
        classes = data["classes"]
        raw = dict(data.get("lifts", {}))
        rows = tuple(tuple((item["target"], item["degree"]) for item in raw.pop(str(j), []))
                     for j in range(classes))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed multicurve spec: {exc}") from exc
    if raw:
        raise ValueError(f"lift table keys outside 0..{classes - 1}: {sorted(raw)}")
    return MulticurveSpec(classes, rows)


def _validated(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("matrix must be square and non-empty")
    if not (np.isfinite(a).all() and (a >= 0).all()):
        raise ValueError("matrix entries must be finite and non-negative")
    return a


def leading_eigenvalue(matrix) -> float:
    """Spectral radius of a non-negative square matrix, in floating point."""
    return float(np.abs(np.linalg.eigvals(_validated(matrix))).max())


def _spectral_radius_below_one(scaled: list[list[int]], scale: int) -> bool:
    """Exact test of rho(A) < 1 for the non-negative matrix A = scaled / scale,
    with integer entries scaled and a positive integer scale.

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


@dataclass(frozen=True)
class TransitionMatrix:
    entries: tuple[tuple[Fraction, ...], ...]
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
    forward = [np.flatnonzero(row).tolist() for row in support]
    backward = [np.flatnonzero(column).tolist() for column in support.T]
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
    leading = leading_eigenvalue(values)
    irreducible = is_irreducible(values)
    zero = Fraction(0)
    return TransitionMatrix(
        entries=tuple(tuple(Fraction(s, scale) if s else zero for s in row)
                      for row in scaled),
        leading=leading,
        irreducible=irreducible,
        obstruction=irreducible and not _spectral_radius_below_one(scaled, scale),
    )


def is_irreducible_obstruction(spec: MulticurveSpec) -> bool:
    """True iff the transition matrix is irreducible with leading eigenvalue
    at least 1, decided exactly."""
    return transition_matrix(spec).obstruction
