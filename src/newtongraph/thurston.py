"""Transition matrices of curve-lifting data and their leading eigenvalues.

A multicurve spec records, for each curve class, how its preimage components
distribute over the classes and with what mapping degrees. The induced linear
map has matrix entry A[i][j] = sum of 1/degree over lifts of class j landing
in class i; lifts landing outside the system contribute nothing. The decision
of interest is whether the matrix is irreducible with leading eigenvalue >= 1;
it is made exactly on the rational entries, while the floating-point leading
eigenvalue is only reported.
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


def _validated(matrix) -> list[list[float]]:
    rows = [list(map(float, row)) for row in matrix]
    m = len(rows)
    if m == 0 or any(len(r) != m for r in rows):
        raise ValueError("matrix must be square and non-empty")
    for r in rows:
        for x in r:
            if not math.isfinite(x) or x < 0:
                raise ValueError("matrix entries must be finite and non-negative")
    return rows


def leading_eigenvalue(matrix) -> float:
    """Spectral radius of a non-negative square matrix, in floating point."""
    rows = _validated(matrix)
    return float(np.abs(np.linalg.eigvals(np.array(rows))).max())


def _spectral_radius_below_one(entries) -> bool:
    """Exact test of rho(A) < 1 for a non-negative rational matrix A.

    I - A is a Z-matrix, so rho(A) < 1 exactly when I - A is a nonsingular
    M-matrix, which holds exactly when every leading principal minor of
    I - A is positive. Fraction-free (Bareiss) elimination on L (I - A), L
    the common denominator of the entries, leaves the k-th leading minor
    times L^k as the k-th pivot.
    """
    entries = [[Fraction(x) for x in row] for row in entries]
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    b = [
        [(scale if i == j else 0) - int(x * scale) for j, x in enumerate(row)]
        for i, row in enumerate(entries)
    ]
    m, prev = len(b), 1
    for k in range(m):
        pivot = b[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                b[i][j] = (b[i][j] * pivot - b[i][k] * b[k][j]) // prev
        prev = pivot
    return True


@dataclass(frozen=True)
class TransitionMatrix:
    entries: tuple[tuple[Fraction, ...], ...]
    leading: float  # floating-point spectral radius, for display
    irreducible: bool

    @property
    def obstruction(self) -> bool:
        """Irreducible with leading eigenvalue at least 1, decided exactly on
        the rational entries."""
        return self.irreducible and not _spectral_radius_below_one(self.entries)


def is_irreducible(matrix) -> bool:
    """True iff every class reaches every class through the support digraph
    in at least one step. A 1x1 matrix needs a self-loop."""
    rows = _validated(matrix)
    m = len(rows)
    if m == 1:
        return rows[0][0] > 0
    forward = [[j for j in range(m) if rows[i][j] > 0] for i in range(m)]
    backward = [[j for j in range(m) if rows[j][i] > 0] for i in range(m)]
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
    eigenvalue and irreducibility verdict."""
    m = spec.classes
    entries = [[Fraction(0)] * m for _ in range(m)]
    for j, row in enumerate(spec.lifts):
        for target, degree in row:
            if target is not None:
                entries[target][j] += Fraction(1, degree)
    frozen = tuple(tuple(row) for row in entries)
    return TransitionMatrix(
        entries=frozen,
        leading=leading_eigenvalue(frozen),
        irreducible=is_irreducible(frozen),
    )


def is_irreducible_obstruction(spec: MulticurveSpec) -> bool:
    """True iff the transition matrix is irreducible with leading eigenvalue
    at least 1, decided exactly."""
    return transition_matrix(spec).obstruction
