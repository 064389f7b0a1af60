"""Orbit classification, basin rasters, and critical-orbit certification.

Basin membership is asymptotic (enter a small disk around a root and stay for
five more iterates). Critical-orbit landings are the opposite: they must be
exact hits, so a root landing is only recorded when the orbit jumps onto the
root from a genuine distance — a superattracting approach that merely shrinks
past every tolerance is left unresolved and the map reported not
postcritically fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnresolvedOrbit
from .poly import NewtonMap
from .sphere import INF, SpherePoint

STAY_ITERATES = 5
# steps and candidate steps are int16 and reach max_iter + STAY_ITERATES
MAX_RASTER_ITER = int(np.iinfo(np.int16).max) - STAY_ITERATES


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of classify_point: basin index, fixed infinity, or unresolved."""

    kind: str  # "basin" | "fixed_infinity" | "unresolved"
    root_index: int | None = None
    entry_step: int | None = None
    hit_prepole: bool = False
    trace: tuple[SpherePoint, ...] | None = None


def _snap_pole(f: NewtonMap, z: complex) -> bool:
    for q, _ in f.poles:
        if abs(z - q) <= f.tol.pole_snap * (1 + abs(q)):
            return True
    return False


def classify_point(
    f: NewtonMap,
    z: SpherePoint | complex,
    max_iter: int = 256,
    keep_trace: bool = False,
) -> OrbitResult:
    """Classify the forward orbit of z: which root's basin it belongs to.

    Orbits hitting a pole (exactly, or within the snap distance) are routed
    through infinity and reported unresolved with the prepole flag — infinity
    repels, so no open set converges there.
    """
    tol = f.tol
    pt = z if isinstance(z, SpherePoint) else SpherePoint.of(z)
    trace = [pt] if keep_trace else None
    if pt.is_infinity:
        return OrbitResult(
            "fixed_infinity", entry_step=0, trace=tuple(trace) if trace else None
        )

    cand_root = -1
    cand_step = -1
    stay = 0
    cur = pt
    for s in range(max_iter + STAY_ITERATES + 1):
        if cur.is_infinity:
            return OrbitResult(
                "unresolved", hit_prepole=True, trace=tuple(trace) if trace else None
            )
        zv = cur.value
        if _snap_pole(f, zv):
            if trace is not None:
                trace.append(INF)
            return OrbitResult(
                "unresolved", hit_prepole=True, trace=tuple(trace) if trace else None
            )
        idx, dist = f.nearest_root(zv)
        near = dist <= tol.basin_tol
        if cand_root >= 0:
            if near and idx == cand_root:
                stay += 1
                if stay >= STAY_ITERATES:
                    return OrbitResult(
                        "basin",
                        root_index=cand_root,
                        entry_step=cand_step,
                        trace=tuple(trace) if trace else None,
                    )
            else:
                cand_root, cand_step, stay = -1, -1, 0
        if cand_root < 0 and near:
            cand_root, cand_step, stay = idx, s, 0
        cur = f.evaluate(zv)
        if trace is not None:
            trace.append(cur)
    return OrbitResult("unresolved", trace=tuple(trace) if trace else None)


# --- rasters ----------------------------------------------------------------

_PALETTE = (
    (230, 57, 70),
    (69, 123, 157),
    (42, 157, 143),
    (233, 196, 106),
    (155, 93, 229),
    (244, 162, 97),
    (38, 70, 83),
    (144, 190, 109),
    (231, 111, 81),
    (0, 121, 140),
    (188, 108, 37),
    (94, 84, 142),
)


@dataclass(frozen=True)
class RasterSpec:
    width: int
    height: int
    center: complex = 0j
    half_width: float = 2.0

    @property
    def half_height(self) -> float:
        return self.half_width * self.height / self.width

    def grid(self) -> np.ndarray:
        """Cell-center sample grid; row 0 is the top (largest imaginary part)."""
        xs = self.center.real + self.half_width * (
            (np.arange(self.width) + 0.5) / self.width * 2 - 1
        )
        ys = self.center.imag + self.half_height * (
            1 - (np.arange(self.height) + 0.5) / self.height * 2
        )
        return xs[None, :] + 1j * ys[:, None]


@dataclass(frozen=True)
class Raster:
    spec: RasterSpec
    basin_id: np.ndarray  # int16, -1 for unresolved
    steps: np.ndarray  # int16, basin entry step, -1 for unresolved

    def to_ppm(self) -> bytes:
        """Binary P6 image; palette indexed by root order, black unresolved."""
        h, w = self.basin_id.shape
        colors = np.array(_PALETTE + ((0, 0, 0),), dtype=np.uint8)
        ids = self.basin_id
        rgb = colors[np.where(ids < 0, len(_PALETTE), ids % len(_PALETTE))]
        header = f"P6\n{w} {h}\n255\n".encode()
        return header + rgb.tobytes()


def render_basins(f: NewtonMap, spec: RasterSpec, max_iter: int = 256) -> Raster:
    """Classify every cell center; deterministic for fixed inputs.

    A pixel's basin and entry step are those classify_point gives its cell
    center, computed from its own orbit by elementwise array arithmetic. Up
    to last-bit rounding the order in which pixels retire cannot change the
    image: numpy may round a one-element array's complex products like
    Python scalars and longer arrays otherwise, so the last pixel left in
    the working set can be evaluated with different rounding. The loop keeps
    one entry per still-active pixel (pixel index, z, candidate root and the
    step the candidate was entered); a pixel that dies (non-finite, or within
    pole snap) or finishes is written once and dropped from that working set.
    A lane so far out that the chordal denominator overflows is near no
    root, as on the sphere.
    """
    if not 0 <= max_iter <= MAX_RASTER_ITER:
        raise ValueError(f"max_iter must be in 0..{MAX_RASTER_ITER}, got {max_iter}")
    tol = f.tol
    z = spec.grid().ravel().astype(complex)
    n = z.size
    basin = np.full(n, -1, dtype=np.int16)
    entry = np.full(n, -1, dtype=np.int16)
    roots = np.array(f.roots)
    rr = 1 + np.abs(roots) ** 2
    rr_max = rr.max()
    pole_locs = np.array([q for q, _ in f.poles])
    poles = list(zip(pole_locs, tol.pole_snap * (1 + np.abs(pole_locs))))
    # working set: one lane per still-active pixel
    idx = np.arange(n, dtype=np.int32)
    cand = np.full(n, -1, dtype=np.int16)  # candidate root, -1 for none
    cand_step = np.zeros(n, dtype=np.int16)  # step the candidate was entered

    for s in range(max_iter + STAY_ITERATES + 1):
        if s:
            z = f.evaluate_array(z)
        with np.errstate(over="ignore", invalid="ignore"):
            az = np.abs(z)
            live = np.isfinite(az)
            for q, snap in poles:
                live &= np.abs(z - q) > snap
            zz = 1 + az * az
            # chordal distance to each root; nearest < k before root k, so
            # the maximum keeps argmin's rule that the first of equals wins
            nearest = np.zeros(z.size, dtype=np.int16)
            for k, (r, rk) in enumerate(zip(roots, rr)):
                d = np.abs(z - r)
                d *= 2
                den = zz * rk
                np.sqrt(den, out=den)
                d /= den
                if k == 0:
                    best = d
                else:
                    np.maximum(nearest, (d < best) * np.int16(k), out=nearest)
                    np.minimum(best, d, out=best)
            # far out, where (1 + |z|^2)(1 + |r|^2) overflows, no root is near
            near = (best <= tol.basin_tol) & np.isfinite(zz * rr_max) & live
        # a lane stays while it is near its candidate; stay = s - cand_step
        keep = near & (nearest == cand)
        cand_step = np.where(keep, cand_step, s).astype(np.int16, copy=False)
        cand = np.where(near, nearest, -1).astype(np.int16, copy=False)
        done = keep & (s - cand_step >= STAY_ITERATES)
        if done.any():
            basin[idx[done]] = cand[done]
            entry[idx[done]] = cand_step[done]
            live &= ~done
        if not live.all():
            idx, z, cand, cand_step = idx[live], z[live], cand[live], cand_step[live]
            if idx.size == 0:
                break

    shape = (spec.height, spec.width)
    return Raster(spec, basin.reshape(shape), entry.reshape(shape))


# --- critical orbits ---------------------------------------------------------


@dataclass(frozen=True)
class CriticalOrbit:
    start: SpherePoint
    branching: int  # local degree minus one
    orbit: tuple[SpherePoint, ...]
    landing: str  # "root" | "infinity" | "unresolved"
    root_index: int | None
    landing_time: int | None
    hit_prepole: bool


@dataclass(frozen=True)
class CriticalOrbitTable:
    entries: tuple[CriticalOrbit, ...]

    @property
    def all_resolved(self) -> bool:
        return all(e.landing != "unresolved" for e in self.entries)

    @property
    def max_landing_time(self) -> int | None:
        if not self.all_resolved:
            return None
        return max((e.landing_time for e in self.entries), default=0)


def critical_orbits(f: NewtonMap) -> CriticalOrbitTable:
    """Forward orbit of every critical point until it provably lands or the cap.

    Root landings are exact hits only: the orbit must arrive within land_tol
    from at least jump_guard away (one application of f collapses a genuine
    preimage onto the root; an asymptotic approach shrinks gradually and is
    not a landing). Orbits touching a pole are routed exactly through infinity.
    The cap is f.tol.max_steps.
    """
    tol = f.tol
    entries = []
    for c, mult in f.critical_points:
        orbit: list[SpherePoint] = [SpherePoint.of(c)]
        landing, root_index, time, prepole = "unresolved", None, None, False
        prev_dist = None  # distance from previous point to the root it may hit
        for s in range(tol.max_steps + 1):
            cur = orbit[-1]
            if cur.is_infinity:
                landing, time = "infinity", s
                break
            zv = cur.value
            idx, dist = f.nearest_root(zv)
            if dist <= tol.land_tol:
                arrived_from_far = s == 0 or prev_dist is None or prev_dist >= tol.jump_guard
                if arrived_from_far:
                    landing, root_index, time = "root", idx, s
                    break
            prev_dist = dist
            if _snap_pole(f, zv):
                orbit.append(INF)
                prepole = True
                continue
            nxt = f.evaluate(zv)
            if nxt.is_infinity:
                prepole = True
            orbit.append(nxt)
        entries.append(
            CriticalOrbit(
                start=SpherePoint.of(c),
                branching=mult,
                orbit=tuple(orbit),
                landing=landing,
                root_index=root_index,
                landing_time=time,
                hit_prepole=prepole,
            )
        )
    return CriticalOrbitTable(tuple(entries))


def is_postcritically_fixed(table: CriticalOrbitTable) -> tuple[bool, int | None]:
    """(certified, max landing time); (False, None) when any orbit wandered."""
    if not table.all_resolved:
        return False, None
    return True, table.max_landing_time


def require_postcritically_fixed(table: CriticalOrbitTable) -> int:
    """Landing level L, or UnresolvedOrbit naming the wandering critical points."""
    ok, level = is_postcritically_fixed(table)
    if not ok:
        bad = [str(e.start) for e in table.entries if e.landing == "unresolved"]
        raise UnresolvedOrbit(
            "critical orbits did not land on fixed points: " + ", ".join(bad)
        )
    return level if level is not None else 0
