"""Orbit classification, basin rasters, and critical-orbit certification.

Basin membership is asymptotic: an orbit is in a root's basin when it enters
the disk of chordal radius basin_tol about the root and stays there, nearer to
that root than to any other, for STAY_ITERATES = 5 more iterates; its entry
step is the step it entered. classify_point and render_basins both apply this
rule to the same state, two values per orbit: the candidate root (-1 for
none) and the step it was entered, so the stay count is the step minus that.
Both read an orbit point through the same two bands of |z|: it can be within
basin_tol of a root only while |z| lies in the root band (_root_band), and
within pole_snap of a pole only while |z| lies in the pole band
(_pole_band), so root distances and the pole test are taken there alone.
Both end an orbit sooner on a proof that the five steps would pass:

- Certified exit. Smale's gamma at a simple root zeta of p is the maximum
  over k >= 2 of |p^(k)(zeta) / (k! p'(zeta))|^(1/(k-1)). Where
  gamma |z - zeta| <= (3 - sqrt 7)/2, one Newton step at least halves
  |z - zeta| (BCSS, *Complexity and Real Computation*, ch. 8). So if each
  computed step adds rounding of at most nu, every later computed point
  stays within max(|z - zeta|, 2 nu) of zeta. NewtonMap.exit_radius picks,
  at each computed root r, a radius R that is
    * at most half of (3 - sqrt 7)/2 over gamma;
    * small enough that the disk |z - r| <= R lies within chordal distance
      basin_tol/4 of r and a quarter of the least root separation, so that
      r stays strictly the nearest root;
    * clear of the pole snap disks, and small enough that the chordal
      test's products stay finite;
    * more than 16 times a generous bound on the rounding: twice one step's
      Horner rounding, plus twice the error of r itself (about
      2 |p(r)/p'(r)|).
  If some root has no such R, the radius is 0 and no orbit ends early.
  Otherwise it is the least rho = 2t / (A (A + t)) over the roots, with
  t = R/2 and A = sqrt(1 + |r|^2). As sqrt(1 + |z|^2) is 1-Lipschitz in
  |z|, a point less than rho from r chordally lies within t of r, and every
  later computed point lies within t + R/16 < R of r: near r, nearest r and
  live, so each confirming step would pass. An orbit point less than rho
  from a root, whose candidate was entered at a step within max_iter, is
  in that root's basin with that entry step already.

Critical-orbit landings are the opposite: they must be exact hits, so a root
landing is only recorded when the orbit jumps onto the root from a genuine
distance — a superattracting approach that merely shrinks past every tolerance
is left unresolved. require_postcritically_fixed is the pcf verdict: it
returns the landing level, or raises UnresolvedOrbit.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import UnresolvedOrbit
from .poly import NewtonMap
from .sphere import INF, point

STAY_ITERATES = 5
# steps and candidate steps are int16 and reach max_iter + STAY_ITERATES
MAX_RASTER_ITER = int(np.iinfo(np.int16).max) - STAY_ITERATES
# most lanes in the raster working set: 512 KB per complex working array, so
# that a step's arrays fit a 2 MB per-core L2 cache; a smaller set pays the
# fixed cost of a step's numpy calls over fewer lanes
_TILE = 1 << 15
# added to each side of a band, as an angle (radians) in the root band and
# relative to the moduli in the pole band: far above the rounding of |z|,
# atan and tan, far below any useful basin_tol or pole_snap
_BAND_SLACK = 1e-12


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of classify_point: basin index, fixed infinity, or unresolved."""

    kind: str  # "basin" | "fixed_infinity" | "unresolved"
    root_index: int | None = None
    entry_step: int | None = None
    hit_prepole: bool = False
    trace: tuple[complex, ...] | None = None


def _snap_pole(f: NewtonMap, z: complex) -> bool:
    for q, _ in f.poles:
        if abs(z - q) <= f.tol.pole_snap * (1 + abs(q)):
            return True
    return False


def _check_max_iter(max_iter, upper: float) -> None:
    """max_iter must be an integer in 0..upper: not a bool, not 2.5."""
    if (isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
            or not 0 <= max_iter <= upper):
        raise ValueError(f"max_iter must be an integer in 0..{upper}, got {max_iter!r}")


def classify_point(
    f: NewtonMap,
    z: complex,
    max_iter: int = 256,
    keep_trace: bool = False,
) -> OrbitResult:
    """Classify the forward orbit of z: which root's basin it belongs to, by
    the rule of the module docstring (five confirming steps, or a certified
    exit).

    Orbits hitting a pole (exactly, or within the snap distance) are routed
    through infinity and reported unresolved with the prepole flag — infinity
    repels, so no open set converges there.

    As in render_basins, a step measures the distances to the roots only
    when |z| lies in the root band and tests the poles only when it lies in
    the pole band; elsewhere the point is near no root and no pole, so the
    result is the one measuring every root and pole at every step gives.
    """
    _check_max_iter(max_iter, math.inf)
    z = point(z)
    trace = [z] if keep_trace else None

    def result(kind: str, **fields) -> OrbitResult:
        return OrbitResult(kind, trace=tuple(trace) if trace else None, **fields)

    if z == INF:
        return result("fixed_infinity", entry_step=0)
    basin_tol, rho = f.tol.basin_tol, f.exit_radius
    bands, pole_bands = _root_band(f), _pole_band(f)
    cand, step = -1, 0  # candidate root (-1 for none) and the step it was entered
    for s in range(max_iter + STAY_ITERATES + 1):
        if z == INF:
            return result("unresolved", hit_prepole=True)
        az = abs(z)
        if _in_band(az, pole_bands) and _snap_pole(f, z):
            if trace is not None:  # snapped: routed through INF
                trace.append(INF)
            return result("unresolved", hit_prepole=True)
        if _in_band(az, bands):
            idx, dist = f.nearest_root(z)
        else:
            idx, dist = -1, math.inf
        near = dist <= basin_tol
        if not (near and idx == cand):
            cand, step = (idx if near else -1), s
        # five confirming steps, or a certified exit
        if near and (s - step >= STAY_ITERATES or (dist < rho and step <= max_iter)):
            return result("basin", root_index=cand, entry_step=step)
        z = f.evaluate(z)
        if trace is not None:
            trace.append(z)
    return result("unresolved")


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

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        hw = self.half_width
        if isinstance(hw, bool) or not isinstance(hw, numbers.Real) or not 0 < hw < math.inf:
            raise ValueError(f"half_width must be finite and > 0, got {hw!r}")
        if not isinstance(self.center, numbers.Complex) or not cmath.isfinite(self.center):
            raise ValueError(f"center must be a finite number, got {self.center!r}")

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


def _root_band(f: NewtonMap) -> list[tuple[float, float]]:
    """Disjoint intervals lo <= |z| < hi outside which no point is within
    basin_tol of a root.

    The chordal distance from z to a root r is at least the chord
    2 sin|atan|z| - atan|r|| of their latitude gap (2 atan|z| is the angle
    of z from 0 on the sphere), so a point near r has atan|z| within
    asin(basin_tol/2) of atan|r|. Each interval takes twice that,
    asin(min(1, basin_tol)), plus _BAND_SLACK, which is the whole sphere
    from basin_tol = 1 on and still an interval at basin_tol = 0. Each
    band is computed once per roots and tolerance, as classify_point asks
    for it on every call.
    """
    return _root_band_of(f.roots, f.tol.basin_tol)


@functools.lru_cache(maxsize=64)
def _root_band_of(roots: tuple[complex, ...], basin_tol: float) -> list[tuple[float, float]]:
    h = math.asin(min(1.0, basin_tol)) + _BAND_SLACK
    lats = sorted(math.atan(abs(r)) for r in roots)
    return [
        (math.tan(max(lo, 0.0)), math.tan(hi) if hi < math.pi / 2 else math.inf)
        for lo, hi in _merged([(lat - h, lat + h) for lat in lats])
    ]


def _pole_band(f: NewtonMap) -> list[tuple[float, float]]:
    """Disjoint intervals lo <= |z| < hi outside which no point is within
    pole snap of a pole, as render_basins computes that test.

    A point z fails the snap test of a pole q when |z - q| <= snap, with
    snap = pole_snap (1 + |q|); then ||z| - |q|| <= |z - q| <= snap, so |z|
    lies within snap of |q|. The computed |z|, |q| and |z - q| are each
    within a few units of rounding of the exact ones, relative to |z|, |q|
    and snap, so each interval takes snap plus _BAND_SLACK (1 + |q| + snap)
    on either side of |q|; intervals that overlap merge. A pole at 0 gives
    |z| < snap plus the slack, where the test is |z| > snap itself. Computed
    once per poles and tolerance.
    """
    return _pole_band_of(f.poles, f.tol.pole_snap)


@functools.lru_cache(maxsize=64)
def _pole_band_of(poles: tuple[tuple[complex, int], ...], pole_snap: float) -> list[tuple[float, float]]:
    intervals = []
    for aq in sorted(abs(q) for q, _ in poles):
        snap = pole_snap * (1 + aq)
        w = snap + _BAND_SLACK * (1 + aq + snap)
        intervals.append((aq - w, aq + w))
    return _merged(intervals)


def _merged(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The intervals (lo, hi), taken in order, each merged into the last one
    kept when it starts at or before that one's end, which it then ends."""
    out: list[tuple[float, float]] = []
    for lo, hi in intervals:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _in_band(az: float, bands: list[tuple[float, float]]) -> bool:
    """Whether lo <= az < hi for one of the bands."""
    for lo, hi in bands:
        if lo <= az < hi:
            return True
    return False


def _in_bands(az: np.ndarray, bands: list[tuple[float, float]]) -> np.ndarray:
    """Indices of the lanes whose |z| lies in one of the bands lo <= |z| < hi."""
    inside = np.zeros(az.size, dtype=bool)
    for lo, hi in bands:
        inside |= (az >= lo) & (az < hi)
    return np.flatnonzero(inside)


def render_basins(f: NewtonMap, spec: RasterSpec, max_iter: int = 256) -> Raster:
    """Classify every cell center; deterministic for fixed inputs.

    A pixel's basin and entry step are those classify_point gives its cell
    center, computed from its own orbit by elementwise array arithmetic that
    rounds a point the same, bit for bit, in whatever array it is evaluated.
    So neither the order in which pixels retire nor the company they are
    iterated in can change the image. The loop keeps one working set of at
    most _TILE lanes, one per started, still-active pixel (pixel index, z,
    |z|, its step, its candidate root and the step the candidate was
    entered), so that the arrays each step streams stay in cache. A pixel
    that dies (non-finite, or within pole snap), finishes or reaches the
    cap is written once and dropped from it; whenever at most half of _TILE
    lanes are left, the next unstarted pixels are appended in pixel order,
    so that no step runs on a nearly empty set. Lanes of one set thus
    started on different steps, and each keeps its own step: the stay count,
    the certified exit's entry-step test and the cap of max_iter +
    STAY_ITERATES are per lane. A lane so far out that the chordal
    denominator overflows is near no root, as on the sphere.

    Three proofs spare work without changing a pixel. A lane finishes by five
    confirming steps or, as in classify_point, by a certified exit once it is
    less than f.exit_radius from its candidate root (see the module
    docstring). A lane can be near a root only while |z| lies in the root
    band of _root_band: each step selects those lanes by comparing |z| with
    the band's few bounds and measures root distances on them alone; every
    other lane is near no root, so its candidate is dropped. And a lane can
    be within pole snap of a pole only while |z| lies in the pole band of
    _pole_band, so each step tests those lanes alone against the poles.
    """
    _check_max_iter(max_iter, MAX_RASTER_ITER)
    tol = f.tol
    grid = spec.grid().ravel()
    n = grid.size
    basin = np.full(n, -1, dtype=np.int16)
    entry = np.full(n, -1, dtype=np.int16)
    roots = np.array(f.roots)
    rr = 1 + np.abs(roots) ** 2
    rr_max = rr.max()
    pole_locs = np.array([q for q, _ in f.poles])
    poles = list(zip(pole_locs, tol.pole_snap * (1 + np.abs(pole_locs))))
    rho = f.exit_radius
    bands = _root_band(f)
    pole_bands = _pole_band(f)

    cap = max_iter + STAY_ITERATES  # the last step a lane is checked at
    top = 0  # the next unstarted pixel
    # working set: one lane per started, still-active pixel, in pixel order
    idx = np.zeros(0, dtype=np.int32)
    z = np.zeros(0, dtype=complex)
    step = np.zeros(0, dtype=np.int16)  # the step z is at
    cand = np.zeros(0, dtype=np.int16)  # candidate root, -1 for none
    cand_step = np.zeros(0, dtype=np.int16)  # step the candidate was entered
    while True:
        if idx.size <= _TILE // 2 and top < n:
            new = min(_TILE - idx.size, n - top)
            idx = np.concatenate((idx, np.arange(top, top + new, dtype=np.int32)))
            z = np.concatenate((z, grid[top : top + new]))
            step = np.concatenate((step, np.zeros(new, dtype=np.int16)))
            cand = np.concatenate((cand, np.full(new, -1, dtype=np.int16)))
            cand_step = np.concatenate((cand_step, np.zeros(new, dtype=np.int16)))
            top += new
        if idx.size == 0:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            az = np.abs(z)
            live = np.isfinite(az)
            near_pole = _in_bands(az, pole_bands)
            if near_pole.size:
                zp = z[near_pole]
                clear = np.ones(near_pole.size, dtype=bool)
                for q, snap in poles:
                    clear &= np.abs(zp - q) > snap
                live[near_pole] = clear
            band = _in_bands(az, bands)
            zb, azb = z[band], az[band]
            zz = 1 + azb * azb
            # chordal distance to each root; nearest < k before root k, so
            # the maximum keeps argmin's rule that the first of equals wins
            nearest = np.zeros(band.size, dtype=np.int16)
            for k, (r, rk) in enumerate(zip(roots, rr)):
                d = np.abs(zb - r)
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
            near = (best <= tol.basin_tol) & np.isfinite(zz * rr_max) & live[band]
        # a band lane stays while it is near its candidate; stay = step - entered
        sb = step[band]
        keep = near & (nearest == cand[band])
        entered = np.where(keep, cand_step[band], sb)
        cand = np.full(idx.size, -1, dtype=np.int16)  # out of band: near no root
        cand[band] = np.where(near, nearest, -1)
        cand_step[band] = entered
        # five confirming steps, or a certified exit
        done = near & ((sb - entered >= STAY_ITERATES) | ((best < rho) & (entered <= max_iter)))
        if done.any():
            out = band[done]
            basin[idx[out]] = nearest[done]
            entry[idx[out]] = entered[done]
            live[out] = False
        # lanes start in pixel order, so the oldest, and any at the cap, lead
        if step[0] == cap:
            live &= step < cap
        if not live.all():
            idx, z, az = idx[live], z[live], az[live]
            step, cand, cand_step = step[live], cand[live], cand_step[live]
        z = f.evaluate_array(z, az)
        step += 1

    shape = (spec.height, spec.width)
    return Raster(spec, basin.reshape(shape), entry.reshape(shape))


# --- critical orbits ---------------------------------------------------------


@dataclass(frozen=True)
class CriticalOrbit:
    start: complex
    branching: int  # local degree minus one
    orbit: tuple[complex, ...]
    landing: str  # "root" | "infinity" | "unresolved"
    root_index: int | None
    landing_time: int | None
    hit_prepole: bool


@dataclass(frozen=True)
class CriticalOrbitTable:
    entries: tuple[CriticalOrbit, ...]


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
        start = point(c)
        orbit = [start]
        landing, root_index, time, prepole = "unresolved", None, None, False
        prev_dist = None  # distance from previous point to the root it may hit
        for s in range(tol.max_steps + 1):
            z = orbit[-1]
            if z == INF:
                landing, time = "infinity", s
                break
            idx, dist = f.nearest_root(z)
            if dist <= tol.land_tol:
                arrived_from_far = prev_dist is None or prev_dist >= tol.jump_guard
                if arrived_from_far:
                    landing, root_index, time = "root", idx, s
                    break
            prev_dist = dist
            if _snap_pole(f, z):
                orbit.append(INF)
                prepole = True
                continue
            nxt = f.evaluate(z)
            if nxt == INF:
                prepole = True
            orbit.append(nxt)
        entries.append(
            CriticalOrbit(
                start=start,
                branching=mult,
                orbit=tuple(orbit),
                landing=landing,
                root_index=root_index,
                landing_time=time,
                hit_prepole=prepole,
            )
        )
    return CriticalOrbitTable(tuple(entries))


def require_postcritically_fixed(table: CriticalOrbitTable) -> int:
    """The pcf verdict: the latest landing time over the table (0 when it has
    no entries), or UnresolvedOrbit naming the wandering critical points."""
    bad = [str(e.start) for e in table.entries if e.landing == "unresolved"]
    if bad:
        raise UnresolvedOrbit(
            "critical orbits did not land on fixed points: " + ", ".join(bad)
        )
    return max((e.landing_time for e in table.entries), default=0)
