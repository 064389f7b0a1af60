"""Numerical policy knobs as one object. It rides on the Newton map:
make_newton_map fixes it as f.tol, and every stage that takes the map reads
it from there."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    # Separation gates of make_newton_map: two roots of p, or a root and a
    # zero of p', closer than this (relative) make the map refuse p.
    root_tol: float = 1e-8
    # Marked-point identification (chordal): a point this close to a marked
    # point is that point, and two points of one fiber this close abort.
    # Tower vertices are fiber points, identified by exact value.
    match_tol: float = 1e-6
    # The cap of the radius at which a fixed ray is closed with infinity.
    # Each map certifies its own radius, NewtonMap.ray_radius; where the
    # certificate asks for more than the cap, as z^8 - 1 does of 1e3, the
    # rays stop at the cap uncertified. The floor is the chart radius 1e3.
    escape_radius: float = 1e3
    # Basin membership disk for orbit classification (enter and stay).
    basin_tol: float = 1e-3
    # Snap distance for routing orbits exactly through poles.
    pole_snap: float = 1e-9
    # Tight landing tolerance for critical orbits (chordal).
    land_tol: float = 1e-9
    # A root landing must arrive from at least this far away (chordal); closer
    # approaches are superattracting convergence, not exact hits.
    jump_guard: float = 1e-3
    # Orbit iteration cap.
    max_steps: int = 64
    # Newton corrector tolerance for edge lifting / ray continuation (chordal).
    lift_tol: float = 1e-10
    # Sample spacing: neighbouring samples of a traced ray lie at most
    # log(sample_ratio) apart in log-polar distance |log((c - xi)/(a - xi))|
    # about the root xi wherever samples were dropped; each lift keeps only
    # the samples needed for that, so every sample of lift n+1 maps onto a
    # sample of lift n. A lifted edge does not inherit that spacing: near an
    # end of local degree m it is m-fold oversampled. Each level's lifts are
    # thinned to it, by the same rule taken about both ends of the edge.
    sample_ratio: float = 1.25

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type != "float":
                continue
            # a bool compares as a number, and other types fail the range
            # checks below with a TypeError that names no field
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
            if not -math.inf < value < math.inf:
                raise ValueError(f"{f.name} must be finite")
        if not (0 < self.root_tol < 1):
            raise ValueError("root_tol out of range")
        if not (0 < self.match_tol < 1):
            raise ValueError("match_tol out of range")
        if self.escape_radius < 1e3:
            raise ValueError("escape_radius too small")
        if not self.sample_ratio > 1:
            raise ValueError("sample_ratio must be > 1")
        if not isinstance(self.max_steps, int) or isinstance(self.max_steps, bool):
            raise ValueError("max_steps must be an int")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if not self.lift_tol > 0:
            raise ValueError("lift_tol must be > 0")
        for name in ("basin_tol", "pole_snap", "land_tol", "jump_guard"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


DEFAULT_TOL = Tolerances()
