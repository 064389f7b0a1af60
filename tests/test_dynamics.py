"""Orbit classification and basin-raster checks.

Expected values:
- cube roots of unity and the pole at 0 for z^3 - 1 are hand-checked: the
  derivative numerator 2z^3 + 1 never vanishes at a root, 0 is the sole pole,
  and f(0) is exactly infinity, so the free critical orbit is (0, inf).
- z^3 - z has critical set {0, 1, -1} = root set, so every orbit lands at
  time 0.
- z^3 - z + 0.3 has free critical points whose orbits converge to a root
  without ever hitting it; convergence without landing means not
  postcritically fixed.
- threefold symmetry: f(w z) = w f(z) for w = exp(2 pi i / 3) when p = z^3 - 1,
  so rotating a sample lattice by w permutes basin labels cyclically and the
  three basin counts on any rotation-invariant lattice are exactly equal.
- a raster pixel is classify_point of its cell center, whatever step its
  neighbours finish at, so the scalar classifier is the per-pixel oracle.
- |z| = 1e160 overflows 1 + |z|^2 and is chordally about sqrt(2) from every
  root of z^3 - 1; f(z) ~ 2z/3 needs about 900 steps to come back, so every
  such pixel is unresolved. With roots -100, 1, 100, |z| = 5e153 keeps
  1 + |z|^2 finite but overflows its product with 1 + 100^2, and is about
  0.02 chordal from the nearest root, so it is unresolved too.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from newtongraph import (
    Polynomial,
    Raster,
    RasterSpec,
    UnresolvedOrbit,
    classify_point,
    critical_orbits,
    is_postcritically_fixed,
    make_newton_map,
    render_basins,
    require_postcritically_fixed,
)
from newtongraph.dynamics import _PALETTE, MAX_RASTER_ITER
from newtongraph.sphere import INF


class TestClassifyPoint:
    def test_point_near_root_lands_in_its_basin(self, cubic_unity):
        res = classify_point(cubic_unity, 1.2)
        assert res.kind == "basin"
        assert cubic_unity.roots[res.root_index] == pytest.approx(1)

    def test_basin_claim_is_certified_by_long_iteration(self, cubic_unity):
        # oracle: re-iterate 200 steps from scratch and compare with the root
        f = cubic_unity
        for z0 in (1.7 - 0.4j, -2.1 + 0.05j, 0.3 + 2.2j):
            res = classify_point(f, z0)
            assert res.kind == "basin"
            z = complex(z0)
            for _ in range(200):
                z = f.evaluate(z).value
            assert abs(z - f.roots[res.root_index]) < 1e-12

    def test_prepole_start_is_unresolved_with_flag(self, cubic_unity):
        res = classify_point(cubic_unity, 0j, keep_trace=True)
        assert res.kind == "unresolved"
        assert res.hit_prepole
        assert res.trace[1].is_infinity

    def test_infinity_is_fixed(self, cubic_unity):
        res = classify_point(cubic_unity, INF)
        assert res.kind == "fixed_infinity"

    def test_root_is_classified_at_entry_step_zero(self, cubic_unity):
        res = classify_point(cubic_unity, 1 + 0j)
        assert res.kind == "basin"
        assert res.entry_step == 0

    def test_threefold_symmetric_lattice_counts_equal(self, cubic_unity):
        w = cmath.exp(2j * math.pi / 3)
        counts = [0, 0, 0]
        unresolved = 0
        for k in range(48):
            for r in (0.31, 0.63, 0.97, 1.41, 2.2, 3.7):
                z = r * cmath.exp(2j * math.pi * k / 48)
                res = classify_point(cubic_unity, z)
                if res.kind == "basin":
                    counts[res.root_index] += 1
                else:
                    unresolved += 1
        assert counts[0] == counts[1] == counts[2]
        assert unresolved % 3 == 0
        assert sum(counts) > 0
        # spot-check the symmetry itself on one orbit
        a = classify_point(cubic_unity, 0.9 + 0.2j)
        b = classify_point(cubic_unity, w * (0.9 + 0.2j))
        ra = cubic_unity.roots[a.root_index]
        rb = cubic_unity.roots[b.root_index]
        assert rb == pytest.approx(w * ra)


class TestCriticalOrbits:
    def test_cubic_unity_orbit_table(self, cubic_unity):
        table = critical_orbits(cubic_unity)
        assert len(table.entries) == 4
        by_start = {e.start.value if not e.start.is_infinity else None: e
                    for e in table.entries}
        for r in cubic_unity.roots:
            e = by_start[r]
            assert e.landing == "root"
            assert e.landing_time == 0
            assert cubic_unity.roots[e.root_index] == r
        pole_orbit = by_start[0j]
        assert pole_orbit.landing == "infinity"
        assert pole_orbit.landing_time == 1
        assert pole_orbit.hit_prepole
        assert pole_orbit.orbit[1].is_infinity

    def test_cubic_unity_is_pcf_level_one(self, cubic_unity):
        ok, level = is_postcritically_fixed(critical_orbits(cubic_unity))
        assert ok
        assert level == 1

    def test_cubic_pm_is_pcf_level_zero(self, cubic_pm):
        table = critical_orbits(cubic_pm)
        ok, level = is_postcritically_fixed(table)
        assert ok
        assert level == 0
        assert all(e.landing == "root" for e in table.entries)

    def test_perturbed_cubic_is_not_pcf(self):
        f = make_newton_map(Polynomial((0.3, -1, 0, 1)))
        table = critical_orbits(f)
        ok, level = is_postcritically_fixed(table)
        assert not ok
        assert level is None
        with pytest.raises(UnresolvedOrbit):
            require_postcritically_fixed(table)
        # the wandering orbit converges to a root yet never lands
        bad = [e for e in table.entries if e.landing == "unresolved"]
        assert bad
        for e in bad:
            tail = e.orbit[-1]
            assert not tail.is_infinity
            _, dist = f.nearest_root(tail.value)
            assert dist < 1e-12  # converged numerically, still not a landing

    def test_quartic_with_triple_pole(self):
        f = make_newton_map(Polynomial((-1, 0, 0, 0, 1)))
        table = critical_orbits(f)
        ok, level = is_postcritically_fixed(table)
        assert ok
        assert level == 1
        pole_entries = [e for e in table.entries if e.start.value == 0]
        assert len(pole_entries) == 1
        assert pole_entries[0].branching == 2
        assert pole_entries[0].landing == "infinity"

    def test_monic_quartic_superattracting_origin(self):
        f = make_newton_map(Polynomial((0, -1, 0, 0, 1)))
        table = critical_orbits(f)
        ok, level = is_postcritically_fixed(table)
        assert ok
        assert level == 0
        origin = [e for e in table.entries if e.start.value == 0][0]
        assert origin.branching == 3
        assert origin.landing == "root"


class TestRenderBasins:
    def test_deterministic_bytes(self, cubic_unity):
        spec = RasterSpec(48, 48, 0j, 2.0)
        a = render_basins(cubic_unity, spec).to_ppm()
        b = render_basins(cubic_unity, spec).to_ppm()
        assert a == b
        assert a.startswith(b"P6\n48 48\n255\n")
        assert len(a) == len(b"P6\n48 48\n255\n") + 48 * 48 * 3

    def test_cells_nearest_roots_carry_their_label(self, cubic_unity):
        spec = RasterSpec(64, 64, 0j, 2.0)
        ras = render_basins(cubic_unity, spec)
        grid = spec.grid()
        for i, r in enumerate(cubic_unity.roots):
            flat = np.argmin(np.abs(grid - r))
            assert ras.basin_id.ravel()[flat] == i

    def test_unresolved_fraction_small_and_all_basins_present(self, cubic_unity):
        ras = render_basins(cubic_unity, RasterSpec(64, 64, 0j, 2.0))
        ids, counts = np.unique(ras.basin_id, return_counts=True)
        assert set(ids) >= {0, 1, 2}
        bad = counts[ids == -1].sum() if -1 in ids else 0
        assert bad / ras.basin_id.size < 0.05

    def test_raster_matches_scalar_classifier(self, cubic_pm):
        spec = RasterSpec(16, 16, 0.1 + 0.05j, 1.5)
        ras = render_basins(cubic_pm, spec)
        grid = spec.grid()
        for i in range(0, 16, 5):
            for j in range(0, 16, 5):
                res = classify_point(cubic_pm, grid[i, j])
                want = res.root_index if res.kind == "basin" else -1
                assert ras.basin_id[i, j] == want
                if res.kind == "basin":
                    assert ras.steps[i, j] == res.entry_step

    @pytest.mark.parametrize("max_iter", [256, 3])
    @pytest.mark.parametrize(
        "coeffs, center, half_width",
        [
            # zoom onto the order-4 pole of z^5 - 1 at 0: the pixels retire
            # at steps spread from about 40 to 130
            ((-1, 0, 0, 0, 0, 1), 0.011 - 0.007j, 0.07),
            ((0, -1, 0, 0, 1), 0j, 2.0),  # z^4 - z, full window
        ],
        ids=["z5-1-pole-zoom", "z4-z-full"],
    )
    def test_every_pixel_matches_classify_point(self, coeffs, center, half_width, max_iter):
        f = make_newton_map(Polynomial(coeffs))
        spec = RasterSpec(24, 24, center, half_width)
        ras = render_basins(f, spec, max_iter=max_iter)
        grid = spec.grid()
        for i in range(24):
            for j in range(24):
                res = classify_point(f, grid[i, j], max_iter=max_iter)
                if res.kind == "basin":
                    want = (res.root_index, res.entry_step)
                else:
                    want = (-1, -1)
                assert (ras.basin_id[i, j], ras.steps[i, j]) == want, (i, j)
        if max_iter == 3:
            assert (ras.basin_id < 0).any()
        else:
            assert len(set(ras.steps.ravel().tolist())) > 10

    @pytest.mark.parametrize(
        "coeffs, modulus",
        [((-1, 0, 0, 1), 1e160),
         ((-1, 0, 0, 1), 1e200),
         ((1e4, -1e4, -1, 1), 5e153)],  # roots -100, 1, 100
        ids=["z3-1-1e160", "z3-1-1e200", "roots-100-1-100-5e153"],
    )
    def test_huge_center_is_unresolved_without_warnings(self, coeffs, modulus):
        f = make_newton_map(Polynomial(coeffs))
        spec = RasterSpec(2, 2, complex(modulus), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ras = render_basins(f, spec)
        for z in spec.grid().ravel():
            assert classify_point(f, z).kind == "unresolved"
        assert (ras.basin_id == -1).all()
        assert (ras.steps == -1).all()

    def test_pixel_within_pole_snap_is_unresolved(self, cubic_unity):
        # the center cell lies 1e-10 from the pole at 0; unsnapped, its orbit
        # would come back from about 3e19 and converge within 256 steps
        spec = RasterSpec(3, 3, 1e-10 + 0j, 1.5)
        ras = render_basins(cubic_unity, spec)
        grid = spec.grid()
        assert classify_point(cubic_unity, grid[1, 1]).hit_prepole
        assert ras.basin_id[1, 1] == -1
        for i in range(3):
            for j in range(3):
                res = classify_point(cubic_unity, grid[i, j])
                want = res.root_index if res.kind == "basin" else -1
                assert ras.basin_id[i, j] == want

    @pytest.mark.parametrize("max_iter", [-1, MAX_RASTER_ITER + 1])
    def test_max_iter_out_of_range_rejected(self, cubic_unity, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            render_basins(cubic_unity, RasterSpec(2, 2), max_iter=max_iter)

    def test_ppm_palette_wraps_and_unresolved_is_black(self):
        ids = np.array([[-1, 0, 1, 2, 3], [4, 5, 6, 7, 8], [9, 10, 11, 12, -1]],
                       dtype=np.int16)
        ras = Raster(RasterSpec(5, 3), ids, np.zeros_like(ids))
        want = b"P6\n5 3\n255\n" + b"".join(
            bytes((0, 0, 0) if i < 0 else _PALETTE[i % len(_PALETTE)])
            for i in ids.ravel().tolist()
        )
        assert ras.to_ppm() == want
        assert _PALETTE[12 % len(_PALETTE)] == _PALETTE[0]
