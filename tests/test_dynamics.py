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
- a render without its three proofs (no certified exit, root and pole
  bands of the whole sphere) measures every lane's root distances and tests
  every lane against every pole at every step, and finishes pixels by five
  confirming steps alone; it is the reference the optimised render must
  equal byte for byte.
- (z - 1)(z + 1)(z - 2i) = z^3 - 2i z^2 - z + 2i has p' = 3z^2 - 4i z - 1
  with roots i and i/3, poles of moduli 1 and 1/3. f(-i/2) = i/3 and
  |f'(-i/2)| = 14/9, so a cell center 1e-12 (1 + i) from -i/2 maps about
  2e-12 from the pole i/3, within its snap: a pre-pole pixel. Unsnapped,
  its orbit comes back from about 5e11 and reaches a basin at step 70.
- roots 1, 1.002 and -1: Smale's gamma at 1 is about 1/0.002 = 500, so its
  contraction disk (0.089/500 = 1.8e-4) is smaller than what basin_tol/4
  allows, and the exit radius does not move when basin_tol does.
- |z| = 1e160 overflows 1 + |z|^2 and is chordally about sqrt(2) from every
  root of z^3 - 1; f(z) ~ 2z/3 needs about 900 steps to come back, so every
  such pixel is unresolved. With roots -100, 1, 100, |z| = 5e153 keeps
  1 + |z|^2 finite but overflows its product with 1 + 100^2, and is about
  0.02 chordal from the nearest root, so it is unresolved too.
"""

import cmath
import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from newtongraph import (
    Polynomial,
    Tolerances,
    UnresolvedOrbit,
    classify_point,
    make_newton_map,
)
from newtongraph import dynamics
from newtongraph.dynamics import (
    CriticalOrbitTable,
    MAX_RASTER_ITER,
    Raster,
    RasterSpec,
    _PALETTE,
    critical_orbits,
    render_basins,
    require_postcritically_fixed,
)
from newtongraph.poly import NewtonMap
from newtongraph.sphere import INF, chordal_distance

from conftest import conjugate_coeffs, reference_classify_point

# 24 x 24 raster windows
WINDOWS = [
    # zoom onto the order-4 pole of z^5 - 1 at 0: the pixels retire at steps
    # spread from about 40 to 130
    ((-1, 0, 0, 0, 0, 1), 0.011 - 0.007j, 0.07),
    ((0, -1, 0, 0, 1), 0j, 2.0),  # z^4 - z, full window
]
WINDOW_IDS = ["z5-1-pole-zoom", "z4-z-full"]
CLOSE_ROOTS = (1.002, -1, -1.002, 1)  # (z - 1)(z - 1.002)(z + 1)
TWO_POLE_MODULI = (2j, -1, -2j, 1)  # (z - 1)(z + 1)(z - 2i), poles i and i/3
PREPOLE_CENTER = -0.001562499999 - 0.498437499999j
# 32 x 32 windows of the reference render
REFERENCE_WINDOWS = WINDOWS + [
    ((0, -1, 0, 0, 1), 0.6303 + 0.0004j, 0.002),  # pole (1/4)^(1/3) of z^4 - z
    (CLOSE_ROOTS, 1.001 + 0.002j, 0.02),
    # cell (16, 16) is a pre-pole about 1e-12 from -i/2
    (TWO_POLE_MODULI, PREPOLE_CENTER, 0.05),
]
REFERENCE_IDS = WINDOW_IDS + ["z4-z-pole-zoom", "close-roots", "two-pole-moduli-prepole"]


@contextlib.contextmanager
def without_proofs(monkeypatch):
    """The reference classifiers: no certified exit (an exit radius of 0),
    and root and pole bands of the whole sphere."""
    with monkeypatch.context() as m:
        m.setattr(NewtonMap, "exit_radius", property(lambda self: 0.0))
        m.setattr(dynamics, "_root_band", lambda f: [(0.0, math.inf)])
        m.setattr(dynamics, "_pole_band", lambda f: [(0.0, math.inf)])
        yield


def lane_steps(monkeypatch, render):
    """(result, points evaluated) of render(), counting evaluate_array's."""
    count = [0]
    evaluate = NewtonMap.evaluate_array

    def counted(self, z, far=None):
        count[0] += z.size
        return evaluate(self, z, far)

    with monkeypatch.context() as m:
        m.setattr(NewtonMap, "evaluate_array", counted)
        result = render()
    return result, count[0]


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
                z = f.evaluate(z)
            assert abs(z - f.roots[res.root_index]) < 1e-12

    def test_prepole_start_is_unresolved_with_flag(self, cubic_unity):
        res = classify_point(cubic_unity, 0j, keep_trace=True)
        assert res.kind == "unresolved"
        assert res.hit_prepole
        assert res.trace[1] == INF

    def test_infinity_is_fixed(self, cubic_unity):
        res = classify_point(cubic_unity, INF)
        assert res.kind == "fixed_infinity"

    def test_root_is_classified_at_entry_step_zero(self, cubic_unity):
        res = classify_point(cubic_unity, 1 + 0j)
        assert res.kind == "basin"
        assert res.entry_step == 0

    def test_negative_max_iter_rejected(self, cubic_unity):
        # as in render_basins; no upper bound, as no step is stored in int16
        with pytest.raises(ValueError, match="max_iter"):
            classify_point(cubic_unity, 1 + 0j, max_iter=-1)
        assert classify_point(cubic_unity, 1 + 0j, max_iter=0).kind == "basin"
        big = classify_point(cubic_unity, 1.2, max_iter=MAX_RASTER_ITER + 1)
        assert big == classify_point(cubic_unity, 1.2)

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


    @pytest.mark.parametrize("coeffs, center, half_width", REFERENCE_WINDOWS, ids=REFERENCE_IDS)
    def test_certified_exit_agrees_with_five_confirming_steps(
        self, monkeypatch, coeffs, center, half_width
    ):
        f = make_newton_map(Polynomial(coeffs))
        grid = RasterSpec(12, 12, center, half_width).grid().ravel()
        got = [classify_point(f, z) for z in grid]
        with without_proofs(monkeypatch):
            want = [classify_point(f, z) for z in grid]
        assert [(r.kind, r.root_index, r.entry_step) for r in got] == [
            (r.kind, r.root_index, r.entry_step) for r in want
        ]

    def test_certified_exit_ends_the_orbit_sooner(self, monkeypatch, cubic_unity):
        res = classify_point(cubic_unity, 1.7 - 0.4j, keep_trace=True)
        with without_proofs(monkeypatch):
            ref = classify_point(cubic_unity, 1.7 - 0.4j, keep_trace=True)
        assert (res.kind, res.root_index, res.entry_step) == ("basin", ref.root_index, ref.entry_step)
        # the reference stops after five confirming steps, the exit sooner
        assert len(ref.trace) == ref.entry_step + dynamics.STAY_ITERATES + 1
        assert len(res.trace) < len(ref.trace)


class TestClassifyBands:
    """classify_point measures root distances only where |z| lies in the
    root band and tests the poles only where it lies in the pole band, and
    returns today's OrbitResult, trace included, everywhere."""

    MAPS = [
        ("cubic_unity", None, None),
        ("cubic_pm", None, None),
        ("cubic_pm_plus", None, None),
        ("quartic_unity", None, None),
        ("quartic_monic", None, None),
        ("z6-1", (-1, 0, 0, 0, 0, 0, 1), None),
        ("z3-1@2^3", conjugate_coeffs((-1, 0, 0, 1), 8 * cmath.exp(0.7j)), None),
        ("z3-1@2^-3", conjugate_coeffs((-1, 0, 0, 1), cmath.exp(0.7j) / 8), None),
        # a root band that reaches infinity
        ("z3-1@2^3/wide", conjugate_coeffs((-1, 0, 0, 1), 8 * cmath.exp(0.7j)), 0.5),
    ]

    @staticmethod
    def orbit_starts(f, seed):
        """At least 5,000 points: just inside and outside every band edge, on
        the rays through the roots and the poles and at random angles, within
        twice pole_snap of each pole, and seeded points at scales 1e-3 to
        1e3."""
        rng = np.random.default_rng(seed)
        pts = []
        edges = [x for lo, hi in dynamics._root_band(f) + dynamics._pole_band(f)
                 for x in (lo, hi) if 0 < x < math.inf]
        angles = [cmath.phase(c) for c in list(f.roots) + [q for q, _ in f.poles]]
        for x in edges:
            radii = [x * (1 + t) for t in (-1e-3, -1e-9, -1e-12, 1e-12, 1e-9, 1e-3)]
            radii += [x, np.nextafter(x, 0), np.nextafter(x, math.inf)]
            for r in radii:
                pts += [cmath.rect(r, a) for a in angles]
                pts += (r * np.exp(2j * np.pi * rng.random(6))).tolist()
        for q, _ in f.poles:
            snap = f.tol.pole_snap * (1 + abs(q))
            radius = 2 * snap * np.concatenate((np.sqrt(rng.random(300)), [0.5, 1 - 1e-12, 1 + 1e-12]))
            pts += (q + radius * np.exp(2j * np.pi * rng.random(radius.size))).tolist()
        scales = np.repeat([1e-3, 0.1, 1.0, 3.0, 10.0, 1e3], 1 + (5000 - len(pts)) // 6)
        pts += (scales * np.sqrt(rng.random(scales.size)) * np.exp(2j * np.pi * rng.random(scales.size))).tolist()
        # within 0.999 to 1.001 basin_tol (chordal) of each root
        for r in f.roots:
            radius = (1 + abs(r) ** 2) / 2 * f.tol.basin_tol * rng.uniform(0.999, 1.001, 100)
            pts += (r + radius * np.exp(2j * np.pi * rng.random(100))).tolist()
        far = [1e308 * (1 + 1j), -1e308 + 1e308j, 1.5e308 + 0j]
        return pts + far + [0j, INF] + [complex(r) for r in f.roots] + [q for q, _ in f.poles]

    @pytest.mark.parametrize("name, coeffs, basin_tol", MAPS, ids=[m[0] for m in MAPS])
    def test_matches_the_reference(self, request, name, coeffs, basin_tol):
        if coeffs is None:
            f = request.getfixturevalue(name)
        else:
            tol = Tolerances() if basin_tol is None else Tolerances(basin_tol=basin_tol)
            f = make_newton_map(Polynomial(coeffs), tol)
        pts = self.orbit_starts(f, len(name))
        assert len(pts) >= 5000
        for k, z in enumerate(pts):
            max_iter, keep_trace = (0, k % 2 == 0) if k % 10 == 0 else (256, k % 3 == 0)
            got = classify_point(f, z, max_iter=max_iter, keep_trace=keep_trace)
            assert got == reference_classify_point(f, z, max_iter, keep_trace), (k, z)
        # a modulus past the largest float raises in both
        for z in (1.5e308 * (1 + 1j), -1.7e308 + 1e308j):
            with pytest.raises(OverflowError):
                reference_classify_point(f, z)
            with pytest.raises(OverflowError):
                classify_point(f, z)


class TestCriticalOrbits:
    def test_cubic_unity_orbit_table(self, cubic_unity):
        table = critical_orbits(cubic_unity)
        assert len(table.entries) == 4
        by_start = {e.start: e for e in table.entries}
        for r in cubic_unity.roots:
            e = by_start[r]
            assert e.landing == "root"
            assert e.landing_time == 0
            assert cubic_unity.roots[e.root_index] == r
        pole_orbit = by_start[0j]
        assert pole_orbit.landing == "infinity"
        assert pole_orbit.landing_time == 1
        assert pole_orbit.hit_prepole
        assert pole_orbit.orbit[1] == INF

    def test_cubic_unity_is_pcf_level_one(self, cubic_unity):
        assert require_postcritically_fixed(critical_orbits(cubic_unity)) == 1

    def test_cubic_pm_is_pcf_level_zero(self, cubic_pm):
        table = critical_orbits(cubic_pm)
        assert require_postcritically_fixed(table) == 0
        assert all(e.landing == "root" for e in table.entries)

    def test_empty_table_lands_at_level_zero(self):
        assert require_postcritically_fixed(CriticalOrbitTable(())) == 0

    def test_perturbed_cubic_is_not_pcf(self):
        f = make_newton_map(Polynomial((0.3, -1, 0, 1)))
        table = critical_orbits(f)
        with pytest.raises(UnresolvedOrbit):
            require_postcritically_fixed(table)
        # the wandering orbit converges to a root yet never lands
        bad = [e for e in table.entries if e.landing == "unresolved"]
        assert bad
        for e in bad:
            tail = e.orbit[-1]
            assert tail != INF
            _, dist = f.nearest_root(tail)
            assert dist < 1e-12  # converged numerically, still not a landing

    def test_quartic_with_triple_pole(self):
        f = make_newton_map(Polynomial((-1, 0, 0, 0, 1)))
        table = critical_orbits(f)
        assert require_postcritically_fixed(table) == 1
        pole_entries = [e for e in table.entries if e.start == 0]
        assert len(pole_entries) == 1
        assert pole_entries[0].branching == 2
        assert pole_entries[0].landing == "infinity"

    def test_monic_quartic_superattracting_origin(self):
        f = make_newton_map(Polynomial((0, -1, 0, 0, 1)))
        table = critical_orbits(f)
        assert require_postcritically_fixed(table) == 0
        origin = [e for e in table.entries if e.start == 0][0]
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

    @pytest.mark.parametrize("max_iter", [256, 60, 3])
    @pytest.mark.parametrize("coeffs, center, half_width", WINDOWS, ids=WINDOW_IDS)
    def test_every_pixel_matches_classify_point(
        self, monkeypatch, coeffs, center, half_width, max_iter
    ):
        # in a working set of 7 lanes, topped up whenever 3 are left, pixels
        # started on different steps share it and reach the cap on different
        # loop steps; in the pole zoom, 60 lies inside the spread of
        # retirement steps
        f = make_newton_map(Polynomial(coeffs))
        spec = RasterSpec(24, 24, center, half_width)
        grid = spec.grid()
        want = np.full((24, 24, 2), -1, dtype=np.int16)
        for i in range(24):
            for j in range(24):
                res = classify_point(f, grid[i, j], max_iter=max_iter)
                if res.kind == "basin":
                    want[i, j] = (res.root_index, res.entry_step)
        for tile in (dynamics._TILE, 7):
            monkeypatch.setattr(dynamics, "_TILE", tile)
            ras = render_basins(f, spec, max_iter=max_iter)
            got = np.stack((ras.basin_id, ras.steps), axis=-1)
            bad = np.argwhere((got != want).any(axis=-1))
            assert bad.size == 0, (tile, bad[:5].tolist())
        if max_iter == 3:
            assert (ras.basin_id < 0).any()
        else:
            assert len(set(ras.steps.ravel().tolist())) > 10

    @pytest.mark.parametrize("coeffs, center, half_width", WINDOWS, ids=WINDOW_IDS)
    def test_tiles_do_not_change_the_image(self, monkeypatch, coeffs, center, half_width):
        # 576 pixels through a working set of 7 lanes: it runs down to lone
        # lanes at the end, and far lanes are evaluated in other company
        # than in one whole-image working set
        f = make_newton_map(Polynomial(coeffs))
        spec = RasterSpec(24, 24, center, half_width)
        whole = render_basins(f, spec)
        monkeypatch.setattr(dynamics, "_TILE", 7)
        tiled = render_basins(f, spec)
        assert tiled.basin_id.tobytes() == whole.basin_id.tobytes()
        assert tiled.steps.tobytes() == whole.steps.tobytes()

    @pytest.mark.parametrize("coeffs, center, half_width", REFERENCE_WINDOWS, ids=REFERENCE_IDS)
    def test_proofs_do_not_change_the_image(self, monkeypatch, coeffs, center, half_width):
        f = make_newton_map(Polynomial(coeffs))
        spec = RasterSpec(32, 32, center, half_width)
        ras, work = lane_steps(monkeypatch, lambda: render_basins(f, spec))
        with without_proofs(monkeypatch):
            ref, ref_work = lane_steps(monkeypatch, lambda: render_basins(f, spec))
        assert ras.basin_id.tobytes() == ref.basin_id.tobytes()
        assert ras.steps.tobytes() == ref.steps.tobytes()
        assert work < ref_work  # certified exits retire pixels sooner

    def test_gamma_sets_the_exit_radius_of_close_roots(self):
        p = Polynomial(CLOSE_ROOTS)
        rho = make_newton_map(p).exit_radius
        assert rho > 0
        assert make_newton_map(p, Tolerances(basin_tol=0.9e-3)).exit_radius == rho
        # where the roots are well apart, basin_tol sets it
        q = Polynomial((-1, 0, 0, 1))
        assert make_newton_map(q, Tolerances(basin_tol=0.9e-3)).exit_radius < (
            make_newton_map(q).exit_radius
        )

    @pytest.mark.parametrize("basin_tol", [0.0, 1e-15, 1e-12, 0.5, 1.5])
    def test_basin_tol_extremes_match_the_reference(self, monkeypatch, basin_tol):
        f = make_newton_map(Polynomial((-1, 0, 0, 1)), Tolerances(basin_tol=basin_tol))
        spec = RasterSpec(64, 64, 0j, 2.0)
        ras = render_basins(f, spec)
        with without_proofs(monkeypatch):
            ref = render_basins(f, spec)
        assert ras.basin_id.tobytes() == ref.basin_id.tobytes()
        assert ras.steps.tobytes() == ref.steps.tobytes()
        if basin_tol <= 1e-12:  # not far above rounding: no exit
            assert f.exit_radius == 0
        if basin_tol == 0:  # only exact root hits count, and many pixels make none
            assert (ras.basin_id < 0).any()
        if basin_tol >= 1:
            assert dynamics._root_band(f) == [(0.0, math.inf)]

    def test_exact_root_is_no_exit_at_zero_tol(self, monkeypatch):
        # f moves each root of this map off itself in floating point, so at
        # basin_tol = 0 an orbit that starts exactly on a root is near it for
        # one step only and stays unresolved
        f = make_newton_map(
            Polynomial.from_roots([0.1, 0.7, -0.3 + 0.2j]), Tolerances(basin_tol=0)
        )
        for r in f.roots:
            spec = RasterSpec(1, 1, r, 1.0)  # its one cell center is r
            assert spec.grid()[0, 0] == r
            res = classify_point(f, r)
            with without_proofs(monkeypatch):
                assert classify_point(f, r) == res
            assert res.kind == "unresolved"
            ras = render_basins(f, spec)
            assert (ras.basin_id[0, 0], ras.steps[0, 0]) == (-1, -1)

    @pytest.mark.parametrize("basin_tol", [0.0, 1e-9, 1e-3, 0.5])
    @pytest.mark.parametrize("roots",[(1, -1, 2j), (-100, 1, 100, 3j), (0, 1, -0.5 + 0.8j)])
    def test_root_band_holds_every_near_point(self, roots, basin_tol):
        f = make_newton_map(Polynomial.from_roots(roots), Tolerances(basin_tol=basin_tol))
        bands = dynamics._root_band(f)
        rng = np.random.default_rng(5)
        near = 0
        for r in f.roots:
            # up to 1.5 basin_tol chordal from r, in every direction
            radius = (1 + abs(r) ** 2) / 2 * basin_tol * rng.uniform(0, 1.5, 500)
            points = [r] + (r + radius * np.exp(2j * np.pi * rng.random(500))).tolist()
            for z in points:
                if chordal_distance(z, r) <= basin_tol:
                    near += 1
                    assert any(lo <= abs(z) < hi for lo, hi in bands), z
        assert near > len(f.roots)

    def test_prepole_pixel_dies_in_the_pole_band(self, monkeypatch):
        f = make_newton_map(Polynomial(TWO_POLE_MODULI))
        bands = dynamics._pole_band(f)
        assert len(bands) == 2  # moduli 1/3 and 1: two bands
        spec = RasterSpec(32, 32, PREPOLE_CENTER, 0.05)
        z = spec.grid()[16, 16]
        assert 0 < abs(z + 0.5j) < 2e-12
        assert 0 < abs(f.evaluate(z) - 1j / 3) < f.tol.pole_snap
        assert classify_point(f, z).hit_prepole
        assert render_basins(f, spec).basin_id[16, 16] == -1
        # without its pole band the pixel's orbit would reach a basin
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_pole_band", lambda f: [])
            assert render_basins(f, spec).basin_id[16, 16] >= 0

    @pytest.mark.parametrize("pole_snap", [0.0, 1e-9, 1e-3, 0.5, 100.0])
    @pytest.mark.parametrize("coeffs", [TWO_POLE_MODULI, (-1, 0, 0, 0, 1), CLOSE_ROOTS])
    def test_pole_band_holds_every_snapped_point(self, coeffs, pole_snap):
        f = make_newton_map(Polynomial(coeffs), Tolerances(pole_snap=pole_snap))
        bands = dynamics._pole_band(f)
        rng = np.random.default_rng(9)
        for q, _ in f.poles:
            snap = pole_snap * (1 + abs(q))
            # up to 1.5 snap from q, in every direction, and the rim itself
            radius = snap * np.concatenate((rng.uniform(0, 1.5, 500), [1.0]))
            z = q + radius * np.exp(2j * np.pi * rng.random(radius.size))
            snapped = z[np.abs(z - q) <= snap]
            assert snapped.size > 0
            inside = dynamics._in_bands(np.abs(snapped), bands)
            assert inside.size == snapped.size

    def test_multi_tile_render_stays_small(self, cubic_unity):
        # traced peak of a 512 x 512 full-window z^3 - 1 render through a
        # working set of at most 2^15 lanes: 9.2 MB measured (numpy 2.4); one
        # whole-image working set peaks at about 37 MB
        spec = RasterSpec(512, 512, 0j, 2.0)
        tracemalloc.start()
        try:
            render_basins(cubic_unity, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

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

    @pytest.mark.parametrize(
        "fields, name",
        [(dict(width=0, height=4), "width"),
         (dict(width=4, height=0), "height"),
         (dict(width=4.0, height=4), "width"),
         (dict(width=4, height=True), "height"),
         (dict(width=4, height=4, half_width=math.nan), "half_width"),
         (dict(width=4, height=4, half_width=-2.0), "half_width"),
         (dict(width=4, height=4, half_width=math.inf), "half_width"),
         (dict(width=4, height=4, center=complex(math.nan, 0)), "center"),
         (dict(width=4, height=4, center=complex(0, math.inf)), "center")],
    )
    def test_unrenderable_window_rejected(self, fields, name):
        with pytest.raises(ValueError, match=name):
            RasterSpec(**fields)

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


# z^3 - 2z + 2: the Newton map has the attracting 2-cycle {0, 1}, so an orbit
# from near 0 nears no root and only the step cap ends it. A cap of 2.5 + 5
# equals no int16 step, so render_basins would never retire such a lane.
@pytest.mark.parametrize("max_iter", [2.5, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("caller", ["classify_point", "render_basins"])
def test_max_iter_must_be_an_integer(caller, max_iter):
    f = make_newton_map(Polynomial((2, -2, 0, 1)))
    with pytest.raises(ValueError, match="max_iter"):
        if caller == "classify_point":
            classify_point(f, 0.01, max_iter=max_iter)
        else:
            render_basins(f, RasterSpec(8, 8, 0j, 0.05), max_iter=max_iter)
