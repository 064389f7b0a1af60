"""Polynomial core: frozen expansions, companion-matrix oracle, sphere evaluation."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from newtongraph import poly
from newtongraph.errors import DegreeTooLow, MultipleRoot, NoConvergence
from newtongraph.poly import (
    CHART_RADIUS,
    NewtonMap,
    Polynomial,
    horner,
    make_newton_map,
    roots_of,
    roots_of_rows,
)
from newtongraph.pullback import lift_point
from newtongraph.sphere import INF, SpherePoint, chordal_distance, closest_pair, point
from newtongraph.tolerances import Tolerances


def P(*coeffs):
    """Lowest-order first."""
    return Polynomial(tuple(complex(c) for c in coeffs))


CUBIC_UNITY = P(-1, 0, 0, 1)      # z^3 - 1
CUBIC_ODD = P(0, -1, 0, 1)        # z^3 - z


class TestChordal:
    def test_basic_values(self):
        assert chordal_distance(INF, INF) == 0.0
        assert chordal_distance(0, INF) == pytest.approx(2.0)
        assert chordal_distance(0, 0) == 0.0
        # d(1, -1) = 2*2/ (sqrt(2)*sqrt(2)) = 2
        assert chordal_distance(1, -1) == pytest.approx(2.0)

    def test_symmetry_and_inversion_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = (complex(*rng.normal(size=2)) for _ in range(2))
            d1 = chordal_distance(a, b)
            assert d1 == pytest.approx(chordal_distance(b, a))
            if a != 0 and b != 0:
                assert d1 == pytest.approx(chordal_distance(1 / a, 1 / b), abs=1e-12)

    def test_large_values_do_not_overflow(self):
        assert chordal_distance(1e200, INF) < 1e-150
        assert 0 <= chordal_distance(1e200, -1e200) <= 2.0

    def test_zero_against_huge_value(self):
        # 1e200 sits next to infinity, 0 is its antipode
        assert chordal_distance(0, 1e200) == pytest.approx(2.0)
        assert chordal_distance(1e200j, 0) == pytest.approx(2.0)
        assert chordal_distance(1, 1e200) == pytest.approx(chordal_distance(1, INF))

    def test_complex_conversion_round_trips(self):
        # numpy scalars become Python complex, whose arithmetic the exports
        # are computed in
        z = point(np.complex128(2 - 1j))
        assert type(z) is complex and z == 2 - 1j
        assert point(INF) == INF
        assert point(complex("nan")) == INF
        assert point(complex(1, math.inf)) == INF

    def test_non_finite_values_are_infinity(self):
        assert chordal_distance(complex("nan"), 0) == 2.0
        assert chordal_distance(complex(math.inf, math.inf), INF) == 0.0
        assert chordal_distance(INF, INF) == 0.0

    def test_closest_pair_is_the_scalar_minimum(self):
        def scalar(points):  # the definition: one chordal_distance per pair
            n = len(points)
            return min(((chordal_distance(points[i], points[j]), i, j)
                        for i in range(n) for j in range(i + 1, n)), default=(math.inf, 0, 0))

        sets = [
            [], [2j], [1, -1, 1j, -1j], [0, 1, 2, 1], [INF, INF, 1, 1],
            [INF, 0, 2e150, -3e151j, 1e-160, 1e150], [1e200, INF, 2, -1e200],
            [np.complex128(0.5 - 1j), 0.5 - 1j, INF, complex("nan")],
        ]
        rng = np.random.default_rng(31)
        extras = [INF, 1e151, -2e160j, 1e-170, 0j]
        for _ in range(60):
            k = int(rng.integers(2, 10))
            points = list(rng.normal(size=k) + 1j * rng.normal(size=k))
            points += [extras[i] for i in rng.integers(0, len(extras), size=int(rng.integers(0, 3)))]
            points += [points[i] for i in rng.integers(0, len(points), size=int(rng.integers(0, 2)))]
            sets.append([points[i] for i in rng.permutation(len(points))])
        for points in sets:
            assert closest_pair(points) == scalar(points), points


class TestPolynomial:
    def test_normalization_strips_leading_zeros(self):
        q = Polynomial((1, 2, 0, 0))
        assert q.degree == 1
        assert q.coeffs == (1 + 0j, 2 + 0j)

    def test_eval_and_derivative(self):
        q = P(1, -2, 3)  # 3z^2 - 2z + 1
        assert q(2) == 3 * 4 - 4 + 1
        assert q.derivative().coeffs == (-2 + 0j, 6 + 0j)

    def test_arithmetic(self):
        a, b = P(1, 1), P(-1, 1)
        assert (a * b).coeffs == (-1 + 0j, 0j, 1 + 0j)
        assert (a - b).coeffs == (2 + 0j,)

    def test_from_roots_round_trip(self):
        roots = [1, -2, 3j]
        q = Polynomial.from_roots(roots, leading=2)
        for r in roots:
            assert abs(q(r)) < 1e-12
        assert q.coeffs[-1] == 2 + 0j

    def test_array_horner_is_elementwise_bit_for_bit(self):
        # Each value of an array evaluation is what its point gives in any
        # other array of two or more points, so compacting an array (as
        # render_basins does) changes no value. A Python number agrees to
        # rounding only: numpy's complex multiply may round otherwise than
        # Python's in the last bit, and so may its in-place multiply on a
        # one-element array.
        rng = np.random.default_rng(17)
        for deg in (0, 1, 4, 9):
            coeffs = tuple(complex(c) for c in rng.normal(size=(deg + 1, 2)) @ (1, 1j))
            z = (rng.normal(size=200) + 1j * rng.normal(size=200)) * 10.0 ** rng.uniform(
                -3, 3, size=200
            )
            z[:3] = (0j, -2.5 + 0j, 1e-300j)
            arr = horner(coeffs, z)
            pairs = np.concatenate([horner(coeffs, z[i : i + 2]) for i in range(0, 200, 2)])
            assert arr.tobytes() == pairs.tobytes()
            pick = rng.permutation(len(z))[:37]
            assert horner(coeffs, z[pick]).tobytes() == arr[pick].tobytes()
            q = Polynomial(coeffs[::-1])
            assert q(z).tobytes() == arr.tobytes()
            for x, value in zip(z.tolist(), arr.tolist()):
                scale = sum(abs(c) * abs(x) ** k for k, c in enumerate(coeffs[::-1]))
                assert abs(horner(coeffs, x) - value) <= 8 * (deg + 1) * 2.3e-16 * scale

    def test_horner_from_the_leading_coefficient_moves_only_signs_of_zeros(self):
        # oracle: the same loop from a zero accumulator, which adds the
        # leading coefficient to 0 * x; == does not see the sign of a zero,
        # and every part that is not zero must match bit for bit
        def zero_start(coeffs, x):
            acc = np.zeros(x.shape, dtype=complex) if isinstance(x, np.ndarray) else 0j
            for c in coeffs:
                acc = acc * x + c
            return acc

        rng = np.random.default_rng(23)
        for deg in (0, 1, 3, 6):
            coeffs = [complex(c) for c in rng.normal(size=(deg + 1, 2)) @ (1, 1j)]
            coeffs[0] = complex(-0.0, coeffs[0].imag)  # a signed zero to lose
            if deg:
                coeffs[-1] = complex(0.0, -0.0)
            z = (rng.normal(size=64) + 1j * rng.normal(size=64)) * 10.0 ** rng.uniform(-3, 3, 64)
            z[:4] = (0j, complex(-0.0, 0.0), 2.5 + 0j, complex(0.0, -1e-300))
            ref = zero_start(coeffs, z)
            got = horner(iter(coeffs), z)  # any iterable, not only a sequence
            assert np.array_equal(got, ref)
            parts, ref_parts = got.view(float), ref.view(float)
            nonzero = parts != 0
            assert parts[nonzero].tobytes() == ref_parts[nonzero].tobytes()
            for x in z.tolist():
                assert horner(reversed(coeffs[::-1]), x) == zero_start(coeffs, x)

    def test_value_and_scale_rows_share_one_horner_pass(self):
        # _aberth_rows evaluates q and its backward-error scale sum |c_k||z|^k
        # as two rows of one table, the scale as |c_k| + 0j at |z| + 0j: each
        # row must be its separate pass bit for bit, signed zeros included
        rng = np.random.default_rng(29)
        for n in (2, 3, 6):
            c = rng.normal(size=(4, n + 1)) + 1j * rng.normal(size=(4, n + 1))
            c.imag[rng.random(c.shape) < 0.3] = -0.0
            c.real[rng.random(c.shape) < 0.1] = -0.0
            z = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
            z.imag[rng.random(z.shape) < 0.3] = 0.0
            z[0, 0] = complex(-0.0, 0.0)
            cr = np.repeat(c[:, ::-1].T[:, :, None], n, axis=2)
            x = np.zeros((2,) + z.shape, dtype=complex)
            x[0] = z
            np.abs(z, out=x[1].real)
            q, es = horner(np.stack([cr, np.abs(cr).astype(complex)], axis=1), x)
            scale = np.zeros(z.shape)
            for a in np.abs(cr):
                scale = scale * np.abs(z) + a
            assert q.tobytes() == horner(cr, z).tobytes()
            assert es.real.copy().tobytes() == scale.tobytes()
            assert not es.imag.any()
        # q' keeps a pass of its own: padded to q's length with a leading
        # zero it loses the sign of a zero part, here on negative real
        # coefficients with -0 imaginary parts at real points
        c = np.array([[complex(-2, -0.0), complex(-3, -0.0), complex(-1, -0.0)]])
        z = np.array([[0.5 + 0j, 1.5 + 0j]])
        dr = np.repeat((c[:, 1:] * np.arange(1, 3))[:, ::-1].T[:, :, None], 2, axis=2)
        padded = horner(np.concatenate([np.zeros((1, 1, 2), dtype=complex), dr]), z)
        assert np.array_equal(padded, horner(dr, z))
        assert padded.tobytes() != horner(dr, z).tobytes()


class TestRootsOf:
    def test_against_companion_matrix_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            deg = int(rng.integers(2, 8))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            q = Polynomial(tuple(coeffs))
            mine = sorted(
                (r for r, m in roots_of(q) for _ in range(m)),
                key=lambda z: (z.real, z.imag),
            )
            oracle = sorted(np.roots(coeffs[::-1]), key=lambda z: (z.real, z.imag))
            assert len(mine) == len(oracle)
            for a, b in zip(mine, oracle):
                assert abs(a - b) < 1e-7 * (1 + abs(b))

    def test_multiplicities(self):
        # (z-1)^2 (2z+1) = 2z^3 - 3z^2 + 1
        q = P(1, 0, -3, 2)
        got = dict()
        for r, m in roots_of(q):
            got[round(r.real, 6) + 1j * round(r.imag, 6)] = m
        assert got[(1 + 0j)] == 2
        assert got[(-0.5 + 0j)] == 1

    def test_monomial(self):
        assert roots_of(P(0, 0, 3)) == ((0j, 2),)

    def test_triple_root(self):
        q = Polynomial.from_roots([2, 2, 2, -1])
        got = sorted(roots_of(q), key=lambda t: t[0].real)
        assert got[0][1] == 1 and abs(got[0][0] + 1) < 1e-6
        assert got[1][1] == 3 and abs(got[1][0] - 2) < 1e-4

    def test_zero_roots_mixed(self):
        q = P(0, 0, -1, 0, 1)  # z^2 (z^2 - 1)
        got = {(round(r.real, 8), round(r.imag, 8)): m for r, m in roots_of(q)}
        assert got[(0.0, 0.0)] == 2
        assert got[(1.0, 0.0)] == 1
        assert got[(-1.0, 0.0)] == 1

    @pytest.mark.parametrize("w", [1e300, 1e200j, 1e160 + 1e160j])
    def test_an_overflowing_fiber_raises_no_convergence(self, w):
        # its Aberth run overflows; with warnings as errors it still fails
        # with the solver's own error, not a numpy warning
        f = make_newton_map(CUBIC_UNITY)
        with pytest.raises(NoConvergence, match="residual not finite for the fiber over"):
            lift_point(f, w)
        with pytest.raises(NoConvergence, match="residual not finite for degree 3 at"):
            roots_of(f.numerator - f.denominator * w)

    def test_residuals_certified(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            roots = rng.normal(size=5) + 1j * rng.normal(size=5)
            q = Polynomial.from_roots(roots)
            for r, m in roots_of(q):
                assert abs(q(r)) <= 1e-8 * q.eval_scale(r)


def random_batch(rng, size):
    """Polynomials of degrees 0 to 9, some with zero roots or a double root."""
    polys = []
    for _ in range(size):
        deg = int(rng.integers(0, 10))
        kind = rng.integers(3)
        if kind == 2 and deg >= 2:
            roots = rng.normal(size=deg - 1) + 1j * rng.normal(size=deg - 1)
            polys.append(Polynomial.from_roots([roots[0], *roots]))
            continue
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if kind == 1 and deg >= 1:
            coeffs[: int(rng.integers(1, deg + 1))] = 0
        polys.append(Polynomial(tuple(coeffs)))
    return polys


def sorted_roots(found):
    return sorted((r for r, m in found for _ in range(m)), key=lambda z: (z.real, z.imag))


class TestBatchedRoots:
    def test_mixed_batches_against_companion_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            polys = [q for q in random_batch(rng, 12) if q.degree >= 1]
            for q, found in zip(polys, roots_of_rows(polys)):
                assert sum(m for _, m in found) == q.degree
                oracle = sorted(np.roots(q.coeffs[::-1]), key=lambda z: (z.real, z.imag))
                for a, b in zip(sorted_roots(found), oracle):
                    # a double root is only good to about sqrt(eps)
                    assert abs(a - b) < 1e-6 * (1 + abs(b))

    def test_each_row_is_the_row_solved_alone_bit_for_bit(self):
        rng = np.random.default_rng(11)
        polys = random_batch(rng, 60)
        alone = [roots_of(q) for q in polys]
        assert roots_of_rows(polys) == alone
        order = rng.permutation(len(polys))
        assert roots_of_rows([polys[i] for i in order]) == [alone[i] for i in order]
        # and in a batch of one degree alone
        sixes = [i for i, q in enumerate(polys) if q.degree == 6]
        assert roots_of_rows([polys[i] for i in sixes]) == [alone[i] for i in sixes]

    @staticmethod
    def one_row_starts(c):
        """Aberth's starts for one row c, as a row alone takes them from
        numpy scalars: the oracle of the batched _initial_points."""
        n = len(c) - 1
        r0 = abs(c[0] / c[-1]) ** (1.0 / n) if c[0] != 0 else 1.0
        rmax = 1.0 + max(abs(c[i] / c[-1]) for i in range(n))
        r = min(max(r0, 1e-3), rmax)
        ang = 2 * np.pi * np.arange(n) / n + 0.376
        return r * np.exp(1j * ang) * (1 + 0.01 * np.arange(n) / max(n, 1))

    def test_batched_starts_are_the_one_row_formula_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 8):
            c = rng.normal(size=(400, n + 1)) + 1j * rng.normal(size=(400, n + 1))
            c *= 10.0 ** rng.uniform(-6, 6, size=c.shape)
            c[::7, 0] = 0
            c = c / np.max(np.abs(c), axis=1, keepdims=True)
            oracle = np.array([self.one_row_starts(row) for row in c])
            assert poly._initial_points(c).tobytes() == oracle.tobytes()
            assert poly._initial_points(c[3]).tobytes() == oracle[3].tobytes()

    def test_array_rows_come_out_in_roots_of_order(self):
        # rows of one degree given as an array, named and optional, against
        # roots_of; several hold roots whose real parts tie to 12 places
        rng = np.random.default_rng(23)
        polys = [Polynomial.from_roots(rng.normal(size=5) + 1j * rng.normal(size=5))
                 for _ in range(12)]
        polys += [Polynomial.from_roots([1 + 1j, 1 - 1j, -2, 0.5 + 3j, 0.5 - 3j]),
                  Polynomial.from_roots([2j, -2j, 1j, -1j, 3], 2 - 1j)]
        alone = [roots_of(q) for q in polys]
        rows = np.array([q.coeffs for q in polys])
        assert roots_of_rows(rows) == alone
        optional = roots_of_rows(rows, names=[None] * len(polys))
        for points, roots in zip(optional, alone):
            assert points.tolist() == [z for z, _ in roots]

    def test_real_parts_that_round_alike_sort_by_imaginary_part(self):
        # real parts an ulp apart, or both zero with either sign, tie in
        # _root_order, where the order by real part alone would split them
        rng = np.random.default_rng(41)
        up, down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        points = [complex(up, 2), complex(1, -1), complex(down, 0.5), complex(-0.0, 1),
                  complex(0.0, -3), 5 + 0j, -2 + 1e-3j]
        rows = np.array([rng.permutation(points) for _ in range(20)])
        oracle = [sorted(row.tolist(), key=lambda z: poly._root_order((z, 1))) for row in rows]
        assert poly._in_root_order(rows).tolist() == oracle

    def test_a_settled_row_freezes(self, monkeypatch):
        # a row is evaluated as often in a batch as alone: once its stop
        # test holds it takes no more rounds, whatever the other rows need
        evaluated = [0]

        def counted(coeffs, x):
            evaluated[0] += x.size
            return horner(coeffs, x)

        monkeypatch.setattr(poly, "horner", counted)
        rng = np.random.default_rng(5)
        c = rng.normal(size=(8, 7)) + 1j * rng.normal(size=(8, 7))
        starts = np.array([poly._initial_points(row) for row in c])
        poly._aberth_rows(c, starts, 400)
        batch, evaluated[0] = evaluated[0], 0
        for k in range(8):
            poly._aberth_rows(c[k : k + 1], starts[k : k + 1], 400)
        assert batch == evaluated[0]

    def test_one_aberth_run_per_degree(self, monkeypatch):
        runs = []
        aberth = poly._aberth_rows

        def counted(c, z0, iters):
            runs.append(z0.shape)
            return aberth(c, z0, iters)

        monkeypatch.setattr(poly, "_aberth_rows", counted)
        polys = [Polynomial.from_roots(range(k, k + d)) for d in (3, 5, 3, 5, 5) for k in (1, 9)]
        roots_of_rows(polys)
        assert sorted(runs) == [(4, 3), (6, 5)]

    def test_row_with_a_zero_derivative_waits_alone(self):
        # z^3 + 1 starts at 0 and z^3 - 3z + 1 at its critical points 1 and
        # -1, where the derivative vanishes: those rows take no step in the
        # first round, the third goes on, and each row comes out as it does
        # alone
        rows = np.array([[1, 0, 0, 1], [1, -3, 0, 1], [2, 1j, 0.5, 1]], dtype=complex)
        starts = np.array([[0, 1.5 + 0.2j, -0.7 + 1j], [1, -1, 0.3j], [1, 1j, -1]])
        z, corr = poly._aberth_rows(rows, starts, 400)
        for k in range(3):
            alone, alone_corr = poly._aberth_rows(rows[k : k + 1], starts[k : k + 1], 400)
            assert z[k].tobytes() == alone[0].tobytes()
            assert corr[k].tobytes() == alone_corr[0].tobytes()
            q = Polynomial(tuple(rows[k]))
            for r in z[k]:
                assert abs(q(r)) < 1e-12

    def test_known_factor_is_divided_out(self):
        # (z - 0.5i)^3 (z^2 + 2): the triple root comes back exactly
        r = 0.5j
        q = Polynomial.from_roots([r, r, r, 2**0.5 * 1j, -(2**0.5) * 1j])
        [found] = roots_of_rows([q], known=[[(r, 3)]])
        assert (r, 3) in found
        assert sum(m for _, m in found) == 5
        others = sorted(z.imag for z, m in found if m == 1)
        assert others == pytest.approx([-(2**0.5), 2**0.5], abs=1e-12)

    def test_two_known_factors_on_one_row(self):
        # (z - 1)^2 (z - 2)^3 (z - 3): both known factors come back exactly,
        # and the simple root left after dividing them out is certified
        q = Polynomial.from_roots([1, 1, 2, 2, 2, 3])
        [found] = roots_of_rows([q], known=[[(1, 2), (2, 3)]])
        assert found[:2] == ((1, 2), (2, 3))
        [(z, m)] = found[2:]
        assert m == 1 and abs(z - 3) < 1e-12
        assert abs(q(z)) <= 64 * 2.0**-52 * q.eval_scale(z)

    @pytest.mark.parametrize("spoiled, runs", [(1, 1), (4, 2)])
    def test_retry_after_failed_certification(self, monkeypatch, spoiled, runs):
        # spoil some points of the first run, 1e3 off, where three Newton
        # steps cannot certify them: with one left uncertified the remainder
        # after deflating the rest is linear and solved directly; with none
        # certified the row restarts from other starts
        calls = []
        aberth = poly._aberth_rows

        def spoiling(c, z0, iters):
            z, corr = aberth(c, z0, iters)
            calls.append(iters)
            if len(calls) == 1:
                z[0, :spoiled] += 1e3
            return z, corr

        monkeypatch.setattr(poly, "_aberth_rows", spoiling)
        q = P(3 - 1j, 0.5, 2j, -1, 1)
        found = roots_of(q)
        assert len(calls) == runs
        assert calls[1:] == [800] * (runs - 1)  # a restart, never a rerun of 400
        for a, b in zip(
            sorted_roots(found),
            sorted(np.roots(q.coeffs[::-1]), key=lambda z: (z.real, z.imag)),
        ):
            assert abs(a - b) < 1e-10 * (1 + abs(b))
        for z, _ in found:
            assert abs(q(z)) <= 64 * 2.2e-16 * q.eval_scale(z)

    @pytest.mark.parametrize("spoil", ["near", "onto-a-neighbour"])
    def test_a_near_miss_is_polished_on_q(self, monkeypatch, spoil):
        # points of the first run 1e-3 off their roots take three Newton
        # steps on q and certify, with no second run; a point moved 1e-3
        # from another's root would polish onto that root, so it is not
        # kept, and the linear remainder gives its own root instead
        calls = []
        aberth = poly._aberth_rows

        def spoiling(c, z0, iters):
            z, corr = aberth(c, z0, iters)
            calls.append(iters)
            if spoil == "near":
                z[0] += 1e-3
            else:
                z[0, 1] = z[0, 0] + 1e-3
            return z, corr

        monkeypatch.setattr(poly, "_aberth_rows", spoiling)
        q = P(3 - 1j, 0.5, 2j, -1, 1)
        found = roots_of(q)
        assert calls == [400]
        assert [m for _, m in found] == [1, 1, 1, 1]
        for a, b in zip(
            sorted_roots(found),
            sorted(np.roots(q.coeffs[::-1]), key=lambda z: (z.real, z.imag)),
        ):
            assert abs(a - b) < 1e-10 * (1 + abs(b))

    def test_uncertified_row_is_named(self, monkeypatch):
        # every Aberth run misses, and the line is solved directly
        monkeypatch.setattr(
            poly, "_aberth_rows", lambda c, z0, iters: (z0 + 5, np.zeros(z0.shape))
        )
        with pytest.raises(NoConvergence, match="the cubic"):
            roots_of_rows([P(1, 2), P(1, 2, 3, 4)], names=["the line", "the cubic"])


EPS = 2.220446049250313e-16


def scalar_certified(q, z):
    """The finish's residual test at one point, False where the finish
    fails the row for a residual or scale that is not finite."""
    if not cmath.isfinite(z):
        return False
    qq, scale = q(z), q.eval_scale(z)
    if not (cmath.isfinite(qq) and math.isfinite(scale)):
        return False  # the row fails with NoConvergence
    return abs(qq) <= 64 * EPS * max(scale, 1e-300)


def scalar_multiplicity(q, z):
    """The finish's multiplicity estimate from L = q q''/q'^2, 0 where L is
    not finite and the row fails."""
    dq = q.derivative()
    qv, dv, ddv = q(z), dq(z), dq.derivative()(z)
    if dv == 0:
        return q.degree
    L = qv * ddv / (dv * dv)
    if not cmath.isfinite(L):
        return 0
    denom = 1.0 - L.real
    if denom <= 1.0 / (2 * q.degree):
        return q.degree
    return max(1, min(q.degree, int(round(1.0 / denom))))


def scalar_clustered(pts, corr, mult):
    """The finish's cluster rule: two points closer than the larger of
    their radii."""
    radius = [
        max(50 * c, (1e3 * EPS if m == 1 else 30 * EPS ** (1.0 / m)) * (1 + abs(z)))
        for z, c, m in zip(pts, corr, mult)
    ]
    n = len(pts)
    return any(abs(pts[i] - pts[j]) < max(radius[i], radius[j])
               for i in range(n) for j in range(i + 1, n))


def scalar_polish(q, z):
    """Three Newton steps on q from z, stopping where q' is zero."""
    dq = q.derivative()
    for _ in range(3):
        d = dq(z)
        if d == 0:
            break
        z = z - q(z) / d
    return z


def aberth_points(qs):
    """The normalised coefficients, and the Aberth points and corrections,
    of roots_of_rows for each q."""
    c = np.array([q.coeffs for q in qs], dtype=complex)
    c = c / np.max(np.abs(c), axis=1, keepdims=True)
    return (c,) + poly._aberth_rows(c, np.array([poly._initial_points(row) for row in c]), 400)


def finished(qs, c, pts, corr):
    """_finish_rows on the rows of qs: each row's roots with multiplicities,
    in the finish's order, or the NoConvergence that fails it."""
    q = np.array([q.coeffs for q in qs], dtype=complex)
    roots, odd = poly._finish_rows(q, c, pts, corr, ["a row"] * len(qs))
    return [odd.get(k, [(z, 1) for z in row]) for k, row in enumerate(roots.tolist())]


def finish_bits(done):
    """A finished row as bytes and multiplicities, or its error's text."""
    if isinstance(done, NoConvergence):
        return str(done)
    return np.array([z for z, _ in done]).tobytes(), [m for _, m in done]


class TestBatchedFinish:
    """roots_of_rows finishes every row of one degree at once, retries and
    clusters included; the scalar rules restated here are the oracle of its
    verdicts."""

    @staticmethod
    def special_rows():
        """Rows of degree 4 with a double root, an uncertified point, a zero
        derivative, a residual past float range and a finite residual whose
        scale is past float range, with their coefficients and points."""
        double = Polynomial.from_roots([1, 1, 2, -3])
        generic = P(3 - 1j, 0.5, 2j, -1, 1)
        flat = P(1, -4, 0, 0, 1)  # q' = 4z^3 - 4 vanishes at 1
        huge = P(1, 0, 0, 0, 1e300)
        cancelling = P(1, 0, 0, -1e78, 1)  # q(1e78) = 1, its scale 2e312
        qs = [double, generic, flat, huge, cancelling]
        c, pts, corr = aberth_points(qs)
        pts[1, 0] += 1e-3
        pts[2, 0] = 1.0
        pts[3, 0] = 1e10
        pts[4, 0] = 1e78
        return qs, c, pts, corr

    def assert_verdicts_match_the_oracle(self, qs, pts, corr):
        c = np.array([q.coeffs for q in qs], dtype=complex)
        certified, _, mult, near, _, _ = poly._row_verdicts(poly._derivatives(c), pts, corr)
        clustered = near.any(axis=(1, 2))
        for k, q in enumerate(qs):
            row = pts[k].tolist()
            assert certified[k].tolist() == [scalar_certified(q, z) for z in row]
            oracle = [scalar_multiplicity(q, z) for z in row]
            assert mult[k].tolist() == oracle
            if all(oracle):
                assert clustered[k] == scalar_clustered(row, corr[k].tolist(), oracle)
        return certified, mult, clustered

    def test_the_special_rows_are_finished_in_the_batch(self, monkeypatch):
        qs, c, pts, corr = self.special_rows()
        certified, mult, clustered = self.assert_verdicts_match_the_oracle(qs, pts, corr)
        assert clustered[0] and sorted(mult[0].tolist())[-2:] == [2, 2]
        assert not certified[1, 0] and certified[1, 1:].all()
        assert mult[2, 0] == 4 and not certified[2, 0]
        assert not certified[3, 0] and not certified[4, 0]
        done = finished(qs, c, pts, corr)
        assert sorted((round(z.real), m) for z, m in done[0]) == [(-3, 1), (1, 2), (2, 1)]
        for k in (1, 2):  # retried: polished on q, or rerun after deflation
            assert [m for _, m in done[k]] == [1, 1, 1, 1]
            for b in np.roots(qs[k].coeffs[::-1]):
                assert min(abs(a - b) for a, _ in done[k]) < 1e-10 * (1 + abs(b))
        for k in (3, 4):
            assert isinstance(done[k], NoConvergence)
            assert str(done[k]).startswith("residual not finite for a row at ")
        [found] = roots_of_rows([qs[0]])
        assert [(round(z.real), m) for z, m in found] == [(-3, 1), (1, 2), (2, 1)]
        # the two overflow rows raise through roots_of_rows
        aberth = poly._aberth_rows
        for k in (3, 4):
            def spoiling(c, z0, iters, at=pts[k, 0]):
                z, corr = aberth(c, z0, iters)
                z[0, 0] = at
                return z, corr

            monkeypatch.setattr(poly, "_aberth_rows", spoiling)
            with pytest.raises(NoConvergence, match="residual not finite for degree 4 at "):
                roots_of(qs[k])

    def test_verdicts_off_the_roots(self):
        # roots moved by 1e-17 to 1e-11 relative, about the certification
        # gate, with corrections that may reach across to a neighbour, and
        # points anywhere, where q' may nearly vanish and the estimate falls
        # back to the degree
        rng = np.random.default_rng(37)
        qs = [Polynomial(tuple(rng.normal(size=6) + 1j * rng.normal(size=6)))
              for _ in range(40)]
        _, pts, corr = aberth_points(qs)
        moved = pts * (1 + 10.0 ** rng.uniform(-17, -11, pts.shape)
                       * np.exp(2j * np.pi * rng.uniform(size=pts.shape)))
        anywhere = 2 * (rng.normal(size=pts.shape) + 1j * rng.normal(size=pts.shape))
        wide = np.abs(pts) * 10.0 ** rng.uniform(-17, -1, pts.shape)
        certified, _, clustered = self.assert_verdicts_match_the_oracle(qs, moved, wide)
        assert 0.2 < certified.mean() < 0.8
        assert 0 < clustered.sum() < len(qs)
        _, mult, _ = self.assert_verdicts_match_the_oracle(qs, anywhere, corr)
        assert {1, 2, 5} <= set(mult.ravel().tolist())

    def test_random_rows_alone_and_in_mixed_batches(self):
        rng = np.random.default_rng(31)
        qs = [Polynomial(tuple(rng.normal(size=5) + 1j * rng.normal(size=5)))
              for _ in range(12)]
        c, pts, corr = aberth_points(qs)
        special, sc, spts, scorr = self.special_rows()
        mixed = (qs[:6] + special + qs[6:], np.concatenate((c[:6], sc, c[6:])),
                 np.concatenate((pts[:6], spts, pts[6:])),
                 np.concatenate((corr[:6], scorr, corr[6:])))
        certified, mult, clustered = self.assert_verdicts_match_the_oracle(
            mixed[0], *mixed[2:]
        )
        batch = finished(*mixed)
        place = list(range(6)) + list(range(11, 17))
        for k, q in enumerate(qs):
            c1 = np.array([q.coeffs], dtype=complex)
            alone = poly._row_verdicts(poly._derivatives(c1), pts[k : k + 1], corr[k : k + 1])
            assert alone[0][0].tobytes() == certified[place[k]].tobytes()
            assert alone[2][0].tobytes() == mult[place[k]].tobytes()
            assert alone[3][0].any() == clustered[place[k]]
            [row] = finished([q], c[k : k + 1], pts[k : k + 1], corr[k : k + 1])
            assert finish_bits(row) == finish_bits(batch[place[k]])
            # a scalar polish of the same points gives the same roots
            for (a, m), z in zip(row, pts[k].tolist()):
                b = scalar_polish(q, z)
                assert m == 1 and abs(a - b) <= 4 * EPS * (1 + abs(b))
        # the double-root row, the retried rows and the failed rows come
        # out alone as in the mixed batch
        for k in range(len(special)):
            [row] = finished(special[k : k + 1], sc[k : k + 1], spts[k : k + 1], scorr[k : k + 1])
            assert finish_bits(row) == finish_bits(batch[6 + k])


class TestMakeNewtonMap:
    def test_frozen_expansion_cubic_unity(self):
        f = make_newton_map(CUBIC_UNITY)
        assert f.numerator.coeffs == (1 + 0j, 0j, 0j, 2 + 0j)
        assert f.denominator.coeffs == (0j, 0j, 3 + 0j)
        assert f.degree == 3
        assert f.poles == ((0j, 2),)
        roots = sorted(f.roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        expected = sorted(
            [1, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)],
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        for a, b in zip(roots, expected):
            assert abs(a - b) < 1e-10

    def test_frozen_expansion_cubic_odd(self):
        f = make_newton_map(CUBIC_ODD)
        assert f.numerator.coeffs == (0j, 0j, 0j, 2 + 0j)
        assert f.denominator.coeffs == (-1 + 0j, 0j, 3 + 0j)
        pole_locs = sorted(q.real for q, m in f.poles)
        assert pole_locs == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
        assert all(m == 1 for _, m in f.poles)

    def test_critical_points_cubic_unity(self):
        f = make_newton_map(CUBIC_UNITY)
        # three roots (branching 1 each) + the double pole 0 (branching 1)
        assert sum(m for _, m in f.critical_points) == 4
        locs = sorted(
            (round(c.real, 6), round(c.imag, 6)) for c, _ in f.critical_points
        )
        assert (0.0, 0.0) in locs
        assert (1.0, 0.0) in locs

    def test_critical_points_cubic_odd(self):
        f = make_newton_map(CUBIC_ODD)
        table = {(round(c.real, 8), round(c.imag, 8)): m for c, m in f.critical_points}
        assert table[(0.0, 0.0)] == 2  # local degree 3 at the root 0
        assert table[(1.0, 0.0)] == 1
        assert table[(-1.0, 0.0)] == 1
        assert f.marked_point(0j).local_degree == 3
        assert f.marked_point(1 + 0j).local_degree == 2
        assert f.marked_point(INF).local_degree == 1
        assert f.marked_point(0.5 + 0.5j).local_degree == 1

    def test_riemann_hurwitz_on_random_maps(self):
        rng = np.random.default_rng(11)
        built = 0
        for _ in range(60):
            deg = int(rng.integers(3, 7))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            try:
                f = make_newton_map(Polynomial(tuple(coeffs)))
            except MultipleRoot:
                continue
            built += 1
            assert sum(m for _, m in f.critical_points) == 2 * f.degree - 2
            # poles really are zeros of the denominator and not roots
            for q, m in f.poles:
                assert abs(f.denominator(q)) < 1e-6 * f.denominator.eval_scale(q)
        assert built >= 30

    def test_degree_gate(self):
        with pytest.raises(DegreeTooLow):
            make_newton_map(P(-1, 0, 1))

    def test_multiple_root_gate(self):
        q = Polynomial.from_roots([1, 1, -2, 3])
        with pytest.raises(MultipleRoot):
            make_newton_map(q)


class TestEvaluate:
    def test_fixed_points_and_poles(self):
        f = make_newton_map(CUBIC_UNITY)
        assert f.evaluate(INF) == INF
        assert f.evaluate(0j) == INF  # double pole at 0
        img = f.evaluate(1 + 0j)
        assert type(img) is complex and abs(img - 1) < 1e-12

    def test_fiber_rows_are_the_polynomial_arithmetic_bit_for_bit(self):
        # w = 0 and an underflowing product leave trailing zeros, which
        # Polynomial drops before it subtracts
        rng = np.random.default_rng(29)
        ws = list(rng.normal(size=40) * 10.0 ** rng.uniform(-8, 8, 40)
                  + 1j * rng.normal(size=40))
        ws += [0j, complex(-0.0, 0.0), 1e-320, 2.0, -1j]
        for p in (CUBIC_UNITY, CUBIC_ODD, P(0.7 - 1.3j, 2 + 0.5j, -1.1 + 0.4j, 0.3 - 0.9j, 1)):
            f = make_newton_map(p)
            rows = f.fiber_rows(np.array(ws))
            for w, row in zip(ws, rows):
                assert row.tobytes() == np.array((f.numerator - f.denominator * w).coeffs).tobytes()

    def test_fiber_points_are_complex_numbers(self):
        # lift_point's points are complex numbers that also answer value and
        # is_infinity; 0 is the double pole of z^3 - 1
        f = make_newton_map(CUBIC_UNITY)
        fiber = dict(lift_point(f, INF))
        assert fiber == {0j: 2, INF: 1}
        for p in fiber:
            assert isinstance(p, SpherePoint)
            assert p == complex(p) and hash(p) == hash(complex(p))
            assert type(p.value) is complex and p.value == p
        assert [p.is_infinity for p in fiber] == [False, True]

    def test_chart_consistency(self):
        # w-chart path (|z| > 1000) must agree with the plain rational formula.
        f = make_newton_map(CUBIC_UNITY)
        for z in [2e3 + 0j, -5e3 + 7e3j, 1e5j]:
            direct = f.numerator(z) / f.denominator(z)
            via_chart = f.evaluate(z)
            assert via_chart != INF
            assert abs(via_chart - direct) < 1e-8 * abs(direct)

    def test_near_infinity_contraction_factor(self):
        # f(z) ~ (d-1)/d * z for large z (cubic: 2/3)
        f = make_newton_map(CUBIC_UNITY)
        z = 1e5 + 3e4j
        img = f.evaluate(z)
        assert abs(img / z - 2 / 3) < 1e-4

    def test_array_matches_scalar(self):
        f = make_newton_map(CUBIC_ODD)
        rng = np.random.default_rng(5)
        z = rng.normal(size=64) + 1j * rng.normal(size=64)
        z[0] = 2e4  # chart branch
        arr = f.evaluate_array(z)
        for zi, ai in zip(z, arr):
            w = f.evaluate(complex(zi))
            if w == INF:
                assert not np.isfinite(ai)
            else:
                assert abs(ai - w) < 1e-9 * (1 + abs(w))

    def test_array_value_does_not_depend_on_its_company(self):
        # A point's value is the same bits alone, beside a point of the other
        # chart, and in the whole array, with |z| given or not.
        f = make_newton_map(CUBIC_ODD)
        rng = np.random.default_rng(7)
        z = (rng.normal(size=64) + 1j * rng.normal(size=64)) * 10.0 ** rng.uniform(-2, 5, 64)
        far = np.abs(z) > CHART_RADIUS
        assert 0 < far.sum() < 63
        whole = f.evaluate_array(z)
        assert f.evaluate_array(z, np.abs(z)).tobytes() == whole.tobytes()
        near_pt, far_pt = z[np.argmin(far)], z[np.argmax(far)]
        for i in range(64):
            alone = f.evaluate_array(z[i : i + 1])
            mixed = f.evaluate_array(np.array([z[i], near_pt if far[i] else far_pt]))
            assert alone.tobytes() == mixed[:1].tobytes() == whole[i : i + 1].tobytes()

    def test_w_chart_identity(self):
        # N = 2z^3 + 1, D = 1 + z at z = 2, w = 0.5: w^3 N(1/w) = w^3 + 2 =
        # 2.125 and w^3 D(1/w) = w^3 + w^2 = 0.375; deg D < degree - 1, so the
        # chart pads D with a zero coefficient.
        f = NewtonMap(
            p=P(1, 0, 0, 2),
            numerator=P(1, 0, 0, 2),
            denominator=P(1, 1),
            degree=3,
            roots=(),
            poles=(),
            critical_points=(),
        )
        num, den = f._fraction(2.0, True)
        assert num == pytest.approx(2.125)
        assert den == pytest.approx(0.375)

    def test_low_degree_denominator_agrees_across_chart_radius(self):
        # f = (z^3 + 2) / (z - 1): deg D = 1 < degree - 1 = 2, so the w = 1/z
        # chart needs D padded to order 2 before the last factor of w.
        f = NewtonMap(
            p=P(2, 0, 0, 1),
            numerator=P(2, 0, 0, 1),
            denominator=P(-1, 1),
            degree=3,
            roots=(),
            poles=(),
            critical_points=(),
        )
        r = CHART_RADIUS
        for phase in (0.0, 1.0, 2.5):
            inside = cmath.rect(r * (1 - 1e-12), phase)
            outside = cmath.rect(r * (1 + 1e-12), phase)
            a, b = f.evaluate(inside), f.evaluate(outside)
            assert abs(b / a - 1) < 1e-9
            arr = f.evaluate_array(np.array([inside, outside]))
            assert abs(arr[1] / arr[0] - 1) < 1e-9


class TestTolerances:
    @pytest.mark.parametrize("ratio", [1.0, 0.9, -2.0, float("nan")])
    def test_sample_ratio_must_exceed_one(self, ratio):
        with pytest.raises(ValueError, match="sample_ratio"):
            Tolerances(sample_ratio=ratio)

    def test_max_steps_must_be_non_negative(self):
        with pytest.raises(ValueError, match="max_steps"):
            Tolerances(max_steps=-1)
        assert Tolerances(max_steps=0).max_steps == 0

    # every field with values no stage can use: non-finite floats, values of
    # the wrong type (a bool is no number here), and each field's own
    # out-of-range values
    @pytest.mark.parametrize(
        "name, values",
        [
            ("root_tol", (math.nan, math.inf, 0.0, 1.0, "1e-8")),
            ("match_tol", (math.nan, math.inf, 0.0, 1.0)),
            ("escape_radius", (math.nan, math.inf, 10.0)),
            ("basin_tol", (math.nan, math.inf, -1e-3, True)),
            ("pole_snap", (math.nan, math.inf, -1e-9)),
            ("land_tol", (math.nan, math.inf, -1e-9)),
            ("jump_guard", (math.nan, math.inf, -1e-3)),
            ("max_steps", (-1, 2.5, 3.0, True, False, "8", None)),
            ("lift_tol", (math.nan, math.inf, 0.0, -1.0, None)),
            ("sample_ratio", (math.nan, math.inf, 1.0)),
        ],
    )
    def test_unusable_value_rejected(self, name, values):
        for value in values:
            with pytest.raises(ValueError, match=name):
                Tolerances(**{name: value})

    def test_zero_gates_accepted(self):
        gates = ("basin_tol", "pole_snap", "land_tol", "jump_guard")
        tol = Tolerances(**dict.fromkeys(gates, 0.0))
        assert all(getattr(tol, name) == 0.0 for name in gates)


@dataclass(frozen=True)
class NewtonCheckReport:
    """Outcome of verify_newton_conditions, one flag per dynamical property."""

    fixed_residuals: tuple[float, ...]
    multiplier_moduli: tuple[float, ...]
    superattracting_ok: bool
    extra_fixed_points: tuple[complex, ...]
    no_extra_fixed_ok: bool
    infinity_multiplier: complex
    infinity_repelling_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.superattracting_ok
            and self.no_extra_fixed_ok
            and self.infinity_repelling_ok
        )


def map_derivative(f: NewtonMap, z: complex) -> complex:
    """f'(z) at a finite point that is not a pole."""
    num, den = f.numerator, f.denominator
    return (num.derivative()(z) * den(z) - num(z) * den.derivative()(z)) / den(z) ** 2


def verify_newton_conditions(f: NewtonMap, tol: float = 1e-8) -> NewtonCheckReport:
    """Check the dynamical signature: every declared root is a superattracting
    fixed point, no other finite fixed points exist, and infinity repels."""
    residuals = [chordal_distance(f.evaluate(r), r) for r in f.roots]
    moduli = [abs(map_derivative(f, r)) for r in f.roots]
    superattracting_ok = all(d <= tol for d in residuals) and all(
        m <= tol for m in moduli
    )

    # Finite fixed points solve numerator(z) = z * denominator(z).
    fix_poly = f.numerator - f.denominator * Polynomial((0, 1))
    extra = []
    if not fix_poly.is_zero and fix_poly.degree >= 1:
        for z, _ in roots_of(fix_poly):
            if all(abs(z - r) > 1e-6 * (1 + abs(z)) for r in f.roots):
                extra.append(z)

    # Multiplier at infinity from a finite difference in the w = 1/z chart.
    h = 1e-6
    fw = f.evaluate(1 / h)
    lam = (1 / fw) / h if fw != INF and fw != 0 else 0j

    return NewtonCheckReport(
        fixed_residuals=tuple(residuals),
        multiplier_moduli=tuple(moduli),
        superattracting_ok=superattracting_ok,
        extra_fixed_points=tuple(extra),
        no_extra_fixed_ok=not extra,
        infinity_multiplier=lam,
        infinity_repelling_ok=abs(lam) > 1 + 1e-3,
    )


class TestVerifyNewtonConditions:
    def test_passes_on_newton_map(self):
        rep = verify_newton_conditions(make_newton_map(CUBIC_UNITY))
        assert rep.ok
        assert all(r < 1e-10 for r in rep.fixed_residuals)
        assert all(m < 1e-10 for m in rep.multiplier_moduli)
        assert rep.extra_fixed_points == ()
        # derived multiplier d/(d-1) = 1.5; only modulus > 1 is asserted
        assert abs(rep.infinity_multiplier) > 1
        assert abs(abs(rep.infinity_multiplier) - 1.5) < 1e-3

    def test_fails_on_hand_built_squaring_map(self):
        fake = NewtonMap(
            p=P(0, 0, 1),
            numerator=P(0, 0, 1),
            denominator=P(1),
            degree=2,
            roots=(0j, 1 + 0j),
            poles=(),
            critical_points=(),
        )
        rep = verify_newton_conditions(fake)
        assert not rep.ok
        assert not rep.infinity_repelling_ok  # infinity superattracts for z^2
        assert not rep.superattracting_ok  # f'(1) = 2
