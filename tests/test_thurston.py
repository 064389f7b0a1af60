"""Transition matrices: entries, leading eigenvalues, irreducibility, and the
obstruction predicate, cross-checked against exact characteristic polynomials,
boolean reachability powers and the Fraction elimination of conftest. The
Perron-vector certificate is checked against the same oracles, with the
package's elimination counted or forbidden."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from conftest import fraction_radius_below_one

from newtongraph import (
    is_irreducible_obstruction,
    transition_matrix,
)
from newtongraph import thurston
from newtongraph.thurston import (
    MulticurveSpec,
    _leading_eigenpair,
    _spectral_radius_below_one,
    is_irreducible,
    leading_eigenvalue,
    multicurve_from_json,
)


def char_poly_radius(matrix) -> float:
    """Spectral radius oracle: exact characteristic polynomial coefficients
    by the Leverrier-Faddeev recurrence in rational arithmetic, then the
    largest root magnitude."""
    m = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]

    def mat_mul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)
        ]

    coeffs = [Fraction(1)]
    work = [row[:] for row in a]
    for k in range(1, m + 1):
        ck = -sum(work[i][i] for i in range(m)) / k
        coeffs.append(ck)
        if k < m:
            for i in range(m):
                work[i][i] += ck
            work = mat_mul(a, work)
    roots = np.roots([float(c) for c in coeffs])
    return float(max(abs(r) for r in roots)) if len(roots) else 0.0


def bool_power_irreducible(matrix) -> bool:
    """Irreducibility oracle: OR of boolean support powers S^1..S^m covers
    every entry."""
    support = np.array([[int(x > 0) for x in row] for row in matrix])
    reach = support
    for _ in range(len(support) - 1):
        reach = ((reach + reach @ support) > 0).astype(int)
    return bool(reach.all())


def spec_of(classes, table):
    return MulticurveSpec(classes, tuple(tuple(row) for row in table))


class TestTransitionMatrix:
    def test_single_lift_degree_two(self):
        tm = transition_matrix(spec_of(1, [[(0, 2)]]))
        assert tm.entries == ((Fraction(1, 2),),)
        assert tm.leading == 0.5
        assert tm.irreducible is True
        assert is_irreducible_obstruction(spec_of(1, [[(0, 2)]])) is False

    def test_swap_classes(self):
        spec = spec_of(2, [[(1, 1)], [(0, 1)]])
        tm = transition_matrix(spec)
        assert tm.entries == (
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
        )
        assert tm.leading == 1.0
        assert tm.irreducible is True
        assert is_irreducible_obstruction(spec) is True

    def test_two_lifts_sum(self):
        tm = transition_matrix(spec_of(1, [[(0, 2), (0, 3)]]))
        assert tm.entries == ((Fraction(5, 6),),)
        assert tm.leading == float(Fraction(5, 6))
        assert is_irreducible_obstruction(spec_of(1, [[(0, 2), (0, 3)]])) is False

    def test_none_target_contributes_zero(self):
        tm = transition_matrix(spec_of(1, [[(None, 1), (None, 2), (0, 4)]]))
        assert tm.entries == ((Fraction(1, 4),),)

    def test_denominators_divide_degree_lcm(self):
        spec = spec_of(2, [[(0, 2), (1, 3)], [(0, 6), (1, 2), (1, 2)]])
        tm = transition_matrix(spec)
        for row in tm.entries:
            for x in row:
                assert 6 % x.denominator == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            spec_of(0, [])
        with pytest.raises(ValueError):
            spec_of(1, [[(0, 0)]])
        with pytest.raises(ValueError):
            spec_of(1, [[(1, 2)]])
        with pytest.raises(ValueError):
            spec_of(2, [[(0, 1)]])

    def test_json_parsing(self):
        data = {
            "classes": 2,
            "lifts": {
                "0": [{"target": 1, "degree": 2}],
                "1": [{"target": None, "degree": 1}, {"target": 0, "degree": 3}],
            },
        }
        spec = multicurve_from_json(data)
        assert spec == spec_of(2, [[(1, 2)], [(None, 1), (0, 3)]])
        tm = transition_matrix(spec)
        assert tm.entries == (
            (Fraction(0), Fraction(1, 3)),
            (Fraction(1, 2), Fraction(0)),
        )

    def test_json_missing_class_has_no_lifts(self):
        spec = multicurve_from_json({"classes": 2, "lifts": {"0": []}})
        assert spec.lifts == ((), ())

    def test_json_rejects_stray_keys(self):
        with pytest.raises(ValueError):
            multicurve_from_json({"classes": 1, "lifts": {"3": []}})
        with pytest.raises(ValueError):
            multicurve_from_json({"lifts": {}})

    @pytest.mark.parametrize("lifts, message", [
        ([], "lift table"),
        ([["0", [{"target": 1, "degree": 2}]]], "lift table"),
        ({"1": {"target": 0, "degree": 2}}, "lifts of class 1"),
        ({"0": [{"target": 0, "degree": 2, "extra": 1}]}, "lift of class 0"),
        ({"0": [{"target": 0}]}, "lift of class 0"),
        ({"1": [[0, 2]]}, "lift of class 1"),
    ])
    def test_json_rejects_malformed_lift_tables(self, lifts, message):
        with pytest.raises(ValueError, match=message):
            multicurve_from_json({"classes": 2, "lifts": lifts})


class TestLeadingEigenvalue:
    def test_periodic_two_cycle_weighted(self):
        # eigenvalues +-1: the square of the matrix is the identity
        assert abs(leading_eigenvalue([[0, 2], [Fraction(1, 2), 0]]) - 1.0) < 1e-8

    def test_defective_leading_block(self):
        # Jordan block at 1: power iteration converges only harmonically,
        # so the squaring schedule has to carry it
        assert abs(leading_eigenvalue([[1, 1], [0, 1]]) - 1.0) < 1e-8

    def test_zero_matrix(self):
        assert leading_eigenvalue([[0, 0], [0, 0]]) == 0.0

    def test_nilpotent(self):
        assert leading_eigenvalue([[0, 1], [0, 0]]) == 0.0

    def test_reducible_blocks(self):
        assert abs(leading_eigenvalue([[1, 0], [0, 2]]) - 2.0) < 1e-8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            leading_eigenvalue([[1, 2]])
        with pytest.raises(ValueError):
            leading_eigenvalue([[-1]])
        with pytest.raises(ValueError):
            leading_eigenvalue([])

    def test_random_specs_against_char_poly(self):
        rng = random.Random(57721566)
        for _ in range(100):
            m = rng.randint(1, 4)
            table = []
            for _ in range(m):
                row = []
                for _ in range(rng.randint(0, 3)):
                    target = rng.choice([None] + list(range(m)))
                    row.append((target, rng.randint(1, 3)))
                table.append(row)
            tm = transition_matrix(spec_of(m, table))
            oracle = char_poly_radius(tm.entries)
            assert abs(tm.leading - oracle) < 1e-8, (table, tm.leading, oracle)


class TestIsIrreducible:
    def test_one_by_one(self):
        assert is_irreducible([[0]]) is False
        assert is_irreducible([[Fraction(1, 2)]]) is True

    def test_swap(self):
        assert is_irreducible([[0, 1], [1, 0]]) is True

    def test_triangular(self):
        assert is_irreducible([[1, 1], [0, 1]]) is False

    def test_random_supports_against_bool_powers(self):
        rng = random.Random(2718281)
        for _ in range(60):
            m = 5
            matrix = [
                [1 if rng.random() < 0.3 else 0 for _ in range(m)] for _ in range(m)
            ]
            assert is_irreducible(matrix) == bool_power_irreducible(matrix), matrix


class TestObstruction:
    def test_reducible_radius_one_is_not_obstruction(self):
        # two uncoupled fixed classes: radius 1 but not irreducible
        spec = spec_of(2, [[(0, 1)], [(1, 1)]])
        tm = transition_matrix(spec)
        assert tm.leading >= 1 - 1e-10
        assert tm.irreducible is False
        assert is_irreducible_obstruction(spec) is False

    def test_growing_cycle_is_obstruction(self):
        spec = spec_of(2, [[(1, 1), (1, 2)], [(0, 1)]])
        assert is_irreducible_obstruction(spec) is True

    def test_sylvester_sum_just_below_one_is_not_obstruction(self):
        # 1/2 + 1/3 + 1/7 + 1/43 + 1/1807 + 1/3263443 = 1 - 1/10650056950806,
        # which rounds to within 1e-13 of 1 in floating point
        spec = spec_of(1, [[(0, d) for d in (2, 3, 7, 43, 1807, 3263443)]])
        tm = transition_matrix(spec)
        assert tm.entries == ((1 - Fraction(1, 10650056950806),),)
        assert tm.irreducible is True
        assert tm.obstruction is False
        assert is_irreducible_obstruction(spec) is False

    def test_exact_verdict_against_char_poly(self):
        rng = random.Random(14142135)
        decided = 0
        for _ in range(200):
            m = rng.randint(1, 4)
            table = [
                [(rng.choice([None] + list(range(m))), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 3))]
                for _ in range(m)
            ]
            spec = spec_of(m, table)
            tm = transition_matrix(spec)
            radius = char_poly_radius(tm.entries)
            if abs(radius - 1) < 1e-6:
                continue
            assert tm.obstruction == (tm.irreducible and radius > 1), table
            decided += 1
        assert decided > 100


def reference_entries(spec):
    """A[i][j] as a sum of Fractions 1/degree over the lifts of class j that
    land in class i."""
    m = spec.classes
    entries = [[Fraction(0)] * m for _ in range(m)]
    for j, row in enumerate(spec.lifts):
        for target, degree in row:
            if target is not None:
                entries[target][j] += Fraction(1, degree)
    return tuple(tuple(row) for row in entries)


def reference_leading(entries) -> float:
    rows = np.array([[float(x) for x in row] for row in entries])
    return float(np.abs(np.linalg.eigvals(rows)).max())


class TestIntegerVerdictAgainstFractions:
    """The answers read off the integer matrix L A agree with the Fraction
    entries, their float eigenvalue and the Fraction elimination."""

    @staticmethod
    def check(spec):
        tm = transition_matrix(spec)
        entries = reference_entries(spec)
        irreducible = bool_power_irreducible(entries)
        assert tm.entries == entries
        assert tm.leading == reference_leading(entries)
        assert tm.irreducible is irreducible
        assert tm.obstruction is (irreducible and not fraction_radius_below_one(entries))
        return tm

    def test_random_specs(self):
        rng = random.Random(31415926)
        verdicts = Counter()
        for k in range(150):
            # every other spec dense enough to be irreducible, with empty
            # rows and few lifts in the rest
            m = rng.randint(1, 30)
            empty, lifts = (0.0, (1, 8)) if k % 2 else (0.15, (0, 5))
            table = [
                [] if rng.random() < empty else
                [(rng.choice([None] + list(range(m))), rng.randint(1, 9))
                 for _ in range(rng.randint(*lifts))]
                for _ in range(m)
            ]
            tm = self.check(spec_of(m, table))
            verdicts[tm.irreducible, tm.obstruction] += 1
        # reducible, irreducible below radius 1, and obstructed all occur
        assert min(verdicts[False, False], verdicts[True, False], verdicts[True, True]) >= 10

    @pytest.mark.parametrize("degree", [2, 3, 6])
    def test_self_lifts_of_radius_exactly_one(self, degree):
        tm = self.check(spec_of(1, [[(0, degree)] * degree]))
        assert tm.entries == ((Fraction(1),),)
        assert tm.leading == 1.0
        assert tm.obstruction is True

    def test_cycle_of_degree_one_lifts(self):
        tm = self.check(spec_of(5, [[((j + 1) % 5, 1)] for j in range(5)]))
        assert tm.irreducible is True
        assert tm.obstruction is True

    def test_sylvester_spec(self):
        degrees = (2, 3, 7, 43, 1807, 3263443)
        tm = self.check(spec_of(1, [[(0, d) for d in degrees]]))
        assert 1 - tm.leading < 1e-12
        assert tm.obstruction is False

    def test_scale_beyond_float_precision(self):
        # L = 3 (10^17 + 1) and its entry L // 3 + L // (10^17 + 1) are not
        # floats; dividing their float roundings gives 0.3333333333333333,
        # the rational rounds to 0.33333333333333337
        tm = self.check(spec_of(1, [[(0, 3), (0, 10**17 + 1)]]))
        assert tm.leading == 0.33333333333333337

    def test_no_lift_in_the_system(self):
        tm = self.check(spec_of(3, [[(None, 2)], [], [(None, 1), (None, 5)]]))
        assert tm.entries == ((Fraction(0),) * 3,) * 3
        assert tm.leading == 0.0
        assert tm.obstruction is False


@pytest.fixture()
def eliminations(monkeypatch):
    """The class counts of the specs the package's elimination decides."""
    sizes = []
    eliminate = thurston._eliminated_below_one

    def counted(scaled, scale):
        sizes.append(len(scaled))
        return eliminate(scaled, scale)

    monkeypatch.setattr(thurston, "_eliminated_below_one", counted)
    return sizes


@pytest.fixture()
def certificate_alone(monkeypatch):
    def forbidden(scaled, scale):
        raise AssertionError("the certificate left the verdict to elimination")

    monkeypatch.setattr(thurston, "_eliminated_below_one", forbidden)


def chain_spec(rng, m, next_degrees=(1, 6), degrees=(1, 9), extra=(0, 3)):
    """Each class lifts onto the next one, which makes the spec irreducible,
    and onto a few random classes or none."""
    return spec_of(m, [
        [((j + 1) % m, rng.randint(*next_degrees))]
        + [(rng.choice([None] + list(range(m))), rng.randint(*degrees))
           for _ in range(rng.randint(*extra))]
        for j in range(m)
    ])


class TestPerronCertificate:
    """The integer-checked Perron vector decides the verdict, and elimination
    only the specs it leaves open."""

    def test_sweep_agrees_with_fraction_elimination(self, eliminations):
        # Fraction elimination costs O(m^3), so one spec in 25 draws from
        # 1-50 classes and the rest from 1-10
        rng = random.Random(16180339)
        verdicts = Counter()
        for k in range(1000):
            m = rng.randint(1, 50) if k % 25 == 0 else rng.randint(1, 10)
            tm = transition_matrix(chain_spec(rng, m))
            assert tm.irreducible
            assert tm.obstruction is not fraction_radius_below_one(tm.entries)
            verdicts[tm.obstruction] += 1
        assert verdicts[False] >= 200 and verdicts[True] >= 200
        assert len(eliminations) <= 50, eliminations

    @pytest.mark.parametrize("next_degrees, degrees, obstruction", [
        # every column sums to at most 1/2 + 1/3, or to at least 1 + 1/4
        ((2, 4), (3, 6), False),
        ((1, 1), (1, 4), True),
    ])
    def test_fifty_classes_decided_alone(self, certificate_alone, next_degrees, degrees,
                                         obstruction):
        tm = transition_matrix(chain_spec(random.Random(2), 50, next_degrees, degrees, (1, 1)))
        assert tm.obstruction is obstruction
        assert tm.obstruction is not fraction_radius_below_one(tm.entries)

    @pytest.mark.parametrize("table", [
        [[(0, 1)]],
        [[(0, 3)] * 3],
        [[(1, 1)], [(0, 1)]],
    ])
    def test_exact_perron_vector_decides_radius_one_alone(self, certificate_alone, table):
        # the float Perron vector is exact, so every row of A v = v is an
        # equality, which proves rho(A) >= 1 and not rho(A) < 1
        assert transition_matrix(spec_of(len(table), table)).obstruction is True

    def test_non_dyadic_perron_vector_falls_back(self, eliminations):
        # A = [[1/2, 1/6], [3/2, 1/2]] has rho 1 and Perron vector (1, 3):
        # its float normalisation leaves the rows mixed
        tm = transition_matrix(spec_of(2, [[(0, 2), (1, 1), (1, 2)], [(0, 6), (1, 2)]]))
        assert tm.entries == ((Fraction(1, 2), Fraction(1, 6)), (Fraction(3, 2), Fraction(1, 2)))
        assert eliminations == [2]
        assert tm.obstruction is True

    @pytest.mark.parametrize("degrees, radius", [
        ((1, 1, 1), 1.0),
        ((1, 2, 3), 6 ** (-1 / 3)),
    ])
    def test_imprimitive_cycles(self, degrees, radius):
        # the eigenvalues of largest modulus are radius times the cube
        # roots of unity
        tm = transition_matrix(spec_of(3, [[((j + 1) % 3, d)] for j, d in enumerate(degrees)]))
        assert abs(char_poly_radius(tm.entries) - radius) < 1e-12
        assert abs(tm.leading - radius) < 1e-12
        assert tm.obstruction is (radius >= 1) is not fraction_radius_below_one(tm.entries)

    @pytest.mark.parametrize("vector", [[0.0], [0.0, 0.0]])
    def test_a_zero_entry_proves_nothing(self, eliminations, vector):
        # A = 1/2 I: with v = 0 every row reads 0 >= 0
        m = len(vector)
        scaled = [[int(i == j) for j in range(m)] for i in range(m)]
        assert _spectral_radius_below_one(scaled, 2, np.array(vector)) is True
        assert eliminations == [m]

    def test_vector_belongs_to_the_real_root(self):
        # a fixed class fed by a 3-cycle: the cycle's complex eigenvalues
        # round above the root 1 in modulus, and their eigenvectors are not
        # eigenvectors of 1
        a = np.array([[1, 1, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
        leading, vector = _leading_eigenpair(a)
        assert abs(leading - 1) < 1e-12
        assert np.allclose(a @ vector, vector)
