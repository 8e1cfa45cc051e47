import random

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from hypothesis import given, settings, strategies as st

from lie_elements.exactmath import (DimensionError, ExactMatrix, MultiPoly,
                                    StructureError)
from lie_elements.sdet import (EdgeSystem, ResourceLimitError, build_AB,
                               instances, monomial_coefficient,
                               mu_from_weights, mu_table, phi, phi_top, sdet,
                               sdet_identity_formula, sdet_via_coeff,
                               shuffle)


def rand_matrix(n, rng):
    return ExactMatrix([[Fraction(rng.randint(-6, 6)) for _ in range(n)]
                        for _ in range(n)])


def symbolic_matrix(letter, n):
    return ExactMatrix([[MultiPoly.variable("%s_%d_%d" % (letter, i, j))
                         for j in range(1, n + 1)] for i in range(1, n + 1)])


class TestShuffle:
    def test_extremes(self):
        rng = random.Random(1)
        A, B = rand_matrix(3, rng), rand_matrix(3, rng)
        assert shuffle(A, B, ()) == B
        assert shuffle(A, B, (1, 2, 3)) == A

    def test_single_row(self):
        A = ExactMatrix([[1, 2], [3, 4]])
        B = ExactMatrix([[5, 6], [7, 8]])
        assert shuffle(A, B, (1,)) == ExactMatrix([[1, 2], [7, 8]])

    def test_out_of_range(self):
        A = ExactMatrix([[1]])
        with pytest.raises(DimensionError):
            shuffle(A, A, (2,))


class TestSdetIdentities:
    def test_1x1(self):
        assert sdet(ExactMatrix([[3]]), ExactMatrix([[5]])) == 30

    def test_2x2_against_identity(self):
        A = symbolic_matrix("a", 2)
        value = sdet(A, ExactMatrix.identity(2))
        a = lambda i, j: MultiPoly.variable("a_%d_%d" % (i, j))
        assert value == 4 * a(1, 1) * a(2, 2) - 2 * a(1, 2) * a(2, 1)

    def test_symmetry_random(self):
        rng = random.Random(2)
        for n in (2, 3, 4):
            for _ in range(5):
                A, B = rand_matrix(n, rng), rand_matrix(n, rng)
                assert sdet(A, B) == sdet(B, A)

    def test_coefficient_form_random(self):
        rng = random.Random(3)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                A, B = rand_matrix(n, rng), rand_matrix(n, rng)
                assert sdet(A, B) == sdet_via_coeff(A, B)

    def test_multiplication_random(self):
        rng = random.Random(4)
        for n in (2, 3, 4):
            for _ in range(5):
                A, B, C = (rand_matrix(n, rng) for _ in range(3))
                assert sdet(A @ C, B @ C) == sdet(A, B) * C.det() ** 2

    def test_bihomogeneous(self):
        rng = random.Random(5)
        for n in (2, 3):
            A, B = rand_matrix(n, rng), rand_matrix(n, rng)
            lam, mu = Fraction(3), Fraction(-5, 2)
            assert (sdet(A.scale(lam), B.scale(mu))
                    == lam ** n * mu ** n * sdet(A, B))

    def test_identity_formula_random(self):
        rng = random.Random(6)
        for n in (1, 2, 3, 4):
            A = rand_matrix(n, rng)
            assert sdet_identity_formula(A) == sdet(A, ExactMatrix.identity(n))

    def test_zero_A(self):
        rng = random.Random(7)
        for n in (2, 3):
            B = rand_matrix(n, rng)
            assert sdet(ExactMatrix.zero(n, n), B) == 0

    def test_resource_bound(self):
        big = ExactMatrix.identity(11)
        with pytest.raises(ResourceLimitError):
            sdet(big, big)


class TestMonomialCoefficient:
    def test_double_loop(self):
        result = monomial_coefficient([(1, 1), (1, 1)])
        assert result.coefficient == 2
        assert result.cycle_count == 1

    def test_degree_violation(self):
        with pytest.raises(StructureError):
            monomial_coefficient([(1, 2), (1, 2), (1, 2), (2, 1)])

    def _check_symbolic(self, n):
        A = symbolic_matrix("a", n)
        B = symbolic_matrix("b", n)
        value = sdet(A, B)
        for mono, coeff in value.terms.items():
            edges = []
            for var, exp in mono:
                _, i, j = var.split("_")
                edges.extend([(int(i), int(j))] * exp)
            result = monomial_coefficient(edges)
            assert result.coefficient == coeff
            assert all(len(c) % 2 == 0 for c in result.cycles)
            assert abs(coeff) == 2 ** result.cycle_count

    def test_exhaustive_n2(self):
        self._check_symbolic(2)

    def test_exhaustive_n3(self):
        self._check_symbolic(3)


class TestEdgeSystems:
    def test_build_AB_example(self):
        A, B = build_AB(EdgeSystem(4, ((1, 2, 3, 4),)))
        assert A.data[0] == [1, -1, 0, 0]
        assert B.data[0] == [0, 0, 1, -1]

    def test_rows_sum_to_zero(self):
        system = EdgeSystem(6, ((2, 5, 1, 6), (3, 4, 2, 1)))
        A, B = build_AB(system)
        for row in A.data + B.data:
            assert sum(row) == 0

    def test_repeats_allowed(self):
        system = EdgeSystem(4, ((1, 2, 3, 4), (1, 2, 3, 4)))
        assert system.r == 2

    def test_degenerate_tuple_rejected(self):
        with pytest.raises(StructureError):
            EdgeSystem(4, ((1, 2, 2, 4),))


class TestPhi:
    def test_single_tuple_vanishes(self):
        assert phi(EdgeSystem(4, ((1, 2, 3, 4),))) == 0

    def test_doubled_tuple(self):
        assert phi(EdgeSystem(4, ((1, 2, 3, 4), (1, 2, 3, 4)))) == -8

    def test_phi_top_agrees(self):
        rng = random.Random(8)
        for n in (4, 5):
            for _ in range(5):
                tuples = []
                for _ in range(n - 1):
                    t = rng.sample(range(1, n + 1), 4)
                    tuples.append(tuple(t))
                system = EdgeSystem(n, tuple(tuples))
                assert phi_top(system) == phi(system)

    def test_phi_top_summands_equal(self):
        # the n column subsets of size n-1 all give the same value
        from lie_elements.sdet import _column_subset
        rng = random.Random(9)
        for n in (4, 5):
            tuples = tuple(tuple(rng.sample(range(1, n + 1), 4))
                           for _ in range(n - 1))
            A, B = build_AB(EdgeSystem(n, tuples))
            values = set()
            for J in combinations(range(1, n + 1), n - 1):
                values.add(sdet(_column_subset(A, J), _column_subset(B, J)))
            assert len(values) == 1

    def test_weights_multiply(self):
        system = EdgeSystem(4, ((1, 2, 3, 4), (1, 2, 3, 4)))
        assert (phi(system, weights=[Fraction(2), Fraction(3)])
                == 6 * phi(system))

    def test_r_exceeds_n(self):
        system = EdgeSystem(4, tuple([(1, 2, 3, 4)] * 5))
        with pytest.raises(DimensionError):
            phi(system)


class TestMuTables:
    def test_instances_count(self):
        assert len(instances(5)) == 10

    def test_single_eta_charpoly(self):
        # weight 1 on one generator instance: t^4 - 4 t^2
        def weight(inst):
            ok = inst.quad == (1, 2, 3, 4) and inst.variant == "T1"
            return Fraction(1 if ok else 0)
        assert mu_from_weights(4, 1, weight) == 0
        assert mu_from_weights(4, 2, weight) == -4
        assert mu_from_weights(4, 3, weight) == 0

    def _candidates(self, n, r):
        """Size-r multisets of instance indices, multiplicities at most 2."""
        return [m for m in combinations_with_replacement(
            range(len(instances(n))), r) if all(m.count(i) <= 2 for i in m)]

    def _check_against_phi(self, n, r, multisets):
        # the Gram-kernel table against the Fraction column-subset sum
        insts = instances(n)
        table = dict(mu_table(n, r))
        for m in multisets:
            c = table.get(m, 0) * 2 ** sum(m.count(i) == 2 for i in set(m))
            tuples = tuple(insts[i].tuple4 for i in m)
            assert c == phi(EdgeSystem(n, tuples))

    def test_full_table_matches_phi_exhaustive(self):
        for n in (4, 5):
            for r in (1, 2, 3):
                self._check_against_phi(n, r, self._candidates(n, r))

    def test_full_table_matches_phi_sampled(self):
        rng = random.Random(10)
        for n, r in ((5, 4), (6, 3)):
            sample = rng.sample(self._candidates(n, r), 60)
            self._check_against_phi(n, r, sample)

    def test_top_table_matches_full(self):
        for n in (4, 5):
            assert mu_table(n, n - 1, top_only=True) == mu_table(n, n - 1)


@st.composite
def matrix_pairs(draw):
    """Two integer matrices of one size 1..4, and a row and a column
    permutation of that size."""
    n = draw(st.integers(1, 4))
    cell = st.integers(-5, 5)
    a, b = (draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                          min_size=n, max_size=n)) for _ in range(2))
    rows, cols = (draw(st.permutations(range(n))) for _ in range(2))
    return a, b, rows, cols


class TestSdetProperties:
    @settings(max_examples=60, deadline=None)
    @given(matrix_pairs())
    def test_symmetries(self, drawn):
        a, b, rows, cols = drawn
        A, B = ExactMatrix(a), ExactMatrix(b)
        value = sdet(A, B)
        assert sdet(B, A) == value
        assert sdet(ExactMatrix([a[r] for r in rows]),
                    ExactMatrix([b[r] for r in rows])) == value
        assert sdet(ExactMatrix([[row[c] for c in cols] for row in a]),
                    ExactMatrix([[row[c] for c in cols] for row in b])) \
            == value
        assert sdet_via_coeff(A, B) == value
