import copy
import os
import pickle
import random
import subprocess
import sys

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, lcm

import pytest

from hypothesis import given, settings, strategies as st

from lie_elements.exactmath import (DimensionError, ExactMatrix, MultiPoly,
                                    ResourceLimitError, Span,
                                    StructureError, _bareiss_det,
                                    _eliminate, _expansion_det,
                                    _grlex_rank, _integer_row,
                                    _scaled_integers, rational)
from oracles import rand_matrix, substitute, trace


class TestRational:
    def test_string_fraction(self):
        assert rational("3/4") == Fraction(3, 4)
        assert rational("-22/7") == Fraction(-22, 7)

    def test_int_passthrough(self):
        assert rational(5) == Fraction(5)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            rational(0.5)


class TestMultiPoly:
    def test_arithmetic(self):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_scalar_mix(self):
        x = MultiPoly.variable("x")
        assert 2 * x + x == 3 * x
        assert (x + 1) - 1 == x

    def test_pow(self):
        x = MultiPoly.variable("x")
        assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1

    def test_coeff_at(self):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        p = 3 * x * y + 5 * x
        assert p.coeff_at({"x": 1, "y": 1}) == 3
        assert p.coeff_at({"x": 1}) == 5
        assert p.coeff_at({"y": 2}) == 0

    def test_str(self):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        for p, text in [
                (MultiPoly(), "0"),
                (MultiPoly.constant(3), "3"),
                (MultiPoly.constant(-2), "-2"),
                (-x, "-x"),
                (Fraction(-3, 4) * y, "-3/4*y"),
                (-x - y, "-x - y"),
                (x - 1, "x - 1"),
                (2 * x - 3 * y + 1, "2*x - 3*y + 1"),
                (-x * y + Fraction(1, 2) * x ** 2 - 5, "1/2*x^2 - x*y - 5"),
                ((x + y) ** 3 - 7, "x^3 + 3*x^2*y + 3*x*y^2 + y^3 - 7")]:
            assert str(p) == text
            assert repr(p) == "MultiPoly(%s)" % text

    def test_substitute(self):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        p = x * x + y
        assert substitute(p, {"x": 2, "y": 3}) == 7


class TestPackedMonomials:
    def test_pow_squares_only_while_bits_remain(self):
        x = MultiPoly.variable("x")
        big = x ** 2 ** 14
        assert big.terms == {(("x", 2 ** 14),): 1}
        assert big.coeff_at({"x": 2 ** 14}) == 1
        assert x ** 1 == x and x ** 0 == 1
        with pytest.raises(ResourceLimitError):
            x ** 2 ** 15

    def test_carry_is_caught(self):
        # x registers before y, so a carry out of x's field would land in
        # y's; every product checks the top bit of each field
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        top = x ** (2 ** 15 - 1)
        assert (top * y).terms == {(("x", 2 ** 15 - 1), ("y", 1)): 1}
        for a, b in ((top, x), (x ** 2 ** 14, x ** 2 ** 14),
                     (top * y + 1, x - y)):
            with pytest.raises(ResourceLimitError):
                a * b

    def test_pack_refuses_large_exponent(self):
        for exponent in (2 ** 15, 2 ** 16 + 1):
            with pytest.raises(ResourceLimitError):
                MultiPoly({(("x", exponent),): 1})
        with pytest.raises(ResourceLimitError):
            MultiPoly({(("x", 2 ** 14), ("x", 2 ** 14)): 1})
        with pytest.raises(ValueError):
            MultiPoly({(("x", -1),): 1})

    def test_terms_view_decodes_by_name(self):
        # a late name that sorts first still prints and decodes first
        late = MultiPoly.variable("zz_packed_first")
        early = MultiPoly.variable("aa_packed_second")
        p = late * early ** 2 + 3 * late
        assert p.terms == {(("aa_packed_second", 2),
                            ("zz_packed_first", 1)): 1,
                           (("zz_packed_first", 1),): 3}
        assert str(p) == "aa_packed_second^2*zz_packed_first + " \
                         "3*zz_packed_first"
        with pytest.raises(TypeError):
            p.terms[()] = 1

    def test_integral_coefficients_are_ints(self):
        x = MultiPoly.variable("x")
        p = MultiPoly({(("x", 1),): Fraction(4, 2), (): Fraction(1, 2)})
        assert [type(c) for c in p.terms.values()] == [int, Fraction]
        assert type(MultiPoly.constant(Fraction(6, 3)).terms[()]) is int
        assert all(type(c) is int for c in ((x + 1) ** 5).terms.values())
        assert p == 2 * x + Fraction(1, 2)
        assert hash(MultiPoly.constant(Fraction(6, 3))) == hash(2)
        # the accessors still return Fractions, so a division stays exact
        assert type(p.coeff_at({"x": 1})) is Fraction
        assert type(MultiPoly.constant(2).constant_value()) is Fraction

    def test_pickle_by_names(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        p = x * y ** 2 + Fraction(1, 2)
        assert copy.deepcopy(p) == p and str(copy.deepcopy(p)) == str(p)
        # a fresh process that registers y before x
        script = (
            "import pickle, sys\n"
            "from fractions import Fraction\n"
            "from lie_elements.exactmath import MultiPoly\n"
            "y, x = MultiPoly.variable('y'), MultiPoly.variable('x')\n"
            "p = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = x * y ** 2 + Fraction(1, 2)\n"
            "print(p == fresh, hash(p) == hash(fresh), str(p) == str(fresh),"
            " str(p))\n")
        src = os.path.dirname(os.path.dirname(
            sys.modules[MultiPoly.__module__].__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              input=pickle.dumps(p), capture_output=True,
                              check=True)
        assert done.stdout.decode().split() == \
            ["True", "True", "True", "x*y^2", "+", "1/2"]


class TestExactMatrix:
    def test_det_rational(self):
        m = ExactMatrix([[1, 2], [3, 4]])
        assert m.det() == -2

    def test_det_matches_expansion_random(self):
        rng = random.Random(5)
        from itertools import permutations
        for n in (2, 3, 4):
            m = rand_matrix(n, rng, 9)
            brute = Fraction(0)
            for perm in permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                prod = Fraction(sign)
                for i in range(n):
                    prod *= m.data[i][perm[i]]
                brute += prod
            assert m.det() == brute

    def test_det_polynomial_bareiss(self):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        m = ExactMatrix([[x, y], [y, x]])
        assert m.det() == x * x - y * y

    def test_det_polynomial_vs_rational(self):
        # symbolic determinant evaluated at a point equals the rational one
        rng = random.Random(9)
        n = 3
        vals = {"v%d%d" % (i, j): Fraction(rng.randint(-4, 4))
                for i in range(n) for j in range(n)}
        sym = ExactMatrix([[MultiPoly.variable("v%d%d" % (i, j))
                            for j in range(n)] for i in range(n)])
        num = ExactMatrix([[vals["v%d%d" % (i, j)] for j in range(n)]
                           for i in range(n)])
        evaluated = substitute(sym.det(), vals)
        assert evaluated == num.det()

    def test_charpoly_diagonal(self):
        m = ExactMatrix([[2, 0], [0, -3]])
        # det(tI - m) = (t-2)(t+3) = t^2 + t - 6, ascending coefficients
        assert m.charpoly() == [Fraction(-6), Fraction(1), Fraction(1)]

    def test_charpoly_trace_det(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            m = rand_matrix(n, rng, 9)
            cp = m.charpoly()
            assert cp[n] == 1
            assert cp[n - 1] == -trace(m)
            assert cp[0] == (-1) ** n * m.det()

    def test_rank_nullspace(self):
        m = ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert m.rank() == 2
        for vec in span_nullspace(m.data, m.cols):
            assert all(sum(row[j] * vec[j] for j in range(3)) == 0
                       for row in m.data)

    def test_pfaffian_base(self):
        m = ExactMatrix([[0, 1], [-1, 0]])
        assert m.pfaffian() == 1

    def test_pfaffian_squares_to_det(self):
        rng = random.Random(23)
        for n in (2, 4, 6):
            data = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = Fraction(rng.randint(-5, 5))
                    data[i][j], data[j][i] = v, -v
            m = ExactMatrix(data)
            assert m.is_skew_symmetric()
            assert m.pfaffian() ** 2 == m.det()

    def test_pfaffian_odd_dimension_rejected(self):
        from lie_elements.exactmath import StructureError
        m = ExactMatrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
        with pytest.raises(StructureError):
            m.pfaffian()

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            ExactMatrix([[1, 2], [3]])
        with pytest.raises(DimensionError):
            ExactMatrix([[1, 2]]) + ExactMatrix([[1], [2]])
        with pytest.raises(DimensionError):
            ExactMatrix([[1, 2]]) - ExactMatrix([[1], [2]])
        with pytest.raises(DimensionError):
            ExactMatrix([[1, 2]]) - ExactMatrix([[1, 2, 3]])

    def test_difference(self):
        x = MultiPoly.variable("x")
        m = ExactMatrix([[1, 2], [3, 4]])
        assert m - m.scale(3) == ExactMatrix([[-2, -4], [-6, -8]])
        assert (m - ExactMatrix([[x, 0], [0, 1]])
                == ExactMatrix([[1 - x, 2], [3, 3]]))

    def test_matmul_identity(self):
        rng = random.Random(2)
        m = rand_matrix(3, rng, 9)
        assert m @ ExactMatrix.identity(3) == m


# -- the integer elimination kernel: Span --------------------------------

def dense_rref(data, cols):
    """Dense Fraction Gauss-Jordan: the rref the integer kernel replaced,
    kept here as its oracle."""
    m = [[Fraction(v) for v in row] for row in data]
    rows = len(m)
    pivots = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return m, pivots


def span_rref(data, cols):
    """Dense view of Span.reduced() in dense_rref's shape: the reduced
    rows with the zero rows after them, and the pivot columns."""
    reduced = Span(dict(enumerate(row)) for row in data).reduced()
    dense = [[row.get(c, Fraction(0)) for c in range(cols)]
             for row in reduced]
    dense += [[Fraction(0)] * cols for _ in range(len(data) - len(reduced))]
    return dense, [min(row) for row in reduced]


def span_nullspace(data, cols):
    """Dense view of Span.kernel(cols)."""
    kernel = Span(dict(enumerate(row)) for row in data).kernel(cols)
    return [[vec.get(c, Fraction(0)) for c in range(cols)] for vec in kernel]


def random_rows(rng, rows, cols, rank, dens=(1,)):
    """rows x cols rational matrix of rank <= rank, built as random
    combinations of `rank` sparse random rows with denominators from
    dens; entries and pivots of both signs."""
    def entry():
        if rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice(dens))
    base = [[entry() for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice(dens))
                  for _ in range(rank)]
        out.append([sum((c * b[j] for c, b in zip(coeffs, base)),
                        Fraction(0)) for j in range(cols)])
    return out


class TestRrefKernel:
    def check(self, data, cols):
        m = ExactMatrix(data)
        assert span_rref(data, cols) == dense_rref(data, cols)
        # rank stops after the forward pass, and must agree with rref
        assert m.rank() == len(span_rref(data, cols)[1])

    def test_random_against_dense_oracle(self):
        rng = random.Random(97)
        shapes = [(1, 1), (3, 3), (6, 4), (4, 7), (9, 5), (5, 12), (12, 12),
                  (20, 8), (8, 20)]
        for rows, cols in shapes:
            for rank in sorted({0, 1, min(rows, cols) // 2,
                                min(rows, cols)}):
                for dens in ((1,), (1, 2, 3, 7), (4, 9, 25)):
                    self.check(random_rows(rng, rows, cols, rank, dens), cols)

    def test_zero_and_duplicate_rows(self):
        rng = random.Random(3)
        for _ in range(20):
            data = random_rows(rng, 4, 6, 3, (1, 5))
            data = [data[0], [Fraction(0)] * 6, data[1], data[0],
                    [-v for v in data[1]], data[2], [Fraction(0)] * 6]
            self.check(data, 6)

    def test_negative_pivots(self):
        data = [[-2, 4, -6], [0, -3, 9], [-4, 5, 1]]
        self.check(data, 3)
        reduced, pivots = span_rref(data, 3)
        assert pivots == [0, 1, 2]
        assert reduced == ExactMatrix.identity(3).data

    def test_empty_shapes(self):
        # 0 x k cannot be built (no rows means no columns); k x 0 can
        assert span_rref([], 0) == dense_rref([], 0) == ([], [])
        assert span_rref([[], [], []], 0) == dense_rref([[], [], []], 0) \
            == ([[], [], []], [])
        assert span_nullspace([[], []], 0) == []
        assert span_rref([[0, 0, 0]], 3) == dense_rref([[0, 0, 0]], 3) \
            == ([[0, 0, 0]], [])
        assert span_nullspace([[0, 0, 0]], 3) == \
            ExactMatrix.identity(3).data

    def test_trailing_zero_rows(self):
        reduced, pivots = span_rref([[1, 2], [2, 4], [3, 6], [0, 0]], 2)
        assert pivots == [0]
        assert reduced == [[1, 2], [0, 0], [0, 0], [0, 0]]

    def test_integer_rows_stay_primitive(self):
        # the content division keeps every row's gcd at 1, so the integers
        # stay as small as the row space allows
        assert _integer_row({0: Fraction(2, 3), 1: Fraction(-4, 3),
                             2: Fraction(0), 3: Fraction(8, 9)}) == \
            {0: 3, 1: -6, 3: 4}
        assert _integer_row({0: Fraction(0), 1: Fraction(0)}) == {}
        assert _eliminate({0: 9, 1: 3, 2: 12}, {0: 6, 2: 4}, 0) == \
            {1: 1, 2: 2}
        rng = random.Random(41)
        for _ in range(30):
            data = random_rows(rng, 8, 6, 4, (1, 2, 3, 5))
            echelon = Span(dict(enumerate(r)) for r in data).rows
            for col, row in echelon.items():
                assert gcd(*row.values()) == 1
                assert min(row) == col

    def test_scaled_integers(self):
        # one lcm scaling behind det, the integer rows and the weighted
        # table sums
        assert _scaled_integers([Fraction(1, 6), Fraction(-3, 4),
                                 Fraction(0), 2]) == ([2, -9, 0, 24], 12)
        assert _scaled_integers([]) == ([], 1)
        rng = random.Random(43)
        for _ in range(50):
            values = [Fraction(rng.randint(-30, 30), rng.choice((1, 7, 10,
                                                                 2520)))
                      for _ in range(rng.randint(1, 6))]
            ints, scale = _scaled_integers(values)
            assert all(isinstance(v, int) for v in ints)
            assert [Fraction(v, scale) for v in ints] == values
            assert scale == lcm(*(v.denominator for v in values))

    def test_scaled_integers_polynomial(self):
        # a MultiPoly scales by the lcm of its coefficients' denominators
        x = MultiPoly.variable("x")
        p = x * Fraction(1, 6) + Fraction(3, 4)
        assert (p.denominator, p.numerator) == (12, 2 * x + 9)
        assert x.numerator is x and MultiPoly().denominator == 1
        ints, scale = _scaled_integers([p, Fraction(1, 10), x])
        assert scale == 60 and ints == [10 * x + 45, 6, 60 * x]
        assert all(c.denominator == 1 for c in ints[0].terms.values())

    def test_polynomial_entries_rejected(self):
        x = MultiPoly.variable("x")
        with pytest.raises(StructureError):
            ExactMatrix([[x, 1], [1, 0]]).rank()

    def test_insert(self):
        # the one place a row is reduced: a dependent row leaves the
        # echelon unchanged, an independent one is reduced by every pivot
        # and kept under its least column
        span = Span()
        assert span.insert({0: 1, 1: 2, 2: 3})
        assert span.insert({1: 1, 2: 1})
        assert not span.insert({0: 1, 1: 3, 2: 4})
        assert not span.insert({})
        assert sorted(span.rows) == [0, 1]
        assert span.insert({0: 2, 1: 1, 2: 5})
        assert span.rows[2] == {2: 1}
        rng = random.Random(47)
        for _ in range(30):
            data = random_rows(rng, 8, 6, 3, (1, 2, 5))
            span = Span()
            grew = [span.insert(dict(enumerate(r))) for r in data]
            assert sum(grew) == len(span) == len(dense_rref(data, 6)[1])
            assert all(min(row) == col for col, row in span.rows.items())


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def rational_matrices(draw):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    # sparse, and with repeated rows, so rank deficiency is common
    cell = st.one_of(st.just(Fraction(0)), rationals)
    data = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                         min_size=1, max_size=rows))
    extra = draw(st.lists(st.sampled_from(data), max_size=2))
    return data + extra


class TestRrefProperties:
    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_kernel_invariants(self, data):
        m = ExactMatrix(data)
        kernel = span_nullspace(data, m.cols)
        for vec in kernel:
            assert all(sum((a * b for a, b in zip(row, vec)), Fraction(0))
                       == 0 for row in m.data)
        assert m.rank() + len(kernel) == m.cols
        reduced, pivots = span_rref(data, m.cols)
        assert span_rref(reduced, m.cols) == (reduced, pivots)
        assert (reduced, pivots) == dense_rref(data, m.cols)


# -- the fraction-free determinant kernel ---------------------------------

def dense_det(data):
    """Dense Fraction Gaussian elimination: the rational det the
    fraction-free kernel replaced, kept here as its oracle."""
    m = [[Fraction(v) for v in row] for row in data]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


class TestDetKernel:
    def check(self, data):
        d = ExactMatrix(data).det()
        assert type(d) is Fraction
        assert d == dense_det(data)

    def test_random_against_dense_oracle(self):
        rng = random.Random(131)
        for size in range(1, 8):
            for dens in ((1,), (1, 10), (1, 2, 3, 7, 2520)):
                for _ in range(12):
                    self.check(random_rows(rng, size, size, size, dens))
                    # rank deficient: every row a combination of fewer
                    self.check(random_rows(rng, size, size, size - 1, dens))

    def test_degenerate_rows(self):
        rng = random.Random(7)
        for size in range(2, 8):
            for _ in range(8):
                base = random_rows(rng, size, size, size, (1, 4, 9))
                zero = [row[:] for row in base]
                zero[rng.randrange(size)] = [Fraction(0)] * size
                dup = [row[:] for row in base]
                dup[-1] = dup[0][:]
                neg = [row[:] for row in base]
                neg[1] = [-v for v in neg[0]]
                for data in (base, zero, dup, neg):
                    self.check(data)

    def test_zero_first_pivot(self):
        # each leading zero forces a row swap, so the sign flips
        self.check([[0, 1], [1, 0]])
        self.check([[0, 2, 3], [0, 5, 7], [4, 1, 1]])
        self.check([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert ExactMatrix([[0, 1], [1, 0]]).det() == -1
        rng = random.Random(19)
        for size in range(2, 8):
            for _ in range(10):
                data = random_rows(rng, size, size, size, (1, 3, 5))
                data[0][0] = Fraction(0)
                self.check(data)

    def test_small_shapes(self):
        assert ExactMatrix([]).det() == 1
        assert type(ExactMatrix([]).det()) is Fraction
        self.check([[Fraction(-3, 7)]])
        self.check([[0]])
        with pytest.raises(DimensionError):
            ExactMatrix([[1, 2]]).det()

    def test_expansion_matches_bareiss(self):
        # the two kernels check each other on integer rows: singular,
        # repeated rows and a zero first pivot included
        assert _expansion_det([]) == 1
        rng = random.Random(61)
        for size in range(1, 8):
            for trial in range(12):
                data = random_rows(rng, size, size,
                                   size - (trial % 4 == 1), (1,))
                rows = [[int(v) for v in row] for row in data]
                if trial % 4 == 2 and size > 1:
                    rows[-1] = rows[0][:]
                if trial % 4 == 3:
                    rows[0][0] = 0
                expected = _bareiss_det([row[:] for row in rows])
                assert _expansion_det(rows) == expected
                assert expected == dense_det(rows)

    def test_polynomial_result_type(self):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        singular = ExactMatrix([[x, y], [2 * x, 2 * y]]).det()
        assert isinstance(singular, MultiPoly) and singular == MultiPoly()
        no_pivot = ExactMatrix([[x, 0, 1], [y, 0, 2], [1, 0, 3]]).det()
        assert isinstance(no_pivot, MultiPoly) and no_pivot.is_zero()
        assert isinstance(ExactMatrix([[x]]).det(), MultiPoly)
        assert ExactMatrix([[0, x], [y, 1]]).det() == -x * y

    def test_polynomial_against_evaluation(self):
        # a symbolic det evaluated at a point is the rational det of the
        # evaluated matrix; singular and zero-pivot cases included
        rng = random.Random(43)
        names = ("a", "b")
        vs = [MultiPoly.variable(v) for v in names]
        for size in range(1, 5):
            for trial in range(10):
                data = [[Fraction(rng.randint(-3, 3))
                         + rng.choice(vs) * rng.randint(-2, 2)
                         for _ in range(size)] for _ in range(size)]
                if trial % 3 == 0:
                    data[0][0] = MultiPoly()
                if trial % 5 == 0 and size > 1:
                    data[-1] = data[0][:]
                det = ExactMatrix(data).det()
                assert isinstance(det, MultiPoly)
                for _ in range(3):
                    point = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                             for v in names}
                    numeric = [[_poly_value(e, point) for e in row]
                               for row in data]
                    assert _poly_value(det, point) == dense_det(numeric)


def _poly_value(p, point):
    return substitute(p, point).constant_value()


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.just(Fraction(0)), rationals),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n))


class TestDetProperties:
    @settings(max_examples=100, deadline=None)
    @given(square_matrices, st.data())
    def test_multiplicative(self, a, data):
        n = len(a)
        b = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                               min_size=n, max_size=n))
        A, B = ExactMatrix(a), ExactMatrix(b)
        assert (A @ B).det() == A.det() * B.det()
        assert A.det() == dense_det(a)

    @settings(max_examples=100, deadline=None)
    @given(square_matrices, st.lists(rationals, min_size=1, max_size=3))
    def test_charpoly_at_points(self, a, points):
        m = ExactMatrix(a)
        n = m.rows
        coeffs = m.charpoly()
        for t in points:
            shifted = ExactMatrix.identity(n).scale(t) - m
            assert sum(c * t ** k for k, c in enumerate(coeffs)) == \
                shifted.det()


def old_mono_cmp(m1, m2):
    """The graded lexicographic comparator MultiPoly used to sort with:
    higher total degree wins, then the first (alphabetically) variable with
    differing exponents, larger exponent first."""
    d1 = sum(e for _, e in m1)
    d2 = sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1, e2 = dict(m1), dict(m2)
    for v in sorted(set(e1) | set(e2)):
        a, b = e1.get(v, 0), e2.get(v, 0)
        if a != b:
            return 1 if a > b else -1
    return 0


def random_monomial(rng):
    names = ["a", "b", "w_1_2", "w_1_3", "w_2_3", "x1", "x10", "x2"]
    chosen = rng.sample(names, rng.randint(0, 4))
    return tuple(sorted((v, rng.randint(1, 3)) for v in chosen))


class TestGrlexRank:
    def test_matches_old_comparator(self):
        rng = random.Random(11)
        monos = sorted({random_monomial(rng) for _ in range(400)})
        assert len(monos) > 200
        for m1, m2 in combinations(monos, 2):
            expected = old_mono_cmp(m1, m2)
            got = (_grlex_rank(m1) < _grlex_rank(m2)) - \
                (_grlex_rank(m1) > _grlex_rank(m2))
            assert got == expected
        assert sorted(monos, key=_grlex_rank) == \
            sorted(monos, key=cmp_to_key(old_mono_cmp), reverse=True)

    def test_printed_order(self):
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        p = (x + y + 1) ** 2
        assert str(p) == "x^2 + 2*x*y + y^2 + 2*x + 2*y + 1"
        assert str(x * y * y - x * x + y) == "x*y^2 - x^2 + y"


def fraction_charpoly(m):
    """Faddeev-LeVerrier on Fraction matrices, kept as an oracle."""
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = ExactMatrix([row[:] for row in m.data])
    for k in range(1, n + 1):
        ck = -trace(mk) / k
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                mk.data[i][i] = mk.data[i][i] + ck
            mk = m @ mk
    return coeffs


wide_rationals = st.fractions(min_value=-60, max_value=60,
                              max_denominator=2520)
wide_square_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.just(Fraction(0)),
                                          wide_rationals),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n))


class TestCharpolyOracle:
    @settings(max_examples=200, deadline=None)
    @given(wide_square_matrices)
    def test_matches_fraction_recurrence(self, a):
        m = ExactMatrix(a)
        assert m.charpoly() == fraction_charpoly(m)

    def test_common_denominator(self):
        m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)],
                         [Fraction(-1, 6), Fraction(5, 4)]])
        cp = m.charpoly()
        assert cp == fraction_charpoly(m)
        assert cp == [m.det(), -trace(m), Fraction(1)]
