"""Exact arithmetic kernels: rationals, sparse multivariate polynomials and
dense matrices over either, with determinant / charpoly / Pfaffian / rank,
two determinant kernels (Bareiss over Z, memoized expansion over Q[x]), and
one incremental integer echelon, Span, behind every rank, kernel and span
test.

No floating point anywhere; every operation is exact over Q or Q[w, x, ...].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Union


Scalar = Union[int, Fraction, "MultiPoly"]


def rational(value) -> Fraction:
    """Coerce an int, Fraction or string like '3/4' to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("cannot build a rational from %r" % (value,))


def _scaled_integers(values):
    """(ints, scale) with ints[i] = values[i] * scale, for a sequence of
    rationals and the lcm `scale` of their denominators (1 if empty).  A
    MultiPoly value has a denominator and a numerator too, so it comes out
    with integer coefficients."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _as_coeff(value):
    if isinstance(value, MultiPoly):
        return value
    return rational(value)


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    A monomial is stored as a sorted tuple of (variable-name, exponent) pairs
    with positive exponents; the constant monomial is the empty tuple.  Zero
    coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = rational(coeff)
                if coeff:
                    key = tuple(sorted((v, e) for v, e in mono if e))
                    clean[key] = clean.get(key, Fraction(0)) + coeff
                    if not clean[key]:
                        del clean[key]
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        return cls({(): rational(value)})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def _of(cls, terms) -> "MultiPoly":
        """Unchecked: sorted monomials, nonzero Fraction coefficients."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    # -- scaling, as _scaled_integers reads a rational -------------------

    @property
    def denominator(self) -> int:
        """The lcm of the coefficients' denominators (1 for zero)."""
        return lcm(*(c.denominator for c in self.terms.values()))

    @property
    def numerator(self) -> "MultiPoly":
        """self * self.denominator: the polynomial with integer
        coefficients."""
        den = self.denominator
        return self if den == 1 else self * den

    # -- arithmetic ------------------------------------------------------

    def _combine(self, other, sign):
        other = _poly(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, Fraction(0)) + sign * coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return self._of(terms)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return _poly(other)._combine(self, -1)

    def __neg__(self):
        return self._of({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = rational(other)
            if not other:
                return MultiPoly()
            return self._of({m: c * other for m, c in self.terms.items()})
        other = _poly(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                new = terms.get(mono, Fraction(0)) + c1 * c2
                if new:
                    terms[mono] = new
                else:
                    del terms[mono]
        return self._of(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- queries ---------------------------------------------------------

    def coeff_at(self, monomial) -> Fraction:
        """Coefficient of exactly the given monomial ({var: exponent})."""
        key = tuple(sorted((v, e) for v, e in monomial.items() if e))
        return self.terms.get(key, Fraction(0))

    # -- comparisons / misc ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "MultiPoly(%s)" % str(self)

    def __str__(self):
        return _render_terms(
            (self.terms[mono],
             "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in mono))
            for mono in sorted(self.terms, key=_grlex_rank))


def _poly(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.constant(value)


def _mono_mul(m1, m2):
    merged = dict(m1)
    for v, e in m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _grlex_rank(mono):
    """Sort key of the graded lexicographic order, leading monomial first;
    it fixes the order in which str(MultiPoly) prints its terms.

    Higher total degree leads; ties go to the first (alphabetically)
    variable with differing exponents, larger exponent first.
    Two monomials of one degree differ before either runs out of variables,
    so the (variable, -exponent) pairs compare as the order says.
    """
    return -sum(e for _, e in mono), tuple((v, -e) for v, e in mono)


def _render_terms(terms):
    """A sum of (coefficient, body) terms as text, in the given order: a
    term with an empty body prints its coefficient, a coefficient of 1 or
    -1 prints as a sign, any other as "c*body", with a coefficient that is
    itself a sum in parentheses; no terms print "0"."""
    parts = []
    for coeff, body in terms:
        if not body:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(body)
        elif coeff == -1:
            parts.append("-" + body)
        else:
            text = str(coeff)
            # only a sum of several terms prints a space
            parts.append("%s*%s" % ("(%s)" % text if " " in text else text,
                                    body))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class DimensionError(ValueError):
    """Matrix shapes do not admit the requested operation."""


class StructureError(ValueError):
    """Matrix lacks required structure (e.g. not skew-symmetric)."""


class ResourceLimitError(RuntimeError):
    """Requested size exceeds the configured bound."""


# the most work any bounded call may do: each call estimates, before it
# starts, the size of what it builds or walks, and checks it against this
WORK_BOUND = 2_000_000


def _check_bound(size, bound, what):
    """Raise ResourceLimitError when `size` exceeds `bound`; a bound of
    None is lifted.  Every resource bound of the package is checked here."""
    if bound is not None and size > bound:
        raise ResourceLimitError("%s: %d exceeds the bound %d"
                                 % (what, size, bound))


class ExactMatrix:
    """Dense matrix over Fraction or MultiPoly entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[Scalar]]):
        self.data = [[_as_coeff(v) for v in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise DimensionError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _is_rational(self) -> bool:
        return all(isinstance(v, Fraction) for row in self.data for v in row)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return ExactMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix([[-v for v in row] for row in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError("shape mismatch in product")
        tdata = other.data
        out = []
        for i in range(self.rows):
            row = []
            srow = self.data[i]
            for j in range(other.cols):
                acc = srow[0] * tdata[0][j]
                for k in range(1, self.cols):
                    acc = acc + srow[k] * tdata[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(out)

    def scale(self, factor) -> "ExactMatrix":
        return ExactMatrix([[v * factor for v in row] for row in self.data])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for r1, r2 in zip(self.data, other.data)
            for a, b in zip(r1, r2))

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.data))

    def __repr__(self):
        return "ExactMatrix(%r)" % (
            [[str(v) for v in row] for row in self.data],)

    # -- linear algebra kernels ------------------------------------------

    def det(self):
        """Exact determinant.  Rational entries: _bareiss_det in Z after
        scaling each row by the lcm of its denominators (det(DM) =
        det(D) det(M)).  A polynomial entry: _expansion_det in Q[x], which
        needs no polynomial division."""
        if not self.is_square():
            raise DimensionError("determinant of a non-square matrix")
        if self.rows == 0:
            return Fraction(1)
        if not self._is_rational():
            return _poly(_expansion_det(self.data))
        scale = 1
        rows = []
        for row in self.data:
            ints, den = _scaled_integers(row)
            scale *= den
            rows.append(ints)
        return Fraction(_bareiss_det(rows), scale)

    def rank(self) -> int:
        """The rank, from the echelon form alone; rational entries only."""
        if not self._is_rational():
            raise StructureError("rank needs rational entries")
        return len(Span(dict(enumerate(row)) for row in self.data))

    def charpoly(self):
        """Coefficients c_0..c_n of det(tI - M), monic (c_n = 1), by the
        Faddeev-LeVerrier recurrence.  Rational entries only.  It runs in Z
        on A = sM, s the lcm of the denominators, whose charpoly has the
        integer coefficients s^k c_{n-k}: every division by k is exact."""
        if not self.is_square():
            raise DimensionError("charpoly of a non-square matrix")
        if not self._is_rational():
            raise StructureError("charpoly requires rational entries")
        n = self.rows
        ints, scale = _scaled_integers([v for row in self.data for v in row])
        a = [ints[i * n:(i + 1) * n] for i in range(n)]
        coeffs = [Fraction(1)]
        ak = a
        for k in range(1, n + 1):
            ck = -sum(ak[i][i] for i in range(n)) // k
            coeffs.append(Fraction(ck, scale ** k))
            if k < n:
                # A (A_k + c_k I) = A A_k + c_k A
                cols = list(zip(*ak))
                ak = [[sum(map(mul, row, col)) + ck * v
                       for col, v in zip(cols, row)] for row in a]
        return coeffs[::-1]

    def is_skew_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(self.data[i][j] == -self.data[j][i]
                   for i in range(self.rows) for j in range(i, self.cols))

    def pfaffian(self):
        """Pfaffian by recursive first-row expansion.

        Sign convention: Pf [[0,1],[-1,0]] = 1."""
        if not self.is_square() or self.rows % 2:
            raise StructureError("Pfaffian needs an even-dimensional matrix")
        if not self.is_skew_symmetric():
            raise StructureError("Pfaffian needs a skew-symmetric matrix")
        return self._pf(tuple(range(self.rows)))

    def _pf(self, idx):
        if not idx:
            return Fraction(1)
        first = idx[0]
        rest = idx[1:]
        acc = None
        for t, j in enumerate(rest):
            entry = self.data[first][j]
            if entry == 0:
                continue
            sub = rest[:t] + rest[t + 1:]
            term = entry * self._pf(sub)
            if t % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            return Fraction(0)
        return acc


# -- determinant kernels --------------------------------------------------
#
# Two kernels, chosen by the entry type.  Over Z, Bareiss elimination costs
# k^3 steps, each with an exact integer division.  Over Q[x] each of those
# divisions is a multivariate polynomial division of two large minors, so
# polynomial dets expand instead: k 2^k steps, each a minor times one entry.


def _wedge(form, row):
    """form ^ row for a sparse form {column bitmask: coefficient} and a
    sparse row {column: entry}, over Z or Q[x]; {} if it vanishes."""
    out = {}
    for mask, x in form.items():
        for col, y in row.items():
            bit = 1 << col
            if mask & bit:
                continue
            # e_col moves left past the columns of mask above col
            if (mask >> col).bit_count() & 1:
                y = -y
            key = mask | bit
            out[key] = out.get(key, 0) + x * y
    return {key: v for key, v in out.items() if v}


def _expansion_det(rows):
    """Determinant of a square matrix by Laplace expansion down the rows,
    each minor computed once: after k rows, form[mask] is the det of those
    rows on the columns in mask.  No division; a singular matrix gives the
    int 0."""
    form = {0: 1}
    for row in rows:
        form = _wedge(form, {c: v for c, v in enumerate(row) if v})
    return form.get((1 << len(rows)) - 1, 0)


def _bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free
    elimination (Bareiss 1968); every division is exact.  Overwrites rows;
    a singular matrix gives 0."""
    size = len(rows)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if not rows[k][k]:
            for i in range(k + 1, size):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, size):
            row = rows[i]
            factor = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
        prev = pivot
    return sign * rows[-1][-1]


# -- the incremental integer echelon --------------------------------------
#
# Rows are sparse primitive integer rows {col: int}.  A row of rationals is
# scaled by the lcm of its denominators and divided by the gcd of its
# numerators, which leaves its row space unchanged.  A Span keeps them as
# an echelon {pivot col: row}, and Span.insert is the one place a row is
# reduced against it.  Every elimination step is fraction-free (Bareiss
# 1968): an integer combination of two rows, divided by its content.  The
# pivots are divided out once, at the end, by the back substitution of
# Span.reduced.


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    content = gcd(*row.values())
    if content == 1:
        return row
    return {c: v // content for c, v in row.items()}


def _integer_row(values):
    """Primitive integer row with the row space of the rational {col: value}
    mapping; {} for a zero row."""
    row = {c: v for c, v in values.items() if v}
    if not row:
        return row
    ints, _ = _scaled_integers(row.values())
    return _primitive(dict(zip(row, ints)))


def _eliminate(row, pivot_row, col):
    """Primitive integer combination of `row` and `pivot_row` that clears
    column `col`, the pivot of `pivot_row`; {} if it vanishes."""
    g = gcd(pivot_row[col], row[col])
    if pivot_row[col] < 0:
        g = -g      # p > 0, so a unit pivot leaves `row` unscaled
    p, a = pivot_row[col] // g, row[col] // g
    out = dict(row) if p == 1 else {c: v * p for c, v in row.items()}
    for c, v in pivot_row.items():
        new = out.get(c, 0) - a * v
        if new:
            out[c] = new
        else:
            del out[c]
    return _primitive(out) if out else out


class Span:
    """The row space of sparse rational rows {col: value}, held as an
    echelon {pivot col: primitive integer row}, each row zero left of its
    pivot; len() is the rank.  The constructor inserts its rows in order."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = {}
        for row in rows:
            self.insert(row)

    def __len__(self):
        return len(self.rows)

    def insert(self, row) -> bool:
        """Reduce the row by the pivots, in ascending order, and keep what
        is left under its least column; True iff the row enlarged the span.
        A step clears its pivot column and touches only columns to the
        right, so what is left is free of every pivot column."""
        row = _integer_row(row)
        for col in sorted(self.rows):
            if col in row:
                row = _eliminate(row, self.rows[col], col)
        if not row:
            return False
        self.rows[min(row)] = row
        return True

    def reduced(self):
        """Back substitution in integers: the rows {col: Fraction} of the
        reduced echelon form, in pivot order, each with a 1 at its pivot."""
        done = {}
        for col in sorted(self.rows, reverse=True):
            row = self.rows[col]
            for c in [c for c in row if c != col and c in done]:
                row = _eliminate(row, done[c], c)
            done[col] = row
        return [{c: Fraction(v, done[col][col]) for c, v in done[col].items()}
                for col in sorted(done)]

    def kernel(self, ncols):
        """The right kernel on columns 0..ncols-1: one vector {col:
        Fraction} per free column f, in ascending order, with -row[f] at
        the pivot of each reduced row and a 1 at f, its last column."""
        pivots, reduced = sorted(self.rows), self.reduced()
        return [{**{p: -row[f] for p, row in zip(pivots, reduced) if f in row},
                 f: Fraction(1)} for f in range(ncols) if f not in self.rows]
