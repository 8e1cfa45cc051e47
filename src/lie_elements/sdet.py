"""The shuffle determinant and the coefficient functional built on it.

sdet(A, B) sums, over all subsets I of row indices, the product of the
determinants of the two complementary row-shuffles of A and B.  It equals
the coefficient of x_1...x_n in det(A + B diag(x))^2, and its monomial
coefficients are (-1)^(n-m) 2^m for the m cycles of an auxiliary cycle
graph.

Attaching a pair of difference-vector rows to every 4-tuple of labels turns
sums of shuffle determinants over column subsets into coefficients of a
characteristic polynomial; the mu-table machinery below implements that
correspondence.  mu_table(n, r) builds every table by one prefix-wedge
search; integer Gram determinants are the reference.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial
from typing import List, Sequence, Tuple

from .exactmath import (WORK_BOUND, DimensionError, ExactMatrix, MultiPoly,
                        StructureError, _bareiss_det, _check_bound, _poly,
                        _scaled_integers, _wedge, rational)
from .perm import all_permutations


# -- shuffles ------------------------------------------------------------


def shuffle(A: ExactMatrix, B: ExactMatrix, I) -> ExactMatrix:
    """Row mix: row i (1-based) comes from A if i is in I, else from B."""
    if A.shape != B.shape:
        raise DimensionError("shapes %r and %r differ" % (A.shape, B.shape))
    rows = A.shape[0]
    I = set(I)
    if not I <= set(range(1, rows + 1)):
        raise DimensionError("row subset %r out of 1..%d" % (sorted(I), rows))
    data = [A.data[i - 1] if i in I else B.data[i - 1]
            for i in range(1, rows + 1)]
    return ExactMatrix(data)


def sdet(A: ExactMatrix, B: ExactMatrix):
    """Sum over all row subsets I of det(shuffle I) * det(shuffle I-bar)."""
    if A.shape != B.shape:
        raise DimensionError("shapes %r and %r differ" % (A.shape, B.shape))
    n = A.shape[0]
    if not A.is_square():
        raise DimensionError("sdet needs square matrices")
    _check_bound(2 ** n * n ** 3, WORK_BOUND, "sdet steps")
    total = Fraction(0)
    indices = list(range(1, n + 1))
    for size in range(n + 1):
        for subset in combinations(indices, size):
            complement = [i for i in indices if i not in subset]
            total = (shuffle(A, B, subset).det()
                     * shuffle(A, B, complement).det()) + total
    return total


def sdet_via_coeff(A: ExactMatrix, B: ExactMatrix):
    """Coefficient of x_1...x_n in det(A + diag(x_1..x_n) B)^2.

    The diagonal factor scales the rows of B, matching the row-based
    shuffle definition.
    """
    if A.shape != B.shape:
        raise DimensionError("shapes %r and %r differ" % (A.shape, B.shape))
    n = A.shape[0]
    _check_bound(4 ** n, WORK_BOUND, "symbolic sdet term products")
    xs = [MultiPoly.variable("x%d" % (i + 1)) for i in range(n)]
    data = [[MultiPoly.constant(A.data[i][j]) + MultiPoly.constant(
        B.data[i][j]) * xs[i] for j in range(n)] for i in range(n)]
    poly = _poly(ExactMatrix(data).det())   # a 0 x 0 det is Fraction(1)
    square = poly * poly
    monomial = {("x%d" % (j + 1)): 1 for j in range(n)}
    return square.coeff_at(monomial)


def sdet_identity_formula(A: ExactMatrix):
    """(-1)^n sum over permutations of (-2)^cycles * diagonal product.

    Equals sdet(A, identity).
    """
    n = A.shape[0]
    if not A.is_square():
        raise DimensionError("square matrix required")
    _check_bound(factorial(n) * n, WORK_BOUND, "sdet_identity_formula steps")
    total = Fraction(0)
    for sigma in all_permutations(n):
        prod = Fraction(-2) ** sigma.cycle_count()
        for i in range(1, n + 1):
            prod = prod * A.data[i - 1][sigma(i) - 1]
        total = total + prod
    return total if n % 2 == 0 else -total


# -- monomial coefficients via the cycle graph ---------------------------

MonomialCoefficient = namedtuple("MonomialCoefficient",
                                 ["coefficient", "cycle_count", "cycles"])


def monomial_coefficient(edges: Sequence[Tuple[int, int]]
                         ) -> MonomialCoefficient:
    """Signed coefficient of the monomial whose letters form these edges.

    The 2n directed edges on vertices 1..n must give every vertex
    out-degree 2 and in-degree 2.  The auxiliary graph has the edges as
    vertices, joining two when they share an initial or a terminal vertex.
    It is the union of two perfect matchings, the out-edge pairs and the
    in-edge pairs, so its cycles alternate between the two and are even;
    the coefficient is +-2^m for its m cycles.

    The sign is (-1)^(n-m).  Colour each cycle alternately: every vertex
    then has one out-edge and one in-edge of each colour, so the colours
    cut out two permutations rho and beta, and the sign is
    sgn rho * sgn beta.  From the edge (i, rho(i)), an out-pair step
    reaches (i, beta(i)) and an in-pair step then reaches
    (rho^-1 beta (i), beta(i)), so the auxiliary cycles are exactly the
    cycles of rho^-1 beta, and sgn rho * sgn beta = sgn(rho^-1 beta) =
    (-1)^(n-m).
    """
    edges = [tuple(e) for e in edges]
    if len(edges) % 2:
        raise StructureError("odd number of edges")
    n = len(edges) // 2
    # ends[0][v] and ends[1][v]: the edges with initial, resp. terminal,
    # vertex v, which must be a pair for every v in 1..n
    ends = ({}, {})
    for idx, (i, j) in enumerate(edges):
        ends[0].setdefault(i, []).append(idx)
        ends[1].setdefault(j, []).append(idx)
    vertices = set(range(1, n + 1))
    if any(set(table) != vertices or any(len(p) != 2 for p in table.values())
           for table in ends):
        raise StructureError(
            "every vertex must have out-degree 2 and in-degree 2")
    seen = [False] * len(edges)
    cycles = []
    for start in range(len(edges)):
        if seen[start]:
            continue
        # walk the cycle alternating initial- and terminal-sharing steps
        cycle = []
        idx, side = start, 0
        while not seen[idx]:
            seen[idx] = True
            cycle.append(idx)
            a, b = ends[side][edges[idx][side]]
            idx, side = (b if a == idx else a), 1 - side
        cycles.append(tuple(cycle))
    m = len(cycles)
    return MonomialCoefficient((-1) ** (n - m) * 2 ** m, m, cycles)


# -- fast integer tables for the characteristic-polynomial check ---------
#
# For z built from the eta generators, the t^(n-r) coefficient of the
# characteristic polynomial is a weighted sum, over size-r multisets of
# (4-subset, variant) instances with multiplicity at most 2, of an integer
# c(M) / prod(multiplicities!), where c(M) is the column-subset sum of
# shuffle determinants of the difference matrices of M.  The c(M) values do
# not depend on the weights, so they are computed once per (n, r) and
# reused across weightings.
#
# Write S_I for the r x n shuffle taking row s from A if s is in I, else
# from B, and ^S_I for the wedge of its rows.  By Cauchy-Binet,
# sum_J det(S_I^J) det(S_Ibar^J) = <^S_I, ^S_Ibar>, so c(M) is the sum
# over I of <^S_I, ^S_Ibar>.
#
# mu_table builds every table by one depth-first search that visits the
# multisets in lexicographic order.  A node holds, for each row subset I
# of its prefix, the pair (L, R) of the wedges of the rows of S_I and of
# S_Ibar, as sparse {column bitmask: int} dicts; the next instance, with
# rows (a, b), turns (L, R) into (L^a, R^b) and (L^b, R^a).  A pair with
# a zero side adds nothing below it and is dropped; a node with no pairs
# left has only zero leaves and is pruned.  The summand is symmetric in I
# and Ibar, so the first instance only takes (L^a, R^b) and the sum is
# doubled.
#
# At r = n-1 the search keeps the columns 1..n-1 and multiplies by n: the
# rows lie in the zero-sum hyperplane, whose (n-1)-th exterior power is
# one-dimensional, so all n column subsets of size n-1 give the same
# shuffle-determinant sum.  Every other r keeps all n columns; at r = n-1
# that would be about twice the work.
#
# At depth r-1 a node folds its pairs once into
#
#     S = K + K^T,   K[x][y] = sum over the pairs and the column sets J
#                              of (L^e_x)_J (R^e_y)_J,
#
# so that the last instance adds sum over pairs of <L^a, R^b> +
# <L^b, R^a> = a^T S b.  For a = e_i - e_j and b = e_k - e_l that is four
# lookups, S[i][k] - S[i][l] - S[j][k] + S[j][l]; at r = n-1 the dropped
# column is a zero row and column of S.  mu_table(6, 5), 96,533 nonzero
# entries, takes about 1.1 s (CPython 3.11, one core of a 2-vCPU VM).
#
# _gram_table is the reference path.  It evaluates c(M) as the sum over I
# of det(G_I), where G_I[s][t] = <row s of S_I, row t of S_Ibar> is an
# r x r integer Gram matrix; det(G_Ibar) = det(G_I), so the subsets I
# without row r are summed and doubled.  verify_main cross-checks the
# r = n-1 table against it for n <= 5, so the two sides of that check are
# independent computations.
#
# mu_from_weights sums a table in Z: it scales the weights by the lcm of
# their denominators, so each weight product is a product of ints, and
# builds one Fraction at the end; the table values are scaled once per
# table.

Instance = namedtuple("Instance", ["quad", "variant", "tuple4"])


def instances(n: int) -> List[Instance]:
    """All (4-subset, variant) generator instances on labels 1..n.

    Variant T1 of the 4-subset (i,j,k,l) uses the tuple (i,j,k,l); variant
    T2 uses (i,k,l,j).
    """
    out = []
    for q in combinations(range(1, n + 1), 4):
        i, j, k, l = q
        out.append(Instance(q, "T1", (i, j, k, l)))
        out.append(Instance(q, "T2", (i, k, l, j)))
    return out


def _pair_product(p, q) -> int:
    """<e_i - e_j, e_k - e_l> for the label pairs p = (i, j), q = (k, l)."""
    i, j = p
    k, l = q
    return (i == k) - (i == l) - (j == k) + (j == l)


def _gram_c_value(products, multiset) -> int:
    """c(M) = sum over row subsets I of det(G_I) for a multiset of instance
    indices.  products[x][y] = <vector x, vector y>, where vector 2m is
    the A pair of instance m and 2m+1 its B pair."""
    total = 0
    # I (bit s set: s in I) omits the last row; det(G_Ibar) = det(G_I)
    for mask in range(1 << (len(multiset) - 1)):
        left = []
        right = []
        for s, idx in enumerate(multiset):
            a, b = 2 * idx, 2 * idx + 1
            if mask >> s & 1:
                left.append(products[a])
                right.append(b)
            else:
                left.append(products[b])
                right.append(a)
        total += _bareiss_det([[row[y] for y in right] for row in left])
    return 2 * total


@lru_cache(maxsize=None)
def _gram_table(n: int, r: int) -> Tuple:
    insts = instances(n)
    pairs = [p for inst in insts
             for p in (inst.tuple4[:2], inst.tuple4[2:])]
    products = [[_pair_product(p, q) for q in pairs] for p in pairs]
    table = []
    for multiset in combinations_with_replacement(range(len(insts)), r):
        counts = {}
        for idx in multiset:
            counts[idx] = counts.get(idx, 0) + 1
        if any(c > 2 for c in counts.values()):
            continue
        c = _gram_c_value(products, multiset)
        if c:
            denom = 1
            for count in counts.values():
                if count == 2:
                    denom *= 2
            table.append((multiset, Fraction(c, denom)))
    return tuple(table)


@lru_cache(maxsize=None)
def _extension_signs(cols: int) -> Tuple:
    """For every mask below 2^cols, the triples (x, J, sign) with
    e_mask ^ e_x = sign e_J, over the columns x < cols outside mask."""
    every = dict.fromkeys(range(cols), 1)
    return tuple(tuple(((J ^ mask).bit_length() - 1, J, sign)
                       for J, sign in _wedge({mask: 1}, every).items())
                 for mask in range(1 << cols))


def _leaf_fold(pairs, cols: int, n: int) -> List[List[int]]:
    """S = K + K^T, n x n, for K[x][y] = sum over the pairs (L, R) and the
    column sets J of (L^e_x)_J (R^e_y)_J; rows and columns from cols on
    stay zero."""
    K = [[0] * n for _ in range(n)]
    signs = _extension_signs(cols)
    for L, R in pairs:
        # right[J]: the (y, (R^e_y)_J)
        right = {}
        for mask, v in R.items():
            for y, J, sign in signs[mask]:
                right.setdefault(J, []).append((y, sign * v))
        for mask, u in L.items():
            for x, J, sign in signs[mask]:
                row = K[x]
                for y, v in right.get(J, ()):
                    row[y] += sign * u * v
    return [[K[i][j] + K[j][i] for j in range(n)] for i in range(n)]


@lru_cache(maxsize=None)
def _wedge_table(n: int, r: int) -> Tuple:
    """The size-r table by the prefix-wedge search described above."""
    # at r = n-1 the n column subsets of size n-1 give equal sums
    cols, factor = (n - 1, n) if r == n - 1 else (n, 1)
    if r > 1:
        # the first instance puts a on the left only: swapping the sides
        # of every row swaps L and R, which leaves each leaf unchanged
        factor *= 2
    labels = [tuple(v - 1 for v in inst.tuple4) for inst in instances(n)]
    # e_p - e_q on the columns below cols, as {column: entry}
    rows = [tuple({c: v for c, v in ((p, 1), (q, -1)) if c < cols}
                  for p, q in (t[:2], t[2:])) for t in labels]
    table = []
    prefix = []

    def visit(pairs, lo, doubles):
        # lo: the least instance the next one may be; doubles: how many
        # instances the prefix holds twice
        last = prefix[-1] if prefix else None
        if len(prefix) == r - 1:
            S = _leaf_fold(pairs, cols, n)
            for idx in range(lo, len(rows)):
                # a^T S b for a = e_i - e_j, b = e_k - e_l
                i, j, k, l = labels[idx]
                Si, Sj = S[i], S[j]
                c = Si[k] - Si[l] - Sj[k] + Sj[l]
                if c:
                    table.append((tuple(prefix) + (idx,),
                                  Fraction(factor * c,
                                           2 ** (doubles + (idx == last)))))
            return
        for idx in range(lo, len(rows)):
            a, b = rows[idx]
            children = []
            for L, R in pairs:
                for x, y in ((a, b), (b, a)) if prefix else ((a, b),):
                    left = _wedge(L, x)
                    if left:
                        right = _wedge(R, y)
                        if right:
                            children.append((left, right))
            if children:
                repeat = idx == last
                prefix.append(idx)
                visit(children, idx + 1 if repeat else idx, doubles + repeat)
                prefix.pop()

    visit([({0: 1}, {0: 1})], 0, 0)
    return tuple(table)


def mu_table(n: int, r: int) -> Tuple:
    """Nonzero integer coefficients for the t^(n-r) charpoly term.

    Returns a tuple of (multiset of instance indices, Fraction value) where
    the value already includes the 1/multiplicity! factors; the weighted
    sum over the tuple with per-instance weight products gives the
    coefficient.  The multisets come in the order of
    combinations_with_replacement.  Each table is built once, and shared
    as a tuple so that no caller can change it.  Needs 1 <= r <= n; more
    than WORK_BOUND multisets to search raise ResourceLimitError.

    One depth-first prefix-wedge search builds the table for every r: each
    node carries the exterior products of the rows of each shuffle pair
    chosen so far, every prefix whose products all vanish is pruned, and
    each leaf is four lookups in one folded matrix per node.  At r = n-1
    the search keeps n-1 columns and multiplies by n; every other r keeps
    all n columns (Cauchy-Binet).  _gram_table, r x r integer Gram
    determinants over row subsets, is the reference it is checked against.
    """
    if not 1 <= r <= n:
        raise DimensionError("mu_table needs 1 <= r <= n, got r=%d n=%d"
                             % (r, n))
    _check_bound(_multisets(n, r), WORK_BOUND, "mu_table multisets")
    return _wedge_table(n, r)


def _multisets(n: int, r: int) -> int:
    """The number of size-r multisets of the 2 C(n, 4) instances."""
    return comb(max(2 * comb(n, 4) + r - 1, 0), r)


@lru_cache(maxsize=None)
def _integer_values(build, n: int, r: int):
    """The values of the table build(n, r) scaled to integers by the lcm
    of their denominators, and that lcm; computed once per table."""
    values, denom = _scaled_integers([value for _, value in build(n, r)])
    return tuple(values), denom


def _table_sum(n: int, r: int, build, weight_of):
    """The weighted sum of the size-r table build(n, r), in Z: the weights
    are scaled by the lcm of their denominators, the table values by the
    lcm of theirs (once per table), and the one Fraction is built at the
    end."""
    weights, scale = _scaled_integers(
        [rational(weight_of(inst)) for inst in instances(n)])
    values, denom = _integer_values(build, n, r)
    total = 0
    for (multiset, _), value in zip(build(n, r), values):
        for idx in multiset:
            value *= weights[idx]
        total += value
    return Fraction(total, denom * scale ** r)


def mu_from_weights(n: int, r: int, weight_of):
    """Weighted charpoly coefficient from mu_table(n, r).

    weight_of maps an Instance to its rational weight; it is called once
    per instance.  The sum runs in Z (see _table_sum).
    """
    mu_table(n, r)      # its argument and bound checks
    return _table_sum(n, r, _wedge_table, weight_of)
