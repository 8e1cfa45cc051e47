"""The shuffle determinant and the coefficient functional built on it.

sdet(A, B) sums, over all subsets I of row indices, the product of the
determinants of the two complementary row-shuffles of A and B.  It equals
the coefficient of x_1...x_n in det(A + B diag(x))^2, and its monomial
coefficients are (-1)^(n-m) 2^m for the m cycles of an auxiliary cycle
graph.

Attaching a pair of difference-vector rows to every 4-tuple of labels turns
sums of shuffle determinants over column subsets into coefficients of a
characteristic polynomial; phi and the mu-table machinery below implement
that correspondence.  mu_table(n, r) picks its kernel from r: a
prefix-wedge search at r = n-1, integer Gram determinants otherwise.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import List, Sequence, Tuple

from .exactmath import (DEGREE_BOUND, DimensionError, ExactMatrix,
                        MultiPoly, StructureError, _bareiss_det,
                        _check_bound, _scaled_integers, _wedge, rational)
from .perm import all_permutations


SDET_BOUND = 10          # 2^n shuffle pairs
SYMBOLIC_BOUND = 5       # polynomial determinant expansion


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
    _check_bound(n, SDET_BOUND, "sdet size")
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
    _check_bound(n, SYMBOLIC_BOUND, "symbolic sdet size")
    xs = [MultiPoly.variable("x%d" % (i + 1)) for i in range(n)]
    data = [[MultiPoly.constant(A.data[i][j]) + MultiPoly.constant(
        B.data[i][j]) * xs[i] for j in range(n)] for i in range(n)]
    poly = ExactMatrix(data).det()
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
    _check_bound(n, 7, "sdet_identity_formula size")
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
    out_deg = {}
    in_deg = {}
    for i, j in edges:
        out_deg[i] = out_deg.get(i, 0) + 1
        in_deg[j] = in_deg.get(j, 0) + 1
    vertices = set(range(1, n + 1))
    if (set(out_deg) != vertices or set(in_deg) != vertices
            or any(d != 2 for d in out_deg.values())
            or any(d != 2 for d in in_deg.values())):
        raise StructureError(
            "every vertex must have out-degree 2 and in-degree 2")
    # partner maps: the unique other edge sharing the initial (resp.
    # terminal) vertex
    by_init = {}
    by_term = {}
    for idx, (i, j) in enumerate(edges):
        by_init.setdefault(i, []).append(idx)
        by_term.setdefault(j, []).append(idx)

    def partner(table, vertex, idx):
        pair = table[vertex]
        return pair[1] if pair[0] == idx else pair[0]

    seen = [False] * len(edges)
    cycles = []
    for start in range(len(edges)):
        if seen[start]:
            continue
        # walk the cycle alternating initial- and terminal-sharing steps
        cycle = []
        idx = start
        use_init = True
        while not seen[idx]:
            seen[idx] = True
            cycle.append(idx)
            vertex = edges[idx][0] if use_init else edges[idx][1]
            table = by_init if use_init else by_term
            idx = partner(table, vertex, idx)
            use_init = not use_init
        cycles.append(tuple(cycle))
    m = len(cycles)
    return MonomialCoefficient((-1) ** (n - m) * 2 ** m, m, cycles)


# -- edge systems and the coefficient functional -------------------------


@dataclass(frozen=True)
class EdgeSystem:
    """Ordered list of 4-tuples of distinct labels in 1..n (repeats allowed)."""

    n: int
    tuples: Tuple[Tuple[int, int, int, int], ...]

    def __post_init__(self):
        tuples = tuple(tuple(t) for t in self.tuples)
        object.__setattr__(self, "tuples", tuples)
        if not tuples:
            raise StructureError("an edge system needs at least one tuple")
        for t in tuples:
            if len(t) != 4 or len(set(t)) != 4:
                raise StructureError("tuple %r is not 4 distinct labels"
                                     % (t,))
            if not all(1 <= v <= self.n for v in t):
                raise StructureError("tuple %r out of 1..%d" % (t, self.n))

    @property
    def r(self) -> int:
        return len(self.tuples)


def build_AB(system: EdgeSystem) -> Tuple[ExactMatrix, ExactMatrix]:
    """r x n difference matrices: row s of A is e_i - e_j, of B is e_k - e_l."""
    def difference(p, q):
        return [(c == p) - (c == q) for c in range(1, system.n + 1)]

    return (ExactMatrix([difference(i, j) for i, j, _, _ in system.tuples]),
            ExactMatrix([difference(k, l) for _, _, k, l in system.tuples]))


def _column_subset(M: ExactMatrix, cols) -> ExactMatrix:
    return M.submatrix(range(M.shape[0]), [c - 1 for c in cols])


def phi(system: EdgeSystem):
    """The sum over r-subsets J of columns of sdet(A^J, B^J)."""
    r, n = system.r, system.n
    if r > n:
        raise DimensionError("r=%d exceeds n=%d" % (r, n))
    A, B = build_AB(system)
    total = Fraction(0)
    for J in combinations(range(1, n + 1), r):
        total = total + sdet(_column_subset(A, J), _column_subset(B, J))
    return total


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
# Gram tables use the Cauchy-Binet form of c(M).  Write S_I for the r x n
# shuffle taking row s from A if s is in I, else from B.  Cauchy-Binet
# gives sum_J det(S_I^J) det(S_Ibar^J) = det(S_I S_Ibar^T), so
#
#     c(M) = sum over I of det(G_I),   G_I[s][t] = <row s of S_I,
#                                                  row t of S_Ibar>,
#
# an r x r integer Gram matrix whose cost does not depend on n.  Since
# G_Ibar is the transpose of G_I, the subsets I without row r are summed
# and doubled.  mu_table builds these Gram tables for every r but n-1.
#
# The top tables (r = n-1) use exterior products on one column subset
# instead of inner products, so verify_main's cross-check of the top table
# against the Gram table at r = n-1 compares two independent computations.
# All n column subsets of size n-1 give the same shuffle-determinant sum,
# so c(M) = n * sum over I of det(S_I^J) det(S_Ibar^J) with J = {1..n-1}.
# A depth-first search visits the multisets in lexicographic order.  A node
# holds, for each row subset I of its prefix, the pair (L, R) of exterior
# products of the rows of S_I and of S_Ibar on the columns J, as sparse
# {column bitmask: int} dicts; the next instance, with rows (a, b), turns
# (L, R) into (L^a, R^b) and (L^b, R^a).  A pair with a zero side adds
# nothing below it and is dropped; a node with no pairs left has only zero
# leaves and is pruned.
# At depth r-1, L^a = <l, a> for the cofactor vector l of L, and likewise
# rho for R, so the sum over the last instance is
#
#     sum over pairs of <l,a><rho,b> + <l,b><rho,a> = a^T (K + K^T) b,
#     K = sum over pairs of l rho^T,
#
# and each leaf costs one bilinear form.  mu_table(6, 5), 96,533 nonzero
# entries, takes about 3 s (CPython 3.11, one core of a 2-vCPU VM).
#
# mu_from_weights sums a table in Z: it scales the weights by the lcm of
# their denominators, so each weight product is a product of ints, and
# builds one Fraction at the end.

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
def _gram_table(n: int, r: int) -> List:
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
    return table


def _cofactors(form, r: int) -> List[int]:
    """The vector l with form ^ a = <l, a> e_1^...^e_r, for a form of
    degree r-1 on r columns."""
    full = (1 << r) - 1
    out = [0] * r
    for mask, x in form.items():
        col = (full ^ mask).bit_length() - 1
        out[col] = -x if (mask >> col).bit_count() & 1 else x
    return out


def _symmetric_fold(pairs, r: int) -> List[List[int]]:
    """K + K^T for K = sum over the pairs (L, R) of l rho^T, with l and rho
    the cofactor vectors of L and R."""
    K = [[0] * r for _ in range(r)]
    for L, R in pairs:
        rho = _cofactors(R, r)
        for i, x in enumerate(_cofactors(L, r)):
            if x:
                row = K[i]
                for j, y in enumerate(rho):
                    row[j] += x * y
    return [[K[i][j] + K[j][i] for j in range(r)] for i in range(r)]


@lru_cache(maxsize=None)
def _top_table(n: int) -> List:
    """The r = n-1 table by the prefix-wedge search described above."""
    r = n - 1

    def restricted(p, q):
        # e_p - e_q on the columns 1..n-1, as {column: entry}
        return {c - 1: v for c, v in ((p, 1), (q, -1)) if c < n}

    rows = [(restricted(*inst.tuple4[:2]), restricted(*inst.tuple4[2:]))
            for inst in instances(n)]
    table = []
    prefix = []

    def visit(pairs, lo, doubles):
        # lo: the least instance the next one may be; doubles: how many
        # instances the prefix holds twice
        last = prefix[-1] if prefix else None
        if len(prefix) == r - 1:
            S = _symmetric_fold(pairs, r)
            for idx in range(lo, len(rows)):
                a, b = rows[idx]
                c = sum(x * S[i][j] * y
                        for i, x in a.items() for j, y in b.items())
                if c:
                    table.append((tuple(prefix) + (idx,),
                                  Fraction(n * c, 2 ** (doubles
                                                        + (idx == last)))))
            return
        for idx in range(lo, len(rows)):
            a, b = rows[idx]
            children = []
            for L, R in pairs:
                for x, y in ((a, b), (b, a)):
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
    return table


def mu_table(n: int, r: int) -> List:
    """Nonzero integer coefficients for the t^(n-r) charpoly term.

    Returns a list of (multiset of instance indices, Fraction value) where
    the value already includes the 1/multiplicity! factors; the weighted
    sum over the list with per-instance weight products gives the
    coefficient.  The multisets come in the order of
    combinations_with_replacement.  Each table is built once.  Needs
    1 <= r <= n; a degree n above DEGREE_BOUND raises ResourceLimitError.

    r picks the kernel.  At r = n-1, c(M) is n times the
    shuffle-determinant sum on one column subset: a depth-first
    prefix-wedge search carries the exterior products of the rows chosen
    so far and prunes every prefix whose products all vanish.  Every other
    r evaluates c(M) by Cauchy-Binet as a sum of r x r integer Gram
    determinants det(G_I) over row subsets I, where G_I holds the inner
    products of the rows of the shuffle S_I with those of S_Ibar;
    det(G_Ibar) = det(G_I), so half the subsets are visited and doubled.
    """
    if not 1 <= r <= n:
        raise DimensionError("mu_table needs 1 <= r <= n, got r=%d n=%d"
                             % (r, n))
    _check_bound(n, DEGREE_BOUND, "mu_table degree")
    return _top_table(n) if r == n - 1 else _gram_table(n, r)


def _table_sum(n: int, r: int, table, weight_of):
    """The weighted sum of a size-r table, in Z: the weights are scaled by
    the lcm of their denominators, the table values by the lcm of theirs,
    and the one Fraction is built at the end."""
    weights, scale = _scaled_integers(
        [rational(weight_of(inst)) for inst in instances(n)])
    values, denom = _scaled_integers([value for _, value in table])
    total = 0
    for (multiset, _), value in zip(table, values):
        for idx in multiset:
            value *= weights[idx]
        total += value
    return Fraction(total, denom * scale ** r)


def mu_from_weights(n: int, r: int, weight_of):
    """Weighted charpoly coefficient from mu_table(n, r).

    weight_of maps an Instance to its rational weight; it is called once
    per instance.  The sum runs in Z (see _table_sum).
    """
    return _table_sum(n, r, mu_table(n, r), weight_of)
