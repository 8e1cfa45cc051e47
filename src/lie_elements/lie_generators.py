"""The kappa / nu / eta generator family and its linear structure.

kappa_ij = 1 - (ij)
nu_ijk   = (ijk) - (ikj)
eta_ijkl = (ijkl) + (ilkj) - (ijlk) - (iklj)

nu and eta are iterated commutators of the kappa's; the module also computes
bracket closures and the repeated-commutator family used by the conjecture
reports.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as index_permutations
from math import factorial
from types import MappingProxyType
from typing import List, Sequence, Tuple

from .exactmath import (WORK_BOUND, ExactMatrix, Span, _check_bound,
                        _integer_row)
from .group_algebra import GroupAlgebraElement
from .perm import Permutation, all_permutations


def _signed_cycles(n: int, *signed) -> GroupAlgebraElement:
    """The sum of sign * cycle over (sign, cycle) pairs, the cycles being
    distinct permutations; a repeated index raises ValueError through
    Permutation.from_cycles."""
    return GroupAlgebraElement(n, {Permutation.from_cycles(n, [cycle]): sign
                                   for sign, cycle in signed})


def kappa(n: int, i: int, j: int) -> GroupAlgebraElement:
    return _signed_cycles(n, (1, ()), (-1, (i, j)))


def nu(n: int, i: int, j: int, k: int) -> GroupAlgebraElement:
    return _signed_cycles(n, (1, (i, j, k)), (-1, (i, k, j)))


def eta(n: int, i: int, j: int, k: int, l: int) -> GroupAlgebraElement:
    return _signed_cycles(n, (1, (i, j, k, l)), (1, (i, l, k, j)),
                          (-1, (i, j, l, k)), (-1, (i, k, l, j)))


# -- spans in Q[S_n] ------------------------------------------------------


@lru_cache(maxsize=None)
def _columns(n: int):
    """Read-only map of the image tuples of S_n to columns, in
    lexicographic image order."""
    return MappingProxyType({p.images: i
                             for i, p in enumerate(all_permutations(n))})


def _row(x: GroupAlgebraElement):
    """The coefficients of x as a sparse row {column: coefficient}."""
    column = _columns(x.n)
    return {column[p.images]: c for p, c in x.terms.items()}


def span_rank(elements: Sequence[GroupAlgebraElement]) -> int:
    return len(Span(map(_row, elements)))


def span_contains(basis: Sequence[GroupAlgebraElement],
                  elements: Sequence[GroupAlgebraElement]) -> bool:
    """True iff every element lies in the span of the basis: the basis is
    inserted once, then no element may enlarge the span."""
    span = Span(map(_row, basis))
    return not any(span.insert(_row(x)) for x in elements)


# -- relations and representations ----------------------------------------

def verify_relations(n: int, indices: Tuple[int, int, int, int] = (1, 2, 3, 4)
                     ) -> List[str]:
    """Exhaustively check the symmetry relations of the generator family on
    one 4-index set; returns the list of violated identities (expect [])."""
    if n < 4:
        raise ValueError("relations need n >= 4")
    i, j, k, l = indices
    failures = []

    def check(label, lhs, rhs):
        if lhs != rhs:
            failures.append(label)

    for p, q in index_permutations((i, j), 2):
        check("kappa_%d%d symmetric" % (p, q),
              kappa(n, p, q), kappa(n, q, p))
    for p, q, r in index_permutations((i, j, k), 3):
        check("nu_%d%d%d cyclic" % (p, q, r),
              nu(n, p, q, r), nu(n, q, r, p))
        check("nu_%d%d%d antisymmetric" % (p, q, r),
              nu(n, q, p, r), nu(n, p, q, r).scale(-1))
    for p, q, r, s in index_permutations((i, j, k, l), 4):
        e = eta(n, p, q, r, s)
        check("eta_%d%d%d%d first-pair antisymmetry" % (p, q, r, s),
              eta(n, q, p, r, s), e.scale(-1))
        check("eta_%d%d%d%d last-pair antisymmetry" % (p, q, r, s),
              eta(n, p, q, s, r), e.scale(-1))
        check("eta_%d%d%d%d reversal" % (p, q, r, s),
              eta(n, s, r, q, p), e)
        check("eta_%d%d%d%d half-swap" % (p, q, r, s),
              eta(n, r, s, p, q), e)
        check("eta_%d%d%d%d double-swap" % (p, q, r, s),
              eta(n, q, p, s, r), e)
        check("eta_%d%d%d%d three-term" % (p, q, r, s),
              eta(n, p, q, r, s) + eta(n, p, r, s, q) + eta(n, p, s, q, r),
              GroupAlgebraElement.zero(n))
    return failures


def span_dims(n: int, indices: Tuple[int, int, int, int] = (1, 2, 3, 4)
              ) -> Tuple[int, int, int]:
    """Ranks of the index-permuted spans of kappa, nu, eta on one 4-set.

    Expected (1, 1, 2); also checks that {eta_ijkl, eta_iklj} spans the
    eta space."""
    i, j, k, l = indices
    kappas = [kappa(n, *t) for t in index_permutations((i, j), 2)]
    nus = [nu(n, *t) for t in index_permutations((i, j, k), 3)]
    etas = [eta(n, *t) for t in index_permutations((i, j, k, l), 4)]
    dim_h = span_rank(etas)
    basis_rank = span_rank([eta(n, i, j, k, l), eta(n, i, k, l, j)])
    if basis_rank != dim_h:
        raise AssertionError(
            "{eta_ijkl, eta_iklj} does not span the eta space")
    return span_rank(kappas), span_rank(nus), dim_h


def _index_action_matrix(sigma: Permutation) -> ExactMatrix:
    """2x2 matrix of sigma permuting eta indices, basis
    {eta_1234, eta_1342}, built in S_4 (it is the same in every degree).
    The cycle (1234) occurs in eta_1234 only, with coefficient 1, and
    (1324) in eta_1342 only, with coefficient -1, so their coefficients in
    an image are its coordinates."""
    b1, b2 = eta(4, 1, 2, 3, 4), eta(4, 1, 3, 4, 2)
    p1 = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    p2 = Permutation.from_cycles(4, [(1, 3, 2, 4)])
    cols = []
    for base in ((1, 2, 3, 4), (1, 3, 4, 2)):
        image = eta(4, *[sigma(t) for t in base])
        c1, c2 = image.coeff(p1), -image.coeff(p2)
        if b1.scale(c1) + b2.scale(c2) != image:
            raise AssertionError("eta image outside the 2-dim span")
        cols.append((c1, c2))
    return ExactMatrix([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])


def index_rep_matrices() -> List[ExactMatrix]:
    """Matrices of the adjacent transpositions (12), (23), (34) acting on
    the 2-dimensional eta span by index relabeling."""
    return [_index_action_matrix(Permutation.from_cycles(4, [(a, a + 1)]))
            for a in (1, 2, 3)]


def _no_common_line(matrices) -> bool:
    """True iff the 2x2 rational matrices have no common invariant line
    over the algebraic closure.  By Burnside's theorem that holds iff they
    generate all 2x2 matrices, i.e. iff their words span 4 dimensions.  The
    span of the words of length <= k grows with k until it stops, and it
    starts at 1, so the words of length <= 3 already span the algebra."""
    words = layer = [ExactMatrix.identity(2)]
    for _ in range(3):
        layer = [w @ m for w in layer for m in matrices]
        words = words + layer
    return ExactMatrix([w.data[0] + w.data[1] for w in words]).rank() == 4


def no_invariant_line() -> bool:
    """True iff the index-permutation action on the eta span admits no
    common invariant line over the algebraic closure."""
    return _no_common_line(index_rep_matrices())


# -- bracket closure and repeated commutators ------------------------------


def lie_closure(generators: Sequence[GroupAlgebraElement], n: int,
                bound=WORK_BOUND) -> List[GroupAlgebraElement]:
    """Basis of the smallest bracket-closed subspace containing the
    generators.  Each round brackets the current basis with the generators
    only; iteration stops when the dimension stabilizes.  More than `bound`
    (n!)^2 row entries raise ResourceLimitError; bound=None lifts it.

    The work is in integer rows over the columns of S_n.  Each generator is
    scaled to a primitive integer row, which leaves the closure unchanged
    (the bracket is bilinear).  For each permutation q in a generator's
    support, left[c] and right[c] are the columns of q p_c and p_c q, so
    [x, g] is the sum of x_c g_q (e_right[c] - e_left[c]); the identity's
    term is zero."""
    _check_bound(factorial(n) ** 2, bound, "lie_closure entries")
    perms = all_permutations(n)
    images = [p.images for p in perms]
    column = _columns(n)
    rows = [_integer_row(_row(g)) for g in generators]
    maps = {}
    for q in {c for row in rows for c in row} - {0}:   # 0 is the identity
        image_q = images[q]
        maps[q] = ([column[tuple([image_q[i - 1] for i in image])]
                    for image in images],
                   [column[tuple([image[i - 1] for i in image_q])]
                    for image in images])
    brackets = [[(*maps[q], v) for q, v in row.items() if q] for row in rows]

    def bracket(x, terms):
        out = {}
        for left, right, v in terms:
            for c, u in x.items():
                uv = u * v
                out[right[c]] = out.get(right[c], 0) + uv
                out[left[c]] = out.get(left[c], 0) - uv
        return {c: v for c, v in out.items() if v}

    span = Span()
    frontier = [row for row in rows if span.insert(row)]
    while frontier:
        frontier = [y for x in frontier for y in
                    (bracket(x, terms) for terms in brackets)
                    if span.insert(y)]
    return [GroupAlgebraElement(n, {perms[c]: v for c, v in row.items()})
            for row in span.reduced()]


def all_kappas(n: int) -> List[GroupAlgebraElement]:
    return [kappa(n, i, j) for i in range(1, n + 1)
            for j in range(i + 1, n + 1)]


def repeated_commutator_set(n: int) -> List[GroupAlgebraElement]:
    """All (n-1)! left-nested commutators
    [...[kappa_{1 i_1}, kappa_{2 i_2}], ...], kappa_{n-1, i_{n-1}}]
    with s+1 <= i_s <= n; n < 2 raises ValueError, since there is no
    commutator to take."""
    if n < 2:
        raise ValueError("repeated commutators need n >= 2, got %d" % n)
    _check_bound(factorial(n) ** 2 // n, WORK_BOUND, "commutator terms")
    out = []

    def extend(s, acc):
        if s == n:
            out.append(acc)
            return
        for i_s in range(s + 1, n + 1):
            nxt = kappa(n, s, i_s)
            extend(s + 1, acc.bracket(nxt) if acc is not None else nxt)

    extend(1, None)
    return out
