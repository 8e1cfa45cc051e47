"""Exterior-power actions of group-algebra elements and the Lie-element test.

Two operators on each wedge power Lambda^m(Q^n): the multiplicative one
(apply a permutation to every wedge factor) and the derivation one (apply it
to one factor at a time, Leibniz style).  An element whose two actions agree
for every m is a "Lie element"; the full space of such elements is found by
an exact linear solve over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from types import MappingProxyType
from typing import Tuple

from .exactmath import (WORK_BOUND, ExactMatrix, Span, _check_bound,
                        _scaled_integers, rational)
from .group_algebra import GroupAlgebraElement
from .perm import all_permutations, inversion_sign


class WedgeBasis:
    """All m-subsets of {1..n}, lexicographic, their bit masks, and the
    index of each mask, all read-only: _basis shares one per (n, m)."""

    __slots__ = ("n", "m", "subsets", "masks", "index")

    def __init__(self, n: int, m: int):
        if not 0 <= m <= n:
            raise ValueError("wedge degree %d out of 0..%d" % (m, n))
        self.n = n
        self.m = m
        self.subsets = tuple(combinations(range(1, n + 1), m))
        self.masks = tuple(sum(1 << i for i in s) for s in self.subsets)
        self.index = MappingProxyType(
            {mask: i for i, mask in enumerate(self.masks)})

    def __len__(self):
        return len(self.subsets)


_basis = lru_cache(maxsize=None)(WedgeBasis)


def sort_with_sign(seq):
    """Sort indices, returning (tuple, sign) or None on a repeat.

    The sign is the parity of the inversions, i.e. the sign the wedge
    picks up when its factors are reordered."""
    items = tuple(seq)
    if len(set(items)) < len(items):
        return None
    return tuple(sorted(items)), inversion_sign(items)


def _signed_images(images, m: int):
    """Both actions of the permutation g with this image tuple on Lambda^m:
    for each basis subset S, (row, sign) of its multiplicative image and the
    list of (row, sign) of its derivation images.  Replacing s by g(s) in S
    passes over the entries of S between them, which gives the sign; a fixed
    point lands on the diagonal, and a g(s) in S gives zero and is dropped."""
    basis = _basis(len(images), m)
    row_of = basis.index
    out = []
    for col, (subset, mask) in enumerate(zip(basis.subsets, basis.masks)):
        seen = inversions = 0
        derivs = []
        for s in subset:
            t = images[s - 1]
            inversions += (seen >> t).bit_count()
            seen |= 1 << t
            if t == s:
                derivs.append((col, 1))
            elif not mask >> t & 1:
                lo, hi = min(s, t), max(s, t)
                passed = (mask >> lo + 1) & ((1 << hi - lo - 1) - 1)
                derivs.append((row_of[(mask ^ 1 << s) | 1 << t],
                               -1 if passed.bit_count() & 1 else 1))
        out.append(((row_of[seen], -1 if inversions & 1 else 1), derivs))
    return out


def grp_matrix(x: GroupAlgebraElement, m: int) -> ExactMatrix:
    """Matrix of the multiplicative action of x on Lambda^m(Q^n)."""
    size = len(_basis(x.n, m))
    data = [[Fraction(0)] * size for _ in range(size)]
    for perm, coeff in x.terms.items():
        for col, ((row, sign), _) in enumerate(_signed_images(perm.images, m)):
            data[row][col] = data[row][col] + sign * coeff
    return ExactMatrix(data)


def alg_matrix(x: GroupAlgebraElement, m: int) -> ExactMatrix:
    """Matrix of the derivation (one-factor-at-a-time) action of x."""
    size = len(_basis(x.n, m))
    data = [[Fraction(0)] * size for _ in range(size)]
    for perm, coeff in x.terms.items():
        for col, (_, derivs) in enumerate(_signed_images(perm.images, m)):
            for row, sign in derivs:
                data[row][col] = data[row][col] + sign * coeff
    return ExactMatrix(data)


def _informative_degrees(n: int):
    """The wedge degrees whose equations decide the Lie property: m = 0 and
    m = 2..n-1.

    Write V = 1 + R, the line of u = e_1 + ... + e_n plus the zero-sum
    hyperplane R.  x acts on the line by its coefficient sum s, and both
    actions preserve Lambda^m V = Lambda^m R + u ^ Lambda^(m-1) R.  At
    m = 1 both actions are x on V.  At m = n, Lambda^n V = u ^
    Lambda^(n-1) R, and every g fixes u, so the multiplicative action is
    the one on Lambda^(n-1) R and the derivation action is s plus the one
    on Lambda^(n-1) R.  The m = 0 equation is s = 0, and the m = n-1
    equation holds on its summand Lambda^(n-1) R, so together they give
    the m = n equation.
    """
    return (0, *range(2, n))


def _lie_equations(terms, m: int):
    """The Lie equations on Lambda^m: the entries {(row, col): value} of
    the multiplicative minus the derivation action of the sum of c g over
    (image tuple of g, c) terms.  An entry that cancels is kept, as 0."""
    diff = {}
    for images, c in terms:
        for col, ((row, sign), derivs) in enumerate(
                _signed_images(images, m)):
            diff[row, col] = diff.get((row, col), 0) + sign * c
            for row, sign in derivs:
                diff[row, col] = diff.get((row, col), 0) - sign * c
    return diff


def is_lie(x: GroupAlgebraElement) -> bool:
    """True iff the two actions agree on every wedge power m = 0..n; only
    the degrees of _informative_degrees are checked, which is equivalent.
    Over Q: the coefficients are scaled to integers once, and the sparse
    integer difference of the two actions is checked one m at a time."""
    ints, _ = _scaled_integers([rational(c) for c in x.terms.values()])
    terms = list(zip([perm.images for perm in x.terms], ints))
    return not any(any(_lie_equations(terms, m).values())
                   for m in _informative_degrees(x.n))


@dataclass(frozen=True)
class LieSpaceResult:
    n: int
    basis: Tuple[GroupAlgebraElement, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def lie_space(n: int, bound=WORK_BOUND) -> LieSpaceResult:
    """Exact basis of the space of Lie elements in Q[S_n], solved once per
    n and shared: the result is read-only.  More than `bound` equation
    entries raise ResourceLimitError on every call; bound=None lifts it."""
    entries = sum(comb(n, m) ** 2 for m in _informative_degrees(n))
    _check_bound(factorial(n) * entries, bound, "lie_space equation entries")
    return _lie_space(n)


@lru_cache(maxsize=None)
def _lie_space(n: int) -> LieSpaceResult:
    """The solve behind lie_space.

    One unknown per permutation; one homogeneous equation per entry of
    _lie_equations, for the degrees m of _informative_degrees (the others
    add nothing to the row space), inserted into one Span in sorted entry
    order as soon as its degree is built.  The kernel basis comes from
    reduced echelon form with unknowns in lexicographic image order, so
    the output is deterministic.
    """
    perms = all_permutations(n)
    span = Span()
    for m in _informative_degrees(n):
        # blocks[(row, col)][perm index] -> integer coefficient
        blocks = {}
        for gi, perm in enumerate(perms):
            for key, v in _lie_equations([(perm.images, 1)], m).items():
                blocks.setdefault(key, {})[gi] = v
        for key in sorted(blocks):
            span.insert(blocks[key])
    return LieSpaceResult(n=n, basis=tuple(
        GroupAlgebraElement(n, {perms[i]: c for i, c in vec.items()})
        for vec in span.kernel(len(perms))))


def action_matrix(x: GroupAlgebraElement, representation: str = "permutation"
                  ) -> ExactMatrix:
    """Matrix of x on Q^n ("permutation") or on the zero-sum hyperplane
    ("reflection", basis v_i - v_n for i = 1..n-1)."""
    n = x.n
    if representation not in ("permutation", "reflection"):
        raise ValueError("unknown representation %r" % representation)
    data = [[Fraction(0)] * n for _ in range(n)]
    for perm, coeff in x.terms.items():
        for i, img in enumerate(perm.images):
            data[img - 1][i] = data[img - 1][i] + coeff
    if representation == "reflection":
        # x (v_j - v_n) is column j minus column n, and a zero-sum vector
        # has its first n - 1 entries as coordinates
        data = [[row[j] - row[-1] for j in range(n - 1)] for row in data[:-1]]
    return ExactMatrix(data)


def action_rank(elements) -> int:
    """Rank of the permutation actions of the elements on Q^n, each n x n
    matrix flattened into one row."""
    return ExactMatrix([[v for row in action_matrix(x).data for v in row]
                        for x in elements]).rank()
