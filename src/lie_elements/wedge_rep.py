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

from .exactmath import (WORK_BOUND, ExactMatrix, Span, StructureError,
                        _check_bound, _scaled_integers, _wedge, rational)
from .group_algebra import GroupAlgebraElement
from .perm import all_permutations


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


def _passed_sign(mask: int, a: int, b: int) -> int:
    """(-1)^(the entries of mask strictly between a and b): the sign of
    replacing the factor a of a sorted wedge by b."""
    lo, hi = min(a, b), max(a, b)
    passed = (mask >> lo + 1) & ((1 << hi - lo - 1) - 1)
    return -1 if passed.bit_count() & 1 else 1


def _wedge_matrix(x: GroupAlgebraElement, m: int, products) -> ExactMatrix:
    """Matrix on Lambda^m(Q^n) of x = sum of c g, where g sends e_S to the
    sum of the wedges of the factor tuples in products(images of g, S)."""
    basis = _basis(x.n, m)
    data = [[Fraction(0)] * len(basis) for _ in basis.subsets]
    for perm, coeff in x.terms.items():
        for col, subset in enumerate(basis.subsets):
            for factors in products(perm.images, subset):
                form = {0: 1}
                for t in factors:
                    form = _wedge(form, {t: 1})
                for mask, sign in form.items():
                    data[basis.index[mask]][col] += sign * coeff
    return ExactMatrix(data)


def grp_matrix(x: GroupAlgebraElement, m: int) -> ExactMatrix:
    """Matrix of the multiplicative action of x on Lambda^m(Q^n): e_S goes
    to the wedge of the images of its factors."""
    return _wedge_matrix(x, m, lambda g, S: [[g[s - 1] for s in S]])


def alg_matrix(x: GroupAlgebraElement, m: int) -> ExactMatrix:
    """Matrix of the derivation (one-factor-at-a-time) action of x: e_S
    goes to the sum, over its factors, of the wedge with that one factor
    replaced by its image."""
    return _wedge_matrix(x, m, lambda g, S: [
        S[:i] + (g[s - 1],) + S[i + 1:] for i, s in enumerate(S)])


def _hook_equations(terms, n: int, k: int):
    """The Lie equations on the hook Lambda^k R: the entries {(row, col):
    value} of the multiplicative minus the derivation action of the sum of
    c g over (image tuple of g, integer c) terms, in the basis f_C of
    _basis(n - 1, k), f_C the wedge of f_s = e_s - e_n over s in C.  An
    entry that cancels is kept, as 0.

    With top = g(n) and f_n = 0, g f_s = f_g(s) - f_top.  So g f_C is one
    signed term if top = n; if g^-1(n) is in C, its factor is -f_top and
    the term is one; otherwise it is the term of g(C) and the k terms with
    one factor replaced by -f_top.  A derivation replaces one factor s by
    f_g(s) - f_top: at most 2k terms, a factor equal to s on the diagonal.

    The one wedge kernel besides exactmath._wedge, kept as it is hot: on
    _wedge, is_lie on the 190 kappa/nu/eta elements of the identities
    bench took 0.09-0.16 s, against 0.03-0.05 s (2-vCPU VM, CPython 3.11).
    """
    basis = _basis(n - 1, k)
    row_of = basis.index
    diff = {}
    for images, c in terms:
        top = images[-1]
        for col, (subset, mask) in enumerate(zip(basis.subsets, basis.masks)):
            imgs = [images[s - 1] for s in subset]
            seen = inversions = 0
            for t in imgs:
                inversions += (seen >> t).bit_count()
                seen |= 1 << t
            signed = -c if inversions & 1 else c    # g(C), factors in order
            if seen >> n & 1:       # g^-1(n) in C: its factor is -f_top
                replaced = (n,)
            else:
                key = row_of[seen], col
                diff[key] = diff.get(key, 0) + signed
                replaced = imgs if top != n else ()  # each factor -> -f_top
            for a in replaced:
                key = row_of[(seen ^ 1 << a) | 1 << top], col
                diff[key] = (diff.get(key, 0)
                             - _passed_sign(seen, a, top) * signed)
            for s, t in zip(subset, imgs):
                for image, sign in ((t, -c), (top, c)):  # f_t - f_top
                    if image == s:
                        key = col, col
                    elif image != n and not mask >> image & 1:
                        key = row_of[(mask ^ 1 << s) | 1 << image], col
                        sign *= _passed_sign(mask, s, image)
                    else:
                        continue
                    diff[key] = diff.get(key, 0) + sign
    return diff


def is_lie(x: GroupAlgebraElement) -> bool:
    """True iff the two actions agree on every wedge power m = 0..n.

    Write V = 1 + R, the line of u = e_1 + ... + e_n plus the zero-sum
    hyperplane R, and s for the coefficient sum of x.  Both actions keep
    Lambda^m V = Lambda^m R + u ^ Lambda^(m-1) R; on u ^ w the difference
    of the two is u ^ (the difference on w, minus s w).  At k = 0 the
    difference on Lambda^k R is s, at k = 1 it is 0, and Lambda^n R = 0.
    So x is Lie iff s = 0 and _hook_equations vanishes for k = 2..n-1.
    Over Q: the coefficients are scaled to integers once."""
    ints, _ = _scaled_integers([rational(c) for c in x.terms.values()])
    terms = list(zip([perm.images for perm in x.terms], ints))
    return not sum(ints) and not any(
        any(_hook_equations(terms, x.n, k).values()) for k in range(2, x.n))


@dataclass(frozen=True)
class LieSpaceResult:
    n: int
    basis: Tuple[GroupAlgebraElement, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _lie_rank(n: int) -> int:
    """The number of independent Lie equations, C(2n-2, n-1) - (n-1)^2:
    the coefficient sum and every entry of every hook equation.

    x -> (s, x on R, x on Lambda^2 R, ..., x on Lambda^(n-1) R) is onto,
    since Q[S_n] maps onto the sum of End(S^lambda) over the irreducibles
    and the hooks Lambda^k R are pairwise distinct irreducibles.  The
    derivation action on Lambda^k R is a linear function D_k of A = x on
    R, and (s, A, B_2, ...) -> (s, A, B_2 - D_2(A), ...) is invertible, so
    the functionals s and B_k - D_k(A), k >= 2, are independent.  They
    number 1 + sum over k = 2..n-1 of C(n-1, k)^2, and so dim Lie(V) =
    n! - C(2n-2, n-1) + (n-1)^2 for every n."""
    return comb(2 * n - 2, n - 1) - (n - 1) ** 2


def lie_space(n: int, bound=WORK_BOUND) -> LieSpaceResult:
    """Exact basis of the space of Lie elements in Q[S_n], solved once per
    n and shared: the result is read-only.  More than `bound` equation
    entries raise ResourceLimitError on every call; bound=None lifts it."""
    _check_bound(factorial(n) * _lie_rank(n), bound,
                 "lie_space equation entries")
    return _lie_space(n)


@lru_cache(maxsize=None)
def _lie_space(n: int) -> LieSpaceResult:
    """The solve behind lie_space.

    One unknown per permutation; the all-ones row (the coefficient sum),
    then one row per entry of _hook_equations, hook by hook in sorted entry
    order.  The rows are independent (_lie_rank), so every insert enlarges
    the Span.  The kernel basis comes from reduced echelon form with
    unknowns in lexicographic image order, so the output is deterministic.
    """
    perms = all_permutations(n)
    span = Span([dict.fromkeys(range(len(perms)), 1)])
    for k in range(2, n):
        # blocks[(row, col)][perm index] -> integer coefficient
        blocks = {}
        for gi, perm in enumerate(perms):
            for key, v in _hook_equations([(perm.images, 1)], n, k).items():
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
    matrix flattened into one sparse row {(g(i) - 1) n + i - 1: sum of
    c}, in Z after scaling by the lcm of the element's denominators (the
    row space is the same); rational coefficients only."""
    span = Span()
    for x in elements:
        if not all(isinstance(c, (int, Fraction)) for c in x.terms.values()):
            raise StructureError("action_rank needs rational coefficients")
        ints, _ = _scaled_integers(list(x.terms.values()))
        row = {}
        for perm, c in zip(x.terms, ints):
            for i, img in enumerate(perm.images):
                key = (img - 1) * x.n + i
                row[key] = row.get(key, 0) + c
        span.insert(row)
    return len(span)
