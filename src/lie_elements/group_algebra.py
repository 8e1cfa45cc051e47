"""Sparse elements of the group algebra Q[S_n].

An element is a finite linear combination of permutations; coefficients are
Fractions or MultiPoly (for symbolic weights).  All values are immutable:
`terms` is a read-only view, so an element shared through a cache cannot be
changed by one of its callers.
"""

from __future__ import annotations

import json

from fractions import Fraction
from types import MappingProxyType

from .exactmath import _as_coeff, _render_terms
from .perm import DegreeMismatchError, Permutation


class UnsupportedUnitError(ValueError):
    """Conjugation is supported by single group elements only."""


class GroupAlgebraElement:
    """Sparse map Permutation -> nonzero coefficient, all of degree n."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for perm, coeff in terms.items():
                if perm.n != n:
                    raise DegreeMismatchError(
                        "permutation of degree %d in Q[S_%d]" % (perm.n, n))
                coeff = _as_coeff(coeff)
                if coeff:
                    clean[perm] = coeff
        self.terms = MappingProxyType(clean)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n) -> "GroupAlgebraElement":
        return cls(n)

    @classmethod
    def one(cls, n) -> "GroupAlgebraElement":
        return cls(n, {Permutation.identity(n): Fraction(1)})

    @classmethod
    def from_permutation(cls, perm, coeff=1) -> "GroupAlgebraElement":
        return cls(perm.n, {perm: coeff})

    @classmethod
    def from_cycles(cls, n, cycles, coeff=1) -> "GroupAlgebraElement":
        return cls.from_permutation(Permutation.from_cycles(n, cycles), coeff)

    @classmethod
    def _of(cls, n, terms) -> "GroupAlgebraElement":
        """Unchecked: degree-n permutations, nonzero coefficients."""
        out = cls.__new__(cls)
        out.n, out.terms = n, MappingProxyType(terms)
        return out

    # -- linear structure ------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise DegreeMismatchError(
                "degrees %d and %d" % (self.n, other.n))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for perm, coeff in other.terms.items():
            new = terms.get(perm, Fraction(0)) + coeff
            if new:
                terms[perm] = new
            else:
                terms.pop(perm, None)
        return self._of(self.n, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self.n, {p: -c for p, c in self.terms.items()})

    def scale(self, factor) -> "GroupAlgebraElement":
        factor = _as_coeff(factor)
        if not factor:
            return GroupAlgebraElement.zero(self.n)
        return self._of(self.n, {p: c * factor for p, c in self.terms.items()})

    # -- ring structure --------------------------------------------------

    def multiply(self, other) -> "GroupAlgebraElement":
        """Bilinear extension of permutation composition."""
        self._check(other)
        terms = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                prod = p1.compose(p2)
                new = terms.get(prod, Fraction(0)) + c1 * c2
                if new:
                    terms[prod] = new
                else:
                    del terms[prod]
        return self._of(self.n, terms)

    __mul__ = multiply

    def bracket(self, other) -> "GroupAlgebraElement":
        """Commutator xy - yx."""
        return self.multiply(other) - other.multiply(self)

    def conjugate_by(self, perm: Permutation) -> "GroupAlgebraElement":
        """sigma * x * sigma^{-1} for a single group element sigma."""
        if not isinstance(perm, Permutation):
            raise UnsupportedUnitError(
                "conjugation is supported by a single permutation only")
        inv = perm.inverse()
        terms = {perm.compose(p).compose(inv): c
                 for p, c in self.terms.items()}
        return GroupAlgebraElement(self.n, terms)

    # -- functionals -----------------------------------------------------

    def coeff_sum(self):
        """Sum of all coefficients (the m = 0 multiplicative action)."""
        return sum(self.terms.values(), Fraction(0))

    def coeff(self, perm):
        return self.terms.get(perm, Fraction(0))

    def iota(self) -> "GroupAlgebraElement":
        """Embed into Q[S_{n+1}] fixing the new point n+1."""
        return GroupAlgebraElement(
            self.n + 1, {p.extend(self.n + 1): c
                         for p, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    # -- comparisons / rendering ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return "GroupAlgebraElement(n=%d, %s)" % (self.n, str(self))

    def __str__(self):
        return _render_terms(
            (self.terms[perm], "1" if perm.is_identity() else str(perm))
            for perm in sorted(self.terms))

    # -- serialization ---------------------------------------------------

    def to_json_obj(self):
        return [{"cycles": [list(c) for c in perm.cycles()],
                 "coefficient": str(coeff)}
                for perm, coeff in sorted(self.terms.items())]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "terms": self.to_json_obj()})
