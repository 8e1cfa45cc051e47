"""End-to-end verifiers: each compares an algebraic computation against an
independent combinatorial formula, exactly (no tolerances).

- verify_mtt: determinant of a weighted sum of transposition differences on
  the zero-sum hyperplane vs n times the spanning-tree weight sum.
- verify_pft: Pfaffian of the skew form of a weighted sum of 3-cycle
  differences vs the signed 3-tree weight sum (odd n); determinant zero for
  even n.
- verify_rank2: the explicit rank-2 matrix form of an eta generator.
- verify_main: characteristic polynomial coefficients vs the shuffle
  determinant tables.
- verify_iota: degree-raising embedding preserves the Lie property.
- conjecture_report: dimension data for the generation conjectures
  (informational; only the containment of the bracket closure in the
  solver space is asserted).
"""

from __future__ import annotations

import json
import math
import os
import random
import time

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, Optional

from .exactmath import DEGREE_BOUND, ExactMatrix, MultiPoly, \
    StructureError, _check_bound
from .graphs import spanning_tree_sum, three_tree_sum
from .group_algebra import GroupAlgebraElement
from .lie_generators import all_kappas, eta, kappa, lie_closure, nu, \
    repeated_commutator_set, span_contains
from .perm import inversion_sign
from .sdet import _gram_table, _table_sum, instances, mu_from_weights
from .wedge_rep import action_matrix, action_rank, is_lie, lie_space


@dataclass
class VerificationReport:
    theorem: str
    n: int
    seed: Optional[int]
    status: str                      # PASS, FAIL or REPORT
    lhs: str
    rhs: str
    elapsed_ms: int = 0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json_obj(self):
        obj = {"theorem": self.theorem, "n": self.n, "seed": self.seed,
               "status": self.status, "lhs": self.lhs, "rhs": self.rhs,
               "elapsed_ms": self.elapsed_ms}
        if self.details:
            obj["details"] = self.details
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def random_rational(rng: random.Random) -> Fraction:
    """A seeded random rational p/q with |p| <= 100 and 1 <= q <= 10."""
    return Fraction(rng.randint(-100, 100), rng.randint(1, 10))


def _random_weights(keys, seed: Optional[int], symbolic: bool) -> Dict:
    """A weight table on the keys, in their order: seeded random rationals,
    or one variable w_<labels> per key when symbolic."""
    if symbolic:
        return {key: MultiPoly.variable("w_" + "_".join(map(str, key)))
                for key in keys}
    rng = random.Random(seed)
    return {key: random_rational(rng) for key in keys}


def _fold(key, w):
    """A weight key and its weight in stored form: a pair is sorted; a
    triple is sorted and takes the sign of the permutation that sorts it,
    since nu of an odd reordering is -nu; a quad key (4-subset, variant)
    ends in its variant name and is kept."""
    if isinstance(key[-1], str):
        return key, w
    if len(key) == 3:
        w = inversion_sign(key) * w
    return tuple(sorted(key)), w


@lru_cache(maxsize=None)
def _generators(n: int, family: str) -> Dict:
    """The generator of each weight key of a family, built once per n:
    "kappa" on ascending pairs, "nu" on ascending triples, "eta" on
    (4-subset, variant) keys in the order of sdet.instances, so the keys
    come in the order pair_weights, triple_weights and quad_weights draw
    them.  Callers only read it."""
    if family == "eta":
        return {(inst.quad, inst.variant): eta(n, *inst.tuple4)
                for inst in instances(n)}
    make, size = {"kappa": (kappa, 2), "nu": (nu, 3)}[family]
    return {key: make(n, *key) for key in combinations(range(1, n + 1), size)}


def _complete(weights, keys) -> Dict:
    """The weight table on the keys, read from `weights`: each entry is
    folded, entries that fold onto one key are summed, and missing keys
    weigh zero, so the tree side reads the element the generator side
    builds.  A key that folds onto none of the keys raises StructureError.
    """
    table = dict.fromkeys(keys, Fraction(0))
    for key, w in weights.items():
        key, w = _fold(key, w)
        if key not in table:
            raise StructureError("weight key %r names no generator"
                                 % (key,))
        table[key] = table[key] + w
    return table


def _weighted_sum(n: int, weighted) -> GroupAlgebraElement:
    """The element sum of w * g over the (w, g) pairs, added into one dict;
    w may be rational or a MultiPoly."""
    terms = {}
    for w, g in weighted:
        for perm, c in g.terms.items():
            terms[perm] = terms.get(perm, 0) + c * w
    return GroupAlgebraElement(n, terms)


def _report(theorem, n, seed, ok, lhs, rhs, t0, **details):
    return VerificationReport(
        theorem=theorem, n=n, seed=seed,
        status="PASS" if ok else "FAIL",
        lhs=str(lhs), rhs=str(rhs),
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        details=details)


# -- determinant / spanning trees ----------------------------------------


def pair_weights(n: int, seed: Optional[int] = None, symbolic: bool = False
                 ) -> Dict:
    """Weight table on ascending pairs: random rationals or variables."""
    return _random_weights(combinations(range(1, n + 1), 2), seed, symbolic)


def verify_mtt(n: int, weights: Optional[Dict] = None,
               seed: Optional[int] = None, symbolic: bool = False
               ) -> VerificationReport:
    """det of the pair-weighted element on the zero-sum hyperplane equals
    n times the spanning-tree weight sum.  The tree side runs first, so its
    resource bound stops a large n before the C(n, 2) kappas are built."""
    t0 = time.perf_counter()
    pairs = combinations(range(1, n + 1), 2)
    weights = (pair_weights(n, seed=seed, symbolic=symbolic)
               if weights is None else _complete(weights, pairs))
    rhs = spanning_tree_sum(n, weights) * n
    kappas = _generators(n, "kappa")
    x = _weighted_sum(n, ((w, kappas[pair]) for pair, w in weights.items()))
    lhs = action_matrix(x, "reflection").det()
    return _report("determinant/spanning-trees", n, seed, lhs == rhs,
                   lhs, rhs, t0)


# -- Pfaffian / signed 3-trees -------------------------------------------

def triple_weights(n: int, seed: Optional[int] = None,
                   symbolic: bool = False) -> Dict:
    """Weight table on ascending triples (extended antisymmetrically when
    read through non-sorted index orders)."""
    return _random_weights(combinations(range(1, n + 1), 3), seed, symbolic)


def _skew_form(y: GroupAlgebraElement) -> ExactMatrix:
    """Omega_pq = (b_p, y b_q) in the hyperplane basis b_i = v_i - v_n."""
    Y = action_matrix(y, "permutation").data
    # y b_q has entries Y[i][q] - Y[i][n]; pair them with b_p = v_p - v_n
    return ExactMatrix([[(row[q] - row[-1]) - (Y[-1][q] - Y[-1][-1])
                         for q in range(y.n - 1)] for row in Y[:-1]])


def verify_pft(n: int, weights: Optional[Dict] = None,
               seed: Optional[int] = None, symbolic: bool = False
               ) -> VerificationReport:
    """Pfaffian identity for the triple-weighted element.

    Odd n: with Omega the skew form of y on the hyperplane, Pf(Omega)
    equals s * n * sum of delta(T) w_T over 3-trees, with the global sign
    s = (-1)^((n-1)/2); checked as an exact equality, for numeric and
    symbolic weights alike.  The 3-tree side (graphs.three_tree_sum: one
    signed triangle table per m, summed in Z) runs first, so its resource
    bound stops a large n before the C(n, 3) nus are built.  Even n: the
    determinant of y on the hyperplane vanishes; with symbolic weights it
    is a polynomial det of size n-1 in C(n, 3) variables, so an n above
    DEGREE_BOUND raises ResourceLimitError before y is built.
    """
    t0 = time.perf_counter()
    if symbolic and n % 2 == 0:
        _check_bound(n, DEGREE_BOUND, "symbolic even-n Pfaffian degree")
    triples = combinations(range(1, n + 1), 3)
    weights = (triple_weights(n, seed=seed, symbolic=symbolic)
               if weights is None else _complete(weights, triples))
    if n % 2:
        rhs = n * three_tree_sum((n - 1) // 2, weights)
    nus = _generators(n, "nu")
    y = _weighted_sum(n, ((w, nus[triple]) for triple, w in weights.items()))
    if n % 2 == 0:
        det = action_matrix(y, "reflection").det()
        return _report("pfaffian/3-trees", n, seed, det == 0,
                       det, 0, t0, case="even-degenerate")
    omega = _skew_form(y)
    if not omega.is_skew_symmetric():
        return _report("pfaffian/3-trees", n, seed, False,
                       "skew form not skew-symmetric", "", t0)
    pf = omega.pfaffian()
    sign = (-1) ** ((n - 1) // 2)
    return _report("pfaffian/3-trees", n, seed, pf == sign * rhs, pf, rhs,
                   t0, global_sign=sign)


# -- rank-2 form of eta --------------------------------------------------


def verify_rank2(i: int, j: int, k: int, l: int, n: int
                 ) -> VerificationReport:
    """The eta generator acts on Q^n as the symmetrized outer product of
    the difference vectors v_i - v_j and v_l - v_k."""
    t0 = time.perf_counter()
    lhs = action_matrix(eta(n, i, j, k, l), "permutation")
    alpha = [(p == i) - (p == j) for p in range(1, n + 1)]
    v = [(p == l) - (p == k) for p in range(1, n + 1)]
    # M[alpha, v] + M[v, alpha] with M[a, b](u) = (a, u) b
    rhs = ExactMatrix([[v[p] * alpha[q] + alpha[p] * v[q] for q in range(n)]
                       for p in range(n)])
    return _report("rank-2 form", n, None, lhs == rhs,
                   lhs.data, rhs.data, t0, indices=[i, j, k, l],
                   rank=lhs.rank())


# -- main characteristic-polynomial theorem ------------------------------


def quad_weights(n: int, seed: Optional[int] = None) -> Dict:
    """Random rational weights for every (4-subset, variant) instance."""
    return _random_weights(_generators(n, "eta"), seed, False)


def element_from_quad_weights(n: int, weights: Dict) -> GroupAlgebraElement:
    """The sum of w * eta over a (4-subset, variant) weight table; missing
    instances weigh zero, and a key that names no instance raises
    StructureError."""
    etas = _generators(n, "eta")
    return _weighted_sum(n, ((w, etas[key])
                             for key, w in _complete(weights, etas).items()
                             if w))


def verify_main(n: int, weights: Optional[Dict] = None,
                seed: Optional[int] = None) -> VerificationReport:
    """Characteristic polynomial coefficients of the quad-weighted element
    match the shuffle-determinant tables; the constant term vanishes.
    Missing instance weights are zero, and a key that names no (4-subset,
    variant) instance raises StructureError.

    mu_from_weights reads the r = n-1 coefficient off the top table (one
    column subset, n equal summands); for n <= 5 it is cross-checked
    against the same sum over the Gram table at r = n-1, and a mismatch
    fails the report.
    """
    t0 = time.perf_counter()
    weights = (quad_weights(n, seed=seed) if weights is None
               else _complete(weights, _generators(n, "eta")))
    z = element_from_quad_weights(n, weights)
    cp = action_matrix(z, "permutation").charpoly()

    def weight_of(inst):
        return weights[inst.quad, inst.variant]

    ok = cp[0] == 0
    mus = []
    for r in range(1, n):
        mu = mu_from_weights(n, r, weight_of)
        if r == n - 1 and n <= 5:
            # the top table and the Gram table must agree
            full = _table_sum(n, r, _gram_table(n, r), weight_of)
            ok = ok and mu == full
        mus.append(str(mu))
        ok = ok and cp[n - r] == mu
    return _report("charpoly/shuffle-determinant", n, seed, ok,
                   [str(c) for c in cp], mus, t0)


# -- degree-raising embedding --------------------------------------------


def verify_iota(n: int, trials: int = 3, seed: Optional[int] = None
                ) -> VerificationReport:
    """Random combinations of the degree-n Lie space basis stay Lie after
    the embedding into degree n+1."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    space = lie_space(n)
    ok = True
    for _ in range(trials):
        x = _weighted_sum(n, ((random_rational(rng), b)
                              for b in space.basis))
        ok = ok and is_lie(x.iota())
    # non-Lie elements stay non-Lie under the embedding
    one = GroupAlgebraElement.one(n)
    ok = ok and not is_lie(one.iota())
    return _report("embedding preserves Lie elements", n, seed, ok,
                   "is_lie(iota(x)) for %d combinations" % trials,
                   "True", t0, dim=space.dim)


# -- conjecture dimension report -----------------------------------------


def conjecture_report(n: int, results_dir: Optional[str] = None
                      ) -> VerificationReport:
    """Dimension data for the generation conjectures.

    Reports dim of the full Lie space, dim of the bracket closure of the
    transposition differences, dim of the kernel part K_n (elements acting
    by zero on Q^n), the quotient dimension, (n-1)!, and the rank of the
    repeated-commutator family modulo K_n.  Only closure <= space is a
    hard assertion; everything else is informational (status REPORT).
    The quotient dims follow (n-1)^2, not (n-1)!; the factorial_n_minus_1
    key stays because the lie-space goldens hash this report's lhs.
    """
    t0 = time.perf_counter()
    space = lie_space(n)
    closure = lie_closure(all_kappas(n), n)
    rank = action_rank(space.basis)         # dim of the quotient by K_n
    contained = span_contains(space.basis, closure)
    commutators = repeated_commutator_set(n)
    comm_rank = action_rank(commutators)
    data = {
        "dim_lie_space": space.dim,
        "dim_kappa_closure": len(closure),
        "dim_kernel": space.dim - rank,
        "dim_quotient": rank,
        "factorial_n_minus_1": math.factorial(n - 1),
        "repeated_commutator_rank_mod_kernel": comm_rank,
        "closure_contained_in_space": contained,
    }
    status = "REPORT" if contained else "FAIL"
    report = VerificationReport(
        theorem="generation conjectures", n=n, seed=None, status=status,
        lhs=json.dumps(data, sort_keys=True), rhs="",
        elapsed_ms=int((time.perf_counter() - t0) * 1000), details=data)
    if results_dir:
        _check_golden(report, results_dir)
    return report


def _check_golden(report: VerificationReport, results_dir: str):
    """Persist the first run's numbers and compare later runs to them."""
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-n%d.json"
                        % (report.theorem.replace(" ", "-").replace("/", "-"),
                           report.n))
    if os.path.exists(path):
        with open(path) as handle:
            golden = json.load(handle)
        if golden != report.details:
            report.status = "FAIL"
            report.rhs = json.dumps(golden, sort_keys=True)
    else:
        # write beside the golden and rename, so an interrupted write never
        # leaves a partial golden behind
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(tmp, "w") as handle:
                json.dump(report.details, handle, sort_keys=True, indent=2)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
