"""Acceptance suite: one test per criterion, all identities exact.

Each test prints a single summary line; a passing run emits eleven PASS
lines.  No tolerances anywhere: every comparison is over Q or Q[w, x, ...].
"""

import random

from fractions import Fraction
from itertools import combinations, permutations

import pytest

from lie_elements.exactmath import ExactMatrix, MultiPoly
from lie_elements.group_algebra import GroupAlgebraElement
from lie_elements.lie_generators import (all_kappas, eta, kappa, lie_closure,
                                         no_invariant_line, nu, span_dims,
                                         span_rank, verify_relations)
from lie_elements.perm import all_permutations
from lie_elements.sdet import (monomial_coefficient, sdet,
                               sdet_identity_formula, sdet_via_coeff)
from lie_elements.verify import (conjecture_report, verify_iota, verify_main,
                                 verify_mtt, verify_pft)
from lie_elements.wedge_rep import (action_matrix, alg_matrix, grp_matrix,
                                    is_lie, lie_space)
from oracles import rand_matrix, random_element


def _announce(number, name, ok):
    print("criterion %02d (%s): %s" % (number, name,
                                       "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_01_lie_membership():
    ok = True
    for n in (4, 5, 6):
        for i, j in combinations(range(1, n + 1), 2):
            ok = ok and is_lie(kappa(n, i, j))
        for t in permutations(range(1, n + 1), 3):
            ok = ok and is_lie(nu(n, *t))
        for q in permutations(range(1, n + 1), 4):
            ok = ok and is_lie(eta(n, *q))
    ok = ok and not is_lie(GroupAlgebraElement.one(4))
    ok = ok and not is_lie(GroupAlgebraElement.from_cycles(4, [(1, 2)]))
    _announce(1, "lie membership of the generator families", ok)


def test_criterion_02_bracket_identities():
    n = 5
    ok = True
    for i, j, k in permutations(range(1, n + 1), 3):
        ok = ok and kappa(n, i, j).bracket(kappa(n, j, k)) == nu(n, i, j, k)
    # the bracket of a transposition difference with a 3-cycle difference
    # is the 4-index generator with the new point inserted second:
    # [kappa_il, nu_ijk] = eta_iljk, equivalently
    # eta_ijkl = [kappa_ij, nu_ikl]
    for i, j, k, l in permutations(range(1, n + 1), 4):
        ok = ok and (kappa(n, i, l).bracket(nu(n, i, j, k))
                     == eta(n, i, l, j, k))
        ok = ok and (kappa(n, i, j).bracket(nu(n, i, k, l))
                     == eta(n, i, j, k, l))
    _announce(2, "bracket identities for all index tuples", ok)


def test_criterion_03_relations_and_dims():
    ok = verify_relations(5) == []
    ok = ok and span_dims(4) == (1, 1, 2)
    ok = ok and no_invariant_line()
    _announce(3, "generator relations, span dims, irreducibility", ok)


def test_criterion_04_matrix_tree():
    ok = verify_mtt(3, symbolic=True).passed
    ok = ok and verify_mtt(4, symbolic=True).passed
    unit = verify_mtt(3, weights={p: Fraction(1)
                                  for p in combinations(range(1, 4), 2)})
    ok = ok and unit.passed and unit.lhs == "9"
    for n in (5, 6, 7):
        for seed in range(5):
            ok = ok and verify_mtt(n, seed=seed).passed
    _announce(4, "matrix-tree identity", ok)


def test_criterion_05_pfaffian_tree():
    symbolic = verify_pft(3, symbolic=True)
    ok = symbolic.passed
    # the skew form at n = 3 has Pfaffian -3w against the signed tree sum
    # 3w; the squares coincide at 9 w^2
    w = MultiPoly.variable("w_1_2_3")
    ok = ok and symbolic.lhs == str(-3 * w) and symbolic.rhs == str(3 * w)
    for seed in range(20):
        report = verify_pft(5, seed=seed)
        ok = ok and report.passed
        ok = ok and report.details.get("global_sign") == 1
    for seed in range(3):
        report = verify_pft(4, seed=seed)
        ok = ok and report.passed
        ok = ok and report.details.get("case") == "even-degenerate"
    _announce(5, "pfaffian / signed 3-tree identity", ok)


@pytest.mark.slow
def test_criterion_06_main_theorem():
    # hand-derived instance: a single generator with unit weight
    weights = {((1, 2, 3, 4), "T1"): Fraction(1),
               ((1, 2, 3, 4), "T2"): Fraction(0)}
    single = verify_main(4, weights=weights)
    ok = single.passed
    for n in (4, 5, 6):
        for seed in range(10):
            ok = ok and verify_main(n, seed=seed).passed
    _announce(6, "characteristic polynomial vs shuffle determinants", ok)


def test_criterion_07_sdet_identities():
    rng = random.Random(77)
    ok = True
    count = 0
    while count < 21:
        n = rng.randint(1, 4)
        A, B, C = (rand_matrix(n, rng, 9) for _ in range(3))
        value = sdet(A, B)
        ok = ok and value == sdet(B, A)
        ok = ok and sdet(A @ C, B @ C) == value * C.det() ** 2
        lam, mu = Fraction(2), Fraction(-3, 2)
        ok = ok and (sdet(A.scale(lam), B.scale(mu))
                     == lam ** n * mu ** n * value)
        ok = ok and value == sdet_via_coeff(A, B)
        ok = ok and sdet_identity_formula(A) == sdet(A,
                                                     ExactMatrix.identity(n))
        count += 1
    # exhaustive monomial coefficients against the cycle-graph formula
    for n in (1, 2, 3):
        A = ExactMatrix([[MultiPoly.variable("a_%d_%d" % (i, j))
                          for j in range(1, n + 1)] for i in range(1, n + 1)])
        B = ExactMatrix([[MultiPoly.variable("b_%d_%d" % (i, j))
                          for j in range(1, n + 1)] for i in range(1, n + 1)])
        for mono, coeff in sdet(A, B).terms.items():
            edges = []
            for var, exp in mono:
                _, i, j = var.split("_")
                edges.extend([(int(i), int(j))] * exp)
            result = monomial_coefficient(edges)
            ok = ok and result.coefficient == coeff
            ok = ok and abs(coeff) == 2 ** result.cycle_count
    _announce(7, "shuffle determinant identity family", ok)


def test_criterion_08_homomorphism_equivariance():
    ok = True
    for n in (2, 3, 4, 5):
        rng = random.Random(800 + n)
        perms = all_permutations(n)
        for _ in range(3):
            x = random_element(n, rng, 6)
            y = random_element(n, rng, 6)
            sigma = rng.choice(perms)
            s = GroupAlgebraElement.from_permutation(sigma)
            for m in range(n + 1):
                gx, gy = grp_matrix(x, m), grp_matrix(y, m)
                ax, ay = alg_matrix(x, m), alg_matrix(y, m)
                bracket = x.bracket(y)
                ok = ok and grp_matrix(bracket, m) == gx @ gy - gy @ gx
                ok = ok and alg_matrix(bracket, m) == ax @ ay - ay @ ax
                gs = grp_matrix(s, m)
                gs_inv = grp_matrix(
                    GroupAlgebraElement.from_permutation(sigma.inverse()), m)
                conj = x.conjugate_by(sigma)
                ok = ok and grp_matrix(conj, m) == gs @ gx @ gs_inv
                ok = ok and alg_matrix(conj, m) == gs @ ax @ gs_inv
    _announce(8, "action homomorphism and equivariance", ok)


@pytest.mark.slow
def test_criterion_09_solver_coherence():
    space2 = lie_space(2)
    k = kappa(2, 1, 2)
    ok = space2.dim == 1
    first = space2.basis[0]
    ratio = None
    for perm, coeff in k.terms.items():
        ratio = first.coeff(perm) / coeff
        break
    ok = ok and first == k.scale(ratio)
    for n in (3, 4, 5):
        space = lie_space(n)
        closure = lie_closure(all_kappas(n), n)
        base = span_rank(space.basis)
        ok = ok and span_rank(list(space.basis) + closure) == base
        for b in space.basis:
            ok = ok and b.coeff_sum() == 0
            perm_cp = action_matrix(b, "permutation").charpoly()
            refl_cp = action_matrix(b, "reflection").charpoly()
            # multiplying the hyperplane polynomial by t must recover the
            # full-space polynomial
            ok = ok and perm_cp[0] == 0
            ok = ok and perm_cp[1:] == refl_cp
    _announce(9, "solver coherence", ok)


def test_criterion_10_induction():
    ok = True
    for n in (2, 3, 4):
        ok = ok and verify_iota(n, trials=3, seed=n).passed
    _announce(10, "degree-raising embedding", ok)


@pytest.mark.slow
def test_criterion_11_conjecture_reports(tmp_path):
    ok = True
    quotients = {}
    for n in (2, 3, 4, 5):
        report = conjecture_report(n, results_dir=str(tmp_path))
        ok = ok and report.status == "REPORT"
        ok = ok and report.details["closure_contained_in_space"]
        quotients[n] = report.details["dim_quotient"]
        print("  n=%d dims: %s" % (n, report.details))
    ok = ok and quotients[2] == 1
    _announce(11, "conjecture dimension reports", ok)
