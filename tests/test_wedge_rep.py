import hashlib
import json
import random

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from lie_elements.exactmath import (ExactMatrix, MultiPoly, ResourceLimitError,
                                    StructureError)
from lie_elements.group_algebra import GroupAlgebraElement
from lie_elements.lie_generators import eta, kappa, lie_closure, nu
from lie_elements.perm import Permutation, all_permutations
from lie_elements.verify import conjecture_report, verify_iota
from lie_elements import wedge_rep
from lie_elements.wedge_rep import (WedgeBasis, action_matrix, action_rank,
                                    alg_matrix, grp_matrix, is_lie,
                                    lie_space, _hook_equations)
from oracles import sort_with_sign


class TestWedgeBasis:
    def test_sizes(self):
        assert len(WedgeBasis(5, 2)) == 10
        assert len(WedgeBasis(5, 0)) == 1
        assert len(WedgeBasis(5, 5)) == 1

    def test_sort_with_sign(self):
        assert sort_with_sign((2, 1, 3)) == ((1, 2, 3), -1)
        assert sort_with_sign((3, 2, 1)) == ((1, 2, 3), -1)
        assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
        assert sort_with_sign((1, 2, 2)) is None

    def test_shared_basis_is_read_only(self):
        # _basis shares one WedgeBasis per (n, m) with every later is_lie
        # and lie_space, so none of its tables may change
        basis = wedge_rep._basis(4, 2)
        with pytest.raises(AttributeError):
            basis.index.clear()
        with pytest.raises(TypeError):
            basis.index[next(iter(basis.index))] = 0
        with pytest.raises(AttributeError):
            basis.subsets.append((1, 2))
        with pytest.raises(TypeError):
            basis.masks[0] = 0
        assert is_lie(nu(4, 1, 2, 3))


class TestActions:
    def test_grp_is_multiplicative(self):
        rng = random.Random(21)
        perms = all_permutations(4)
        for _ in range(10):
            x = GroupAlgebraElement.from_permutation(rng.choice(perms))
            y = GroupAlgebraElement.from_permutation(rng.choice(perms))
            for m in range(5):
                assert (grp_matrix(x * y, m)
                        == grp_matrix(x, m) @ grp_matrix(y, m))

    def test_top_wedge_sign_and_fixed_points(self):
        # on the top wedge the multiplicative action is the sign and the
        # derivation action counts fixed points
        for p in all_permutations(4):
            x = GroupAlgebraElement.from_permutation(p)
            assert grp_matrix(x, 4).data[0][0] == p.sign()
            fixed = sum(1 for i in range(1, 5) if p(i) == i)
            assert alg_matrix(x, 4).data[0][0] == fixed

    def test_m1_actions_agree(self):
        rng = random.Random(22)
        perms = all_permutations(4)
        x = GroupAlgebraElement.zero(4)
        for _ in range(5):
            x = x + GroupAlgebraElement.from_permutation(
                rng.choice(perms), rng.randint(-3, 3))
        assert grp_matrix(x, 1) == alg_matrix(x, 1)

    def test_m0(self):
        x = GroupAlgebraElement.one(3).scale(Fraction(5, 2))
        assert grp_matrix(x, 0).data[0][0] == Fraction(5, 2)
        assert alg_matrix(x, 0).data[0][0] == 0


class TestIsLie:
    def test_generators_pass(self):
        assert is_lie(kappa(4, 1, 3))
        assert is_lie(nu(4, 1, 2, 4))

    def test_non_lie(self):
        assert not is_lie(GroupAlgebraElement.one(3))
        assert not is_lie(GroupAlgebraElement.from_cycles(3, [(1, 2)]))


class TestLieSpace:
    def test_n2_is_kappa_line(self):
        space = lie_space(2)
        assert space.dim == 1
        basis = space.basis[0]
        k = kappa(2, 1, 2)
        # proportional to the transposition difference
        ratio = basis.coeff(Permutation.identity(2))
        assert basis == k.scale(ratio)

    def test_n3_dim_and_membership(self):
        space = lie_space(3)
        assert space.dim == 4
        for b in space.basis:
            assert is_lie(b)
            assert b.coeff_sum() == 0

    def test_deterministic(self):
        a = lie_space(3)
        b = lie_space(3)
        assert a.basis == b.basis

    def test_resource_bound(self):
        # the cache sits behind the bound check, so a repeated call is
        # stopped too
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                lie_space(7)

    def test_solved_once_per_n(self):
        assert lie_space(5) is lie_space(5)
        assert lie_space(5, bound=None) is lie_space(5)

    def test_shared_result_is_read_only(self):
        space = lie_space(4)
        with pytest.raises(AttributeError):
            space.basis.append(space.basis[0])
        with pytest.raises(TypeError):
            space.basis[0] = space.basis[1]
        with pytest.raises(TypeError):
            space.basis[0].terms[Permutation.identity(4)] = 1
        with pytest.raises(AttributeError):
            space.basis[0].terms.clear()
        assert verify_iota(4, seed=1).passed

    def test_closed_under_bracket_n3(self):
        from lie_elements.lie_generators import span_rank
        space = lie_space(3)
        rank = span_rank(space.basis)
        for a in space.basis:
            for b in space.basis:
                extended = list(space.basis) + [a.bracket(b)]
                assert span_rank(extended) == rank


class TestActionMatrix:
    def test_permutation_matrix(self):
        x = GroupAlgebraElement.from_cycles(3, [(1, 2, 3)])
        m = action_matrix(x, "permutation")
        # v_1 -> v_2 etc.
        assert m.data[1][0] == 1 and m.data[2][1] == 1 and m.data[0][2] == 1

    def test_permutation_is_first_wedge_power(self):
        rng = random.Random(29)
        for n in (3, 4, 5):
            perms = all_permutations(n)
            for _ in range(5):
                x = GroupAlgebraElement(n, {
                    rng.choice(perms): Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 5))
                    for _ in range(4)})
                assert action_matrix(x, "permutation") == grp_matrix(x, 1)
                assert action_matrix(x) == grp_matrix(x, 1)

    def test_reflection_consistency(self):
        # the reflection matrix is the permutation action restricted to
        # the zero-sum hyperplane in the basis v_i - v_n
        rng = random.Random(23)
        perms = all_permutations(4)
        for _ in range(10):
            x = GroupAlgebraElement.from_permutation(
                rng.choice(perms), rng.randint(-3, 3))
            P = action_matrix(x, "permutation")
            R = action_matrix(x, "reflection")
            n = 4
            for j in range(1, n):
                image = [P.data[i][j - 1] - P.data[i][n - 1]
                         for i in range(n)]
                # the image has zero coefficient sum, so its b-basis
                # coordinates are just the v_i coefficients for i < n
                for i in range(1, n):
                    assert R.data[i - 1][j - 1] == image[i - 1]

    def test_unknown_representation(self):
        with pytest.raises(ValueError):
            action_matrix(GroupAlgebraElement.one(3), "spin")


def _kernel_dims(n):
    # (dim of the Lie space, dim of its part acting by zero on Q^n)
    details = conjecture_report(n).details
    return details["dim_lie_space"], details["dim_kernel"]


class TestKernelDim:
    def test_small_values(self):
        assert _kernel_dims(2) == (1, 0)
        assert _kernel_dims(3) == (4, 0)
        assert _kernel_dims(4) == (13, 4)

    def test_n5(self):
        assert _kernel_dims(5) == (66, 50)

    def test_action_rank_flattens_actions(self):
        # kappa_12 and kappa_13 act by independent matrices, and their
        # sum adds no rank
        xs = [kappa(3, 1, 2), kappa(3, 1, 3)]
        assert action_rank(xs) == 2
        assert action_rank(xs + [xs[0] + xs[1]]) == 2
        assert action_rank([GroupAlgebraElement.zero(3)]) == 0

    def test_action_rank_matches_dense_matrices(self):
        # the sparse integer rows against the flattened Fraction matrices
        rng = random.Random(31)
        for n in (2, 3, 4, 5):
            perms = all_permutations(n)
            xs = [GroupAlgebraElement(n, {
                rng.choice(perms): Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 5))
                for _ in range(3)}) for _ in range(2 * n)]
            xs.append(xs[0] + xs[1].scale(Fraction(-2, 3)))
            dense = ExactMatrix([[v for row in action_matrix(x).data
                                  for v in row] for x in xs]).rank()
            assert action_rank(xs) == dense

    def test_action_rank_rejects_polynomial_coefficient(self):
        x = GroupAlgebraElement(2, {Permutation.identity(2):
                                    MultiPoly.variable("w")})
        with pytest.raises(StructureError):
            action_rank([x])


class TestLieSpaceN6:
    def test_dim(self):
        assert lie_space(6).dim == 493

    def test_basis_pinned(self):
        basis = json.dumps([b.to_json() for b in lie_space(6).basis])
        assert (hashlib.sha256(basis.encode()).hexdigest()
                == "016516c43f486a5af791eed3d925834992d7e9246acad7defe7f292b"
                   "16f6c4d0")


# -- the hook equations against minors of the reflection matrix ------------


def _det(rows):
    """Leibniz expansion, for the small minors of the oracle."""
    k = len(rows)
    total = Fraction(0)
    for p in permutations(range(k)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(k), 2))
        term = Fraction((-1) ** inversions)
        for i in range(k):
            term *= rows[i][p[i]]
        total += term
    return total


def dense_hook_difference(A, k):
    """The k-th compound of A minus its derivation extension, entry by
    entry from minors: the compound's (I, J) entry is det A[I, J], and the
    derivation's is the sum over positions p of the det of the identity
    columns J on rows I with column p replaced by A's column J_p.  Rows
    and columns run over the k-subsets in lexicographic order."""
    subsets = list(combinations(range(len(A)), k))
    out = {}
    for col, J in enumerate(subsets):
        for row, I in enumerate(subsets):
            value = _det([[A[i][j] for j in J] for i in I])
            for p in range(k):
                value -= _det([[A[i][J[q]] if q == p else int(i == J[q])
                                for q in range(k)] for i in I])
            if value:
                out[row, col] = value
    return out


class TestHookEquations:
    def test_matches_compound_minus_derivation(self):
        for n in range(3, 6):
            for perm in all_permutations(n):
                A = action_matrix(GroupAlgebraElement.from_permutation(perm),
                                  "reflection").data
                for k in range(2, n):
                    got = {key: v for key, v in
                           _hook_equations([(perm.images, 1)], n, k).items()
                           if v}
                    assert got == dense_hook_difference(A, k)

    def test_every_insert_enlarges_the_span(self, monkeypatch):
        # the equations are independent: C(2n-2, n-1) - (n-1)^2 rows, each
        # one new, and dim Lie(V) = n! - C(2n-2, n-1) + (n-1)^2
        inserts = []

        class Recording(wedge_rep.Span):
            def insert(self, row):
                inserts.append(super().insert(row))
                return inserts[-1]

        monkeypatch.setattr(wedge_rep, "Span", Recording)
        for n in range(2, 7):
            inserts.clear()
            space = wedge_rep._lie_space.__wrapped__(n)
            rank = comb(2 * n - 2, n - 1) - (n - 1) ** 2
            assert inserts == [True] * rank
            assert space.dim == factorial(n) - rank


# -- the dense Fraction path, kept as an oracle for the integer kernel -----


def _dense_basis(n, m):
    subsets = [tuple(c) for c in combinations(range(1, n + 1), m)]
    return subsets, {s: i for i, s in enumerate(subsets)}


def dense_grp_matrix(x, m):
    """The multiplicative action, entry by entry through sort_with_sign."""
    subsets, index = _dense_basis(x.n, m)
    data = [[Fraction(0)] * len(subsets) for _ in subsets]
    for perm, coeff in x.terms.items():
        for col, subset in enumerate(subsets):
            image, sign = sort_with_sign(perm(i) for i in subset)
            data[index[image]][col] += sign * coeff
    return ExactMatrix(data)


def dense_alg_matrix(x, m):
    """The derivation action, one replaced factor at a time."""
    subsets, index = _dense_basis(x.n, m)
    data = [[Fraction(0)] * len(subsets) for _ in subsets]
    for perm, coeff in x.terms.items():
        for col, subset in enumerate(subsets):
            for p in range(m):
                replaced = subset[:p] + (perm(subset[p]),) + subset[p + 1:]
                sorted_images = sort_with_sign(replaced)
                if sorted_images is None:
                    continue
                image, sign = sorted_images
                data[index[image]][col] += sign * coeff
    return ExactMatrix(data)


def dense_is_lie(x):
    for m in range(x.n + 1):
        if dense_grp_matrix(x, m) != dense_alg_matrix(x, m):
            return False
    return True


def _generators(n):
    labels = range(1, n + 1)
    return ([kappa(n, *t) for t in combinations(labels, 2)]
            + [nu(n, *t) for t in permutations(labels, 3)]
            + [eta(n, *t) for t in permutations(labels, 4)])


def _divisors(d):
    return [k for k in range(1, d + 1) if d % k == 0]


class TestWedgeMatrices:
    def test_sums_match_dense_matrices(self):
        # every permutation of degree <= 5 at every m: the multiplicative
        # and derivation matrices are the dense ones
        for n in range(1, 6):
            for perm in all_permutations(n):
                x = GroupAlgebraElement.from_permutation(perm)
                for m in range(n + 1):
                    assert grp_matrix(x, m) == dense_grp_matrix(x, m)
                    assert alg_matrix(x, m) == dense_alg_matrix(x, m)

    def test_rational_combinations_match_dense_matrices(self):
        rng = random.Random(71)
        for n in range(1, 6):
            perms = all_permutations(n)
            for _ in range(3):
                x = GroupAlgebraElement(n, {
                    rng.choice(perms): Fraction(rng.randint(-9, 9),
                                                rng.choice((1, 10, 2520)))
                    for _ in range(4)})
                for m in range(n + 1):
                    assert grp_matrix(x, m) == dense_grp_matrix(x, m)
                    assert alg_matrix(x, m) == dense_alg_matrix(x, m)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            grp_matrix(GroupAlgebraElement.zero(3), 4)
        with pytest.raises(ValueError):
            alg_matrix(GroupAlgebraElement.zero(3), -1)


class TestIsLieAgainstDense:
    def test_generators(self):
        for n in range(1, 6):
            for x in _generators(n):
                assert is_lie(x) == dense_is_lie(x) is True

    def test_seeded_rational_combinations(self):
        rng = random.Random(73)
        for n in range(2, 6):
            gens = _generators(n)
            perms = all_permutations(n)
            for d in (1, 10, 2520):
                for _ in range(6):
                    x = GroupAlgebraElement.zero(n)
                    for g in rng.sample(gens, min(3, len(gens))):
                        x = x + g.scale(Fraction(rng.randint(-9, 9),
                                                 rng.choice(_divisors(d))))
                    if rng.random() < 0.5:
                        x = x + GroupAlgebraElement.from_permutation(
                            rng.choice(perms),
                            Fraction(rng.randint(1, 9), d))
                    assert is_lie(x) == dense_is_lie(x)

    def test_lie_elements_with_small_perturbation(self):
        rng = random.Random(79)
        verdicts = []
        for n in range(2, 6):
            perms = all_permutations(n)
            for b in lie_closure(_generators(n)[:4], n):
                assert is_lie(b) and dense_is_lie(b)
                g, h = rng.sample(perms, 2)
                eps = Fraction(1, rng.choice((10, 2520)))
                x = (b + GroupAlgebraElement.from_permutation(g, eps)
                     - GroupAlgebraElement.from_permutation(h, eps))
                verdicts.append(is_lie(x))
                assert verdicts[-1] == dense_is_lie(x)
        assert not all(verdicts)

    def test_fails_only_at_m0(self):
        # in degree 1 the identity agrees at m = 1 and fails only at m = 0;
        # for n >= 2 no such element exists (the m = 2 equations force a
        # zero coefficient sum), which test_lower_equations_imply_all checks
        x = GroupAlgebraElement.one(1).scale(Fraction(3, 10))
        assert dense_grp_matrix(x, 1) == dense_alg_matrix(x, 1)
        assert dense_grp_matrix(x, 0) != dense_alg_matrix(x, 0)
        assert not is_lie(x) and not dense_is_lie(x)
        assert is_lie(GroupAlgebraElement.zero(1))

    def test_sign_element_fails_first_at_top_degrees(self):
        # sum of sign(g) g acts by zero on Q^n, so its derivation action
        # vanishes; its multiplicative action is nonzero exactly where the
        # sign representation occurs, Lambda^(n-1) and Lambda^n
        for n in range(3, 6):
            x = GroupAlgebraElement(n, {p: p.sign()
                                        for p in all_permutations(n)})
            agree = [dense_grp_matrix(x, m) == dense_alg_matrix(x, m)
                     for m in range(n + 1)]
            assert agree == [True] * (n - 1) + [False, False]
            assert not is_lie(x)

    def test_lower_equations_imply_all(self):
        # no element first fails at m = n: with the m = 0 equation, the
        # m < n equations already cut out the Lie space (and for n >= 2 the
        # m >= 1 equations do too), so those elements cannot be built
        for n in range(2, 5):
            perms = all_permutations(n)

            def rows(degrees):
                out = []
                for m in degrees:
                    cols = []
                    for p in perms:
                        x = GroupAlgebraElement.from_permutation(p)
                        diff = dense_grp_matrix(x, m) - dense_alg_matrix(x, m)
                        cols.append([v for row in diff.data for v in row])
                    out.extend(list(r) for r in zip(*cols))
                return out

            full = ExactMatrix(rows(range(n + 1))).rank()
            assert len(perms) - full == lie_space(n).dim
            assert ExactMatrix(rows(range(n))).rank() == full
            assert ExactMatrix(rows(range(1, n + 1))).rank() == full

    def test_polynomial_coefficient_rejected(self):
        x = GroupAlgebraElement(2, {Permutation.identity(2):
                                    MultiPoly.variable("w")})
        with pytest.raises(TypeError):
            is_lie(x)
