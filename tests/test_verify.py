import json
import os
import random
import subprocess
import sys
import time

from fractions import Fraction
from itertools import combinations

import pytest

import lie_elements.sdet as sdet_module
import lie_elements.verify as verify_mod

from lie_elements.exactmath import (ExactMatrix, MultiPoly,
                                    ResourceLimitError, StructureError)
from lie_elements.group_algebra import GroupAlgebraElement
from lie_elements.lie_generators import eta
from lie_elements.verify import (conjecture_report,
                                 element_from_quad_weights, pair_weights,
                                 quad_weights, random_rational,
                                 triple_weights, verify_iota, verify_main,
                                 verify_mtt, verify_pft, verify_rank2)


class TestReports:
    def test_json_schema(self):
        report = verify_mtt(3, seed=1)
        obj = json.loads(report.to_json())
        for key in ("theorem", "n", "seed", "status", "lhs", "rhs",
                    "elapsed_ms"):
            assert key in obj

    def test_determinism(self):
        a = verify_mtt(4, seed=9)
        b = verify_mtt(4, seed=9)
        assert (a.lhs, a.rhs, a.status) == (b.lhs, b.rhs, b.status)


class TestWeightTables:
    def test_seeded_tables_draw_in_key_order(self):
        # one draw per key: ascending pairs and triples, and each 4-subset
        # with its T1 weight drawn before its T2 weight
        labels = range(1, 6)
        rng = random.Random(11)
        assert list(pair_weights(5, seed=11).items()) == [
            (key, random_rational(rng)) for key in combinations(labels, 2)]
        rng = random.Random(11)
        assert list(triple_weights(5, seed=11).items()) == [
            (key, random_rational(rng)) for key in combinations(labels, 3)]
        rng = random.Random(11)
        assert list(quad_weights(5, seed=11).items()) == [
            ((quad, variant), random_rational(rng))
            for quad in combinations(labels, 4) for variant in ("T1", "T2")]

    def test_symbolic_tables_name_their_keys(self):
        assert pair_weights(3, symbolic=True)[(1, 3)] == \
            MultiPoly.variable("w_1_3")
        assert triple_weights(4, symbolic=True)[(2, 3, 4)] == \
            MultiPoly.variable("w_2_3_4")


class TestMtt:
    def test_n2_unit(self):
        report = verify_mtt(2, weights={(1, 2): Fraction(1)})
        assert report.passed and report.lhs == "2"

    def test_n3_unit(self):
        weights = {p: Fraction(1) for p in ((1, 2), (1, 3), (2, 3))}
        report = verify_mtt(3, weights=weights)
        assert report.passed and report.lhs == "9"

    def test_symbolic_n3_value(self):
        report = verify_mtt(3, symbolic=True)
        w = {p: MultiPoly.variable("w_%d_%d" % p)
             for p in ((1, 2), (1, 3), (2, 3))}
        expected = 3 * (w[(1, 2)] * w[(1, 3)] + w[(1, 2)] * w[(2, 3)]
                        + w[(1, 3)] * w[(2, 3)])
        assert report.passed and report.lhs == str(expected)

    def test_random_seeds(self):
        for seed in range(3):
            assert verify_mtt(5, seed=seed).passed

    def test_symbolic_n5_n6(self):
        # a 4 x 4 det in 10 variables and a 5 x 5 one in 15
        for n in (5, 6):
            assert verify_mtt(n, symbolic=True).passed

    def test_unsorted_pair_key(self):
        report = verify_mtt(2, weights={(2, 1): Fraction(7)})
        assert report.passed and report.lhs == report.rhs == "14"

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(StructureError):
            verify_mtt(4, weights={(1, 9): Fraction(1)})

    def test_pair_given_both_ways_is_summed(self):
        report = verify_mtt(2, weights={(1, 2): Fraction(3),
                                        (2, 1): Fraction(4)})
        assert report.passed and report.lhs == report.rhs == "14"
        weights = {(1, 2): Fraction(1), (2, 1): Fraction(1, 2),
                   (3, 1): Fraction(2), (2, 3): Fraction(-3)}
        assert verify_mtt(3, weights=weights).passed

    def test_tree_bound_before_kappas(self, monkeypatch):
        # the tree side stops a large n before the C(n, 2) kappas are built
        built = []
        monkeypatch.setattr(verify_mod, "kappa",
                            lambda *args: built.append(args))
        for n in (12, 60):
            with pytest.raises(ResourceLimitError):
                verify_mtt(n, seed=1)
        assert built == []


class TestPft:
    def test_n3_symbolic(self):
        report = verify_pft(3, symbolic=True)
        assert report.passed
        # Pf(Omega) = -3 w and the signed 3-tree sum is 3 w: the global
        # sign (-1)^((n-1)/2) is -1 at n = 3
        w = MultiPoly.variable("w_1_2_3")
        assert report.lhs == str(-3 * w)
        assert report.rhs == str(3 * w)

    def test_even_degenerate(self):
        report = verify_pft(4, seed=1)
        assert report.passed and report.details["case"] == "even-degenerate"

    def test_n5_random(self):
        for seed in range(5):
            report = verify_pft(5, seed=seed)
            assert report.passed
            assert report.details.get("global_sign") == 1

    def test_symbolic_odd_degrees(self):
        # Pf = s * rhs as polynomials, s = -1, +1, -1 at n = 3, 5, 7
        for n, sign in ((3, -1), (5, 1), (7, -1)):
            report = verify_pft(n, symbolic=True)
            assert report.passed
            assert report.details["global_sign"] == sign

    def test_symbolic_even_degrees(self):
        # det of y on the hyperplane vanishes as a polynomial: a 3 x 3 det
        # in 4 variables and a 5 x 5 one in 20
        for n in (4, 6):
            report = verify_pft(n, symbolic=True)
            assert report.passed and report.lhs == "0"
            assert report.details["case"] == "even-degenerate"

    def test_symbolic_even_bound(self):
        # n = 8 would be a 7 x 7 polynomial det in 56 variables; it stops
        # before y is built, while numeric n = 8 still runs
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            verify_pft(8, symbolic=True)
        assert time.perf_counter() - start < 1
        assert verify_pft(8, seed=3).passed

    def test_three_tree_bound_on_consecutive_calls(self):
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                verify_pft(9)

    def test_tree_bound_before_nus(self, monkeypatch):
        # the 3-tree side stops a large odd n before the C(n, 3) nus are
        # built; the generator cache is cleared so that nus an earlier call
        # built cannot hide a build
        built = []
        monkeypatch.setattr(verify_mod, "nu", lambda *args: built.append(args))
        verify_mod._generators.cache_clear()
        try:
            for n in (9, 41):
                with pytest.raises(ResourceLimitError):
                    verify_pft(n, seed=1)
        finally:
            verify_mod._generators.cache_clear()
        assert built == []

    def test_flipped_sign_fails_symbolic(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "_skew_form",
                            _swapped(verify_mod._skew_form))
        for n in (3, 5):
            assert verify_pft(n, symbolic=True).status == "FAIL"

    def test_flipped_sign_fails_on_first_call(self):
        # a fresh interpreter, so no earlier call can decide the sign
        script = (
            "import lie_elements.verify as v, test_verify as t\n"
            "v._skew_form = t._swapped(v._skew_form)\n"
            "print([v.verify_pft(n, seed=1).status for n in (3, 5, 7)])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC_DIR, os.path.dirname(__file__)]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "['FAIL', 'FAIL', 'FAIL']"

    def test_unsorted_triple_key_takes_the_sorting_sign(self):
        report = verify_pft(3, weights={(2, 1, 3): Fraction(7)})
        assert report.passed
        assert (report.lhs, report.rhs) == ("21", "-21")
        # an even reordering keeps the sign; repeats are summed
        report = verify_pft(3, weights={(2, 3, 1): Fraction(7),
                                        (1, 2, 3): Fraction(1)})
        assert report.passed and report.rhs == "24"
        weights = {(3, 2, 1): Fraction(2), (1, 4, 5): Fraction(3),
                   (5, 2, 4): Fraction(1, 3), (2, 4, 1): Fraction(-1)}
        assert verify_pft(5, weights=weights).passed


SRC_DIR = os.path.dirname(os.path.dirname(verify_mod.__file__))


def _swapped(skew_form):
    """skew_form with the first two basis vectors swapped: the same form
    in another basis, whose Pfaffian has the opposite sign."""
    def swapped(y):
        data = [row[:] for row in skew_form(y).data]
        data[0], data[1] = data[1], data[0]
        for row in data:
            row[0], row[1] = row[1], row[0]
        return ExactMatrix(data)
    return swapped


class TestRank2:
    def test_reference_tuple(self):
        report = verify_rank2(1, 2, 3, 4, 4)
        assert report.passed and report.details["rank"] == 2

    def test_larger_degree(self):
        assert verify_rank2(2, 5, 1, 3, 5).passed


class TestMain:
    def test_n4(self):
        assert verify_main(4, seed=3).passed

    def test_n5(self):
        assert verify_main(5, seed=3).passed

    def test_explicit_single_eta(self):
        weights = {(q, v): Fraction(0)
                   for q in [(1, 2, 3, 4)] for v in ("T1", "T2")}
        weights[((1, 2, 3, 4), "T1")] = Fraction(1)
        report = verify_main(4, weights=weights)
        assert report.passed
        # charpoly of the single generator is t^4 - 4 t^2
        assert json.loads(report.lhs.replace("'", '"')) == \
            ["0", "0", "-4", "0", "1"]

    def test_missing_weights_are_zero(self):
        # a partial table reads every missing instance as weight zero, as
        # verify_mtt and verify_pft do
        partial = {((1, 2, 3, 4), "T1"): Fraction(3)}
        full = {key: Fraction(0) for key in quad_weights(5)}
        full.update(partial)
        report, expected = (verify_main(5, weights=partial),
                            verify_main(5, weights=full))
        assert report.passed and expected.passed
        assert (report.lhs, report.rhs) == (expected.lhs, expected.rhs)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("builder", ["top", "gram"])
    def test_cross_check_is_live(self, monkeypatch, n, builder):
        # one value off by one in either table at r = n-1 fails the
        # report; verify_main reads the top table through sdet and the
        # Gram table through its own import
        module, name = ((sdet_module, "_top_table") if builder == "top"
                        else (verify_mod, "_gram_table"))
        real = getattr(module, name)

        def off_by_one(*args):
            (multiset, value), *rest = real(*args)
            return [(multiset, value + 1)] + rest

        assert verify_main(n, seed=3).passed
        monkeypatch.setattr(module, name, off_by_one)
        assert verify_main(n, seed=3).status == "FAIL"

    @pytest.mark.parametrize("key", [
        ((2, 1, 3, 4), "T1"),       # not ascending
        ((1, 2, 3, 4), "T3"),       # no such variant
    ])
    def test_key_naming_no_instance_rejected(self, key):
        # once such a key gave a FAIL report on a true identity
        with pytest.raises(StructureError):
            verify_main(4, weights={key: Fraction(1)})
        with pytest.raises(StructureError):
            element_from_quad_weights(4, {key: Fraction(1)})


class TestIota:
    def test_small_degrees(self):
        for n in (2, 3):
            assert verify_iota(n, trials=2, seed=0).passed


class TestConjectures:
    def test_n2_values(self):
        report = conjecture_report(2)
        assert report.status == "REPORT"
        assert report.details["dim_lie_space"] == 1
        assert report.details["dim_kappa_closure"] == 1
        assert report.details["dim_kernel"] == 0
        assert report.details["dim_quotient"] == 1

    def test_closure_outside_space_fails(self, monkeypatch):
        # one closure element moved out of the solver space by a non-Lie
        # element: the containment check must see it
        closure = verify_mod.lie_closure(verify_mod.all_kappas(4), 4)
        moved = closure[:2] + [closure[2] + GroupAlgebraElement.one(4)] + \
            closure[3:]
        monkeypatch.setattr(verify_mod, "lie_closure", lambda *a: moved)
        report = conjecture_report(4)
        assert report.status == "FAIL"
        assert report.details["closure_contained_in_space"] is False

    def test_golden_persistence(self, tmp_path):
        first = conjecture_report(3, results_dir=str(tmp_path))
        assert first.status == "REPORT"
        again = conjecture_report(3, results_dir=str(tmp_path))
        assert again.status == "REPORT"
        # a tampered golden file turns the report into a failure
        path = tmp_path / "generation-conjectures-n3.json"
        data = json.loads(path.read_text())
        data["dim_lie_space"] = 99
        path.write_text(json.dumps(data))
        assert conjecture_report(3, results_dir=str(tmp_path)).status == "FAIL"

    def test_golden_write_is_atomic(self, tmp_path, monkeypatch):
        def partial_dump(obj, handle, **kwargs):
            handle.write('{"dim_lie')
            raise OSError("disk full")

        monkeypatch.setattr(verify_mod.json, "dump", partial_dump)
        with pytest.raises(OSError):
            conjecture_report(3, results_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_report_solves_once(self, monkeypatch):
        calls = []
        solve = verify_mod.lie_space

        def counting(n, *args, **kwargs):
            calls.append(n)
            return solve(n, *args, **kwargs)

        monkeypatch.setattr(verify_mod, "lie_space", counting)
        monkeypatch.setattr("lie_elements.wedge_rep.lie_space", counting)
        assert conjecture_report(4).details["dim_kernel"] == 4
        assert calls == [4]


def summed_quad_element(n, weights):
    """The quad-weighted element as a running sum, kept as an oracle."""
    z = GroupAlgebraElement.zero(n)
    for (quad, variant), w in weights.items():
        i, j, k, l = quad
        if variant == "T1":
            z = z + eta(n, i, j, k, l).scale(w)
        else:
            z = z + eta(n, i, k, l, j).scale(w)
    return z


class TestElementFromQuadWeights:
    def test_matches_running_sum(self):
        for n in (4, 5, 6):
            for seed in (0, 1, 7, 19):
                weights = quad_weights(n, seed=seed)
                assert (element_from_quad_weights(n, weights)
                        == summed_quad_element(n, weights))

    def test_etas_built_once_per_n(self):
        for n in (4, 5, 6):
            etas = verify_mod._generators(n, "eta")
            assert etas is verify_mod._generators(n, "eta")
            assert len(etas) == 2 * len(list(combinations(range(n), 4)))
            for (quad, variant), g in etas.items():
                # the same eta summed_quad_element builds for this key
                assert g == summed_quad_element(n, {(quad, variant): 1})

    def test_kappas_and_nus_built_once_per_n(self, monkeypatch):
        # two verify calls at one n build each kappa and each nu once
        calls = []

        def counted(make):
            def build(n, *key):
                calls.append((make.__name__, n) + key)
                return make(n, *key)
            return build

        monkeypatch.setattr(verify_mod, "kappa", counted(verify_mod.kappa))
        monkeypatch.setattr(verify_mod, "nu", counted(verify_mod.nu))
        verify_mod._generators.cache_clear()
        try:
            for seed in (1, 2):
                assert verify_mtt(5, seed=seed).passed
                assert verify_pft(5, seed=seed).passed
        finally:
            verify_mod._generators.cache_clear()
        pairs = [("kappa", 5) + p for p in combinations(range(1, 6), 2)]
        triples = [("nu", 5) + t for t in combinations(range(1, 6), 3)]
        assert calls == pairs + triples

    def test_cancelling_and_symbolic_weights(self):
        quad = (1, 2, 3, 4)
        # a zero weight adds nothing, and no weights give the zero element
        weights = {(quad, "T1"): Fraction(3, 7), (quad, "T2"): 0}
        z = element_from_quad_weights(4, weights)
        assert z == summed_quad_element(4, weights)
        assert element_from_quad_weights(4, {}) == GroupAlgebraElement.zero(4)
        symbolic = {(quad, "T1"): MultiPoly.variable("w"),
                    (quad, "T2"): MultiPoly.variable("x")}
        assert (element_from_quad_weights(4, symbolic)
                == summed_quad_element(4, symbolic))
