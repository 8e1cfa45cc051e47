import hashlib
import json
import shlex
import time

from fractions import Fraction
from pathlib import Path

import pytest

from lie_elements import cli, graphs, wedge_rep
from lie_elements.cli import WeightConflictError, load_weights, main
from lie_elements.verify import verify_mtt


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerifyCommand:
    def test_mtt_trials(self, capsys):
        code, out = run(capsys, "verify", "mtt", "--n", "4", "--seed", "7",
                        "--trials", "5")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert len(lines) == 5
        assert all("status=PASS" in l for l in lines)

    def test_pft_json(self, capsys):
        code, out = run(capsys, "verify", "pft", "--n", "3", "--symbolic",
                        "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert records[0]["status"] == "PASS"

    def test_iota(self, capsys):
        code, out = run(capsys, "verify", "iota", "--n", "2")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize("flag", ["--symbolic", "--weights"])
    def test_fixed_element_has_no_seed(self, tmp_path, capsys, flag):
        # no seed draws the element that a weight file or the variables fix
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"pairs": [[1, 2, "1"], [2, 3, "2"]]}))
        argv = ["verify", "mtt", "--n", "3", "--format", "json", flag]
        if flag == "--weights":
            argv.append(str(path))
        code, out = run(capsys, *argv)
        assert code == 0
        [record] = json.loads(out)
        assert record["seed"] is None and record["status"] == "PASS"

    def test_symbolic_sides_print_whole(self, capsys):
        code, out = run(capsys, "verify", "mtt", "--n", "5", "--symbolic",
                        "--format", "json")
        assert code == 0
        [record] = json.loads(out)
        whole = str(verify_mtt(5, symbolic=True).lhs)
        assert len(whole) > 200
        assert record["lhs"] == record["rhs"] == whole

    def test_rank2_output_unchanged(self, capsys):
        # the rank2 reports are still cut at 200 characters, as before
        code, out = run(capsys, "verify", "rank2", "--n", "4", "--format",
                        "json")
        assert code == 0
        records = json.loads(out)
        for record in records:
            record["elapsed_ms"] = 0
        digest = hashlib.sha256(
            json.dumps(records, sort_keys=True).encode()).hexdigest()
        assert digest == ("f4103b11f5cfb4199064a43502751a60"
                          "291a31193818e04841af7028454238ec")


class TestLieCommand:
    def test_dim(self, capsys):
        code, out = run(capsys, "lie", "dim", "--n", "2")
        assert code == 0 and out.strip() == "1"

    def test_basis_json(self, capsys):
        code, out = run(capsys, "lie", "basis", "--n", "3", "--format",
                        "json")
        assert code == 0
        assert len(json.loads(out)) == 4

    def test_closure(self, capsys):
        code, out = run(capsys, "lie", "closure", "--n", "3", "--format",
                        "json")
        assert code == 0
        assert len(json.loads(out)) == 4


class TestConjecturesCommand:
    def test_report(self, capsys):
        code, out = run(capsys, "conjectures", "--n", "3", "--format",
                        "json")
        assert code == 0
        record = json.loads(out)[0]
        assert record["status"] == "REPORT"


class TestSdetCommand:
    def test_eval(self, capsys):
        code, out = run(capsys, "sdet", "eval",
                        "--matrix-a", '[["1","2"],["3","4"]]',
                        "--matrix-b", '[["1","0"],["0","1"]]')
        assert code == 0 and out.strip() == "sdet=4"

    def test_symbolic_agrees(self, capsys):
        a = '[["1","2"],["3","4"]]'
        b = '[["2","-1"],["1/2","5"]]'
        _, out_eval = run(capsys, "sdet", "eval", "--matrix-a", a,
                          "--matrix-b", b)
        _, out_sym = run(capsys, "sdet", "symbolic", "--matrix-a", a,
                         "--matrix-b", b)
        assert out_eval == out_sym

    @pytest.mark.parametrize("target", ["eval", "symbolic"])
    def test_empty_pair(self, capsys, target):
        code, out = run(capsys, "sdet", target, "--matrix-a", "[]",
                        "--matrix-b", "[]")
        assert code == 0 and out.strip() == "sdet=1"

    def test_coeff_graph(self, capsys):
        code, out = run(capsys, "sdet", "coeff-graph", "--edges",
                        "[[1,1],[1,1]]")
        assert code == 0 and "coefficient=2" in out


class TestEnumerateCommand:
    def test_trees(self, capsys):
        code, out = run(capsys, "enumerate", "trees", "--n", "3",
                        "--format", "json")
        assert code == 0 and len(json.loads(out)) == 3

    def test_three_trees(self, capsys):
        code, out = run(capsys, "enumerate", "3trees", "--m", "2",
                        "--format", "json")
        assert code == 0 and len(json.loads(out)) == 15

    def test_four_graphs(self, capsys):
        code, out = run(capsys, "enumerate", "4graphs", "--r", "1", "--n",
                        "4", "--format", "json")
        assert code == 0 and len(json.loads(out)) == 2


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert_input_error(capsys, "verify", "nonsense", "--n", "3")

    def test_resource_error(self, capsys):
        assert main(["lie", "dim", "--n", "9"]) == 3

    def test_tree_enumeration_bound(self, capsys, monkeypatch):
        # a bound below 5^3 trees; with the real bound, --n 9 (9^7 trees)
        # stops the same way (test_graphs checks that), while a missing
        # check would build millions of records here
        monkeypatch.setattr(graphs, "WORK_BOUND", 124)
        code, err = run_error(capsys, "enumerate", "trees", "--n", "5")
        assert code == 3
        assert err == ("resource bound exceeded: labeled trees: 125 exceeds "
                       "the bound 124\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "mtt", "--n", "12"],
        ["verify", "mtt", "--n", "12", "--symbolic"],
        ["verify", "main", "--n", "7"],
        ["verify", "pft", "--n", "21"],
        ["lie", "dim", "--n", "9"],
        ["lie", "closure", "--n", "7"],
        ["conjectures", "--n", "7"],
        ["verify", "iota", "--n", "7"],
        ["enumerate", "trees", "--n", "9"],
        ["enumerate", "3trees", "--m", "4"],
        ["sdet", "eval", "--matrix-a", json.dumps([[1] * 11] * 11),
         "--matrix-b", json.dumps([[1] * 11] * 11)],
        ["verify", "pft", "--n", "8", "--symbolic"],
        ["verify", "rank2", "--n", "13"],
        ["sdet", "symbolic", "--matrix-a", json.dumps([[1] * 11] * 11),
         "--matrix-b", json.dumps([[1] * 11] * 11)],
    ])
    def test_stops_at_its_bound(self, argv, capsys):
        # each bound is checked before the work it bounds, so the command
        # stops at once with one line instead of running on
        start = time.perf_counter()
        code, err = run_error(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert err.startswith("resource bound exceeded: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestParserReuse:
    def test_one_parser_per_process(self, capsys):
        # main parses every command line with one cached parser, and a
        # usage error leaves nothing behind for the next call;
        # build_parser still returns a fresh parser on every call
        good = ("lie", "dim", "--n", "3")
        first = run(capsys, *good)
        error = assert_input_error(capsys, "lie", "dim", "--n", "0")
        assert run(capsys, *good) == first == (0, "4\n")
        assert assert_input_error(capsys, "lie", "dim", "--n", "0") == error
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


class TestAllowHeavy:
    """--allow-heavy exists only on the commands that read it."""

    @pytest.mark.parametrize("argv", [
        ["verify", "iota", "--n", "7"],
        ["conjectures", "--n", "7"],
        ["sdet", "symbolic", "--matrix-a", "[[1]]", "--matrix-b", "[[1]]"],
    ])
    def test_usage_error_where_ignored(self, argv, capsys):
        assert "--allow-heavy" in assert_input_error(capsys, *argv,
                                                     "--allow-heavy")

    def test_lie_lifts_the_bound(self, capsys):
        assert main(["lie", "dim", "--n", "3", "--allow-heavy"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "4"
        assert captured.err == "warning: resource bounds lifted\n"

    def test_enumerate_lifts_the_bound(self, capsys):
        code, out = run(capsys, "enumerate", "3trees", "--m", "1",
                        "--allow-heavy", "--format", "json")
        assert code == 0 and len(json.loads(out)) == 1

    def test_enumerate_warns_as_lie_does(self, capsys):
        assert main(["enumerate", "3trees", "--m", "1", "--allow-heavy"]) == 0
        assert capsys.readouterr().err == "warning: resource bounds lifted\n"

    @pytest.mark.parametrize("argv, module, name, result", [
        (["lie", "dim", "--n", "9"], wedge_rep, "lie_space",
         wedge_rep.LieSpaceResult(9, [])),
        (["enumerate", "3trees", "--m", "4"], graphs,
         "enumerate_three_trees", []),
    ])
    def test_lifts_by_bound_none(self, argv, module, name, result, capsys,
                                 monkeypatch):
        # a recorder stands in for the library call, so no heavy n runs
        calls = []

        def record(*args, **kwargs):
            calls.append(kwargs)
            return result

        monkeypatch.setattr(module, name, record)
        assert main(argv + ["--allow-heavy"]) == 0
        assert main(argv) == 0
        assert calls == [{"bound": None}, {}]


class TestWeightFiles:
    def test_pairs_symmetrized(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"pairs": [[2, 1, "3/4"]]}))
        tables = load_weights(str(path))
        assert tables["pairs"][(1, 2)] == Fraction(3, 4)

    def test_triples_antisymmetrized(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"triples": [[2, 1, 3, "2"]]}))
        tables = load_weights(str(path))
        # w_213 = 2 means w_123 = -2
        assert tables["triples"][(1, 2, 3)] == -2

    def test_triple_rotation_keeps_sign(self, tmp_path):
        # (2, 3, 1) is a cyclic rotation of (1, 2, 3): an even reordering
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"triples": [[2, 3, 1, "2"]]}))
        assert load_weights(str(path))["triples"][(1, 2, 3)] == 2

    def test_conflict_detected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(
            {"triples": [[1, 2, 3, "2"], [2, 1, 3, "2"]]}))
        with pytest.raises(WeightConflictError):
            load_weights(str(path))

    @pytest.mark.parametrize("section, row, same, other", [
        ("pairs", [1, 2, "1/2"], [2, 1, "1/2"], [2, 1, "1"]),
        ("triples", [1, 2, 3, "2"], [2, 3, 1, "2"], [1, 3, 2, "2"]),
        ("quads", [1, 2, 3, 4, "1", "2"], [1, 2, 3, 4, "1", "2"],
         [1, 2, 3, 4, "1", "3"]),
    ])
    def test_repeated_key(self, tmp_path, section, row, same, other):
        # the same weight again is accepted, a different one is a conflict
        path = tmp_path / "w.json"
        path.write_text(json.dumps({section: [row]}))
        once = load_weights(str(path))
        path.write_text(json.dumps({section: [row, same]}))
        assert load_weights(str(path)) == once
        assert len(once[section]) == (2 if section == "quads" else 1)
        path.write_text(json.dumps({section: [row, other]}))
        with pytest.raises(WeightConflictError):
            load_weights(str(path))

    def test_missing_defaults_to_zero(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"pairs": [[1, 2, "1"], [1, 3, "2"],
                                              [2, 3, "1/2"]]}))
        code, out = run(capsys, "verify", "mtt", "--n", "3", "--weights",
                        str(path))
        assert code == 0 and "status=PASS" in out

    def test_weighted_pft(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"triples": [[1, 2, 3, "1"]]}))
        code, out = run(capsys, "verify", "pft", "--n", "3", "--weights",
                        str(path))
        assert code == 0 and "status=PASS" in out


def run_error(capsys, *argv):
    """Exit code and stderr of a call that must fail on its input."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def assert_input_error(capsys, *argv):
    """The stderr line of a call that must exit 2 on its input."""
    code, err = run_error(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


NESTED = "[" * 5000


class TestBadInput:
    """Malformed input exits 2 with one line on stderr, never with a
    traceback and exit 1 (which means a verification failed)."""

    assert_input_error = staticmethod(assert_input_error)

    def test_bad_rational(self, capsys):
        self.assert_input_error(capsys, "sdet", "eval", "--matrix-a",
                                '[["x"]]', "--matrix-b", '[["1"]]')

    def test_bool_is_no_rational(self, capsys):
        # a JSON true is a Python bool, which is an int
        self.assert_input_error(capsys, "sdet", "eval", "--matrix-a",
                                "[[true]]", "--matrix-b", "[[1]]")

    def test_ragged_matrix(self, capsys):
        self.assert_input_error(capsys, "sdet", "eval", "--matrix-a",
                                '[["1","2"],["3"]]', "--matrix-b",
                                '[["1","0"],["0","1"]]')

    def test_non_square_matrix(self, capsys):
        self.assert_input_error(capsys, "sdet", "symbolic", "--matrix-a",
                                '[["1","2"]]', "--matrix-b", '[["1","2"]]')

    def test_mismatched_sizes(self, capsys):
        self.assert_input_error(capsys, "sdet", "eval", "--matrix-a",
                                '[["1","2"],["3","4"]]', "--matrix-b",
                                '[["1"]]')

    def test_matrix_not_rows(self, capsys):
        self.assert_input_error(capsys, "sdet", "eval", "--matrix-a", "5",
                                "--matrix-b", '[["1"]]')

    def test_verify_mtt_n0(self, capsys):
        self.assert_input_error(capsys, "verify", "mtt", "--n", "0")

    def test_enumerate_trees_n0(self, capsys):
        self.assert_input_error(capsys, "enumerate", "trees", "--n", "0")

    def test_lie_dim_n0(self, capsys):
        self.assert_input_error(capsys, "lie", "dim", "--n", "0")

    def test_conjectures_n1(self, capsys):
        self.assert_input_error(capsys, "conjectures", "--n", "1")

    @pytest.mark.parametrize("edges", [
        "5",                    # not a list
        "[[1]]",                # not a pair
        '[["a","b"]]',          # not integers
        "[[1,2],[2,1]]",        # degrees are not 2 and 2
        "[[1,2,3],[2,1,3]]",    # not pairs
    ])
    def test_bad_coeff_graph_edges(self, capsys, edges):
        self.assert_input_error(capsys, "sdet", "coeff-graph", "--edges",
                                edges)

    @pytest.mark.parametrize("target, flag", [
        ("main", "--symbolic"),
        ("rank2", "--symbolic"),
        ("iota", "--symbolic"),
        ("rank2", "--weights"),
        ("iota", "--weights"),
    ])
    def test_flag_the_target_ignores(self, tmp_path, capsys, target, flag):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"pairs": [[1, 2, "1"]]}))
        argv = ["verify", target, "--n", "4", flag]
        if flag == "--weights":
            argv.append(str(path))
        self.assert_input_error(capsys, *argv)
        assert flag in run_error(capsys, *argv)[1]

    def test_missing_matrix(self, capsys):
        self.assert_input_error(capsys, "sdet", "eval", "--matrix-a",
                                '[["1"]]')

    @pytest.mark.parametrize("raw", [
        {"pairs": [[1, 2]]},
        {"pairs": [[1, 2, "1", "2"]]},
        {"triples": [[1, 2, "1"]]},
        {"pairs": [[1, 2, "x"]]},
        {"pairs": [[1, 2, True]]},
        {"pairs": [[1, 1, "1"]]},
        {"pairs": [[1, 9, "1"]]},
        {"pairs": 3},
        [],
    ])
    def test_bad_weight_file(self, tmp_path, capsys, raw):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(raw))
        self.assert_input_error(capsys, "verify", "mtt", "--n", "3",
                                "--weights", str(path))

    @pytest.mark.parametrize("argv, name, content", [
        # a file that is not UTF-8
        (["verify", "mtt", "--n", "3", "--weights", "{dir}/w.json"],
         "w.json", b"\xff"),
        (["conjectures", "--n", "2", "--out-dir", "{dir}"],
         "generation-conjectures-n2.json", b"\xff"),
        # JSON nested deeper than the parser can recurse
        (["verify", "mtt", "--n", "3", "--weights", "{dir}/w.json"],
         "w.json", NESTED.encode()),
        (["sdet", "eval", "--matrix-a", NESTED, "--matrix-b", "[[1]]"],
         None, None),
        (["sdet", "coeff-graph", "--edges", NESTED], None, None),
        (["conjectures", "--n", "2", "--out-dir", "{dir}"],
         "generation-conjectures-n2.json", NESTED.encode()),
    ], ids=["weights-bytes", "golden-bytes", "weights-nested",
            "matrix-nested", "edges-nested", "golden-nested"])
    def test_undecodable_json(self, tmp_path, capsys, argv, name, content):
        if name:
            (tmp_path / name).write_bytes(content)
        self.assert_input_error(capsys, *(a.replace("{dir}", str(tmp_path))
                                          for a in argv))

    def test_weight_row_arity_raises_input_error(self, tmp_path):
        from lie_elements.cli import InputError
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"quads": [[1, 2, 3, 4, "1"]]}))
        with pytest.raises(InputError):
            load_weights(str(path))


MATRIX = '[["1"]]'
EDGES = "[[1,1],[1,1]]"


class TestFlagsPerTarget:
    """Each target accepts only the flags it reads; any other flag, and a
    flag next to one that fixes what it would choose, is a usage error."""

    @pytest.mark.parametrize("argv, flag", [
        ("verify rank2 --n 4 --seed 1", "--seed"),
        ("verify rank2 --n 4 --trials 2", "--trials"),
        ("lie dim --n 3 --format json", "--format"),
        ("lie dim --n 3 --out dim.txt", "--out"),
        ("sdet eval --matrix-a M --matrix-b M --edges E", "--edges"),
        ("sdet symbolic --matrix-a M --matrix-b M --edges E", "--edges"),
        ("sdet coeff-graph --edges E --matrix-a M", "--matrix-a"),
        ("sdet coeff-graph --edges E --matrix-b M", "--matrix-b"),
        ("enumerate trees --n 3 --m 1", "--m"),
        ("enumerate trees --n 3 --r 1", "--r"),
        ("enumerate trees --n 3 --allow-heavy", "--allow-heavy"),
        ("enumerate 3trees --m 1 --n 3", "--n"),
        ("enumerate 3trees --m 1 --r 1", "--r"),
        ("enumerate 4graphs --n 4 --r 1 --m 1", "--m"),
        ("enumerate 4graphs --n 4 --r 1 --allow-heavy", "--allow-heavy"),
        ("verify mtt --n 3 --weights W --seed 1", "--seed"),
        ("verify mtt --n 3 --weights W --trials 2", "--trials"),
        ("verify mtt --n 3 --weights W --symbolic", "--symbolic"),
        ("verify pft --n 3 --weights W --symbolic", "--symbolic"),
        ("verify main --n 4 --weights W --seed 1", "--seed"),
        ("verify main --n 4 --weights W --trials 2", "--trials"),
        ("verify mtt --n 3 --symbolic --seed 1", "--seed"),
        ("verify pft --n 3 --symbolic --trials 3", "--trials"),
        ("verify rank2 --n 3", "--n"),
    ])
    def test_rejected(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"pairs": [[1, 2, "1"]]}))
        words = [{"M": MATRIX, "E": EDGES, "W": str(path)}.get(w, w)
                 for w in argv.split()]
        assert flag in assert_input_error(capsys, *words)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("argv", [
        ["nonsense"],
        ["verify"],
        ["verify", "mtt"],
        ["verify", "mtt", "--n", "x"],
        ["enumerate", "4graphs", "--n", "4"],
        ["sdet", "coeff-graph"],
    ])
    def test_other_usage_errors(self, capsys, argv):
        assert_input_error(capsys, *argv)


def readme_command_lines():
    """The command lines of README's "Command line" block, without the
    program name."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        assert words[0] == "lie-elements"
        lines.append(words[1:])
    return lines


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
