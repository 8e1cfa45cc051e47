"""Command-line front end.

Subcommands: verify (mtt|pft|main|rank2|iota), lie (dim|basis|closure),
conjectures, sdet (eval|symbolic|coeff-graph), enumerate
(trees|3trees|4graphs).  Reports are emitted as text, JSON or CSV.
Exit codes: 0 all hard assertions pass, 1 verification failure, 2 bad
usage, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from functools import lru_cache
from itertools import permutations as iter_permutations
from math import perm
from typing import Optional

from . import graphs, sdet as sdet_mod, verify as verify_mod, wedge_rep
from .exactmath import WORK_BOUND, DimensionError, ExactMatrix, \
    ResourceLimitError, StructureError, _check_bound, rational
from .lie_generators import all_kappas, lie_closure
from .verify import InputError, _parse_json


class WeightConflictError(InputError):
    """Two entries of a weight file disagree after symmetry closure."""


def _rational(value, where):
    """rational(value), or InputError; a bool is an int, but no rational."""
    if not isinstance(value, bool):
        try:
            return rational(value)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise InputError("%s: %r is not a rational" % (where, value))


def _weight_rows(raw, section, labels, values, n):
    """Rows of one weight-file section as tuples: `labels` distinct integer
    labels (in 1..n when n is given), then `values` rational weights."""
    rows = raw.get(section, [])
    if not isinstance(rows, list):
        raise InputError("weights: %r is not a list" % section)
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != labels + values:
            raise InputError("weights: %s entry %r needs %d labels and %d "
                             "weight(s)" % (section, row, labels, values))
        idx = row[:labels]
        if len(set(idx)) < labels or any(
                type(i) is not int or i < 1 or (n and i > n) for i in idx):
            raise InputError("weights: %s entry %r needs distinct labels "
                             "in 1..%s" % (section, row, n or "n"))
        out.append(tuple(idx) + tuple(_rational(w, "weights")
                                      for w in row[labels:]))
    return out


def load_weights(path: str, n: Optional[int] = None):
    """Weight tables from JSON, each key folded into its stored form.

    Schema: {"pairs": [[i, j, "w"]], "triples": [[i, j, k, "w"]],
    "quads": [[i, j, k, l, "w1", "w2"]]}.  Pair weights are symmetric;
    triple weights change sign under odd index permutations and are stored
    on ascending triples; a quad row gives the weights of the two generator
    variants of an ascending 4-subset, stored under (4-subset, variant)
    keys as verify_main reads them.  Labels must lie in 1..n when n is
    given.
    """
    with open(path) as handle:
        raw = _parse_json(handle.read(), "weights")
    if not isinstance(raw, dict):
        raise InputError("weights: %s does not hold a JSON object" % path)
    tables = {}
    for section, labels, variants in (("pairs", 2, ()), ("triples", 3, ()),
                                      ("quads", 4, graphs.VARIANTS)):
        table = tables[section] = {}
        for row in _weight_rows(raw, section, labels, len(variants) or 1, n):
            idx = row[:labels]
            if variants and idx != tuple(sorted(idx)):
                raise WeightConflictError(
                    "quad %r must be given in ascending order" % (idx,))
            keys = [(idx, variant) for variant in variants] or [idx]
            for key, w in zip(keys, row[labels:]):
                key, w = verify_mod._fold(key, w)
                if key in table and table[key] != w:
                    raise WeightConflictError(
                        "weights: %s entry %r given twice with different "
                        "weights" % (section, key))
                table[key] = w
    return tables


def _emit(records, fmt, out):
    if fmt == "json":
        text = json.dumps(records, indent=2, default=str)
    elif fmt == "csv":
        buf = io.StringIO()
        keys = sorted({k for r in records for k in r})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in records:
            writer.writerow({k: r.get(k, "") for k in keys})
        text = buf.getvalue().rstrip("\n")
    else:
        lines = []
        for r in records:
            lines.append(" ".join("%s=%s" % (k, r[k]) for k in sorted(r)))
        text = "\n".join(lines)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


# -- verify --------------------------------------------------------------


def _run_verify(args) -> int:
    n, target = args.n, args.target
    if target == "rank2":
        # an n x n matrix for each ordered 4-tuple of labels
        _check_bound(perm(n, 4) * n * n, WORK_BOUND, "rank2 matrix entries")
        reports = [verify_mod.verify_rank2(*quad, n=n)
                   for quad in iter_permutations(range(1, n + 1), 4)]
    else:
        # a weight file or the variables fix the element: one trial
        fixed = ("--weights" if args.weights
                 else "--symbolic" if args.symbolic else None)
        for flag, value in (("--seed", args.seed), ("--trials", args.trials)):
            if fixed and value is not None:
                raise InputError("argument %s: not allowed with argument %s"
                                 % (flag, fixed))
        weights = (load_weights(args.weights, n)[args.section]
                   if args.weights else None)
        first = args.seed or 0
        seeds = [None] if fixed else range(first, first + (args.trials or 1))
        reports = []
        for seed in seeds:
            if target == "iota":
                reports.append(verify_mod.verify_iota(n, trials=3, seed=seed))
            elif target == "main":
                reports.append(verify_mod.verify_main(
                    n, weights=weights, seed=seed))
            else:
                verifier = (verify_mod.verify_mtt if target == "mtt"
                            else verify_mod.verify_pft)
                reports.append(verifier(n, weights=weights, seed=seed,
                                        symbolic=args.symbolic))
    # rank2 reports carry full matrices; keep the output light
    cut = 200 if target == "rank2" else None
    for r in reports:
        r.lhs, r.rhs = str(r.lhs)[:cut], str(r.rhs)[:cut]
    _emit([r.to_json_obj() for r in reports], args.format, args.out)
    return 0 if all(r.status != "FAIL" for r in reports) else 1


# -- lie -----------------------------------------------------------------


def _run_lie(args) -> int:
    if args.target == "closure":
        elements = lie_closure(all_kappas(args.n), args.n, **_bound(args))
    else:
        elements = wedge_rep.lie_space(args.n, **_bound(args)).basis
    if args.target == "dim":
        print(len(elements))
    else:
        _emit([json.loads(b.to_json()) for b in elements], args.format,
              args.out)
    return 0


def _run_conjectures(args) -> int:
    report = verify_mod.conjecture_report(args.n, results_dir=args.out_dir)
    _emit([report.to_json_obj()], args.format, args.out)
    return 0 if report.status != "FAIL" else 1


# -- sdet ----------------------------------------------------------------


def _read_matrix(text, flag) -> ExactMatrix:
    """A square matrix of rationals from a JSON array of rows."""
    data = _parse_json(text, flag)
    if not isinstance(data, list) or not all(isinstance(row, list)
                                             for row in data):
        raise InputError("%s: expected a JSON array of rows" % flag)
    try:
        matrix = ExactMatrix([[_rational(v, flag) for v in row]
                              for row in data])
    except DimensionError as exc:
        raise InputError("%s: %s" % (flag, exc)) from None
    if not matrix.is_square():
        raise InputError("%s: %d x %d matrix is not square"
                         % ((flag,) + matrix.shape))
    return matrix


def _run_sdet(args) -> int:
    if args.target == "coeff-graph":
        edges = _parse_json(args.edges, "--edges")
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2
                and all(type(v) is int for v in e) for e in edges):
            raise InputError("--edges: expected a JSON list of [i, j] "
                             "integer pairs")
        try:
            result = sdet_mod.monomial_coefficient([tuple(e) for e in edges])
        except StructureError as exc:
            raise InputError("--edges: %s" % exc) from None
        _emit([{"coefficient": result.coefficient,
                "cycle_count": result.cycle_count,
                "cycles": [list(c) for c in result.cycles]}],
              args.format, args.out)
        return 0
    A = _read_matrix(args.matrix_a, "--matrix-a")
    B = _read_matrix(args.matrix_b, "--matrix-b")
    if A.shape != B.shape:
        raise InputError("--matrix-a and --matrix-b differ in size")
    if args.target == "symbolic":
        value = sdet_mod.sdet_via_coeff(A, B)
    else:
        value = sdet_mod.sdet(A, B)
    _emit([{"sdet": str(value)}], args.format, args.out)
    return 0


# -- enumerate -----------------------------------------------------------


def _run_enumerate(args) -> int:
    if args.target == "trees":
        records = [{"n": t.n, "edges": [list(e) for e in t.edges]}
                   for t in graphs.enumerate_trees(args.n)]
    elif args.target == "3trees":
        records = [{"n": g.n,
                    "triangles": [list(t) for t in g.triangles],
                    "delta": graphs.delta_sign(g)}
                   for g in graphs.enumerate_three_trees(args.m,
                                                         **_bound(args))]
    else:
        records = [{"n": g.n,
                    "edges": [[list(q), v] for q, v in g.edges]}
                   for g in graphs.enumerate_four_graphs(args.r, args.n)]
    _emit(records, args.format, args.out)
    return 0


def _bound(args) -> dict:
    """The keywords of a call bounded unless --allow-heavy: bound=None,
    which lifts the bound, under that flag, and none otherwise."""
    if args.allow_heavy:
        sys.stderr.write("warning: resource bounds lifted\n")
        return {"bound": None}
    return {}


# -- argument parsing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InputError, so that main
    reports each one in one line with exit code 2."""

    def error(self, message):
        raise InputError(message)


def _at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (least, value))
        return value
    parse.__name__ = "int"      # argparse: "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command target, declaring only the flags that
    target reads, so argparse alone accepts or rejects a command line."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    output.add_argument("--out", default=None)
    heavy = argparse.ArgumentParser(add_help=False)
    heavy.add_argument("--allow-heavy", action="store_true",
                       help="lift the resource bounds")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="first seed (default 0)")
    seeded.add_argument("--trials", type=_at_least(1),
                        help="number of seeds (default 1)")

    parser = _Parser(
        prog="lie-elements",
        description="Exact verification of Lie-element identities in the "
                    "group algebra of the symmetric group.")
    commands = parser.add_subparsers(dest="command", required=True)

    def add(group, name, about, *parents, least_n=1, **defaults):
        p = group.add_parser(name, help=about, parents=parents)
        if least_n:
            p.add_argument("--n", type=_at_least(least_n), required=True)
        p.set_defaults(**defaults)
        return p

    def targets(name, about, func, **defaults):
        p = commands.add_parser(name, help=about)
        p.set_defaults(func=func, **defaults)
        return p.add_subparsers(dest="target", required=True)

    verify = targets("verify", "run a verifier", _run_verify,
                     weights=None, symbolic=False)
    for name, about, least_n, section in (   # the --weights section read
            ("mtt", "matrix-tree identity", 1, "pairs"),
            ("pft", "Pfaffian / 3-tree identity", 2, "triples"),
            ("main", "charpoly vs shuffle determinants", 1, "quads")):
        p = add(verify, name, about, output, seeded, least_n=least_n,
                section=section)
        fixed = p.add_mutually_exclusive_group()
        fixed.add_argument("--weights", help="JSON weight file")
        if name != "main":
            fixed.add_argument("--symbolic", action="store_true")
    add(verify, "rank2", "rank-2 form of eta", output, least_n=4)
    add(verify, "iota", "degree-raising embedding", output, seeded)

    lie = targets("lie", "Lie space / closure computations", _run_lie)
    add(lie, "dim", "dimension of the Lie space", heavy)
    add(lie, "basis", "basis of the Lie space", output, heavy)
    add(lie, "closure", "bracket closure of the kappas", output, heavy)

    p = add(commands, "conjectures", "dimension reports", output, least_n=2,
            func=_run_conjectures)
    p.add_argument("--out-dir", default=None,
                   help="directory for golden report persistence")

    sdet = targets("sdet", "shuffle determinant computations", _run_sdet)
    for name, about in (("eval", "sdet(A, B) by row subsets"),
                       ("symbolic", "sdet(A, B) as a coefficient")):
        p = add(sdet, name, about, output, least_n=None)
        p.add_argument("--matrix-a", required=True,
                       help="JSON array of rational-string rows")
        p.add_argument("--matrix-b", required=True)
    add(sdet, "coeff-graph", "coefficient of one monomial", output,
        least_n=None).add_argument("--edges", required=True,
                                   help="JSON list of directed edges")

    enum = targets("enumerate", "graph enumerations", _run_enumerate)
    add(enum, "trees", "labeled trees on 1..n", output)
    add(enum, "3trees", "3-trees with m triangles", output, heavy,
        least_n=None).add_argument("--m", type=_at_least(1), required=True)
    add(enum, "4graphs", "4-graphs with r edges on 1..n", output,
        least_n=4).add_argument("--r", type=_at_least(1), required=True)
    return parser


# main's one parser per process; build_parser stays a fresh parser per
# call, so no caller can change a later command line through it
_parser = lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write("resource bound exceeded: %s\n" % exc)
        return 3
    except (InputError, json.JSONDecodeError, UnicodeDecodeError,
            OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
