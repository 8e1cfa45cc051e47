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

from itertools import permutations as iter_permutations
from typing import Optional

from . import graphs, sdet as sdet_mod, verify as verify_mod, wedge_rep
from .exactmath import DimensionError, ExactMatrix, ResourceLimitError, \
    StructureError, rational
from .lie_generators import all_kappas, lie_closure


class InputError(ValueError):
    """A command-line value or an input file is malformed (exit code 2)."""


class WeightConflictError(InputError):
    """Two entries of a weight file disagree after symmetry closure."""


def _rational(value, where):
    try:
        return rational(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InputError("%s: %r is not a rational" % (where, value)) \
            from None


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
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise InputError("weights: %s does not hold a JSON object" % path)
    tables = {}
    for section, labels, conflict in (
            ("pairs", 2, "pair %r given twice"),
            ("triples", 3, "triple %r given inconsistently")):
        table = tables[section] = {}
        for *idx, w in _weight_rows(raw, section, labels, 1, n):
            key, value = verify_mod._fold(tuple(idx), w)
            if key in table and table[key] != value:
                raise WeightConflictError(conflict % (key,))
            table[key] = value
    quads = tables["quads"] = {}
    for i, j, k, l, w1, w2 in _weight_rows(raw, "quads", 4, 2, n):
        quad = (i, j, k, l)
        if quad != tuple(sorted(quad)):
            raise WeightConflictError(
                "quad %r must be given in ascending order" % (quad,))
        for variant, w in zip(graphs.VARIANTS, (w1, w2)):
            key = (quad, variant)
            if key in quads and quads[key] != w:
                raise WeightConflictError("quad %r given twice" % (quad,))
            quads[key] = w
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


def _report_records(reports):
    return [r.to_json_obj() for r in reports]


# -- verify --------------------------------------------------------------

# the weight-file section each verify target reads
_WEIGHT_SECTIONS = {"mtt": "pairs", "pft": "triples", "main": "quads"}


def _run_verify(args) -> int:
    reports = []
    seeds = [args.seed + t for t in range(args.trials)]
    weights = None
    if args.weights:
        # the file fixes the element, so there is one trial
        tables = load_weights(args.weights, args.n)
        weights = tables[_WEIGHT_SECTIONS[args.target]]
        seeds = seeds[:1]
    for seed in seeds:
        if args.target == "mtt":
            reports.append(verify_mod.verify_mtt(
                args.n, weights=weights, seed=seed,
                symbolic=args.symbolic))
        elif args.target == "pft":
            reports.append(verify_mod.verify_pft(
                args.n, weights=weights, seed=seed,
                symbolic=args.symbolic))
        elif args.target == "main":
            reports.append(verify_mod.verify_main(
                args.n, weights=weights, seed=seed))
        elif args.target == "iota":
            reports.append(verify_mod.verify_iota(
                args.n, trials=3, seed=seed))
        elif args.target == "rank2":
            for quad in iter_permutations(range(1, args.n + 1), 4):
                reports.append(verify_mod.verify_rank2(*quad, n=args.n))
            break
    for r in reports:
        # rank2 reports carry full matrices; keep the output light
        r.lhs, r.rhs = str(r.lhs)[:200], str(r.rhs)[:200]
    _emit(_report_records(reports), args.format, args.out)
    return 0 if all(r.status != "FAIL" for r in reports) else 1


# -- lie -----------------------------------------------------------------


def _run_lie(args) -> int:
    bound = _bound(args, 6)
    if args.target == "closure":
        elements = lie_closure(all_kappas(args.n), args.n, max_n=bound)
    else:
        elements = wedge_rep.lie_space(args.n, max_n=bound).basis
    if args.target == "dim":
        print(len(elements))
    else:
        _emit([json.loads(b.to_json()) for b in elements], args.format,
              args.out)
    return 0


def _run_conjectures(args) -> int:
    report = verify_mod.conjecture_report(args.n, results_dir=args.out_dir)
    _emit(_report_records([report]), args.format, args.out)
    return 0 if report.status != "FAIL" else 1


# -- sdet ----------------------------------------------------------------


def _read_matrix(text, flag) -> ExactMatrix:
    """A square matrix of rationals from a JSON array of rows."""
    data = json.loads(text)
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
        edges = json.loads(args.edges)
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
        bound = 10 if args.allow_heavy else graphs.THREE_TREE_EDGE_BOUND
        records = [{"n": g.n,
                    "triangles": [list(t) for t in g.triangles],
                    "delta": graphs.delta_sign(g)}
                   for g in graphs.enumerate_three_trees(
                       args.m, edge_bound=bound)]
    else:
        records = [{"n": g.n,
                    "edges": [[list(q), v] for q, v in g.edges]}
                   for g in graphs.enumerate_four_graphs(args.r, args.n)]
    _emit(records, args.format, args.out)
    return 0


def _bound(args, default: int) -> int:
    if args.allow_heavy:
        sys.stderr.write("warning: resource bounds lifted\n")
        return 99
    return default


# -- argument parsing ----------------------------------------------------


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    parser.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lie-elements",
        description="Exact verification of Lie-element identities in the "
                    "group algebra of the symmetric group.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verifier")
    p.add_argument("target", choices=("mtt", "pft", "main", "rank2", "iota"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--weights", default=None)
    p.add_argument("--symbolic", action="store_true")
    _add_common(p)
    p.set_defaults(func=_run_verify)

    p = sub.add_parser("lie", help="Lie space / closure computations")
    p.add_argument("target", choices=("dim", "basis", "closure"))
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.add_argument("--allow-heavy", action="store_true",
                   help="lift the resource bounds")
    p.set_defaults(func=_run_lie)

    p = sub.add_parser("conjectures", help="dimension reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-dir", default=None,
                   help="directory for golden report persistence")
    _add_common(p)
    p.set_defaults(func=_run_conjectures)

    p = sub.add_parser("sdet", help="shuffle determinant computations")
    p.add_argument("target", choices=("eval", "symbolic", "coeff-graph"))
    p.add_argument("--matrix-a", default=None,
                   help="JSON array of rational-string rows")
    p.add_argument("--matrix-b", default=None)
    p.add_argument("--edges", default=None,
                   help="JSON list of directed edges for coeff-graph")
    _add_common(p)
    p.set_defaults(func=_run_sdet)

    p = sub.add_parser("enumerate", help="graph enumerations")
    p.add_argument("target", choices=("trees", "3trees", "4graphs"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    _add_common(p)
    p.add_argument("--allow-heavy", action="store_true",
                   help="lift the resource bounds")
    p.set_defaults(func=_run_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write("resource bound exceeded: %s\n" % exc)
        return 3
    except (InputError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def _least_values(args):
    """Smallest accepted value of each integer option of the command."""
    if args.command == "verify":
        return {"n": 2 if args.target == "pft" else 1, "trials": 1}
    if args.command == "conjectures":
        return {"n": 2}
    if args.command == "enumerate":
        return {"n": 4 if args.target == "4graphs" else 1, "m": 1, "r": 1}
    return {"n": 1}


def _validate(args):
    if args.command == "verify":
        # the targets that read each optional flag
        for flag, targets in (("symbolic", ("mtt", "pft")),
                              ("weights", tuple(_WEIGHT_SECTIONS))):
            if getattr(args, flag) and args.target not in targets:
                raise InputError("verify %s does not read --%s"
                                 % (args.target, flag))
    if args.command == "sdet":
        if args.target == "coeff-graph" and not args.edges:
            raise InputError("coeff-graph needs --edges")
        if args.target != "coeff-graph" and not (args.matrix_a
                                                 and args.matrix_b):
            raise InputError("sdet %s needs --matrix-a and --matrix-b"
                             % args.target)
    if args.command == "enumerate":
        if args.target == "trees" and args.n is None:
            raise InputError("enumerate trees needs --n")
        if args.target == "3trees" and args.m is None:
            raise InputError("enumerate 3trees needs --m")
        if args.target == "4graphs" and (args.n is None or args.r is None):
            raise InputError("enumerate 4graphs needs --n and --r")
    for flag, least in _least_values(args).items():
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise InputError("--%s must be at least %d, got %d"
                             % (flag, least, value))


if __name__ == "__main__":
    sys.exit(main())
