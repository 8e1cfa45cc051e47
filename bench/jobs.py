"""Verification jobs of the three benchmark workloads, and their golden
outputs.

A job is one public call into ``lie_elements`` whose verdict and output
are checked against the output recorded for it in ``golden/<workload>.json``.
Every job that takes random input draws a job seed from a fixed pool of
``POOL`` seeds; the workload seed picks which pool seeds a pass uses.  The
golden files hold the output of every pool job, so any workload seed can
be checked.

Importing this module imports the package from the ``src`` directory of
the checkout the benchmark lives in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

if not (SRC / "lie_elements").is_dir():
    raise ImportError("no lie_elements package under %s" % SRC)
sys.path.insert(0, str(SRC))

from lie_elements import cli, verify, wedge_rep  # noqa: E402
from lie_elements.exactmath import ExactMatrix  # noqa: E402
from lie_elements import lie_generators, sdet  # noqa: E402

# Job seeds are drawn from range(POOL); the golden files cover all of them.
POOL = 32

# A job returns (verdict_ok, output); output is compared with the golden.
Job = namedtuple("Job", ["id", "run"])

# Functions are looked up on their module when a job runs, not when it is
# built, so that a traced pass sees the wrapped bindings.


def _report_job(job_id, call):
    """Job around a verifier that returns a VerificationReport; the golden
    covers status, lhs and rhs, never details or elapsed_ms."""
    def run():
        report = call()
        return (report.status in ("PASS", "REPORT"),
                {"status": report.status, "lhs": report.lhs,
                 "rhs": report.rhs})
    return Job(job_id, run)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- charpoly ------------------------------------------------------------


def _main_job(n, seed):
    return _report_job("verify_main/n=%d/seed=%d" % (n, seed),
                       lambda: verify.verify_main(n, seed=seed))


def _partial_main6_job(seed):
    """The t^5, t^4 and t^3 coefficients of the n = 6 charpoly against the
    r = 1..3 shuffle-determinant sums: the part of verify_main(6) whose
    tables fit in a run."""
    def run():
        weights = verify.quad_weights(6, seed=seed)
        z = verify.element_from_quad_weights(6, weights)
        cp = wedge_rep.action_matrix(z).charpoly()
        coeffs, mus = [], []
        for r in (1, 2, 3):
            mu = sdet.mu_from_weights(
                6, r, lambda inst: weights[(inst.quad, inst.variant)])
            coeffs.append(str(cp[6 - r]))
            mus.append(str(mu))
        return coeffs == mus, {"coeffs": coeffs, "mus": mus}
    return Job("partial_main6/seed=%d" % seed, run)


def _charpoly(pick):
    return ([_main_job(4, s) for s in pick(10)]
            + [_main_job(5, s) for s in pick(10)]
            + [_partial_main6_job(s) for s in pick(10)])


# -- lie-space -----------------------------------------------------------


def _lie_space_job(n):
    def run():
        space = wedge_rep.lie_space(n)
        basis = json.dumps([b.to_json() for b in space.basis])
        return True, {"dim": space.dim, "basis_sha256": _digest(basis)}
    return Job("lie_space/n=%d" % n, run)


def _lie_space(pick):
    return ([_lie_space_job(n) for n in (2, 3, 4, 5)]
            + [_report_job("conjecture_report/n=%d" % n,
                           lambda n=n: verify.conjecture_report(n))
               for n in (2, 3, 4, 5)]
            + [_report_job("verify_iota/n=%d/seed=%d" % (n, s),
                           lambda n=n, s=s: verify.verify_iota(
                               n, trials=3, seed=s))
               for n in (2, 3, 4) for s in pick(1)])


# -- identities ----------------------------------------------------------


def _random_matrix_pair(seed):
    """Two square integer matrices of size 1..4, from a job seed."""
    rng = random.Random("sdet-%d" % seed)
    n = rng.randint(1, 4)
    return [[[str(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            for _ in range(2)]


def _sdet_job(seed):
    a, b = _random_matrix_pair(seed)

    def run():
        A = ExactMatrix([[Fraction(v) for v in row] for row in a])
        B = ExactMatrix([[Fraction(v) for v in row] for row in b])
        direct = sdet.sdet(A, B)
        via_coeff = sdet.sdet_via_coeff(A, B)
        return direct == via_coeff, {"sdet": str(direct)}
    return Job("sdet_pair/seed=%d" % seed, run)


def _is_lie_job(kind, indices):
    def run():
        x = getattr(lie_generators, kind)(5, *indices)
        return wedge_rep.is_lie(x), {"is_lie": True}
    return Job("is_lie/%s%s" % (kind, "".join(map(str, indices))), run)


def _bracket_nu_job(i, j, k):
    def run():
        g = lie_generators
        ok = g.kappa(5, i, j).bracket(g.kappa(5, j, k)) == g.nu(5, i, j, k)
        return ok, {"holds": ok}
    return Job("bracket_nu/%d%d%d" % (i, j, k), run)


def _bracket_eta_job(i, j, k, l):
    def run():
        g = lie_generators
        ok = (g.kappa(5, i, l).bracket(g.nu(5, i, j, k))
              == g.eta(5, i, l, j, k)
              and g.kappa(5, i, j).bracket(g.nu(5, i, k, l))
              == g.eta(5, i, j, k, l))
        return ok, {"holds": ok}
    return Job("bracket_eta/%d%d%d%d" % (i, j, k, l), run)


def _cli_job(job_id, argv):
    """Exit code and stdout of one command, with elapsed_ms removed."""
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        text = out.getvalue()
        if "--format" in argv:
            records = json.loads(text)
            for record in records:
                record.pop("elapsed_ms", None)
            text = json.dumps(records, sort_keys=True)
        return code == 0, {"exit": code, "stdout_sha256": _digest(text)}
    return Job(job_id, run)


def _identities(pick):
    jobs = []
    for n, k in ((5, 8), (6, 6), (7, 3)):
        jobs += [_report_job("verify_mtt/n=%d/seed=%d" % (n, s),
                             lambda n=n, s=s: verify.verify_mtt(n, seed=s))
                 for s in pick(k)]
    jobs += [_report_job("verify_mtt/n=%d/symbolic" % n,
                         lambda n=n: verify.verify_mtt(n, symbolic=True))
             for n in (3, 4, 5)]
    jobs.append(_report_job("verify_pft/n=3/symbolic",
                            lambda: verify.verify_pft(3, symbolic=True)))
    for n, k in ((4, 4), (5, 8), (7, 3)):
        jobs += [_report_job("verify_pft/n=%d/seed=%d" % (n, s),
                             lambda n=n, s=s: verify.verify_pft(n, seed=s))
                 for s in pick(k)]
    labels = range(1, 6)
    jobs += [_is_lie_job("kappa", t) for t in combinations(labels, 2)]
    jobs += [_is_lie_job("nu", t) for t in permutations(labels, 3)]
    jobs += [_is_lie_job("eta", t) for t in permutations(labels, 4)]
    jobs += [_bracket_nu_job(*t) for t in permutations(labels, 3)]
    jobs += [_bracket_eta_job(*t) for t in permutations(labels, 4)]
    jobs += [_sdet_job(s) for s in pick(20)]
    jobs += [_cli_job("cli/verify-mtt/seed=%d" % s,
                      ["verify", "mtt", "--n", "5", "--seed", str(s),
                       "--format", "json"]) for s in pick(2)]
    for s in pick(2):
        a, b = _random_matrix_pair(s)
        jobs.append(_cli_job("cli/sdet-eval/seed=%d" % s,
                             ["sdet", "eval", "--matrix-a", json.dumps(a),
                              "--matrix-b", json.dumps(b),
                              "--format", "json"]))
    jobs.append(_cli_job("cli/enumerate-trees/n=5",
                         ["enumerate", "trees", "--n", "5",
                          "--format", "json"]))
    jobs.append(_cli_job("cli/lie-dim/n=4", ["lie", "dim", "--n", "4"]))
    return jobs


_JOB_LISTS = {"charpoly": _charpoly, "lie-space": _lie_space,
             "identities": _identities}
WORKLOADS = tuple(_JOB_LISTS)


def build(workload, seed=None):
    """The jobs of one pass, in order.  With seed None: every job of the
    pool once, for recording golden outputs."""
    if seed is None:
        seen = {}
        for job in _JOB_LISTS[workload](lambda k: range(POOL)):
            seen.setdefault(job.id, job)
        return list(seen.values())
    rng = random.Random(seed)
    return _JOB_LISTS[workload](lambda k: rng.sample(range(POOL), k))


def load_golden(workload):
    with open(GOLDEN_DIR / ("%s.json" % workload)) as handle:
        return json.load(handle)


def run_pass(jobs, golden, tracer=None):
    """Run the jobs one after another (a closed loop with one caller).

    A job fails if it raises, returns a failing verdict, or its output
    differs from the golden output.  Returns the time from the first job
    call to the last verdict, the time of each job (call to verdict), and
    the failures."""
    failures = []
    job_s = []
    t_first = t_job = perf_counter()
    for number, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = number
        try:
            ok, output = job.run()
        except Exception as exc:  # a raising job is a failed verdict
            ok, output = None, "raised %s: %s" % (type(exc).__name__, exc)
        if ok is None:
            failures.append((job.id, output))
        elif not ok:
            failures.append((job.id, "verdict failed"))
        elif golden.get(job.id) != output:
            failures.append((job.id, "output differs from golden"))
        t_verdict = perf_counter()
        job_s.append(t_verdict - t_job)
        t_job = t_verdict
    return {"run_s": t_job - t_first, "job_s": job_s,
            "attempted": len(jobs), "failed": len(failures),
            "failures": failures}
