"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Checks that
- a deliberately wrong golden value and a job that raises each count as a
  failure (pass_ratio below 1, correct false);
- BENCHMARK.json names exactly the metrics run.py reports;
- a traced run of each workload reports every per-layer metric, and its
  self times bear out the workload design: sdet.mu_table dominates
  charpoly, exactmath.rref dominates lie-space, and graphs is the largest
  module on identities.
Takes about a minute; exits 1 on the first failed check.
"""

import json
import subprocess
import sys

import jobs
import run
from tracer import LAYER_METRICS, MODULES

SEED = 0


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def _pass_ratio(job_list, golden):
    result = jobs.run_pass(job_list, golden)
    result.update(traced=False, setup_s=0.0, peak_rss_mb=0.0)
    summary = run.summarize([result], [0.0], trace=0)
    return summary["metrics"]["pass_ratio"]["value"], summary["correct"]


def check_failures_count():
    job_list = jobs.build("identities", SEED)[:5]
    golden = jobs.load_golden("identities")
    ratio, correct = _pass_ratio(job_list, golden)
    check(ratio == 1.0 and correct, "golden outputs pass: pass_ratio 1")

    wrong = dict(golden)
    victim = job_list[0].id
    wrong[victim] = dict(wrong[victim], lhs="0")
    ratio, correct = _pass_ratio(job_list, wrong)
    check(ratio < 1.0 and not correct,
          "a wrong golden value fails: pass_ratio %.3f" % ratio)

    def boom():
        raise ZeroDivisionError("deliberate")
    ratio, correct = _pass_ratio(job_list + [jobs.Job("raises", boom)],
                                 golden)
    check(ratio < 1.0 and not correct,
          "a raising job fails: pass_ratio %.3f" % ratio)


def check_declared_metrics():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(run.WORKLOADS) == list(jobs.WORKLOADS),
          "BENCHMARK.json workloads match run.py and jobs.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS,
          "BENCHMARK.json per_layer metrics match the tracer")
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_traced_runs():
    shares = {}
    for workload in run.WORKLOADS:
        result = traced_run(workload)
        metrics = result["metrics"]
        check(result["correct"] and set(metrics) == set(LAYER_METRICS),
              "%s: traced run passes and reports all %d per-layer metrics"
              % (workload, len(LAYER_METRICS)))
        shares[workload] = {k: v["value"] for k, v in metrics.items()}
    run_s = {w: m["trace.run_s"] for w, m in shares.items()}
    mu = {w: m["sdet.mu_table.self_s"] for w, m in shares.items()}
    rref = {w: m["exactmath.rref.self_s"] for w, m in shares.items()}
    check(mu["charpoly"] > 0.5 * run_s["charpoly"]
          and mu["lie-space"] == 0 and mu["identities"] == 0,
          "sdet.mu_table: %.0f%% of charpoly, 0 elsewhere"
          % (100 * mu["charpoly"] / run_s["charpoly"]))
    check(rref["lie-space"] > 0.5 * run_s["lie-space"]
          and rref["charpoly"] < 0.1 * run_s["charpoly"],
          "exactmath.rref: %.0f%% of lie-space, %.0f%% of charpoly"
          % (100 * rref["lie-space"] / run_s["lie-space"],
             100 * rref["charpoly"] / run_s["charpoly"]))
    ident = shares["identities"]
    largest = max(MODULES, key=lambda mod: ident[mod + ".self_s"])
    check(largest == "graphs",
          "identities: largest module self time is %s" % largest)


def main():
    check_failures_count()
    end_to_end = check_declared_metrics()
    result = run.summarize(
        [{"traced": False, "attempted": 1, "failed": 0, "job_s": [1.0],
          "setup_s": 1.0, "peak_rss_mb": 1.0}], [1.0], trace=0)
    check({k: v["unit"] for k, v in result["metrics"].items()} == end_to_end,
          "BENCHMARK.json end_to_end metrics match run.py")
    check_traced_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
