"""Time-to-verdict benchmark of lie_elements.

    python3 bench/run.py --workload charpoly --seed 1 --seconds 40 --trace 0

Runs passes of the workload's verification jobs, one after another, each
pass in a fresh interpreter (bench/one_pass.py), until --seconds have gone
by.  Every job's verdict and output are checked against bench/golden.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
- setup_s, fresh interpreter to first job ready: the median over the
  passes and the set-up-only interpreters started before each pass;
- run_s, first job call to last verdict: the sum over the jobs of each
  job's median time over the passes;
- peak_rss_mb: the median over the passes;
- pass_ratio: jobs passed / jobs attempted.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (medians), plus trace.run_s and
trace.overhead_ratio, traced over untraced run_s.  See bench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The workloads of jobs.py, which this process does not import: it only
# starts the passes.
WORKLOADS = ("charpoly", "lie-space", "identities")

# A pass takes about 8 s untraced; this only stops a hung one.
PASS_TIMEOUT_S = 120

# Set-up-only interpreters started before each pass.  Set-up takes about
# 0.15 s, so a handful of extra samples steadies its median cheaply.
SETUP_PROBES = 2


class PassError(RuntimeError):
    """A pass ended without a result."""


def run_pass(workload, seed, mode):
    """Start one_pass.py in MODE; its result, with setup_s added."""
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
         mode],
        cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError("pass exited with %d: %s"
                        % (proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t_spawn
    result["traced"] = mode == "trace"
    return result


def run_passes(workload, seed, seconds, trace):
    """Passes while the next one is expected to end within `seconds`; with
    trace, alternate untraced and traced passes and run at least one of
    each."""
    t0 = time.perf_counter()
    passes = []
    setups = []
    longest = 0.0
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        t_pass = time.perf_counter()
        setups += [run_pass(workload, seed, "setup")["setup_s"]
                   for _ in range(SETUP_PROBES)]
        result = run_pass(workload, seed, "trace" if traced else "run")
        longest = max(longest, time.perf_counter() - t_pass)
        passes.append(result)
        setups.append(result["setup_s"])
        sys.stderr.write("pass %d%s: run_s=%.3f setup_s=%.3f failed=%d/%d\n"
                         % (len(passes), " (traced)" if traced else "",
                            result["run_s"], result["setup_s"],
                            result["failed"], result["attempted"]))
        for job_id, reason in result["failures"][:10]:
            sys.stderr.write("  FAIL %s: %s\n" % (job_id, reason))
        enough = not trace or len(passes) >= 2
        if enough and time.perf_counter() - t0 + longest > seconds:
            return passes, setups


def typical_pass_s(passes):
    """Each job's median time over the passes, summed over the jobs: the
    time from first call to last verdict of a typical pass.  A per-job
    median drops a burst of machine speed-up or slow-down that hits one
    pass's job, where a median of whole passes keeps part of it."""
    return sum(statistics.median(times)
               for times in zip(*(p["job_s"] for p in passes)))


def summarize(passes, setups, trace):
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    run_s = typical_pass_s(untraced)
    if trace:
        metrics = {}
        from tracer import LAYER_METRICS
        for name, unit in LAYER_METRICS.items():
            if name == "trace.run_s":
                value = typical_pass_s(traced)
            elif name == "trace.overhead_ratio":
                value = typical_pass_s(traced) / run_s
            else:
                # a count is the same in every pass of one seed; keep it whole
                median = (statistics.median_low if unit == "count"
                          else statistics.median)
                value = median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in untraced), "unit": "MB"},
            "pass_ratio": {"value": (attempted - failed) / attempted,
                           "unit": "ratio"},
        }
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lie_elements").is_dir():
        sys.stderr.write("error: no src/lie_elements next to %s\n" % HERE)
        return 2
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds,
                                    args.trace)
    except (PassError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    print(json.dumps(summarize(passes, setups, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
