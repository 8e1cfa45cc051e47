"""One benchmark pass in a fresh interpreter.

    python3 bench/one_pass.py WORKLOAD SEED MODE

Imports the package from the checkout, builds the seeded jobs of the
workload and notes the CLOCK_MONOTONIC time at which the first job is
ready.  MODE "setup" stops there; "run" runs the jobs once, and "trace"
runs them with the span tracer installed.  Prints one JSON line: the ready
time and, unless MODE is "setup", the run's timings and failures, the
process's peak resident memory and, when traced, the per-layer metrics.
bench/run.py starts this script once per pass, so every pass starts with
cold caches.
"""

import json
import resource
import sys
import time


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import jobs
    golden = jobs.load_golden(workload)
    job_list = jobs.build(workload, seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result = jobs.run_pass(job_list, golden, tracer)
    result["ready"] = ready
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
