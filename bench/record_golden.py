"""Record the golden output of every pool job from the current source.

    python3 bench/record_golden.py [WORKLOAD ...]

Writes bench/golden/<workload>.json.  Refuses to write a workload whose
jobs do not all pass their own verdict.  The committed golden files were
recorded from the package before any optimisation; re-record only when a
change is meant to alter an output, and say so.
"""

import json
import sys

import jobs


def record(workload):
    golden = {}
    for job in jobs.build(workload):
        ok, output = job.run()
        if not ok:
            raise SystemExit("%s: verdict failed, nothing written" % job.id)
        golden[job.id] = output
    path = jobs.GOLDEN_DIR / ("%s.json" % workload)
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    print("%s: %d jobs -> %s" % (workload, len(golden), path))


def main(argv):
    for workload in argv or jobs.WORKLOADS:
        if workload not in jobs.WORKLOADS:
            raise SystemExit("unknown workload %r" % workload)
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
