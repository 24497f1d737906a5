"""One workload run in a fresh process; prints one JSON record as its last line.

Usage: python3 bench/child.py --workload NAME --seed N [--trace SPANS_JSON]

The record holds the monotonic time at which set-up ended (``ready``), the
run's wall time, the process's own peak RSS, the output checks and the
seeded-output checksum.  With ``--trace`` the quantquad functions listed in
``tracing.py`` are wrapped first; the spans are written to the given file and
the per-layer metrics are added to the record.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports quantquad: part of set-up)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS_JSON", default=None,
                        help="trace the run and write its span records to this file")
    args = parser.parse_args()

    setup, run = WORKLOADS[args.workload]
    inputs = setup(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    undo = tracing.install(tracer) if tracer else []
    ready = time.monotonic()

    start, cpu_start = time.perf_counter(), time.process_time()
    outcome = run(inputs)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start

    tracing.uninstall(undo)
    record = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        top = tracing.top_level_time(tracer.spans)
        outcome.check("span self times sum to top-level span time",
                      abs(sum(tracing.self_times(tracer.spans)) - top) <= 1e-6 * max(1.0, top))
        record["layers"] = tracing.layer_metrics(tracer.spans, wall)
        with open(args.trace, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "wall_s": wall,
                       "spans": tracing.span_records(tracer.spans)}, handle)
    record["checks"] = outcome.checks
    record["checksum"] = outcome.checksum()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
