"""InstantDB benchmark: one run of one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload keyed_served --seed 1 --seconds 20 --trace 0

Prints a line of per-op-kind details, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones
from a traced run (spans written to ``.perfbench_run/trace-<workload>.json``).
An output check that fails after the timed section (op results, stored
rows, crash recovery, forensics) is reported with the metrics:
``correct: false``, each failed check on standard error, exit code 0.  One
that fails before anything was measured (the loaded set-up) prints
``correct: false`` without metrics and exits non-zero.
``--smoke`` runs the same ops and checks at a tenth of the scale.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

WORKLOADS = ("keyed_served", "retention_soak", "scan_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the scale and one set-up: a quick "
                             "run with every output check armed")
    parser.add_argument("--crash-mid-log", action="store_true",
                        help="take the crash image without a checkpoint "
                             "before it; on some seeds recover() then loses "
                             "an acknowledged row or leaves an attribute late")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    import workloads
    from model import CheckFailure

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, tracer,
                                smoke=args.smoke,
                                crash_mid_log=args.crash_mid_log)
    except CheckFailure as failure:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "details": outcome["details"]}))
    if tracer is not None:
        os.makedirs(".perfbench_run", exist_ok=True)
        tracer.write(os.path.join(".perfbench_run", f"trace-{args.workload}.json"))
        from spans import unit
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in outcome["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in outcome["metrics"].items()}
    for failure in outcome["failures"]:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not outcome["failures"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
