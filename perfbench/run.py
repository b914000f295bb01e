#!/usr/bin/env python3
"""Repository benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload fig10-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from the
checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the separate traced run and prints the per-layer
metrics (and writes its spans under ``.perfbench-out/``).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--size small`` is the seconds-long shape the
benchmark's own tests use.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from common import END_TO_END, PER_LAYER, SRC, Tally, result_line

#: workload -> the module that runs it
WORKLOADS = {"fig10-sweep": "fig10", "litmus-verify": "litmus_verify",
             "serve-batch": "serve_batch"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_probe:
        module.setup(args.seed, args.size)
        return 0

    tally = Tally()
    if args.trace:
        metrics, table = module.run_traced(args.seed, args.size,
                                           tally), PER_LAYER
    else:
        metrics, table = module.run(args.seed, args.seconds, args.size,
                                    tally), END_TO_END
    tally.report()
    print(result_line(tally.failed == 0, tally.attempted, tally.failed,
                      metrics, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
