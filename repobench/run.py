"""Repository benchmark: one command for every workload.

Run from the root of a checkout::

    python3 repobench/run.py --workload chaos_frontier --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the environment fingerprint and run details.  Without
the program's sources beside it the benchmark exits non-zero and prints
no result.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

import harness

# Before anything imports NumPy or the program: one BLAS/OpenMP thread
# here as well as in every child, and no program-side instrumentation.
harness.prepare_env(os.environ)

WORKLOADS = ("chaos_frontier", "fabric_frontier", "serve_ledger")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        harness.require_program()
        module = importlib.import_module(args.workload)
        if args.workload == "serve_ledger":
            outcome = module.run(args.seed, args.seconds, bool(args.trace))
        else:
            import batch
            outcome = batch.run_batch(module, args.seed, args.seconds,
                                      bool(args.trace))
        env = harness.fingerprint()
    except harness.BenchError as exc:
        print(f"repobench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(harness.WORK_DIR)     # each workload removes its own
        except OSError:
            pass
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": env, "info": outcome.info}))
    print(harness.result_line(outcome.correct, outcome.attempted,
                              outcome.failed, outcome.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
