#!/usr/bin/env python3
"""Click-level benchmark of the Magnet reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload browse-recipes --seed 1 \\
        --seconds 24 --trace 0

Workloads: ``browse-recipes`` (HTTP sessions on the 6,444-recipe
corpus), ``refine-linked`` (in-process path refinement on the 64k linked
corpus), ``ingest-recipes`` (ingest and publish beside live sessions).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--smoke``
runs the same checks on small corpora in seconds.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

WORKLOADS = ("browse-recipes", "refine-linked", "ingest-recipes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small corpora and one set-up: the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    began = time.monotonic()
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    from common import HASH_SEED, require_source

    require_source()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order (and with it every tie order) must not
        # vary between runs: restart under the fixed hash seed.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script, *argv], env)

    if args.workload == "browse-recipes":
        import browse as workload
    elif args.workload == "refine-linked":
        import refine_linked as workload
    else:
        import ingest as workload
    result = workload.run(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    for reason in result.ops.unexpected()[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    notes = {"workload": args.workload, "wall_s": time.monotonic() - began}
    print(json.dumps({**notes, **result.notes}, sort_keys=True))
    print(json.dumps(result.as_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
