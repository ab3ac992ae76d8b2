"""Benchmark of the hyperweave verifier: time to verdict on named workloads.

    python3 perfbench/run.py --workload seq-atomic --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout; it needs ``src/hyperweave`` and
``benchmarks/`` there and builds nothing.  The workloads, the metrics and the
layer each per-layer metric belongs to are described in perfbench/README.md.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole passes while the next one is predicted "
                        "to end within this many seconds (at least one pass)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="0: end-to-end metrics, untraced; 1: per-layer metrics")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [d for d in ("src/hyperweave", "benchmarks")
               if not os.path.isdir(os.path.join(ROOT, d))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from "
              "the root of a hyperweave source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench
    if args.workload not in bench.workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.main(ROOT, args)


if __name__ == "__main__":
    sys.exit(main())
