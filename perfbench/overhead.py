"""Tracing overhead: traced minus untraced end-to-end values, seed by seed.

Usage, from the repository root:

    python3 perfbench/overhead.py --workload wn11 --seeds 1,2 --seconds 30

Runs ``run.py`` with ``--trace 0`` and ``--trace 1`` for each seed, one
process at a time, and prints each end-to-end metric of the untraced run
next to the traced run's ``traced.<metric>`` and their difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def result(workload: str, seed: str, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    print(f"{'seed':>4} {'metric':24} {'untraced':>12} {'traced':>12} {'overhead':>9}")
    for seed in args.seeds.split(","):
        plain = result(args.workload, seed, args.seconds, 0)
        traced = result(args.workload, seed, args.seconds, 1)
        for name, m in plain.items():
            other = traced.get(f"traced.{name}")
            if other is None:
                continue
            a, b = m["value"], other["value"]
            print(f"{seed:>4} {name:24} {a:12.5g} {b:12.5g} {(b - a) / a:+9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
