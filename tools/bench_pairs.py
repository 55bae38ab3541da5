"""Paired benchmark runs of HEAD against a git revision.

Usage: ``python tools/bench_pairs.py --against REV --out BENCH_name.json``
``[--run WORKLOAD:SEED ...]``

REV and HEAD are exported with ``git archive``, as ``tools/parity.py`` does,
into sibling directories whose paths have the same length: peak RSS moves
by tens of MB between copies of the same code in different places, so both
sides run from the same kind of copy. For each ``--run`` (default: every
workload of ``BENCHMARK.json`` with seed 1), the benchmark's command runs
``PAIRS`` times in each tree for the benchmark's ``run_seconds``, one process
at a time, alternating which tree runs first. The output file holds
both commits, every run's two lines (environment with host speed, then the
result) and, per end-to-end metric, each side's median and quartiles, the
pairs HEAD won and lost (ties count for neither), the change of the
medians, whether it exceeds the parent's interquartile range, and whether
a gain may be claimed: HEAD won at least 9 in 10 of the pairs and its
median lies beyond that range. It is rewritten after every pair, so an
interrupted run keeps the pairs it ran.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from parity import ROOT, ParityError, export

PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def command(spec: dict, workload: str, seed) -> list[str]:
    """The benchmark's command for one run of ``workload`` with ``seed``."""
    return spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]


def bench(tree: Path, argv: list[str]) -> dict:
    """One benchmark run of ``argv`` in ``tree``: its environment line and its result line."""
    done = subprocess.run(
        argv, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or len(lines) < 2:
        raise ParityError(f"perfbench in {tree} exited {done.returncode}:\n{done.stderr.strip()}")
    return {"environment": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, wins, losses, median change, claim rule."""
    out = {}
    for metric, direction in better.items():
        sides = {side: [p[side]["result"]["metrics"][metric]["value"] for p in pairs]
                 for side in ("parent", "change")}
        sign = 1.0 if direction == "higher" else -1.0
        deltas = [sign * (c - p) for p, c in zip(sides["parent"], sides["change"])]
        parent, change = _spread(sides["parent"]), _spread(sides["change"])
        wins = sum(d > 0 for d in deltas)
        beyond = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        out[metric] = {
            "better": direction, "parent": parent, "change": change,
            "wins": wins, "losses": sum(d < 0 for d in deltas),
            "median_change": (change["median"] / parent["median"] - 1.0
                              if parent["median"] else None),
            "beyond_parent_iqr": beyond,
            "claim_rule_met": 10 * wins >= 9 * len(pairs) and beyond,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--run", nargs="+", metavar="WORKLOAD:SEED")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [(name, int(seed)) for name, seed in
            (r.split(":") for r in args.run or [f"{w['name']}:1" for w in spec["workloads"]])]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "parent": {"rev": args.against, "commit": _git("rev-parse", f"{args.against}^{{commit}}"),
                   "src_tree": _git("rev-parse", f"{args.against}:src")},
        "change": {"rev": "HEAD", "commit": _git("rev-parse", "HEAD"),
                   "src_tree": _git("rev-parse", "HEAD:src")},
        "command": command(spec, "W", "S"),
        "pairs_per_run": PAIRS,
        "runs": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        try:
            export(args.against, trees["parent"])
            export("HEAD", trees["change"])
            for name, seed in runs:
                key = f"{name}:{seed}"
                pairs = report["runs"].setdefault(key, {"pairs": []})["pairs"]
                for k in range(PAIRS):
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = bench(trees[side], command(spec, name, seed))
                    pairs.append(pair)
                    if len(pairs) >= 2:
                        report["runs"][key]["summary"] = summary(pairs, better)
                    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
                    print(f"{key} pair {k + 1}/{PAIRS} done", file=sys.stderr)
        except ParityError as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
