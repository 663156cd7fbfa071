#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload over alternating pairs of runs.

    python scripts/bench_pairs.py A B --workload cls_grid --pairs 10 --seconds 20 [--seed 0]

A and B are checkout roots, each with `perfbench/run.py` and `src/lingalloc`.
Pair i runs `perfbench/run.py --workload W --seed S+i --seconds T --trace 0`
from the root of each checkout; A goes first in even pairs and B in odd ones,
so a drift in machine load weighs on both sides alike. From the last JSON
line of each run the script takes `correct`, `failed` and every metric.

For each end-to-end metric of A's `BENCHMARK.json` it prints the median of A
and of B, A's quartiles (`statistics.quantiles`), how many pairs B won in the
metric's `better` direction, and the median gap in that direction as a share
of A's median, marked `BEYOND` when it is worse than the metric's bound.
It exits 1 when a run fails or reports wrong outputs, or when a metric of B
is worse than A's beyond its bound, else 0. Neither checkout is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout root of the baseline")
    parser.add_argument("b", type=Path, help="checkout root of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one `--trace 0` run in `root`; SystemExit if the run fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {root}: {' '.join(cmd[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((args.a / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
            root = args.a if side == "A" else args.b
            out = bench(root, args.workload, seed, args.seconds)
            runs[side].append(out)
            print(f"pair {i} seed {seed} {side}: correct {out['correct']}, failed {out['failed']}, "
                  f"run_s {out['metrics']['run_s']['value']:.4f}", flush=True)
    status = 0
    for side, outs in runs.items():
        wrong = sum(not out["correct"] for out in outs)
        failed = sum(out["failed"] for out in outs)
        print(f"{side}: {wrong} of {len(outs)} runs not correct, {failed} operations failed")
        status |= wrong > 0
    print(f"{'metric':<12} {'A median':>11} {'A quartiles':>23} {'B median':>11} "
          f"{'B won':>6} {'gap':>8} {'bound':>6}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [out["metrics"][name]["value"] for out in runs["A"]]
        b = [out["metrics"][name]["value"] for out in runs["B"]]
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0], None, a[0])
        won = sum(y < x if lower else y > x for x, y in zip(a, b))
        a_med, b_med = statistics.median(a), statistics.median(b)
        # positive when B is worse than A
        worse = (b_med - a_med) if lower else (a_med - b_med)
        gap = worse / abs(a_med) if a_med else worse
        beyond = gap > metric["bound"]
        status |= beyond
        print(f"{name:<12} {a_med:>11.5g} {f'{q1:.5g}-{q3:.5g}':>23} {b_med:>11.5g} "
              f"{f'{won}/{len(a)}':>6} {gap:>+8.2%} {metric['bound']:>6.0%}"
              f"{'  BEYOND' if beyond else ''}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
