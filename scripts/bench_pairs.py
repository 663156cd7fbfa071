#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads over alternating pairs of runs.

    python scripts/bench_pairs.py A B --workload cls_grid [--workload W ...] --pairs 10 --seconds 20 [--seed 0] [--json PATH]

A and B are checkout roots, each with `perfbench/run.py` and `src/lingalloc`.
Pair i runs `perfbench/run.py --workload W --seed S+i --seconds T --trace 0`
from the root of each checkout; A goes first in even pairs and B in odd ones,
so a drift in machine load weighs on both sides alike. From the last JSON
line of each run the script takes `correct`, `failed` and every metric.

For each end-to-end metric of A's `BENCHMARK.json` it prints the median of A
and of B, A's quartiles (`statistics.quantiles`), how many pairs B won in the
metric's `better` direction, and the median gap in that direction as a share
of A's median, marked `BEYOND` when it is worse than the metric's bound.
A metric is marked `GAIN` when B won at least 9 of every 10 pairs (a tie
counts for neither side) and its median is better than A's by more than
A's quartile spread, the rule for claiming a gain.
Several `--workload` options are compared one after the other, each with
the same pairs, seeds and seconds. It exits 1 when a run fails or reports
wrong outputs, or when a metric of B is worse than A's beyond its bound on
any workload, else 0. Neither checkout is changed.

With `--json PATH` it also writes what it prints to PATH as one JSON object:
each checkout's commit (read from its `.git` as `perfbench/run.py` reads
it, with `+dirty` appended when its tracked files differ from it), each
pair's seed, run order and per-side metric values, the counts of runs not
correct and of failed operations, and per end-to-end metric the
medians, A's quartiles, B's wins, the gap, the bound, whether the gap is
beyond it and whether B gains (`gain`). With several workloads the file
holds one such object per workload, keyed by its name.
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
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to compare; repeat for several")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, help="also write the comparison to this file")
    args = parser.parse_args(argv)
    if len(set(args.workload)) < len(args.workload):
        parser.error("a workload is given more than once")
    return args


def head_sha(root: Path):
    """Commit of the checkout at `root`, read from its `.git` without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def git_sha(root: Path):
    """`head_sha(root)`, marked `+dirty` when `git status` reports tracked
    files that differ from it; as read where git cannot say."""
    sha = head_sha(root)
    if sha is None:
        return None
    try:
        status = subprocess.run(["git", f"--git-dir={root / '.git'}", f"--work-tree={root}", "status",
                                 "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
    except OSError:  # no git program
        return sha
    return f"{sha}+dirty" if status.returncode == 0 and status.stdout.strip() else sha


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


def compare(metric: dict, a: list, b: list) -> dict:
    """One end-to-end metric of A's and B's runs, pair by pair, against its bound."""
    lower = metric["better"] == "lower"
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0], None, a[0])
    a_med, b_med = statistics.median(a), statistics.median(b)
    # positive when B is worse than A
    worse = (b_med - a_med) if lower else (a_med - b_med)
    gap = worse / abs(a_med) if a_med else worse
    won = sum(y < x if lower else y > x for x, y in zip(a, b))
    return {"name": metric["name"], "unit": metric["unit"], "better": metric["better"],
            "a_median": a_med, "a_quartiles": [q1, q3], "b_median": b_med,
            "b_won": won, "pairs": len(a), "gap": gap, "bound": metric["bound"],
            "beyond": gap > metric["bound"],
            "gain": 10 * won >= 9 * len(a) and -worse > q3 - q1}


def compare_workload(args, workload: str, metrics: list) -> dict:
    """Run the pairs of one workload, print the comparison and return it as a report."""
    runs = {"A": [], "B": []}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        pair = {"pair": i, "seed": seed, "order": list(order)}
        for side in order:
            root = args.a if side == "A" else args.b
            out = bench(root, workload, seed, args.seconds)
            runs[side].append(out)
            pair[side] = {"correct": out["correct"], "failed": out["failed"],
                          "metrics": {name: m["value"] for name, m in out["metrics"].items()}}
            print(f"pair {i} seed {seed} {side}: correct {out['correct']}, failed {out['failed']}, "
                  f"run_s {out['metrics']['run_s']['value']:.4f}", flush=True)
        pairs.append(pair)
    status = 0
    not_correct, failed = {}, {}
    for side, outs in runs.items():
        not_correct[side] = sum(not out["correct"] for out in outs)
        failed[side] = sum(out["failed"] for out in outs)
        print(f"{side}: {not_correct[side]} of {len(outs)} runs not correct, "
              f"{failed[side]} operations failed")
        status |= not_correct[side] > 0
    print(f"{'metric':<12} {'A median':>11} {'A quartiles':>23} {'B median':>11} "
          f"{'B won':>6} {'gap':>8} {'bound':>6}")
    rows = []
    for metric in metrics:
        name = metric["name"]
        row = compare(metric, [out["metrics"][name]["value"] for out in runs["A"]],
                      [out["metrics"][name]["value"] for out in runs["B"]])
        rows.append(row)
        status |= row["beyond"]
        q1, q3 = row["a_quartiles"]
        won = f"{row['b_won']}/{row['pairs']}"
        print(f"{name:<12} {row['a_median']:>11.5g} {f'{q1:.5g}-{q3:.5g}':>23} {row['b_median']:>11.5g} "
              f"{won:>6} {row['gap']:>+8.2%} {row['bound']:>6.0%}{'  BEYOND' if row['beyond'] else ''}"
              f"{'  GAIN' if row['gain'] else ''}")
    return {"workload": workload, "seconds": args.seconds, "seed": args.seed,
            "commits": {"A": git_sha(args.a), "B": git_sha(args.b)}, "pairs": pairs,
            "not_correct": not_correct, "failed": failed, "metrics": rows,
            "exit_status": int(status)}


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((args.a / "BENCHMARK.json").read_text())["end_to_end"]
    reports = {}
    for workload in args.workload:
        if len(args.workload) > 1:
            print(f"workload {workload}", flush=True)
        reports[workload] = compare_workload(args, workload, metrics)
    if args.json is not None:
        stored = reports if len(reports) > 1 else reports[args.workload[0]]
        args.json.write_text(json.dumps(stored, indent=1) + "\n")
    return max(report["exit_status"] for report in reports.values())


if __name__ == "__main__":
    sys.exit(main())
