#!/usr/bin/env python3
"""Compare a parent and a changed checkout on the repository benchmark.

    python3 perfbench/compare.py run PARENT_DIR CHANGE_DIR --out pairs.json
        [--pairs 10] [--seed0 1000] [--workloads fig09_sweep ...]
    python3 perfbench/compare.py judge pairs.json [--bench BENCHMARK.json]

`run` runs `perfbench/run.py --trace 0` in both checkouts for every
workload, pair by pair with the same seed on both sides, alternating
which side goes first, and saves the final JSON lines. `judge` applies
the rule for claiming a gain on a noisy shared host to every end-to-end
metric of every workload and prints one row per workload:

  gain        the change wins at least 9/10 of the pairs (ties count
              for neither) and the medians differ, in its favour, by
              more than the parent's quartile spread;
  unresolved  the parent's quartile spread is wider than the metric's
              bound, and not every change run beats every parent run;
  REGRESSION  the change's median is worse than the parent's by more
              than the bound;
  same        none of the above.

It exits 1 when any metric regresses or the change fails more
operations than the parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def run_one(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no "
                         f"result (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def cmd_run(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    pairs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for workload in workloads:
            pair = {"workload": workload, "seed": seed,
                    "first": order[0][0]}
            for side, checkout in order:
                pair[side] = run_one(checkout, workload, seed,
                                     bench["run_seconds"])
            pairs.append(pair)
            print(f"pair {i} {workload} done", file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"pairs": pairs}, fh, indent=1)
    return 0


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction, bound):
    """Judge one metric from paired runs: parent[i] ran with change[i]."""
    n = len(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    q1, p_med, q3 = benchlib.quartiles(parent)
    c_med = statistics.median(change)
    gain = (c_med - p_med) if direction == "higher" else (p_med - c_med)
    rel = gain / abs(p_med) if p_med else 0.0
    spread = (q3 - q1) / abs(p_med) if p_med else float("inf")
    if n >= 10 and wins * 10 >= 9 * n and gain > q3 - q1:
        label = "gain"
    elif spread > bound and not all(better(c, p, direction)
                                    for p in parent for c in change):
        label = "unresolved"
    elif -rel > bound:
        label = "REGRESSION"
    else:
        label = "same"
    return {"label": label, "wins": wins, "pairs": n, "rel": rel,
            "spread": spread}


def judge(pairs, metrics):
    """{workload: {metric: verdict}} plus failed-operation totals."""
    rows = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        row = {}
        for m in metrics:
            parent = [p["parent"]["metrics"][m["name"]]["value"]
                      for p in mine]
            change = [p["change"]["metrics"][m["name"]]["value"]
                      for p in mine]
            row[m["name"]] = verdict(parent, change, m["better"], m["bound"])
        row["_failed"] = (sum(p["parent"]["failed"] for p in mine),
                          sum(p["change"]["failed"] for p in mine))
        rows[workload] = row
    return rows


def cmd_judge(args):
    with open(args.bench) as fh:
        metrics = json.load(fh)["end_to_end"]
    with open(args.pairs_file) as fh:
        pairs = json.load(fh)["pairs"]
    bad = False
    for workload, row in judge(pairs, metrics).items():
        failed_parent, failed_change = row.pop("_failed")
        cells = [f"{name} {v['label']} {v['rel']:+.1%} "
                 f"({v['wins']}/{v['pairs']} wins, spread {v['spread']:.1%})"
                 for name, v in row.items()]
        print(f"{workload}: " + "; ".join(cells) +
              f"; failed ops parent {failed_parent} change {failed_change}")
        bad |= any(v["label"] == "REGRESSION" for v in row.values())
        bad |= failed_change > failed_parent
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run paired parent/change measurements")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("--out", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1000)
    r.add_argument("--workloads", nargs="*")
    j = sub.add_parser("judge", help="apply the gain/regression rule")
    j.add_argument("pairs_file")
    j.add_argument("--bench", default=os.path.join(os.path.dirname(HERE),
                                                   "BENCHMARK.json"))
    args = ap.parse_args()
    if args.cmd == "run":
        if args.pairs < 10:
            ap.error("--pairs must be at least 10")
        return cmd_run(args)
    return cmd_judge(args)


if __name__ == "__main__":
    sys.exit(main())
