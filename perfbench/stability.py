#!/usr/bin/env python3
"""Run-to-run stability of the end-to-end metrics, with drift on record.

    python3 perfbench/stability.py [--seeds 10] [--seconds S]
        [--workloads atlas_gen,cdn_col,...]

Runs `perfbench/run.py` once per (workload, seed) in two sets: one
interleaved across workloads (seed-major) and one in per-workload blocks.
For each set, workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median, beside the metric's bound
from BENCHMARK.json. It also prints the host.ref_loop_ms drift probe of
each set, and for every metric how far the second set's median moved from
the first's. A spread above a third of its bound, or a second median worse
than the first by more than the bound, is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROBE = "host.ref_loop_ms"


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=Path.cwd(), stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    values = {n: m["value"] for n, m in json.loads(lines[-1])["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "info" and parts[1] == PROBE:
            values[PROBE] = float(parts[2])
    print(f"  {workload} seed {seed}: " +
          ", ".join(f"{k}={v:.6g}" for k, v in values.items()),
          file=sys.stderr, flush=True)
    return values


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    orders = ["interleaved", "blocks"]
    # Each set uses its own seeds, as two sets of driver runs would.
    seed_base = {"interleaved": 1, "blocks": 1001}

    sets = {}
    for order in orders:
        seeds = [seed_base[order] + i for i in range(args.seeds)]
        plan = ([(w, s) for s in seeds for w in workloads]
                if order == "interleaved"
                else [(w, s) for w in workloads for s in seeds])
        print(f"set '{order}': {len(plan)} runs", file=sys.stderr, flush=True)
        runs = {w: [] for w in workloads}
        for w, s in plan:
            runs[w].append(run(w, s, seconds))
        sets[order] = {w: {m: summarize([r[m] for r in rs]) for m in rs[0]}
                       for w, rs in runs.items()}

    flagged = 0
    for order, table in sets.items():
        print(f"\n## set: {order} ({args.seeds} seeds, {seconds} s runs)")
        print("| workload | metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for w, metrics in table.items():
            for m, s in metrics.items():
                bound = bounds[m]["bound"] if m in bounds else None
                flag = ""
                if bound is not None and s["spread"] > bound / 3:
                    flag = " !"
                    flagged += 1
                print(f"| {w} | {m} | {s['median']:.6g} | {s['q1']:.6g} | "
                      f"{s['q3']:.6g} | {s['spread']:.3f}{flag} | "
                      f"{'' if bound is None else bound} |")
    first, second = sets[orders[0]], sets[orders[1]]
    print(f"\n## {orders[1]} median vs {orders[0]} median")
    print("| workload | metric | change | worse by | bound |")
    print("|---|---|---|---|---|")
    for w in workloads:
        for m in first[w]:
            a, b = first[w][m]["median"], second[w][m]["median"]
            change = b / a - 1 if a else 0.0
            worse = 0.0
            bound = None
            if m in bounds:
                bound = bounds[m]["bound"]
                worse = change if bounds[m]["better"] == "lower" else -change
            flag = " !" if bound is not None and worse > bound else ""
            flagged += bool(flag)
            print(f"| {w} | {m} | {change:+.3f} | {max(worse, 0):.3f}{flag} "
                  f"| {'' if bound is None else bound} |")
    print(f"\n{flagged} flagged", file=sys.stderr)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
