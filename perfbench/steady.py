#!/usr/bin/env python3
"""Repeat each workload and report how steady its metrics are.

    python3 perfbench/steady.py --runs 10 [--workloads toy-memorize,mid-decode]

Runs ``perfbench/run.py`` once per seed (seeds 1..runs, workloads
interleaved so that slow spells of the machine spread over all of them),
then prints, per workload and end-to-end metric, the median, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. A spread above
the metric's bound in BENCHMARK.json is marked WIDE; the bounds are set
from these figures. The summary is written as JSON under perfbench_runs/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench_runs"
TIMEOUT_S = 900


def run_once(spec, workload, seed, seconds):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    args = p.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: [] for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            r = run_once(spec, w, seed, seconds)
            results[w].append(r)
            print(f"{w} seed {seed}: {r['wall_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)

    summary = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for w in names:
        rs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        entry = {"failed_shares": shares, "wall_s": summarise([r["wall_s"] for r in rs]),
                 "metrics": {}}
        print(f"\n{w}: {len(rs)} runs, wall {entry['wall_s']['median']:.1f}s median, "
              f"failed share {shares}")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            s = summarise([r["metrics"][name]["value"] for r in rs])
            mark = "WIDE" if s["spread"] > bound else ("ok" if s["spread"] > bound / 3 else "steady")
            if name == "setup_s":
                mark += " (spread not gated)"
            entry["metrics"][name] = s
            print(f"  {name:22s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:7.3f} {bound:6.2f}  {mark}")
        summary["workloads"][w] = entry
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    print(f"\nsummary -> {out}")


if __name__ == "__main__":
    main()
