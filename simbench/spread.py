#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 simbench/spread.py --seeds 1-10 --out simbench/reference/set1.jsonl
    python3 simbench/spread.py --summarize simbench/reference/set1.jsonl

For every workload in BENCHMARK.json (or --workloads) and every seed, this
runs `simbench/run.py` once, keeps the `# host` line and the JSON result,
and appends both to --out as one JSON line. It then prints, per workload
and end-to-end metric, the median, the quartiles (`statistics.quantiles`,
n=4) and the spread (q3 - q1) / median against the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def seeds(text):
    """'1-10' or '1,4,7' -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1000)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    host = next((json.loads(l[len("# host "):]) for l in lines if l.startswith("# host ")), {})
    return {"workload": workload, "seed": seed, "host": host, "result": json.loads(lines[-1])}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append every run as a JSON line here")
    ap.add_argument("--summarize", help="report the runs recorded in this file; run nothing")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    runs = []
    if args.summarize:
        with open(args.summarize) as f:
            runs = [json.loads(line) for line in f if line.strip()]
        workloads = [w for w in workloads if any(r["workload"] == w for r in runs)]
    for seed in [] if args.summarize else seeds(args.seeds):
        for w in workloads:
            rec = run_once(w, seed, args.seconds, args.trace)
            runs.append(rec)
            r = rec["result"]
            print(f"# {w} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']}",
                  flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(rec) + "\n")

    traced = args.trace == 1 or any(r["host"].get("trace") == 1 for r in runs)
    metrics = bench["per_layer"] if traced else bench["end_to_end"]
    for w in workloads:
        print(f"\n{w}")
        mine = [r["result"] for r in runs if r["workload"] == w]
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in mine]
            if len(values) < 2:
                continue
            med, q1, q3, s = spread(values)
            bound = m.get("bound")
            flag = "" if bound is None else ("  ok" if s < bound / 3 else "  WIDE")
            limit = "" if bound is None else f"  bound {bound:.2f}"
            print(f"  {m['name']:44s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}"
                  f"  spread {s:6.3f}{limit}{flag}")


if __name__ == "__main__":
    main()
