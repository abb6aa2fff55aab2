#!/usr/bin/env python3
"""Steadiness report: run the same build repeatedly and show, for each
workload and metric, the median and the interquartile range as a share of
the median. End-to-end metrics whose spread exceeds a tenth are flagged.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads serve_zipf --runs 5

Each run uses its own seed (first-seed, first-seed + 1, ...). The command,
run length, workloads and bounds come from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

FLAG_SHARE = 0.1


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the check: {result}")
    return result


def spread(values):
    """IQR / median, with quartiles as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in spec["workloads"]),
        help="comma-separated workload names",
    )
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = []
    for workload in args.workloads.split(","):
        results = [
            run_once(spec["command"], workload, args.first_seed + i,
                     spec["run_seconds"], args.trace)
            for i in range(args.runs)
        ]
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med, share = spread(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and share > FLAG_SHARE and name != "setup_s":
                mark = "  <-- spread above 0.1"
                flagged.append((workload, name, share))
            bound_txt = f" bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:<32} median {med:>14.6g} {unit:<10} "
                  f"iqr/median {share:6.3f}{bound_txt}{mark}")
            if mark:
                print("    values: " + " ".join(f"{v:.4g}" for v in values))
    if flagged:
        print("flagged:", ", ".join(f"{w}/{n} ({s:.3f})" for w, n, s in flagged))
    else:
        print("no end-to-end metric spread above 0.1")


if __name__ == "__main__":
    main()
