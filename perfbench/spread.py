"""Run one workload of the benchmark once per seed and print each metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py lowlevel_edit 10          # seeds 1..10
    python3 perfbench/spread.py lib_cold 5 --first-seed 11

Run it from the repository root. Each run's full output is kept under
.bench_build/perfbench/spread/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("runs", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    logdir = os.path.join(".bench_build", "perfbench", "spread")
    os.makedirs(logdir, exist_ok=True)

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.time()
        p = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.time() - start
        with open(os.path.join(logdir, f"{args.workload}-seed{seed}.txt"), "w") as f:
            f.write(p.stdout + p.stderr)
        if p.returncode != 0:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
            sys.exit(1)
        res = json.loads(p.stdout.strip().splitlines()[-1])
        print(f"seed {seed} {elapsed:.1f}s correct={res['correct']} failed={res['failed']} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    if args.runs < 2:
        return
    for name, vals in sorted(values.items()):
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:18s} median={med:<12.6g} spread={spread:.4f} bound={bounds.get(name)}")


if __name__ == "__main__":
    main()
