#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs each named workload once per seed (untraced), then prints, for every
end-to-end metric, the median and the distance between the first and
third quartile as a share of the median (`statistics.quantiles(n=4)`),
beside a third of the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads paper_suite,fault_storm \
        --seeds 1-10 [--seconds 30]

Run it from the repository root after building the benchmark once.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            assert result["correct"], result
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            limit = bounds[name] / 3
            flag = "ok" if spread < limit or name == "setup_s" else "WIDE"
            print(f"{workload:12} {name:12} median {med:12.6g}  spread {spread:7.4f}"
                  f"  (bound/3 {limit:.4f}) {flag}  runs {' '.join(f'{v:.6g}' for v in vs)}")


if __name__ == "__main__":
    main()
