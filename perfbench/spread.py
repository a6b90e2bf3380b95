#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed on each named workload and reports, per
end-to-end metric, the median and quartiles of the runs and their spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json. Run from the
root of the repository:

    python3 perfbench/spread.py --workloads arbiter_1k numa_ycsb --seeds 1-10

Exits non-zero when a run fails its output checks or a spread (setup_s
excepted) exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed",
                                      str(seed), "--seconds",
                                      str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED "
                      f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.6g}" for k, v in values.items()), flush=True)
        for metric in bench["end_to_end"]:
            runs = values[metric["name"]]
            if len(runs) < 2:
                continue
            q1, q2, q3 = stats.quartiles(runs)
            spread = stats.relative_spread(runs)
            bound = metric["bound"]
            verdict = ("ok" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            if spread > bound and metric["name"] != "setup_s":
                ok = False
            print(f"  {workload:<16} {metric['name']:<18} median {q2:<12.6g}"
                  f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%} "
                  f"bound {bound:.0%} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
