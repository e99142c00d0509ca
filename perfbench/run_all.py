"""Run every workload, untraced and traced, and print every metric with its unit.

    python3 perfbench/run_all.py [--seed N] [--seconds S]

Each run is a separate ``run.py`` process, one after the other, so that
peak memory and import time are measured per workload.  Prints the
environment, the input properties, the gate verdict, the failed-cell
fraction, the raw wall and CPU seconds of the untraced passes and, for the
traced runs, every traced function's total and self
time and its share of the traced wall time.  Exits 1 if any run fails the
correctness gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    all_ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or len(lines) < 2:
                print(f"== {name} trace={trace}: run.py exited {proc.returncode} without a result")
                all_ok = False
                continue
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            all_ok = all_ok and result["correct"]
            print(f"== {name} trace={trace} seed={args.seed}: passes={info['passes']} "
                  f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
                  f"failed_frac={info['failed_frac']}")
            if trace == 0:
                print(f"   environment {json.dumps(info['environment'], sort_keys=True)}")
                print(f"   input {json.dumps(info['input'], sort_keys=True)}")
            for problem in info["problems"]:
                print(f"   PROBLEM {problem}")
            for metric, entry in result["metrics"].items():
                print(f"   {metric:<45} {entry['value']:>14.6g} {entry['unit']}")
            if trace == 0:
                print("   raw seconds, medians (they drift with the host's speed):")
                print(f"   {'wall_s':<45} {info['wall_s_median']:>14.6g} s")
                print(f"   {'cpu_s':<45} {info['cpu_s_median']:>14.6g} s")
                print(f"   {'setup_s':<45} {statistics.median(info['setup_raw_s']):>14.6g} s")
            if trace == 1:
                print(f"   tail percentile of rh_lab.run_cell: p{info['tail_percentile']}")
                print("   every traced function: total_s, self_s, share of traced wall")
                for layer, secs in info["layer_seconds"].items():
                    share = info["share_of_traced_wall"].get(layer)
                    share_text = f"{share:7.1%}" if share is not None else ""
                    print(f"   {layer:<45} {secs['total']:>10.4f} s {secs['self']:>10.4f} s {share_text}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
