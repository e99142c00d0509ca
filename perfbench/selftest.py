"""Self-test of the benchmark at reduced size; exits 0 when every check holds.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, that the reference computation was timed on every untraced
pass, that a tampered committed digest makes the run fail, and that the
benchmark refuses to run in a directory without the program.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import run
import workloads

FAILURES = []


def check(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, info = run.run_benchmark(name, 0, 0, trace, scale="small")
            label = f"{name} trace={trace}"
            check(result["correct"] and result["failed"] == 0, f"{label}: correct, no failed cells {info['problems']}")
            check(set(result["metrics"]) == set(wanted[trace]), f"{label}: emits exactly the named metrics")
            check(
                all(
                    result["metrics"][k]["unit"] == unit and math.isfinite(result["metrics"][k]["value"])
                    for k, unit in wanted[trace].items()
                    if k in result["metrics"]
                ),
                f"{label}: every metric has its unit and a finite value",
            )
            if trace == 0:
                check(
                    len(info["reference_mean_s"]) == len(info["untraced_wall_s"]) > 0
                    and all(r > 0 for r in info["reference_mean_s"])
                    and result["metrics"]["sweep_ref"]["value"] > 0,
                    f"{label}: the reference was timed on every untraced pass",
                )

    committed = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for key, seed in (("seed0", 0), ("any_seed", 1)):
        tampered = copy.deepcopy(committed)
        digest = tampered["small"]["elliptic_grid"][key]
        tampered["small"]["elliptic_grid"][key] = digest[::-1]
        result, info = run.run_benchmark("elliptic_grid", seed, 0, 0, scale="small", digests=tampered)
        check(
            not result["correct"] and any("sha256" in p for p in info["problems"]),
            f"tampered {key} digest fails the run",
        )

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "elliptic_grid", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
