"""zetatower benchmark: time the CLI ``sweep`` end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload elliptic_grid --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in and
driven in-process through ``zetatower.cli.main(["sweep", "--curves", FILE,
...])`` with ``--jobs 1``.  One run repeats whole sweeps ("passes") until
about ``--seconds`` have elapsed and reports medians over the passes.

``--trace 0`` reports the end-to-end metrics: ``sweep_ref``, the wall time
of the ``cli.main`` call in units of a fixed reference computation sampled
every 20 ms while it runs (see ``calib.py``), as a median over the passes;
``peak_rss_mb``; and ``setup_s`` (a fresh import of the package, input
generation and writing the curves file; done four times before every pass,
so that the samples spread over the run, each right after a block of
reference chunks; the median of their ratios, times the nominal chunk
duration ``calib.REFERENCE_S``).  The raw wall, CPU and set-up seconds are
in the ``info`` line.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics from the traced ones (see ``tracer.py``);
the spans are written to ``.perfbench/spans-<workload>.jsonl``.

Every pass goes through the correctness gate: expected exit code, no cell
errors, the expected per-check pass/fail counts, byte-identical reports
across the passes of a run, and the committed report digest (for seed 0, and
for every seed where the report does not depend on it).  A run that fails
the gate prints ``"correct": false`` and exits 1.  The last line of stdout is
the result object; the line before it is an ``info`` object with the
environment, input properties, per-pass figures and any gate problems.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calib
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
EXPECTED_EXIT = 0
SETUP_REPEATS_PER_PASS = 4
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# Traced functions that run on every workload get their times as per-layer
# metrics.  The others (numeric RH, the miracle, interlacing and ratio-bound
# checks) run on some workloads only, where a time would read 0 on every run;
# they get call counts as metrics and their times in info["layer_seconds"].
TIMED_LAYERS = tuple(
    n for n in tracer.SPAN_NAMES
    if n not in {
        "rh_lab.rh_numeric",
        "invariants.counting_miracle_check",
        "invariants.interlacing_poly",
        "invariants.interlacing_sign_check",
        "mult_struct.elliptic_beta_recursion",
        "mult_struct.ratio_bounds_check",
    }
)


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def fresh_import():
    """Import zetatower.cli from this checkout's src/, discarding any earlier import."""
    if not (SRC / "zetatower" / "__init__.py").is_file():
        raise SetupError(f"no zetatower package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "zetatower" or n.startswith("zetatower.")]:
        del sys.modules[name]
    cli = importlib.import_module("zetatower.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"imported {cli.__file__}, not the package under {SRC}")
    return cli


def set_up(name, seed, scale, curves_path):
    """Import, generate and write the inputs: (curves, sweep argv, seconds)."""
    start = time.perf_counter()
    fresh_import()
    curves, argv = workloads.generate(name, seed, scale)
    curves_path.write_text(json.dumps(curves, indent=1) + "\n", encoding="utf-8")
    return curves, argv, time.perf_counter() - start


def timed_set_up(name, seed, scale, curves_path):
    """One set-up sample: (seconds, seconds in reference chunks timed just before)."""
    gc.collect()  # garbage of the previous pass is not set-up work
    chunk_s = calib.block_mean_s()
    seconds = set_up(name, seed, scale, curves_path)[2]
    return seconds, seconds / chunk_s


def run_pass(curves_path, report_path, argv, sampler=None):
    """One ``zetatower sweep``: (exit code, wall s, cpu s, report bytes or None).

    With a ``calib.Sampler`` the reference runs during the sweep, and the
    times returned exclude it.
    """
    cli = sys.modules["zetatower.cli"]
    if report_path.exists():
        report_path.unlink()
    gc.collect()
    with sampler or contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(["sweep", "--curves", str(curves_path), *argv, "--output", str(report_path)])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        cpu1, wall1 = time.process_time(), time.perf_counter()
    wall, cpu = wall1 - wall0, cpu1 - cpu0
    if sampler is not None:
        wall, cpu = wall - sampler.busy_s, cpu - sampler.busy_cpu_s
        if not sampler.samples:  # a sweep shorter than the sampling interval
            sampler.sample()
    report = report_path.read_bytes() if report_path.exists() else None
    return rc, wall, cpu, report


def gate_pass(rc, report, cells, expected_counts):
    """(failed cells, problems) for one pass."""
    problems = [] if rc == EXPECTED_EXIT else [f"exit code {rc}, expected {EXPECTED_EXIT}"]
    if report is None or rc not in (0, 1):  # 2 and 3 abort the whole sweep
        return cells, problems or ["no report written"]
    data = json.loads(report)
    summary = data["summary"]
    failed = sum(1 for cell in data["cells"] if "error" in cell)
    if summary["cells"] != cells or len(data["cells"]) != cells:
        problems.append(f"{summary['cells']} cells reported, expected {cells}")
    if summary["errors"] != 0:
        problems.append(f"summary.errors = {summary['errors']}")
    if summary["per_check"] != expected_counts:
        problems.append(f"per-check counts {summary['per_check']}, expected {expected_counts}")
    return failed, problems


def seed_free_digest(report: bytes) -> str:
    """Digest of the report without config_hash, which hashes the curve order."""
    data = json.loads(report)
    data.pop("config_hash")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def gate_digests(name, seed, scale, reports, digests):
    """Problems with report identity across passes and against the committed digests."""
    reports = [r for r in reports if r is not None]
    if not reports:
        return [], {}
    problems = []
    if any(r != reports[0] for r in reports[1:]):
        problems.append("reports differ between passes of one run")
    computed = {
        "report_sha256": hashlib.sha256(reports[0]).hexdigest(),
        "seed_free_sha256": seed_free_digest(reports[0]),
    }
    expected = digests.get(scale, {}).get(name, {})
    if seed == DEFAULT_SEED:
        if computed["report_sha256"] != expected.get("seed0"):
            problems.append(f"report sha256 {computed['report_sha256']} != committed {expected.get('seed0')}")
    if "any_seed" in expected and computed["seed_free_sha256"] != expected["any_seed"]:
        problems.append(f"seed-free report sha256 {computed['seed_free_sha256']} != committed {expected['any_seed']}")
    return problems, computed


def tail_percentile(n_cells: int) -> int:
    """Highest percentile with at least ten cells beyond it; 100 (the max) if none."""
    for p in TAIL_PERCENTILES:
        if n_cells - math.ceil(p * n_cells / 100) >= 10:
            return p
    return 100


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def layer_seconds(summaries) -> dict:
    """Median total and self seconds of every traced function over the traced passes."""
    return {
        name: {
            kind: statistics.median(s["functions"][name][f"{kind}_ns"] for s in summaries) / 1e9
            for kind in ("total", "self")
        }
        for name in tracer.SPAN_NAMES
    }


def layer_metrics(summaries, seconds, traced_walls, untraced_walls, tail_p):
    """Per-layer metrics: medians over the traced passes."""

    def med(f):
        return statistics.median(f(s) for s in summaries)

    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = (med(lambda s: s["functions"][name]["calls"]), "count")
    for name in TIMED_LAYERS:
        metrics[f"{name}.total_s"] = (seconds[name]["total"], "s")
        metrics[f"{name}.self_s"] = (seconds[name]["self"], "s")
    for name in tracer.COUNTERS:
        metrics[name] = (med(lambda s: s["counters"][name]), "count")
    metrics["rh_lab.run_cell.p50_ms"] = (med(lambda s: percentile(s["cell_ms"], 50)), "ms")
    metrics["rh_lab.run_cell.tail_ms"] = (med(lambda s: percentile(s["cell_ms"], tail_p)), "ms")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return metrics


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def run_benchmark(name, seed, seconds, trace, scale="full", digests=None):
    """Run one benchmark; returns (result object, info object)."""
    if digests is None:
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        curves_path, report_path = workdir / "curves.json", workdir / "report.json"
        curves, argv, _ = set_up(name, seed, scale, curves_path)  # cold first import: not a sample
        setups = []
        props = workloads.input_properties(name, curves, argv)
        cells = props["cells"]
        expected_counts = workloads.expected_per_check(curves, argv)

        tr = tracer.Tracer() if trace else None
        walls, cpus, refs, reports, problems, traced, pass_marks = [], [], [], [], [], [], []
        failed = passes = 0
        start = time.perf_counter()
        while True:
            setups += [timed_set_up(name, seed, scale, curves_path) for _ in range(SETUP_REPEATS_PER_PASS)]
            traced_pass = bool(trace) and passes % 2 == 1
            if traced_pass:
                mark = tr.mark()
                with tr:
                    rc, wall, cpu, report = run_pass(curves_path, report_path, argv)
                traced.append((tr.summarize(mark), wall))
                pass_marks.append(((mark[0], len(tr.spans)), passes))
            else:
                sampler = calib.Sampler()
                rc, wall, cpu, report = run_pass(curves_path, report_path, argv, sampler)
                walls.append(wall)
                cpus.append(cpu)
                refs.append(sampler.mean_s())
            passes += 1
            reports.append(report)
            pass_failed, pass_problems = gate_pass(rc, report, cells, expected_counts)
            failed += pass_failed
            problems += [f"pass {passes}: {p}" for p in pass_problems]
            # stop when one more pass would end more than half a pass past --seconds
            if time.perf_counter() - start + wall / 2 >= seconds and (not trace or traced):
                break
        digest_problems, computed = gate_digests(name, seed, scale, reports, digests)
        problems += digest_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = cells * passes
    tail_p = tail_percentile(cells)
    info = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(bool(trace)),
        "passes": passes,
        "untraced_wall_s": walls,
        "untraced_cpu_s": cpus,
        "reference_mean_s": refs,
        "sweep_ref": [w / r for w, r in zip(walls, refs)],
        "wall_s_median": statistics.median(walls),
        "cpu_s_median": statistics.median(cpus),
        "setup_raw_s": [s for s, _ in setups],
        "setup_ref": [r for _, r in setups],
        "environment": environment(),
        "input": props,
        "digests": computed,
        "failed_frac": failed / attempted,
        "problems": problems,
    }
    if trace:
        summaries = [s for s, _ in traced]
        traced_walls = [w for _, w in traced]
        seconds_by_layer = layer_seconds(summaries)
        metrics = layer_metrics(summaries, seconds_by_layer, traced_walls, walls, tail_p)
        info["traced_wall_s"] = traced_walls
        info["tail_percentile"] = tail_p
        info["layer_seconds"] = seconds_by_layer
        wall = statistics.median(traced_walls)
        info["share_of_traced_wall"] = {
            n: round(seconds_by_layer[n]["total"] / wall, 4) for n in tracer.SPAN_NAMES if n != "cli.main"
        }
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{name}.jsonl"
        tr.write_jsonl(spans_path, pass_marks)
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "sweep_ref": (statistics.median(info["sweep_ref"]), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(r for _, r in setups) * calib.REFERENCE_S, "s"),
        }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
