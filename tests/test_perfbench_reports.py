"""The benchmark's seed-0 sweep reports must match the digests it commits.

``perfbench/run.py`` writes each workload's seed-0 curves, runs
``zetatower sweep`` on them and compares the report's sha256 with
``perfbench/digests.json``.  The same sweeps run here, so a change to a
report byte shows up in the test suite, not first in a benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from zetatower.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_seed0_report_matches_the_committed_digest(tmp_path, name):
    curves, argv = WORKLOADS.generate(name, 0)
    curves_path, report_path = tmp_path / "curves.json", tmp_path / "report.json"
    curves_path.write_text(json.dumps(curves, indent=1) + "\n", encoding="utf-8")
    assert main(["sweep", "--curves", str(curves_path), *argv, "--output", str(report_path)]) == 0
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == DIGESTS["full"][name]["seed0"]
