"""The functions the benchmark's tracer patches must exist in the package.

``perfbench/tracer.py`` looks each traced (module, function) pair up with
``getattr`` when a traced run starts, so deleting or renaming one of them
breaks ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # the tracer also wraps compositions to count what it yields
    names = tracer.TRACED + (("derived_engine", "compositions"),)
    missing = [
        f"{module}.{func}"
        for module, func in names
        if not callable(getattr(importlib.import_module(f"zetatower.{module}"), func, None))
    ]
    assert missing == []
