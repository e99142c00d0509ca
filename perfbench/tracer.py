"""Span tracing of zetatower from outside the package.

Each traced function is replaced, for the duration of a ``Tracer`` context,
in every zetatower module namespace that holds it, which is where its callers
look it up (``zetatower.rh_lab.derive_tower``, ``zetatower.invariants.derive_step``,
``zetatower.exact_arith.poly_gcd`` inside ``RatFunc``, ...).  A span is
(id, parent id, name, start ns, end ns); spans stay in memory until the run
writes them out.  Self time is a span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function) pairs, named as in the per-layer metrics.
TRACED = (
    ("cli", "main"),
    ("rh_lab", "run_cell"),
    ("rh_lab", "report_to_json"),
    ("rh_lab", "rh_verdict_for_level"),
    ("rh_lab", "rh_numeric"),
    ("curves", "artin_zeta"),
    ("curves", "validate_zeta_level"),
    ("derived_engine", "derive_tower"),
    ("derived_engine", "derive_step"),
    ("derived_engine", "special_values"),
    ("invariants", "extract_invariants"),
    ("invariants", "beta_closed_form"),
    ("invariants", "counting_miracle_check"),
    ("invariants", "interlacing_poly"),
    ("invariants", "interlacing_sign_check"),
    ("mult_struct", "elliptic_beta_recursion"),
    ("mult_struct", "ratio_bounds_check"),
    ("exact_arith", "poly_gcd"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
COUNTERS = ("derived_engine.compositions.yielded", "rh_lab.rh_numeric.escalations", "rh_lab.verdict.unknown")


def _zetatower_modules():
    return [m for name, m in list(sys.modules.items()) if name == "zetatower" or name.startswith("zetatower.")]


class Tracer:
    """Context manager: patch on enter, restore on exit; spans and counters accumulate."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start_ns, end_ns)
        self.counters = Counter()
        self._stack = [0]
        self._next_id = 1
        self._patched = []  # (namespace, attribute, original)

    # -- patching -------------------------------------------------------------

    def __enter__(self):
        for mod_name, func_name in TRACED:
            module = sys.modules[f"zetatower.{mod_name}"]
            orig = getattr(module, func_name)
            self._replace(orig, self._span_wrapper(f"{mod_name}.{func_name}", orig))
        engine = sys.modules["zetatower.derived_engine"]
        self._replace(engine.compositions, self._counting_compositions(engine.compositions))
        return self

    def __exit__(self, *exc):
        for namespace, attr, orig in reversed(self._patched):
            setattr(namespace, attr, orig)
        self._patched.clear()
        return False

    def _replace(self, orig, wrapper):
        for module in _zetatower_modules():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patched.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def _span_wrapper(self, name, orig):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if name == "rh_lab.rh_numeric" and kwargs.get("_escalated"):
                counters["rh_lab.rh_numeric.escalations"] += 1
            elif name == "rh_lab.rh_verdict_for_level" and result.holds is None:
                counters["rh_lab.verdict.unknown"] += 1
            return result

        traced.__wrapped__ = orig
        return traced

    def _counting_compositions(self, orig):
        """Count the compositions callers receive, not the inner recursive ones."""
        counters, inner = self.counters, orig.__code__

        def counted(gen):
            for comp in gen:
                counters["derived_engine.compositions.yielded"] += 1
                yield comp

        def compositions(total):
            if sys._getframe(1).f_code is inner:
                return orig(total)
            return counted(orig(total))

        compositions.__wrapped__ = orig
        return compositions

    # -- results ----------------------------------------------------------------

    def mark(self):
        """Position to pass to ``summarize`` for the spans recorded after now."""
        return len(self.spans), Counter(self.counters)

    def summarize(self, mark) -> dict:
        """Per-function calls/total/self and the counters, for spans since ``mark``."""
        first, counters_before = mark
        spans = self.spans[first:]
        by_id = {s[0]: s for s in spans}
        child_ns = Counter()
        for sid, parent, _name, start, end in spans:
            child_ns[parent] += end - start
        stats = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in SPAN_NAMES}
        cell_ms = []
        for sid, parent, name, start, end in spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[sid]
            if not _has_ancestor_named(by_id, parent, name):  # recursion counts once
                entry["total_ns"] += end - start
            if name == "rh_lab.run_cell":
                cell_ms.append((end - start) / 1e6)
        counters = {k: self.counters[k] - counters_before[k] for k in COUNTERS}
        return {"functions": stats, "counters": counters, "cell_ms": cell_ms}

    def write_jsonl(self, path, pass_marks):
        """All spans as JSON Lines; ``pass_marks`` maps span index ranges to pass numbers."""
        with open(path, "w", encoding="utf-8") as fh:
            for (first, last), pass_no in pass_marks:
                for sid, parent, name, start, end in self.spans[first:last]:
                    fh.write(
                        json.dumps(
                            {"pass": pass_no, "id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                        )
                        + "\n"
                    )


def _has_ancestor_named(by_id, parent, name) -> bool:
    while parent in by_id:
        span = by_id[parent]
        if span[2] == name:
            return True
        parent = span[1]
    return False
