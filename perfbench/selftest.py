"""Self-test of the layer wrappers.

Runs a tiny sweep — one MALT query, one model, all three codegen backends,
on the paper-scale graph — once untraced and once traced, and checks that

* the wrappers count what the pipeline is known to do: one prompt (and one
  ``compute_stats``) per cell, one view conversion per cell, and one
  reverse conversion and one ``diff_graphs`` per cell whose program ran;
* tracing changes no verdict: the verdict rows are identical either way.

Usage: ``python3 perfbench/selftest.py`` (exits nonzero on a failed check).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program, rows_digest, verdict_rows  # noqa: E402

QUERY_ID = "malt-e2"
MODEL = "gpt-4"
#: backend -> the (view, reverse) conversions one cell makes; the SQL
#: conversions go through the frame conversions
CONVERSIONS = {
    "networkx": [("graph.to_networkx", "graph.from_networkx")],
    "pandas": [("graph.to_frames", "graph.from_frames")],
    "sql": [("graph.to_sql_database", "graph.from_sql_database"),
            ("graph.to_frames", "graph.from_frames")],
}


class SelfTestError(AssertionError):
    """A wrapper count or the verdict identity check failed."""


def _tiny_sweep(application, tracer=None):
    from repro.benchmark.queries import query_by_id
    from repro.benchmark.runner import BenchmarkConfig, BenchmarkRunner

    runner = BenchmarkRunner(BenchmarkConfig())
    query = query_by_id(QUERY_ID)
    if tracer is not None:
        tracer.install()
    try:
        records = [runner.run_query(application, query, MODEL, backend)
                   for backend in CONVERSIONS]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def run_selftest() -> Dict[str, Any]:
    """Run the checks; raises :class:`SelfTestError` on the first failure."""
    require_program()
    from layers import LayerTracer
    from repro.benchmark.runner import BenchmarkConfig

    application = BenchmarkConfig().malt_application()
    untraced = verdict_rows(_tiny_sweep(application))
    tracer = LayerTracer()
    records = _tiny_sweep(application, tracer)
    traced = verdict_rows(records)
    if rows_digest(untraced) != rows_digest(traced):
        raise SelfTestError(f"tracing changed verdicts: {untraced} != {traced}")

    calls = {name: int(entry[0]) for name, entry in tracer.snapshot()["stats"].items()}
    # every cell of this query either passes or fails inside execution
    # (gpt-4's SQL for it does), so the expected counts are exact
    if any(record.failure_stage not in (None, "execute") for record in records):
        raise SelfTestError(f"unexpected failure stage in {traced}")
    expected = Counter({"core.build_prompt": len(records),
                        "graph.compute_stats": len(records),
                        "graph.diff_graphs": sum(record.passed for record in records)})
    for record in records:
        for view, reverse in CONVERSIONS[record.backend]:
            expected[view] += 1
            expected[reverse] += int(record.passed)
    wrong = {name: (calls.get(name, 0), count) for name, count in expected.items()
             if calls.get(name, 0) != count}
    if wrong:
        raise SelfTestError(f"wrapper counts (seen, expected) differ: {wrong}")
    return {"cells": len(records), "calls": {name: calls.get(name, 0)
                                             for name in sorted(expected)}}


if __name__ == "__main__":
    try:
        print(json.dumps(run_selftest(), sort_keys=True))
    except SelfTestError as error:
        print(f"self-test failed: {error}", file=sys.stderr)
        sys.exit(1)
