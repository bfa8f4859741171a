"""The batch workloads, run in a child process of :mod:`run`.

``malt-sweep`` runs ``BenchmarkRunner.run_application("malt")`` and
``traffic-sweep`` runs ``run_application("traffic_analysis")``, each under
the CLI's default policy (one job, serial, no result cache), with a fresh
runner per sweep.  The process prints one JSON document on its last line.

A run does a fixed number of sweeps, :func:`sweeps_for` of ``--seconds``,
so two commits always do the same work whatever their speed.  With
``--cpu`` the process pins itself to that CPU, where :mod:`hostspeed`
probes how fast the host runs it.

Modes:

``probe``
    Set up exactly as a measured run does and exit when the first cell
    starts, printing the process's CPU time and ``time.monotonic()`` at that
    moment.  The parent starts several probes to take the median set-up.
``run``
    Set up, then do the sweeps, checking every verdict against the
    recorded reference.
``trace``
    Run the wrapper self-test, then alternate untraced and layer-traced
    sweeps, as many of each as a run does: the traced ones give the
    per-layer metrics and the CPU time of the two kinds gives the tracing
    overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    expected_rows,
    peak_rss_mb,
    percentile,
    require_program,
    verdict_rows,
)

APPLICATIONS = {"malt-sweep": "malt", "traffic-sweep": "traffic_analysis"}
#: nominal wall seconds of one sweep on the 2-core host the benchmark was
#: defined on; fixed here (never measured at run time) so that the work a
#: run does depends on ``--seconds`` only
NOMINAL_SWEEP_S = {"malt-sweep": 20.0, "traffic-sweep": 1.25}


def sweeps_for(workload: str, seconds: float) -> int:
    """The sweeps one run does: about *seconds* of work, at least one."""
    return max(1, round(seconds / NOMINAL_SWEEP_S[workload]))


def _first_cell_probe(on_first) -> None:
    """Call *on_first* with (CPU time, monotonic time) when the first cell
    starts, then step aside."""
    from repro.benchmark.runner import BenchmarkRunner

    original = BenchmarkRunner.__dict__["run_query"]

    def run_query(self, *args, **kwargs):
        BenchmarkRunner.run_query = original
        on_first((time.process_time(), time.monotonic()))
        return original(self, *args, **kwargs)

    BenchmarkRunner.run_query = run_query


def _config(workload: str, topology_seed: int):
    from repro.benchmark.runner import BenchmarkConfig
    from repro.malt import MaltTopologyConfig

    malt = MaltTopologyConfig(seed=topology_seed) if workload == "malt-sweep" else None
    return BenchmarkConfig(seed=topology_seed, malt_config=malt)


def _sweep(config, application: str) -> Tuple[List[float], List[float], List[List[Any]]]:
    """One sweep: ([monotonic start, monotonic end, CPU seconds], per-cell
    seconds, verdict rows)."""
    from repro.benchmark.runner import BenchmarkRunner
    from repro.exec import ExecutorPolicy

    runner = BenchmarkRunner(config, policy=ExecutorPolicy.serial())
    started, cpu_started = time.monotonic(), time.process_time()
    report = runner.run_application(application)
    window = [started, time.monotonic(), time.process_time() - cpu_started]
    durations = [result.duration_s for result in runner.last_run_report.results]
    return window, durations, verdict_rows(report.logger.records)


def _mismatches(rows: List[List[Any]], reference: List[List[Any]]) -> int:
    if len(rows) != len(reference):
        return max(len(rows), len(reference))
    return sum(1 for row, expected in zip(rows, reference) if row != expected)


def run(workload: str, topology_seed: int, seconds: float,
        reference: List[List[Any]]) -> Dict[str, Any]:
    config = _config(workload, topology_seed)
    first_cell: List[Tuple[float, float]] = []
    _first_cell_probe(first_cell.append)
    threads_before = threading.active_count()
    windows: List[List[float]] = []
    cells: List[float] = []
    mismatched = 0
    attempted = 0
    for _ in range(sweeps_for(workload, seconds)):
        window, durations, rows = _sweep(config, APPLICATIONS[workload])
        windows.append(window)
        cells.extend(durations)
        attempted += len(rows)
        mismatched += _mismatches(rows, reference)
    return {
        "first_cell_cpu_s": first_cell[0][0],
        "first_cell_monotonic": first_cell[0][1],
        "sweeps": len(windows),
        "sweep_windows": windows,
        "cells": len(cells),
        "cells_per_s": len(cells) / sum(end - start for start, end, _ in windows),
        "cell_p50_ms": percentile(cells, 0.50) * 1000.0,
        "cell_p90_ms": percentile(cells, 0.90) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "mismatched": mismatched,
        "threads_leaked": threading.active_count() - threads_before,
    }


def trace(workload: str, topology_seed: int, seconds: float,
          reference: List[List[Any]]) -> Dict[str, Any]:
    from layers import LayerTracer, layer_metrics
    from selftest import SelfTestError, run_selftest

    try:
        selftest = run_selftest()
    except SelfTestError as error:
        selftest = {"error": str(error)}
    config = _config(workload, topology_seed)
    tracer = LayerTracer()
    threads_before = threading.active_count()
    # [monotonic start, monotonic end, CPU seconds] of each sweep
    plain: List[List[float]] = []
    traced: List[List[float]] = []
    attempted = 0
    mismatched = 0
    # untraced and traced sweeps alternate, so the overhead compares sweeps
    # of the same warm process
    for _ in range(sweeps_for(workload, seconds)):
        for sweeps, traced_sweep in ((plain, False), (traced, True)):
            if traced_sweep:
                tracer.install()
            try:
                window, _, rows = _sweep(config, APPLICATIONS[workload])
            finally:
                tracer.uninstall()
            sweeps.append(window)
            attempted += len(rows)
            mismatched += _mismatches(rows, reference)
    snapshot = tracer.snapshot()
    metrics = layer_metrics(snapshot, runs=len(traced))
    metrics["sandbox.threads_leaked"] = threading.active_count() - threads_before
    return {"layers": metrics, "raw": snapshot, "selftest": selftest,
            "sweeps": {"untraced": plain, "traced": traced},
            "attempted": attempted, "mismatched": mismatched}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(APPLICATIONS), required=True)
    parser.add_argument("--topology-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    require_program()

    if args.mode == "probe":
        def stop(at: Tuple[float, float]) -> None:
            print(json.dumps({"first_cell_cpu_s": at[0],
                              "first_cell_monotonic": at[1]}), flush=True)
            raise SystemExit(0)

        _first_cell_probe(stop)
        _sweep(_config(args.workload, args.topology_seed), APPLICATIONS[args.workload])
        return 1  # unreachable unless the sweep ran no cell

    reference = expected_rows(args.workload, args.topology_seed)
    if args.mode == "run":
        document = run(args.workload, args.topology_seed, args.seconds, reference)
    else:
        document = trace(args.workload, args.topology_seed, args.seconds, reference)
    print(json.dumps(document, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
