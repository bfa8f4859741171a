"""The repository benchmark: one command for every workload.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):

``malt-sweep``
    ``BenchmarkRunner.run_application("malt")``: 108 cells on the
    paper-scale 5,493-node MALT graph.
``traffic-sweep``
    ``run_application("traffic_analysis")``: 384 cells on the 40-node
    traffic graph, repeated with a fresh runner.
``serve-direct``
    Open-loop load against an out-of-process ``repro serve``: a light and a
    heavy fixed-rate phase, then a search for the knee.  Every request
    uses the ``direct`` backend.
``serve-temporal``
    The same load with backends drawn from ``direct``, ``networkx`` and
    ``frames``, which reaches the sandbox from concurrent threads.  Not in
    ``BENCHMARK.json``: the known concurrent-validation race fails some of
    its requests.

With ``--trace 0`` the run measures the end-to-end metrics with no
wrapper installed; with ``--trace 1`` it runs the same workload with the
layer wrappers of :mod:`layers` and reports the per-layer metrics and the
tracing overhead.  While a run measures, :mod:`hostspeed` probes each CPU,
and the gated CPU figures are scaled to the host at full speed.  Every
answer is checked; the process exits 1 when one is wrong and 2 when the
benchmark cannot run at all.  The last line of
standard output is the JSON result; a fuller document with provenance goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    REFERENCE,
    ROOT,
    SERVE_BACKENDS,
    WORKLOADS,
    BenchmarkError,
    child_env,
    median,
    metric,
    cpu_seconds,
    host_ticks,
    peak_rss_mb,
    provenance,
    steal_frac,
    require_program,
    thread_count,
    topology_seed,
    write_document,
)
from hostspeed import HostSpeed, measurement_cpus  # noqa: E402

#: set-up is measured this many times per run and reported as the median
SETUP_SAMPLES = 5
#: hard limit on any one child process
CHILD_TIMEOUT_S = 170.0

#: serving: the fixed rates, in requests per second.  The ladder is
#: geometric with 5% steps; the heavy rate is a ladder step near three
#: quarters of the serve-temporal knee measured when the benchmark was
#: defined (~200/s on an otherwise idle 2-core host), where the known
#: concurrent-validation race shows.  serve-direct uses the same rates.
LIGHT_QPS = 60.0
LADDER = tuple(40.0 * 1.05 ** step for step in range(60))
HEAVY_STEP = 27                      # 40 * 1.05**27 = 149.3/s
PHASE_REQUESTS = 1000                # p99 then has 10 samples beyond it
P99_LIMIT_MS = 100.0
MIN_ACHIEVED = 0.98

#: the knee search's time budget: a probe starts only if it fits
KNEE_BUDGET_S = 25.0

#: serving capacity: batch requests, each holding every query of the
#: workload's mix once, sent back to back on every connection, in chunks;
#: the median chunk's answers per full-speed CPU-second of the server is
#: ``work_per_cpu_s``.  Batches keep the server busy and its CPU time in
#: the answer path, so the server and the probe on its CPU see the same
#: host speed, which sparse single requests did not (README.md, Steadiness).
SATURATED_CHUNKS = 5
SATURATED_ANSWERS = 2880             # per chunk: 120 batches of serve-direct's 24

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (("setup_s", "s"), ("work_per_cpu_s", "1/s"),
              ("peak_rss_mb", "MB"), ("answered_frac", "fraction"))


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------
def _child(arguments: List[str]) -> Tuple[Dict[str, Any], float]:
    """Run ``batch.py``; (its last-line JSON, monotonic time it was launched)."""
    command = [sys.executable, str(BENCH_DIR / "batch.py")] + arguments
    launched = time.monotonic()
    try:
        done = subprocess.run(command, cwd=str(ROOT), env=child_env(),
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"batch child timed out: {command}") from error
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"batch child failed ({done.returncode}): {command}")
    return json.loads(lines[-1]), launched


def _full_speed_cpu(windows: List[List[float]], speed) -> float:
    """CPU seconds of [monotonic start, monotonic end, CPU seconds] windows,
    scaled to the host running at full speed."""
    return sum(cpu * speed.over(start, end) for start, end, cpu in windows)


def run_batch(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    tseed = topology_seed(workload, seed)
    cpu = measurement_cpus()[0]
    common = ["--workload", workload, "--topology-seed", str(tseed),
              "--seconds", str(seconds), "--cpu", str(cpu)]
    speed = HostSpeed([cpu])
    try:
        if trace:
            out, _ = _child(["--mode", "trace"] + common)
        else:
            # set-up: CPU seconds of the child from its launch to its first
            # cell, and the same window in wall-clock seconds
            setup_windows = []
            for _ in range(SETUP_SAMPLES - 1):
                probe, launched = _child(["--mode", "probe"] + common)
                setup_windows.append([launched, probe["first_cell_monotonic"],
                                      probe["first_cell_cpu_s"]])
            out, launched = _child(["--mode", "run"] + common)
            setup_windows.append([launched, out["first_cell_monotonic"],
                                  out["first_cell_cpu_s"]])
    finally:
        speed.stop()

    if trace:
        selftest_ok = "error" not in out["selftest"]
        sweeps = out["sweeps"]
        layers = _with_serving_defaults(out["layers"])
        layers["trace.overhead_frac"] = (_full_speed_cpu(sweeps["traced"], speed)
                                         / _full_speed_cpu(sweeps["untraced"], speed) - 1.0)
        return {
            "correct": out["mismatched"] == 0 and selftest_ok,
            "attempted": out["attempted"], "failed": out["mismatched"],
            "runs": len(sweeps["traced"]),
            "layers": layers,
            "details": {"topology_seed": tseed, "selftest": out["selftest"],
                        "sweeps": sweeps, "raw": out["raw"]},
        }

    setup = median([cpu_s * speed.over(start, end) for start, end, cpu_s in setup_windows])
    windows = out["sweep_windows"]
    cells_per_cpu_s = out["cells"] / sum(cpu_s for _, _, cpu_s in windows)
    work_per_cpu_s = out["cells"] / _full_speed_cpu(windows, speed)
    error_frac = out["mismatched"] / out["attempted"]
    return {
        "correct": out["mismatched"] == 0,
        "attempted": out["attempted"], "failed": out["mismatched"],
        "runs": out["sweeps"],
        "end_to_end": {
            "setup_s": setup,
            "work_per_cpu_s": work_per_cpu_s,
            "peak_rss_mb": out["peak_rss_mb"],
            "answered_frac": 1.0 - error_frac,
        },
        "named": [("setup_s", setup, "s"),
                  ("setup_cpu_s", median([w[2] for w in setup_windows]), "s"),
                  ("setup_wall_s", median([w[1] - w[0] for w in setup_windows]), "s"),
                  ("host_speed", speed.over(windows[0][0], windows[-1][1]), "ratio"),
                  ("cells_per_s", out["cells_per_s"], "cells/s"),
                  ("cells_per_cpu_s", cells_per_cpu_s, "cells/s"),
                  ("cells_per_full_speed_cpu_s", work_per_cpu_s, "cells/s"),
                  ("cell_p50_ms", out["cell_p50_ms"], "ms"),
                  ("cell_p90_ms", out["cell_p90_ms"], "ms"),
                  ("peak_rss_mb", out["peak_rss_mb"], "MB"),
                  ("error_frac", error_frac, "fraction")],
        "details": {"topology_seed": tseed, "cpu": cpu,
                    "setup_windows": setup_windows, "sweep_windows": windows,
                    "cells": out["cells"], "threads_leaked": out["threads_leaked"]},
    }


def _with_serving_defaults(layers: Dict[str, float]) -> Dict[str, float]:
    """Batch runs have no server: its per-layer metrics read 0."""
    for name in ("serve.handler_p50_ms", "serve.handler_p99_ms",
                 "serve.outside_handler_ms", "loadgen.lag_p99_ms",
                 "loadgen.conn_wait_p99_ms"):
        layers.setdefault(name, 0.0)
    return layers


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------
def _pin_generator() -> int:
    """The CPU the server is to run on.  This process, the load generator,
    moves to the other CPUs when there are any, so that it does not run on
    the server's CPU and the server's CPU time is corrected by the speed of
    the CPU it ran on."""
    cpus = measurement_cpus()
    if len(cpus) > 1:
        os.sched_setaffinity(0, set(cpus[1:]))
    return cpus[0]


def _start_warm(workload: str, cpu: int, trace_out: str = None):
    """Spawn a server on *cpu* and warm it.

    Returns (server, set-up window, warm-up outcomes); the window is
    [monotonic spawn, monotonic end of warm-up, server CPU seconds].
    """
    from loadgen import ServerProcess, post_all, warmup_mix

    server = ServerProcess(trace_out, cpu)
    started = time.monotonic()
    server.start()
    try:
        warm = post_all(server, warmup_mix(workload), os.cpu_count() or 1)
        window = [started, time.monotonic(), cpu_seconds(server.process.pid)]
    except BaseException:
        server.stop()
        raise
    return server, window, warm


def _server_window(server, run) -> Tuple[Any, List[float]]:
    """Call *run*; (its result, [monotonic start, monotonic end, server CPU
    seconds in between])."""
    started, cpu = time.monotonic(), cpu_seconds(server.process.pid)
    result = run()
    return result, [started, time.monotonic(), cpu_seconds(server.process.pid) - cpu]


def _answered(*phases) -> int:
    return sum(1 for phase in phases for outcome in phase.outcomes
               if outcome.status == 200)


def _passes(phase) -> bool:
    """The knee criteria: bounded p99, rate achieved, queue drained.

    "Drained" means the generator's queue, when the last request fell due,
    held no more than the requests due within the latency limit.
    """
    connections = os.cpu_count() or 1
    return (len(phase.outcomes) == PHASE_REQUESTS
            and phase.latency_ms(0.99) <= P99_LIMIT_MS
            and phase.achieved_rate >= MIN_ACHIEVED * phase.rate
            and phase.backlog_at_end <= max(connections,
                                            phase.rate * P99_LIMIT_MS / 1000.0))


def _knee(server, workload: str, seed: int, heavy) -> Tuple[float, List[Any]]:
    """Highest passing ladder rate: gallop up from the heavy step, then bisect.

    A failing step is tried once more with a fresh draw and passes if either
    try does, so one transient stall of a shared host does not move the
    search; the heavy phase counts as the first try of its step.  A try
    starts only if its nominal length fits in what is left of
    :data:`KNEE_BUDGET_S`; once none fits, the highest step that passed so
    far is the answer, which bounds the run on a slowed host.
    """
    from loadgen import request_mix, run_phase

    connections = os.cpu_count() or 1
    probes: List[Any] = []
    started = time.monotonic()

    def probe(step: int, tries: int = 2) -> Optional[bool]:
        """Pass/fail of *step*; ``None`` when the budget has no room for it."""
        for attempt in range(tries):
            if time.monotonic() - started + PHASE_REQUESTS / LADDER[step] > KNEE_BUDGET_S:
                return None
            label = f"ladder-{step}" + (f"-retry{attempt}" if attempt else "")
            bodies = request_mix(workload, seed, label, PHASE_REQUESTS)
            phase = run_phase(server, label, bodies, LADDER[step], connections,
                              abort_over_ms=P99_LIMIT_MS)
            probes.append(phase)
            if _passes(phase):
                return True
        return False

    low, high = -1, HEAVY_STEP
    if _passes(heavy) or probe(HEAVY_STEP, tries=1):
        low, high, gallop = HEAVY_STEP, None, 4
        while high is None and low < len(LADDER) - 1:
            step = min(low + gallop, len(LADDER) - 1)
            verdict = probe(step)
            if verdict is None:
                return LADDER[low], probes
            if verdict:
                low, gallop = step, gallop * 2
            else:
                high = step
        high = len(LADDER) if high is None else high
    while high - low > 1:
        middle = (low + high) // 2
        verdict = probe(middle)
        if verdict is None:
            break
        if verdict:
            low = middle
        else:
            high = middle
    return (LADDER[low] if low >= 0 else LADDER[0] / 1.05), probes


def _check_answers(outcomes) -> Tuple[int, Dict[str, int]]:
    """Compare every 200 body with the serial facade's answer.

    Returns (wrong answers, failures by cause); the facade runs after the
    timed window, under ``ExecutorPolicy.serial()``, for the same specs.
    """
    from repro.api import QuerySpec, answer_queries
    from repro.exec import ExecutorPolicy

    def comparable(document: Dict[str, Any]) -> str:
        return json.dumps({key: value for key, value in document.items()
                           if key not in ("duration_s", "cached")}, sort_keys=True)

    def key(body: Dict[str, str]) -> Tuple[str, str, str]:
        return body["scenario"], body["query"], body["backend"]

    specs = sorted({key(outcome.body) for outcome in outcomes if outcome.status == 200})
    answers = answer_queries([QuerySpec(scenario=s, query=q, backend=b)
                              for s, q, b in specs],
                             policy=ExecutorPolicy.serial()) if specs else []
    expected = {spec: comparable(json.loads(json.dumps(answer.to_document())))
                for spec, answer in zip(specs, answers)}
    wrong = sum(1 for outcome in outcomes if outcome.status == 200
                and comparable(outcome.document) != expected[key(outcome.body)])
    causes: Dict[str, int] = {}
    for outcome in outcomes:
        if outcome.status != 200:
            causes[outcome.error] = causes.get(outcome.error, 0) + 1
    return wrong, causes


def run_serve(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from loadgen import batch_mix, post_all, request_mix, run_phase, unbatch, warmup_mix

    connections = os.cpu_count() or 1
    light_bodies = request_mix(workload, seed, "light", PHASE_REQUESTS)
    heavy_bodies = request_mix(workload, seed, "heavy", PHASE_REQUESTS)
    cpu = _pin_generator()
    if trace:
        return _trace_serve(workload, cpu, seed, light_bodies, heavy_bodies)

    speed = HostSpeed([cpu])
    try:
        setup_windows, outcomes = [], []
        for _ in range(SETUP_SAMPLES - 1):
            server, window, warm = _start_warm(workload, cpu)
            server.stop()
            setup_windows.append(window)
            outcomes += warm
        server, window, warm = _start_warm(workload, cpu)
        setup_windows.append(window)
        outcomes += warm
        try:
            light = run_phase(server, "light", light_bodies, LIGHT_QPS, connections)
            heavy = run_phase(server, "heavy", heavy_bodies, LADDER[HEAVY_STEP], connections)
            saturated, batches = [], max(1, SATURATED_ANSWERS // len(warmup_mix(workload)))
            for chunk in range(SATURATED_CHUNKS):
                bodies = batch_mix(workload, seed, f"saturated-{chunk}", batches)
                saturated.append(_server_window(
                    server, lambda: unbatch(post_all(server, bodies, connections))))
            knee, probes = _knee(server, workload, seed, heavy)
            rss = peak_rss_mb(server.process.pid)
        finally:
            server.stop()
    finally:
        speed.stop()
    phases = [light, heavy] + probes
    for phase in phases:
        outcomes += phase.outcomes
    rates, answered = [], 0
    for chunk_outcomes, window in saturated:
        outcomes += chunk_outcomes
        chunk_answered = sum(1 for outcome in chunk_outcomes if outcome.status == 200)
        rates.append(chunk_answered / _full_speed_cpu([window], speed))
        answered += chunk_answered
    saturated_windows = [window for _, window in saturated]
    wrong, causes = _check_answers(outcomes)
    failed = wrong + sum(causes.values())
    error_frac = failed / len(outcomes)
    setup = median([cpu_s * speed.over(start, end) for start, end, cpu_s in setup_windows])
    work_per_cpu_s = median(rates)
    return {
        "correct": wrong == 0,
        "attempted": len(outcomes), "failed": failed,
        "runs": len(phases),
        "end_to_end": {
            "setup_s": setup,
            "work_per_cpu_s": work_per_cpu_s,
            "peak_rss_mb": rss,
            "answered_frac": 1.0 - error_frac,
        },
        "named": [("setup_s", setup, "s"),
                  ("setup_cpu_s", median([w[2] for w in setup_windows]), "s"),
                  ("setup_wall_s", median([w[1] - w[0] for w in setup_windows]), "s"),
                  ("host_speed", speed.over(saturated_windows[0][0],
                                            saturated_windows[-1][1]), "ratio"),
                  ("light_p50_ms", light.latency_ms(0.50), "ms"),
                  ("light_p90_ms", light.latency_ms(0.90), "ms"),
                  ("light_p99_ms", light.latency_ms(0.99), "ms"),
                  ("heavy_p50_ms", heavy.latency_ms(0.50), "ms"),
                  ("heavy_p99_ms", heavy.latency_ms(0.99), "ms"),
                  ("knee_qps", knee, "1/s"),
                  ("answers_per_cpu_s",
                   answered / sum(window[2] for window in saturated_windows), "1/s"),
                  ("answers_per_full_speed_cpu_s", work_per_cpu_s, "1/s"),
                  ("peak_rss_mb", rss, "MB"),
                  ("error_frac", error_frac, "fraction")],
        "details": {"setup_windows": setup_windows,
                    "saturated_windows": saturated_windows,
                    "light_qps": LIGHT_QPS,
                    "heavy_qps": LADDER[HEAVY_STEP], "wrong_answers": wrong,
                    "failures": causes,
                    "phases": [phase.summary() for phase in phases]},
    }


def _trace_serve(workload: str, cpu: int, seed: int, light_bodies,
                 heavy_bodies) -> Dict[str, Any]:
    from layers import layer_metrics
    from loadgen import run_phase
    from selftest import SelfTestError, run_selftest

    connections = os.cpu_count() or 1
    try:
        selftest = run_selftest()
    except SelfTestError as error:
        selftest = {"error": str(error)}

    # the untraced twin: only its light phase's CPU per answer is used
    server, _, outcomes = _start_warm(workload, cpu)
    try:
        plain, plain_window = _server_window(server, lambda: run_phase(
            server, "light-untraced", light_bodies, LIGHT_QPS, connections))
    finally:
        server.stop()

    trace_out = OUT_DIR / f"{workload}-seed{seed}.layers.json"
    server, _, warm = _start_warm(workload, cpu, str(trace_out))
    try:
        threads_warm = thread_count(server.process.pid)
        light, light_window = _server_window(server, lambda: run_phase(
            server, "light", light_bodies, LIGHT_QPS, connections))
        heavy = run_phase(server, "heavy", heavy_bodies, LADDER[HEAVY_STEP], connections)
        threads_after = thread_count(server.process.pid)
    finally:
        server.stop()
    if not trace_out.is_file():
        raise BenchmarkError("the traced server wrote no layer totals")
    snapshot = json.loads(trace_out.read_text())

    layers = layer_metrics(snapshot, runs=1)
    layers["sandbox.threads_leaked"] = threads_after - threads_warm
    layers["serve.handler_p50_ms"] = heavy.handler["p50_ms"]
    layers["serve.handler_p99_ms"] = heavy.handler["p99_ms"]
    layers["serve.outside_handler_ms"] = heavy.latency_ms(0.50) - heavy.handler["p50_ms"]
    summary = heavy.summary()
    layers["loadgen.lag_p99_ms"] = summary["lag_p99_ms"]
    layers["loadgen.conn_wait_p99_ms"] = summary["conn_wait_p99_ms"]
    layers["trace.overhead_frac"] = (light_window[2] / max(1, _answered(light))
                                     / (plain_window[2] / max(1, _answered(plain))) - 1.0)

    outcomes += warm
    for phase in (plain, light, heavy):
        outcomes += phase.outcomes
    wrong, causes = _check_answers(outcomes)
    return {
        "correct": wrong == 0 and "error" not in selftest,
        "attempted": len(outcomes), "failed": wrong + sum(causes.values()),
        "runs": 3,
        "layers": layers,
        "details": {"selftest": selftest, "failures": causes, "raw": snapshot,
                    "phases": [phase.summary() for phase in (plain, light, heavy)]},
    }


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # a terminated run still stops the processes it started (their
    # ``finally`` blocks run on SystemExit)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ticks = host_ticks()
    try:
        require_program()
        if not REFERENCE.is_file():
            raise BenchmarkError(f"missing verdict reference {REFERENCE}")
        if args.workload in SERVE_BACKENDS:
            result = run_serve(args.workload, args.seed, args.seconds, trace)
        else:
            result = run_batch(args.workload, args.seed, args.seconds, trace)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    if trace:
        metrics = {name: metric(value, _layer_unit(name))
                   for name, value in sorted(result["layers"].items())}
    else:
        metrics = {name: metric(result["end_to_end"][name], unit)
                   for name, unit in END_TO_END}
        for name, value, unit in result["named"]:
            print(f"{args.workload:15s} {name:18s} {value:12.4f} {unit}")
    for name, entry in metrics.items():
        print(f"{args.workload:15s} {name:40s} {entry['value']:14.4f} {entry['unit']}")
    document = {"provenance": provenance(args.workload, args.seed, trace, result["runs"]),
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics,
                "named": result.get("named"), "details": result["details"],
                "host_steal_frac": steal_frac(ticks, host_ticks())}
    write_document(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", document)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    if name == "graph.views_per_graph":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
