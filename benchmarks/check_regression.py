"""CI regression gates: every committed performance baseline, one comparator.

Each subcommand turns its measurements into a metrics snapshot
(``{"histograms": {name: {"count", "p95"}}}``) and hands both sides to
:func:`repro.obs.analyze.diff_metrics` — the function behind ``repro obs
diff`` — so every gate uses the same noise model: a p95 regresses only when
it exceeds the baseline by a relative band *and* an absolute floor, with
enough observations on both sides.

``spans``
    each ``span.<name>.seconds`` p95 of the smoke run's metrics snapshot
    against ``results/obs_baseline.json``: at most 5x (band 4.0), a 5 ms
    floor, 5 observations per side.  Spans on one side only are reported
    as new/removed and never fail.
``loadtest``
    the ``repro loadtest --json`` report against
    ``results/loadtest_baseline.json``: client p95 at most 5x with a 10 ms
    floor, and seconds per answer (``1/throughput_qps``) at most 5x — the
    same test as throughput staying above baseline/5.  Both need 5
    completed requests per side; any failed request fails the gate.
``topology``
    best-of-3 ``seconds_per_build`` of every topology family against
    ``results/scenarios_throughput.json``: at most 3x (band 2.0).  A family
    without a baseline entry fails.

A builder who makes a stage slower must fix it or consciously re-commit
the baseline (``repro benchmark ... --metrics-out``, ``repro loadtest
--json``, ``bench_scenarios_throughput.py``).  Run from the repository
root::

    PYTHONPATH=src python benchmarks/check_regression.py spans \\
        --metrics benchmarks/results/metrics.json
    PYTHONPATH=src python benchmarks/check_regression.py loadtest \\
        --report benchmarks/results/loadtest_report.json
    PYTHONPATH=src python benchmarks/check_regression.py topology
"""

import argparse
import json
import sys
from pathlib import Path

from bench_scenarios_throughput import FAMILY_SIZES, _measure
from helpers import RESULTS_DIR
from repro.obs.analyze import diff_metrics

#: spans: p95 may grow to (1 + band)x, and must also grow by the floor —
#: sub-5ms spans are scheduler noise on shared CI runners
SPAN_BAND, SPAN_FLOOR_S, SPAN_MIN_COUNT = 4.0, 0.005, 5

#: loadtest: the served path is ~10ms end to end, so sub-10ms p95 deltas
#: are runner noise; a verdict on fewer completed requests is luck
LOADTEST_BAND, LOADTEST_FLOOR_S, LOADTEST_MIN_COMPLETED = 4.0, 0.010, 5

#: topology: the best of several attempts is compared, so scheduler noise
#: cannot fail the gate on its own
TOPOLOGY_BAND, TOPOLOGY_ATTEMPTS = 2.0, 3

SPAN_BASELINE = RESULTS_DIR / "obs_baseline.json"
LOADTEST_BASELINE = RESULTS_DIR / "loadtest_baseline.json"
TOPOLOGY_BASELINE = RESULTS_DIR / "scenarios_throughput.json"


def _read(label: str, path: Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {label} {path}: {error}", file=sys.stderr)
        return None


def _snapshot(histograms: dict) -> dict:
    """``{name: (count, p95)}`` as the metrics snapshot ``diff_metrics`` reads."""
    return {"histograms": {name: {"count": count, "p95": p95}
                           for name, (count, p95) in histograms.items()}}


def _span_snapshot(metrics: dict) -> dict:
    return _snapshot({name: (histogram.get("count"), histogram.get("p95"))
                      for name, histogram in metrics.get("histograms", {}).items()
                      if name.startswith("span.") and name.endswith(".seconds")})


def _loadtest_snapshot(report: dict) -> dict:
    completed, throughput = report.get("completed", 0), report["throughput_qps"]
    return _snapshot({
        "loadtest.latency_s": (completed, report["latency_s"]["p95"]),
        "loadtest.seconds_per_answer": (
            completed, 1.0 / throughput if throughput > 0 else float("inf")),
    })


def _compare(baseline: dict, current: dict, *, band: float, abs_floor: float,
             min_count: int, failures: list) -> int:
    """Diff two snapshots, print one line per metric, and return the exit code."""
    diff = diff_metrics(baseline, current, band=band, abs_floor=abs_floor,
                        min_count=min_count, quantiles=("p95",))
    limit = f"{1.0 + band:g}x"
    for entry in diff.entries:
        verdict = entry.status.upper() if entry.status != "ok" else (
            "ok" if entry.ratio is not None else "no verdict")
        ratio = f"{entry.ratio:.2f}x" if entry.ratio is not None else "-"
        print(f"{entry.name:40s} {entry.detail or 'n/a':36s} {ratio:>8s} {verdict}")
        if entry.status == "regression":
            failures.append(f"{entry.name}: {entry.detail} "
                            f"({entry.ratio:.2f}x, limit {limit})")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    compared = sum(1 for entry in diff.entries if entry.ratio is not None)
    print(f"all {compared} comparable metrics within {limit} of the committed baseline")
    return 0


def _spans(args) -> int:
    documents = [_read("baseline snapshot", args.baseline),
                 _read("current snapshot", args.metrics)]
    if None in documents:
        return 1
    baseline, current = (_span_snapshot(document) for document in documents)
    if not (baseline["histograms"] or current["histograms"]):
        print("no span histograms to compare — did the run export metrics?",
              file=sys.stderr)
        return 1
    return _compare(baseline, current, band=SPAN_BAND, abs_floor=SPAN_FLOOR_S,
                    min_count=SPAN_MIN_COUNT, failures=[])


def _loadtest(args) -> int:
    documents = [_read("baseline report", args.baseline),
                 _read("current report", args.report)]
    if None in documents:
        return 1
    current = documents[1]
    # checked before the comparison: a failed request fails the gate
    # whatever the sample count
    failures = []
    if current.get("failed", 0):
        failures.append(f"current run had {current['failed']} failed requests "
                        f"(statuses: {current.get('status_counts')})")
    baseline, current = (_loadtest_snapshot(document) for document in documents)
    return _compare(baseline, current, band=LOADTEST_BAND,
                    abs_floor=LOADTEST_FLOOR_S,
                    min_count=LOADTEST_MIN_COMPLETED, failures=failures)


def _topology(args) -> int:
    committed = _read("committed baseline", TOPOLOGY_BASELINE)
    if committed is None:
        return 1
    failures, baseline, current = [], {}, {}
    for family, params in sorted(FAMILY_SIZES.items()):
        if family not in committed:
            failures.append(f"{family}: no committed baseline entry "
                            f"(re-run the bench and commit the JSON)")
            continue
        name = f"topology.{family}.seconds_per_build"
        baseline[name] = (1, committed[family]["seconds_per_build"])
        current[name] = (1, min(_measure(family, params)["seconds_per_build"]
                                for _ in range(TOPOLOGY_ATTEMPTS)))
    return _compare(_snapshot(baseline), _snapshot(current), band=TOPOLOGY_BAND,
                    abs_floor=0.0, min_count=1, failures=failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="gate performance measurements against committed baselines")
    gates = parser.add_subparsers(dest="gate", required=True)
    spans = gates.add_parser("spans", help="per-span p95 latency of a metrics snapshot")
    spans.add_argument("--metrics", type=Path, required=True,
                       help="metrics snapshot exported by the current run")
    spans.add_argument("--baseline", type=Path, default=SPAN_BASELINE,
                       help=f"committed baseline snapshot (default {SPAN_BASELINE})")
    spans.set_defaults(run=_spans)
    loadtest = gates.add_parser("loadtest", help="served p95 latency and throughput")
    loadtest.add_argument("--report", type=Path, required=True,
                          help="load-test report JSON from the current run")
    loadtest.add_argument("--baseline", type=Path, default=LOADTEST_BASELINE,
                          help=f"committed baseline report (default {LOADTEST_BASELINE})")
    loadtest.set_defaults(run=_loadtest)
    topology = gates.add_parser("topology", help="topology generation time per family")
    topology.set_defaults(run=_topology)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
