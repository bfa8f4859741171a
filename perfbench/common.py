"""Shared helpers of the benchmark: locating the program, statistics,
provenance stamps and the output directory.

The benchmark never installs the program: it puts the checkout's ``src``
directory on ``sys.path`` (and on ``PYTHONPATH`` for the processes it
starts), so it measures exactly the source tree it was run from.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: per-run documents and traces; listed in the root .gitignore
OUT_DIR = BENCH_DIR / "out"

#: ``serve-temporal`` is not in BENCHMARK.json: the known threaded-validation
#: race fails some of its requests (see README.md)
WORKLOADS = ("malt-sweep", "traffic-sweep", "serve-direct", "serve-temporal")
#: the serving workloads and the backends their requests draw from
SERVE_BACKENDS = {"serve-direct": ("direct",),
                  "serve-temporal": ("direct", "networkx", "frames")}
#: verdicts recorded from the commit that defined the benchmark
REFERENCE = BENCH_DIR / "reference.json"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, failed launch)."""


def require_program() -> None:
    """Put the checkout's ``src`` on ``sys.path``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"the program is missing: expected the package at {SRC / 'repro'} "
            f"(run the benchmark from the root of a full checkout)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for the processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample itself, never interpolated)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = Path("/proc") / (str(pid) if pid else "self") / "status"
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM line in {path}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a whole process (all threads)."""
    fields = (Path("/proc") / str(pid) / "stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_ticks() -> Dict[str, int]:
    """Aggregate CPU ticks of the host from ``/proc/stat`` (steal, total)."""
    values = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return {"steal": values[7], "total": sum(values[:8])}


def steal_frac(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Share of the host's CPU time stolen by its hypervisor in between —
    a run with a large share measured a contended host, not the program."""
    total = after["total"] - before["total"]
    return (after["steal"] - before["steal"]) / total if total else 0.0


def thread_count(pid: int) -> int:
    """Threads alive in a process, from ``/proc``."""
    for line in (Path("/proc") / str(pid) / "status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    raise BenchmarkError(f"no Threads line for pid {pid}")


def _git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: no revision to report
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def provenance(workload: str, seed: int, trace: bool,
               runs: int) -> Dict[str, Any]:
    """The stamp every result carries; *runs* counts the repetitions the
    numbers aggregate (sweeps, or load phases for serving)."""
    require_program()
    import repro

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "runs": runs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "repro_version": repro.__version__,
        "git_rev": _git_rev(),
    }


def write_document(name: str, document: Dict[str, Any]) -> Path:
    """Write one JSON document under the output directory."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def verdict_rows(records) -> List[List[Any]]:
    """The verdict fields the correctness check compares, one row per cell."""
    return [[record.query_id, record.model, record.backend, record.passed,
             record.failure_stage, record.error_type] for record in records]


def rows_digest(rows: List[List[Any]]) -> str:
    import hashlib

    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def topology_seed(workload: str, seed: int) -> int:
    """The topology seed a batch run uses for benchmark seed *seed*.

    The verdict reference was recorded for a fixed number of topology seeds
    per workload, so benchmark seeds cycle through them.
    """
    count = json.loads(REFERENCE.read_text())["seeds"][workload]
    return seed % count


def expected_rows(workload: str, topology_seed: int) -> List[List[Any]]:
    """The reference verdict rows of one batch workload and topology seed."""
    reference = json.loads(REFERENCE.read_text())
    digest = reference["workloads"][workload][str(topology_seed)]
    return reference["tables"][digest]
