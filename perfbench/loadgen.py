"""Open-loop load against an out-of-process ``repro serve``.

This generator is written to avoid the measurement faults of the
program's own ``repro loadtest``:

* the server runs in its own process (:class:`ServerProcess`), never on a
  thread sharing the generator's interpreter lock;
* each request is timed from its *due* time, so a stall is charged to every
  request it delays, and the generator's own lateness is reported;
* server-side numbers are per-phase deltas of the ``/metrics`` histogram
  (bucket counts subtract exactly), never the lifetime histogram;
* at most ``nproc`` requests are in flight; a due request that finds every
  connection busy waits in the generator's queue, and that wait is part of
  its latency.

The client speaks HTTP/1.1 itself rather than through the program's client
helper, so a change to the program cannot change how it is measured.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (BENCH_DIR, ROOT, SERVE_BACKENDS, BenchmarkError, child_env,
                    percentile, thread_count)

#: the server-side histogram the phases take deltas of
HANDLER_HISTOGRAM = "span.serve.request.seconds"

ZIPF_EXPONENT = 1.1
REQUEST_TIMEOUT_S = 10.0
_LISTENING = re.compile(r"listening on ([\w.\-:]+):(\d+)")


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` with its CLI defaults, in a process of its own.

    The port is the only argument that differs from the defaults (``0``, so
    parallel checkouts cannot collide); ``--log-level info`` makes the
    server print the port it bound.  With *cpu* the server runs on that CPU
    only.
    """

    def __init__(self, trace_out: Optional[str] = None,
                 cpu: Optional[int] = None) -> None:
        self.trace_out = trace_out
        self.cpu = cpu
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.log: List[str] = []
        self._port_ready = threading.Event()
        self._drain: Optional[threading.Thread] = None

    def _read_stderr(self) -> None:
        assert self.process is not None and self.process.stderr is not None
        for raw in self.process.stderr:
            line = raw.decode("utf-8", "replace").rstrip()
            if len(self.log) < 2000:
                self.log.append(line)
            match = _LISTENING.search(line)
            if match and not self._port_ready.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._port_ready.set()

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn and wait for ``/healthz``; returns seconds from spawn."""
        command = [sys.executable, str(BENCH_DIR / "server.py")]
        if self.cpu is not None:
            command += ["--cpu", str(self.cpu)]
        if self.trace_out:
            command += ["--trace-out", self.trace_out]
        command += ["--", "--log-level", "info", "serve", "--port", "0"]
        started = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        deadline = started + timeout_s
        while not self._port_ready.wait(0.01):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchmarkError(
                    "repro serve did not start: " + " | ".join(self.log[-5:]))
        while True:
            try:
                status, _ = asyncio.run(http_json(self.host, self.port, "GET",
                                                  "/healthz", timeout_s=2.0))
                if status == 200:
                    return time.monotonic() - started
            except (OSError, asyncio.TimeoutError):
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise BenchmarkError("repro serve never answered /healthz")
            time.sleep(0.005)

    def stop(self, timeout_s: float = 15.0) -> None:
        """SIGINT (the CLI's clean shutdown), then kill if it hangs."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout_s)
        if self._drain is not None:
            self._drain.join(timeout_s)


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------
async def http_json(host: str, port: int, method: str, path: str,
                    payload: Any = None,
                    timeout_s: float = REQUEST_TIMEOUT_S) -> Tuple[int, Any]:
    """One request over a fresh connection; ``(status, parsed body)``."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1")

    async def exchange() -> bytes:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(head + body)
            await writer.drain()
            return await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    raw = await asyncio.wait_for(exchange(), timeout_s)
    header_block, _, payload_bytes = raw.partition(b"\r\n\r\n")
    status = int(header_block.split(b" ", 2)[1])
    return status, json.loads(payload_bytes) if payload_bytes else None


def get_json(server: ServerProcess, path: str) -> Any:
    status, document = asyncio.run(http_json(server.host, server.port, "GET", path))
    if status != 200:
        raise BenchmarkError(f"GET {path} answered {status}")
    return document


# ---------------------------------------------------------------------------
# the request mix
# ---------------------------------------------------------------------------
def temporal_corpus() -> List[Tuple[str, str]]:
    """(scenario, query id) of the temporal corpus, in corpus order."""
    from repro.benchmark.queries import temporal_queries_for, temporal_scenario_names

    return [(scenario, query.query_id) for scenario in temporal_scenario_names()
            for query in temporal_queries_for(scenario)]


def request_mix(workload: str, seed: int, label: str,
                count: int) -> List[Dict[str, str]]:
    """A seeded Zipf mix over the corpus, each with a backend drawn uniformly
    from the serving *workload*'s backends.

    Query popularity follows corpus order (rank ``r`` has weight
    ``1/r^1.1``); only the draw depends on the seed and the phase *label*.
    """
    corpus = temporal_corpus()
    backends = SERVE_BACKENDS[workload]
    rng = random.Random(f"{workload}/{seed}/{label}")
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(corpus) + 1)]
    picks = rng.choices(range(len(corpus)), weights=weights, k=count)
    return [{"scenario": corpus[index][0], "query": corpus[index][1],
             "backend": rng.choice(backends)} for index in picks]


def warmup_mix(workload: str) -> List[Dict[str, str]]:
    """Every (scenario, query, backend) the *workload*'s mix can draw, once."""
    return [{"scenario": scenario, "query": query, "backend": backend}
            for scenario, query in temporal_corpus()
            for backend in SERVE_BACKENDS[workload]]


def batch_mix(workload: str, seed: int, label: str,
              count: int) -> List[Dict[str, Any]]:
    """*count* batch bodies, each holding every (scenario, query, backend)
    of :func:`warmup_mix` once (so nothing in a batch collapses into a
    duplicate), in an order drawn from the seed and the phase *label*."""
    rng = random.Random(f"{workload}/{seed}/{label}")
    items = warmup_mix(workload)
    bodies = []
    for _ in range(count):
        rng.shuffle(items)
        bodies.append({"requests": list(items)})
    return bodies


# ---------------------------------------------------------------------------
# one open-loop phase
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    status: int                 # HTTP status, 0 when the request itself failed
    latency_s: float            # completion minus due time
    lag_s: float                # generator lateness: enqueue minus due time
    conn_wait_s: float          # wait for a free connection
    body: Dict[str, str]
    document: Any = None
    error: Optional[str] = None


@dataclass
class PhaseResult:
    label: str
    rate: float
    outcomes: List[Outcome]
    elapsed_s: float
    backlog_at_end: int
    handler: Dict[str, float] = field(default_factory=dict)
    threads_before: int = 0
    threads_after: int = 0

    @property
    def failed(self) -> List[Outcome]:
        return [outcome for outcome in self.outcomes if outcome.status != 200]

    def latency_ms(self, fraction: float) -> float:
        """Latency percentile with failed requests counted as misses."""
        latencies = [math.inf if outcome.status != 200 else outcome.latency_s
                     for outcome in self.outcomes]
        return percentile(latencies, fraction) * 1000.0

    @property
    def achieved_rate(self) -> float:
        ok = sum(1 for outcome in self.outcomes if outcome.status == 200)
        return ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def summary(self) -> Dict[str, Any]:
        failures = {}
        for outcome in self.failed:
            failures[outcome.error] = failures.get(outcome.error, 0) + 1
        return {
            "label": self.label, "rate_qps": self.rate,
            "requests": len(self.outcomes), "failed": len(self.failed),
            "failures": failures,
            "p50_ms": self.latency_ms(0.50), "p90_ms": self.latency_ms(0.90),
            "p99_ms": self.latency_ms(0.99),
            "achieved_qps": self.achieved_rate,
            "backlog_at_end": self.backlog_at_end,
            "lag_p99_ms": percentile([o.lag_s for o in self.outcomes], 0.99) * 1e3,
            "conn_wait_p99_ms": percentile(
                [o.conn_wait_s for o in self.outcomes], 0.99) * 1e3,
            "handler": self.handler,
            "threads_leaked": self.threads_after - self.threads_before,
        }


def unbatch(outcomes: Sequence[Outcome]) -> List[Outcome]:
    """One outcome per query of batch requests; a failed batch fails each."""
    result = []
    for outcome in outcomes:
        items = outcome.body["requests"]
        answers = (outcome.document or {}).get("answers") if outcome.status == 200 else None
        if not isinstance(answers, list) or len(answers) != len(items):
            answers = [None] * len(items)
            if outcome.status == 200:
                outcome = replace(outcome, status=0, error="client: malformed batch answer")
        result += [replace(outcome, body=item, document=answer)
                   for item, answer in zip(items, answers)]
    return result


def _error_line(status: int, document: Any) -> str:
    if isinstance(document, dict) and isinstance(document.get("error"), dict):
        message = str(document["error"].get("message", ""))
        return f"{status}: {message.splitlines()[0] if message else ''}"
    return f"{status}: (no error document)"


async def _open_loop(host: str, port: int, bodies: Sequence[Dict[str, str]],
                     rate: float, connections: int,
                     abort_over_s: Optional[float]) -> Tuple[List[Outcome], float, int]:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: List[Optional[Outcome]] = [None] * len(bodies)
    origin = loop.time() + 0.05
    backlog = [0]
    # more misses than this and the phase's p99 can no longer meet the limit
    miss_budget = len(bodies) // 100
    misses = [0]

    def aborted() -> bool:
        return abort_over_s is not None and misses[0] > miss_budget

    async def ticker() -> None:
        for index in range(len(bodies)):
            if aborted():
                break
            due = origin + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due, loop.time()))
        backlog[0] = queue.qsize()
        for _ in range(connections):
            queue.put_nowait(None)

    async def connection() -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due, enqueued = item
            if aborted():
                continue
            sent = loop.time()
            try:
                status, document = await http_json(host, port, "POST", "/query",
                                                   bodies[index])
                error = None if status == 200 else _error_line(status, document)
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                status, document, error = 0, None, f"client: {type(exc).__name__}"
            done = loop.time()
            outcomes[index] = Outcome(
                status=status, latency_s=done - due, lag_s=enqueued - due,
                conn_wait_s=sent - enqueued, body=bodies[index],
                document=document, error=error)
            if abort_over_s is not None and (status != 200 or done - due > abort_over_s):
                misses[0] += 1

    await asyncio.gather(ticker(), *[connection() for _ in range(connections)])
    elapsed = loop.time() - origin
    return [outcome for outcome in outcomes if outcome is not None], elapsed, backlog[0]


def _histogram(metrics: Dict[str, Any]) -> Dict[str, Any]:
    return metrics.get("histograms", {}).get(HANDLER_HISTOGRAM) or {"buckets": {}}


def histogram_delta_quantiles(before: Dict[str, Any],
                              after: Dict[str, Any]) -> Dict[str, float]:
    """p50/p99 (ms) of the observations made between two snapshots.

    The buckets are the program's own (:mod:`repro.obs.metrics`); a quantile
    reads as its bucket's upper bound, as the program's histograms do.
    """
    from repro.obs.metrics import HISTOGRAM_FLOOR, bucket_upper_bound

    counts: Dict[str, int] = {}
    for key, count in _histogram(after)["buckets"].items():
        counts[key] = count - _histogram(before)["buckets"].get(key, 0)
    total = sum(counts.values())
    result = {"count": float(total)}
    ordered = sorted(((float("-inf") if key == "underflow" else int(key)), count)
                     for key, count in counts.items() if count > 0)
    for name, fraction in (("p50_ms", 0.50), ("p99_ms", 0.99)):
        rank, seen, value = math.ceil(fraction * total), 0, 0.0
        for index, count in ordered:
            seen += count
            if seen >= rank:
                value = (HISTOGRAM_FLOOR if index == float("-inf")
                         else bucket_upper_bound(index))
                break
        result[name] = value * 1000.0
    return result


def run_phase(server: ServerProcess, label: str, bodies: Sequence[Dict[str, str]],
              rate: float, connections: int,
              abort_over_ms: Optional[float] = None) -> PhaseResult:
    """Drive one phase and take the server-side deltas around it.

    With *abort_over_ms*, the phase stops sending once more than 1% of its
    requests took longer than that (or failed): its p99 has then missed the
    limit whatever the rest would do, and an overloaded phase ends quickly.
    """
    threads_before = thread_count(server.process.pid)
    metrics_before = get_json(server, "/metrics")
    outcomes, elapsed, backlog = asyncio.run(_open_loop(
        server.host, server.port, bodies, rate, connections,
        None if abort_over_ms is None else abort_over_ms / 1000.0))
    metrics_after = get_json(server, "/metrics")
    return PhaseResult(
        label=label, rate=rate, outcomes=outcomes, elapsed_s=elapsed,
        backlog_at_end=backlog,
        handler=histogram_delta_quantiles(metrics_before, metrics_after),
        threads_before=threads_before,
        threads_after=thread_count(server.process.pid))


def post_all(server: ServerProcess, bodies: Sequence[Dict[str, Any]],
             connections: int) -> List[Outcome]:
    """Send *bodies* as fast as *connections* allow (the warm-up pass and
    the saturated capacity phase)."""
    outcomes, _, _ = asyncio.run(_open_loop(
        server.host, server.port, bodies, 1e9, connections, None))
    return outcomes

