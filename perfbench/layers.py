"""Per-layer tracing from the benchmark's side of the program boundary.

:class:`LayerTracer` wraps public functions and methods of the ``repro``
layers on the request path, so the traced run can attribute time without a
single edit under ``src/``.  Each wrapped call records its count, its wall
time (``busy``) and its *self* time: the wall time minus the part spent in
wrapped calls it made on the same thread.  A wrapped call that made no
wrapped call is a leaf, so a layer's self time is what that layer itself
costs.

Callers bind many of these names at import (``core.application`` binds
``to_*``, ``core.pipeline`` binds ``from_*``, ``benchmark.evaluator`` binds
``diff_graphs``), so a function is replaced in *every* loaded ``repro``
module that holds it, not only where it is defined.  Install the tracer
after importing the program (:func:`import_program`) and before running it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import threading
import time
import weakref
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: modules whose module-level imports bind the wrapped names; importing them
#: before installing makes every such binding visible to the patcher
PROGRAM_MODULES = (
    "repro.graph", "repro.graph.convert", "repro.graph.diff", "repro.graph.stats",
    "repro.sqlengine.database", "repro.core", "repro.core.application",
    "repro.core.pipeline", "repro.core.prompts", "repro.core.codeblocks",
    "repro.llm.base", "repro.synthesis", "repro.synthesis.engine",
    "repro.synthesis.temporal", "repro.synthesis.reference",
    "repro.sandbox", "repro.sandbox.policy", "repro.sandbox.executor",
    "repro.benchmark.runner", "repro.benchmark.tasks",
    "repro.benchmark.goldens", "repro.benchmark.evaluator",
    "repro.exec", "repro.exec.api", "repro.exec.workers", "repro.api",
    "repro.scenarios", "repro.scenarios.engine", "repro.scenarios.overlay",
    "repro.scenarios.suite", "repro.scenarios.corpus", "repro.cost.analysis",
    "repro.serve.service",
)

#: (metric name, "module:attr" or "module:Class.method") of every wrapped call
WRAPPED: Tuple[Tuple[str, str], ...] = (
    ("graph.compute_stats", "repro.graph.stats:compute_stats"),
    ("graph.to_networkx", "repro.graph.convert:to_networkx"),
    ("graph.to_frames", "repro.graph.convert:to_frames"),
    ("graph.to_sql_database", "repro.graph.convert:to_sql_database"),
    ("graph.from_networkx", "repro.graph.convert:from_networkx"),
    ("graph.from_frames", "repro.graph.convert:from_frames"),
    ("graph.from_sql_database", "repro.graph.convert:from_sql_database"),
    ("graph.diff_graphs", "repro.graph.diff:diff_graphs"),
    ("sqlengine.execute", "repro.sqlengine.database:Database.execute"),
    ("core.build_prompt", "repro.core.prompts:build_prompt"),
    ("core.extract", "repro.core.codeblocks:extract_python_code"),
    ("core.extract", "repro.core.codeblocks:extract_sql_code"),
    ("llm.complete", "repro.llm.base:LlmProvider.complete"),
    ("synthesis.generate", "repro.synthesis.engine:CodeSynthesisEngine.generate"),
    ("synthesis.generate_temporal",
     "repro.synthesis.engine:CodeSynthesisEngine.generate_temporal"),
    ("synthesis.timeline_namespace", "repro.synthesis.temporal:timeline_namespace"),
    ("synthesis.reference", "repro.synthesis.reference:evaluate_reference"),
    ("synthesis.reference", "repro.synthesis.reference:evaluate_temporal_reference"),
    ("sandbox.validate_source", "repro.sandbox.policy:validate_source"),
    ("sandbox.execute", "repro.sandbox.executor:ExecutionSandbox.execute"),
    ("benchmark.run_query", "repro.benchmark.runner:BenchmarkRunner.run_query"),
    ("benchmark.run_benchmark_cell", "repro.benchmark.tasks:run_benchmark_cell"),
    ("benchmark.run_temporal_cell", "repro.benchmark.tasks:run_temporal_cell"),
    ("benchmark.golden_for", "repro.benchmark.goldens:GoldenAnswerSelector.golden_for"),
    ("benchmark.golden_for",
     "repro.benchmark.goldens:TemporalGoldenSelector.golden_for"),
    ("benchmark.evaluate", "repro.benchmark.evaluator:ResultsEvaluator.evaluate"),
    ("benchmark.evaluate",
     "repro.benchmark.evaluator:ResultsEvaluator.evaluate_temporal"),
    ("exec.run_tasks", "repro.exec.api:run_tasks"),
    ("exec.worker_context", "repro.exec.workers:worker_context"),
    ("api.answer_queries", "repro.api:answer_queries"),
    ("api.run_api_cell", "repro.api:run_api_cell"),
    ("scenarios.replay_scenario", "repro.scenarios.engine:replay_scenario"),
)

#: the fabric's cell workers: ``exec.run_tasks`` overhead is its wall time
#: minus the time spent inside the outermost of these
CELL_WORKERS = frozenset({"benchmark.run_benchmark_cell", "api.run_api_cell"})
#: the per-cell entry points whose self time is "unattributed" cell time
CELLS = ("benchmark.run_query", "benchmark.run_temporal_cell")
GRAPH_FUNCTIONS = ("compute_stats", "to_networkx", "to_frames", "to_sql_database",
                   "from_networkx", "from_frames", "from_sql_database",
                   "diff_graphs")
VIEW_FUNCTIONS = ("graph.to_networkx", "graph.to_frames", "graph.to_sql_database")


def import_program() -> None:
    """Import every module that binds a wrapped name."""
    for name in PROGRAM_MODULES:
        importlib.import_module(name)


class _Frame:
    __slots__ = ("name", "parent", "child_s", "children", "in_worker")

    def __init__(self, name: str, parent: Optional[str], in_worker: bool) -> None:
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.children: set = set()
        self.in_worker = in_worker


class LayerTracer:
    """Wraps the program's layers and accumulates per-layer statistics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        #: name -> [calls, busy seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        #: id -> weak reference of every graph a view was built from (graphs
        #: are unhashable; the reference guards against a recycled id)
        self._view_graphs: Dict[int, "weakref.ref[Any]"] = {}
        self._sources: set = set()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _timed(self, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
        tracer = self
        is_worker = name in CELL_WORKERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            in_worker = parent is not None and parent.in_worker
            frame = _Frame(name, parent.name if parent else None,
                           in_worker or is_worker)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent.child_s += elapsed
                    parent.children.add(name)
                with tracer._lock:
                    entry = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame.child_s
                    if is_worker and not in_worker:
                        tracer.counts["exec.cell_worker_us"] += int(elapsed * 1e6)
            if after is not None:
                after(args, result, frame)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # per-call hooks: the ratios are measured where the work happens
    # ------------------------------------------------------------------
    def _after_view(self, args, result, frame) -> None:
        if frame.parent in VIEW_FUNCTIONS:
            return  # to_sql_database builds its tables through to_frames
        graph = args[0]
        with self._lock:
            self.counts["graph.views"] += 1
            seen = self._view_graphs.get(id(graph))
            if seen is None or seen() is not graph:
                self._view_graphs[id(graph)] = weakref.ref(graph)
                self.counts["graph.view_graphs"] += 1

    def _after_diff(self, args, result, frame) -> None:
        if result.is_empty:
            self.count("graph.diff_graphs.empty")

    def _after_complete(self, args, result, frame) -> None:
        self.count("llm.prompt_tokens", result.prompt_tokens)

    def _after_execute(self, args, result, frame) -> None:
        if result.failed:
            self.count("sandbox.execute.failed")

    def _after_golden(self, args, result, frame) -> None:
        if "synthesis.reference" not in frame.children:
            self.count("benchmark.golden_for.hits")

    def _wrap_validate(self, fn: Callable) -> Callable:
        timed = self._timed("sandbox.validate_source", fn)
        tracer = self

        @functools.wraps(fn)
        def validate_source(source, *args, **kwargs):
            digest = hashlib.sha1(source.encode("utf-8")).digest()
            with tracer._lock:
                tracer._sources.add(digest)
            return timed(source, *args, **kwargs)

        return validate_source

    def _wrap_worker_context(self, fn: Callable) -> Callable:
        timed = self._timed("exec.worker_context", fn)
        tracer = self

        @functools.wraps(fn)
        def worker_context(key, builder):
            def counted_builder():
                tracer.count("exec.worker_context.builds")
                return builder()
            return timed(key, counted_builder)

        return worker_context

    def _wrapper_for(self, name: str, fn: Callable) -> Callable:
        if name == "sandbox.validate_source":
            return self._wrap_validate(fn)
        if name == "exec.worker_context":
            return self._wrap_worker_context(fn)
        hooks = {
            "graph.to_networkx": self._after_view,
            "graph.to_frames": self._after_view,
            "graph.to_sql_database": self._after_view,
            "graph.diff_graphs": self._after_diff,
            "llm.complete": self._after_complete,
            "sandbox.execute": self._after_execute,
            "benchmark.golden_for": self._after_golden,
        }
        return self._timed(name, fn, hooks.get(name))

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        """Wrap every entry of :data:`WRAPPED` (uninstall before installing
        again); statistics accumulate across installations."""
        import_program()
        for name, target in WRAPPED:
            module_name, _, attr = target.partition(":")
            module = sys.modules[module_name]
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patched.append((owner, method, original))
                setattr(owner, method, self._wrapper_for(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper_for(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (loaded_name == "repro"
                                          or loaded_name.startswith("repro.")):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patched.append((loaded, binding, original))
                        setattr(loaded, binding, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Raw totals, JSON-safe (the server writes them to a file)."""
        with self._lock:
            return {
                "stats": {name: list(entry) for name, entry in self.stats.items()},
                "counts": dict(self.counts),
                "distinct_sources": len(self._sources),
            }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(snapshot: Dict[str, Any], runs: int) -> Dict[str, float]:
    """The named per-layer metrics from raw totals, per run.

    *runs* is the number of repetitions the totals cover (sweeps for the
    batch workloads, 1 for the fixed serving schedule); counts and times
    are divided by it so that runs of different length compare.
    """
    stats = snapshot["stats"]
    counts = snapshot["counts"]
    runs = max(1, runs)

    def calls(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[0] / runs

    def busy_ms(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[1] * 1000.0 / runs

    def self_ms(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[2] * 1000.0 / runs

    out: Dict[str, float] = {}
    for function in GRAPH_FUNCTIONS:
        out[f"graph.{function}.calls"] = calls(f"graph.{function}")
        out[f"graph.{function}.busy_ms"] = busy_ms(f"graph.{function}")
    out["graph.diff_graphs.empty_frac"] = _ratio(
        counts.get("graph.diff_graphs.empty", 0), calls("graph.diff_graphs") * runs)
    out["graph.views_per_graph"] = _ratio(
        counts.get("graph.views", 0), counts.get("graph.view_graphs", 0))
    out["sqlengine.execute.calls"] = calls("sqlengine.execute")
    out["sqlengine.execute.busy_ms"] = busy_ms("sqlengine.execute")
    out["core.build_prompt.calls"] = calls("core.build_prompt")
    out["core.build_prompt.busy_ms"] = busy_ms("core.build_prompt")
    out["core.extract.busy_ms"] = busy_ms("core.extract")
    out["llm.complete.busy_ms"] = busy_ms("llm.complete")
    out["llm.prompt_tokens"] = counts.get("llm.prompt_tokens", 0) / runs
    out["synthesis.generate.busy_ms"] = busy_ms("synthesis.generate")
    out["synthesis.generate_temporal.busy_ms"] = busy_ms("synthesis.generate_temporal")
    out["synthesis.timeline_namespace.calls"] = calls("synthesis.timeline_namespace")
    out["synthesis.timeline_namespace.busy_ms"] = busy_ms("synthesis.timeline_namespace")
    out["sandbox.validate_source.calls"] = calls("sandbox.validate_source")
    out["sandbox.validate_source.busy_ms"] = busy_ms("sandbox.validate_source")
    out["sandbox.execute.calls"] = calls("sandbox.execute")
    out["sandbox.execute.busy_ms"] = busy_ms("sandbox.execute")
    # repeated runs validate the same sources, so the distinct count is
    # already a per-run figure
    out["sandbox.distinct_source_frac"] = _ratio(
        snapshot["distinct_sources"], calls("sandbox.validate_source"))
    out["sandbox.execute.fail_frac"] = _ratio(
        counts.get("sandbox.execute.failed", 0), calls("sandbox.execute") * runs)
    out["benchmark.run_query.busy_ms"] = busy_ms("benchmark.run_query")
    out["benchmark.run_temporal_cell.busy_ms"] = busy_ms("benchmark.run_temporal_cell")
    out["benchmark.golden_for.busy_ms"] = busy_ms("benchmark.golden_for")
    out["benchmark.golden_for.hit_frac"] = _ratio(
        counts.get("benchmark.golden_for.hits", 0), calls("benchmark.golden_for") * runs)
    out["benchmark.evaluate.self_ms"] = self_ms("benchmark.evaluate")
    out["benchmark.unattributed_frac"] = _ratio(
        sum(self_ms(name) for name in CELLS), sum(busy_ms(name) for name in CELLS))
    out["exec.run_tasks.overhead_ms"] = (
        busy_ms("exec.run_tasks")
        - counts.get("exec.cell_worker_us", 0) / 1000.0 / runs)
    out["exec.worker_context.build_frac"] = _ratio(
        counts.get("exec.worker_context.builds", 0),
        calls("exec.worker_context") * runs)
    out["api.answer_queries.busy_ms"] = busy_ms("api.answer_queries")
    out["scenarios.replay_scenario.calls"] = calls("scenarios.replay_scenario")
    out["scenarios.replay_scenario.busy_ms"] = busy_ms("scenarios.replay_scenario")
    return out
