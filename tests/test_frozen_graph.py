"""Frozen graphs and their per-graph memo.

A frozen :class:`PropertyGraph` refuses mutation, and its conversions,
statistics and diffs may answer from a memo.  These tests pin the contract
(mutators raise, copies are mutable, the memo never travels) and check that
the memo is invisible: every benchmark cell and every view mutation gives
exactly what the same work gives on an unfrozen graph.
"""

import dataclasses
import gc
import pickle
import threading
import weakref

import pytest

from repro.benchmark.queries import queries_for
from repro.benchmark.runner import MALT_BACKENDS, TRAFFIC_BACKENDS, BenchmarkRunner
from repro.benchmark.tasks import _build_application
from repro.core.pipeline import NetworkManagementPipeline, QueryRequest
from repro.graph import GraphError, PropertyGraph, compute_stats, diff_graphs
from repro.graph.convert import (
    from_frames,
    from_networkx,
    from_sql_database,
    to_frames,
    to_networkx,
    to_sql_database,
)
from repro.graph.model import GraphMemo
from repro.llm.base import LlmProvider


def image(graph):
    """Everything a graph holds, as exact bytes (order and types included)."""
    return pickle.dumps((graph.name, graph.directed, graph.graph_attributes,
                         graph._nodes, graph._succ, graph._pred))


def sample_graph():
    graph = PropertyGraph("sample")
    graph.graph_attributes["application"] = "test"
    graph.add_node("a", type="host", capacity=10)
    graph.add_node("b", type="router", capacity=40)
    graph.add_node("c", type="host", capacity=5)
    graph.add_edge("a", "b", bytes=100, kind="link")
    graph.add_edge("c", "b", bytes=7, kind="link")
    graph.add_edge("b", "a", bytes=50, kind="link")
    graph.add_edge("b", "c", bytes=10, kind="link")
    return graph


# ---------------------------------------------------------------------------
# the freeze contract
# ---------------------------------------------------------------------------
MUTATORS = {
    "add_node": lambda g: g.add_node("z", type="host"),
    "add_node_existing": lambda g: g.add_node("a", type="switch"),
    "remove_node": lambda g: g.remove_node("a"),
    "set_node_attribute": lambda g: g.set_node_attribute("a", "type", "switch"),
    "add_edge": lambda g: g.add_edge("a", "c", bytes=1),
    "remove_edge": lambda g: g.remove_edge("a", "b"),
    "set_edge_attribute": lambda g: g.set_edge_attribute("a", "b", "bytes", 1),
}


class TestFreezeContract:
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_mutators_raise_on_a_frozen_graph(self, mutator):
        graph = sample_graph().freeze()
        before = image(graph)
        with pytest.raises(GraphError, match="frozen"):
            MUTATORS[mutator](graph)
        assert image(graph) == before

    def test_copy_of_a_frozen_graph_is_mutable(self):
        graph = sample_graph().freeze()
        duplicate = graph.copy()
        assert not duplicate.frozen and graph.frozen
        assert image(duplicate) == image(graph.copy())
        for mutator in MUTATORS.values():
            mutator(duplicate.copy())  # none raises
        duplicate.add_node("z")
        assert not graph.has_node("z")

    def test_pickled_frozen_graph_carries_no_memo(self):
        graph = sample_graph().freeze()
        compute_stats(graph)
        from_networkx(to_networkx(graph))
        assert graph._memo is not None
        restored = pickle.loads(pickle.dumps(graph))
        assert "_memo" not in vars(restored) and restored._memo is None
        assert restored.frozen and image(restored) == image(graph)

    def test_unfrozen_graph_pickles_as_before(self):
        graph = sample_graph()
        compute_stats(graph)
        assert set(vars(graph)) == {"name", "directed", "_nodes", "_succ", "_pred",
                                    "graph_attributes"}

    def test_memo_is_built_lazily(self):
        graph = sample_graph().freeze()
        assert graph._memo is None
        compute_stats(graph)
        assert graph._memo is not None

    def test_stats_are_copies_of_one_computation(self):
        graph = sample_graph().freeze()
        first = compute_stats(graph)
        first.node_attribute_keys.append("tampered")
        first.edge_weight_totals["bytes"] = -1.0
        second = compute_stats(graph)
        assert second == compute_stats(sample_graph())
        assert compute_stats(graph, weight_keys=["bytes"]).edge_weight_totals == {
            "bytes": 167.0}

    def test_shared_storage_diff_keeps_nan_mismatches(self):
        graph = sample_graph()
        graph.set_node_attribute("a", "load", float("nan"))
        graph.freeze()
        shared = from_networkx(to_networkx(graph))
        assert shared._shares_storage_with(graph)
        diff = diff_graphs(graph, shared)
        assert not diff.is_empty
        assert [(n, k) for n, k, _, _ in diff.node_attribute_mismatches] == [("a", "load")]
        diff.node_attribute_mismatches.clear()
        assert not diff_graphs(graph, shared).is_empty  # a copy was handed out

    def test_benchmark_builder_freezes_the_context_graph(self, small_benchmark_config):
        application = _build_application(small_benchmark_config.to_payload(),
                                         {"kind": "generated", "application": "malt"})
        assert application.graph.frozen and application.graph._memo is None


class TestMemoThreads:
    def test_concurrent_fills_build_once(self):
        memo = GraphMemo()
        builds = []
        barrier = threading.Barrier(6)

        def build():
            builds.append(1)
            return object()

        seen = []

        def worker():
            barrier.wait()
            seen.append(memo.get("key", build))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1 and len({id(value) for value in seen}) == 1

    def test_concurrent_round_trips_match_serial(self, malt_app):
        # a pickled copy, unlike copy(), keeps the generator's predecessor order
        graph = pickle.loads(pickle.dumps(malt_app.graph)).freeze()
        expected = image(from_networkx(to_networkx(malt_app.graph)))
        barrier = threading.Barrier(4)
        images = []

        def worker(backend):
            barrier.wait()
            for _ in range(3):
                if backend == "networkx":
                    result = from_networkx(to_networkx(graph))
                elif backend == "frames":
                    result = from_frames(*to_frames(graph), name=graph.name)
                else:
                    result = from_sql_database(to_sql_database(graph), name=graph.name)
                images.append((backend, image(result), compute_stats(graph)))

        threads = [threading.Thread(target=worker, args=(backend,))
                   for backend in ("networkx", "frames", "sql", "networkx")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(images) == 12
        stats = compute_stats(malt_app.graph)
        frames_image = image(from_frames(*to_frames(malt_app.graph), name=graph.name))
        for backend, result_image, result_stats in images:
            assert result_stats == stats
            assert result_image == (expected if backend == "networkx" else frames_image)


# ---------------------------------------------------------------------------
# every benchmark cell: frozen and unfrozen context graphs agree
# ---------------------------------------------------------------------------
def _application(config, app_context, frozen):
    """The builder's frozen application, or the same one left unfrozen."""
    if frozen:
        return _build_application(config.to_payload(), app_context)
    if app_context["kind"] == "strawman":
        return config.strawman_application()
    if app_context["application"] == "malt":
        return config.malt_application()
    return config.traffic_application()


def _sweep(config, app_context, application_name, backends, frozen):
    application = _application(config, app_context, frozen)
    before = image(application.graph)
    runner = BenchmarkRunner(config)
    records = [dataclasses.asdict(runner.run_query(application, query, model, backend))
               for backend in backends
               for query in queries_for(application_name)
               for model in config.models]
    assert application.graph.frozen == frozen
    if frozen:
        # the sweep did take the shared-storage path for every backend kind
        # (the strawman answers in JSON and converts nothing)
        checked = {key[1] for key, exact in application.graph._memo._values.items()
                   if key[0] == "round-trip" and exact}
        assert checked == (set() if backends == ["strawman"] else {"networkx", "frames"})
    return records, before, image(application.graph)


class TestFrozenSweepsMatchUnfrozen:
    @pytest.mark.parametrize("application_name", ["malt", "traffic_analysis"])
    def test_every_cell_record_is_identical(self, small_benchmark_config,
                                            application_name):
        contexts = [({"kind": "generated", "application": application_name},
                     MALT_BACKENDS if application_name == "malt"
                     else [b for b in TRAFFIC_BACKENDS if b != "strawman"])]
        if application_name == "traffic_analysis":
            contexts.append(({"kind": "strawman"}, ["strawman"]))
        for app_context, backends in contexts:
            frozen, frozen_graph, _ = _sweep(small_benchmark_config, app_context,
                                             application_name, backends, frozen=True)
            plain, plain_graph, _ = _sweep(small_benchmark_config, app_context,
                                           application_name, backends, frozen=False)
            assert frozen_graph == plain_graph
            assert len(frozen) == len(plain) > 0
            for frozen_record, plain_record in zip(frozen, plain):
                assert frozen_record == plain_record

    def test_small_malt_sweep_leaves_the_context_graph_unchanged(
            self, small_benchmark_config):
        _, before, after = _sweep(small_benchmark_config,
                                  {"kind": "generated", "application": "malt"},
                                  "malt", MALT_BACKENDS, frozen=True)
        assert after == before


# ---------------------------------------------------------------------------
# targeted view mutations, each against the unfrozen path
# ---------------------------------------------------------------------------
def _round_trip(graph, backend, mutate):
    if backend == "networkx":
        view = to_networkx(graph)
        mutate(view)
        return from_networkx(view)
    if backend == "frames":
        nodes_df, edges_df = to_frames(graph)
        nodes_df, edges_df = mutate(nodes_df, edges_df)
        return from_frames(nodes_df, edges_df, directed=graph.directed)
    database = to_sql_database(graph)
    mutate(database)
    return from_sql_database(database, directed=graph.directed)


def _untouched(backend):
    if backend == "frames":
        return lambda nodes_df, edges_df: (nodes_df, edges_df)
    return lambda view: None


def _frames_case(mutate_nodes=None, mutate_edges=None):
    def mutate(nodes_df, edges_df):
        if mutate_nodes is not None:
            nodes_df = mutate_nodes(nodes_df) or nodes_df
        if mutate_edges is not None:
            edges_df = mutate_edges(edges_df) or edges_df
        return nodes_df, edges_df
    return mutate


def _setitem(frame, column, values):
    frame[column] = values


def _sql(*statements):
    def mutate(database):
        for statement in statements:
            database.execute(statement)
    return mutate


def _read_views(view):
    list(view.edges(data=True))
    dict(view.degree)
    list(view.nodes)


def _read_then(mutate):
    def run(view):
        _read_views(view)
        mutate(view)
    return run


def _set_node_attr(key, value):
    def mutate(view):
        view.nodes["a"][key] = value
    return mutate


VIEW_CASES = {
    "networkx": {
        "read-only": _read_views,
        "add_node": lambda G: G.add_node("z", type="host"),
        "add_nodes_from": lambda G: G.add_nodes_from([("y", {"type": "x"}), "z"]),
        "remove_node": lambda G: G.remove_node("a"),
        "remove_nodes_from": lambda G: G.remove_nodes_from(["a", "c"]),
        "add_edge": lambda G: G.add_edge("a", "c", bytes=3),
        "add_edges_from": lambda G: G.add_edges_from([("c", "a"), ("a", "z")]),
        "add_weighted_edges_from": lambda G: G.add_weighted_edges_from([("a", "c", 2.5)]),
        "remove_edge": lambda G: G.remove_edge("a", "b"),
        "remove_edges_from": lambda G: G.remove_edges_from([("a", "b"), ("b", "c")]),
        "update": lambda G: G.update(edges=[("c", "a")], nodes=["q"]),
        "clear_edges": lambda G: G.clear_edges(),
        "clear": lambda G: G.clear(),
        "node-attr-set": _set_node_attr("type", "switch"),
        "node-attr-new": _set_node_attr("zone", 3),
        "node-attr-del": lambda G: G.nodes["a"].pop("type"),
        "edge-attr-set": lambda G: G["a"]["b"].update(bytes=101),
        "edge-attr-subscript": lambda G: G["b"]["c"].__setitem__("kind", "x"),
        "graph-attr": lambda G: G.graph.__setitem__("application", "other"),
        "graph-name": lambda G: G.graph.__setitem__("name", "renamed"),
        "int-to-float": _set_node_attr("capacity", 10.0),
        "bool-for-int": _set_node_attr("capacity", True),
        "nan-attr": _set_node_attr("capacity", float("nan")),
        "none-attr": _set_node_attr("capacity", None),
        "read-then-mutate": _read_then(lambda G: G.remove_edge("a", "b")),
        "order-only": lambda G: (G.remove_edge("a", "b"), G.add_edge("a", "b", bytes=100,
                                                                       kind="link")),
        "mutate-then-restore": lambda G: (G.nodes["a"].__setitem__("capacity", 11),
                                          G.nodes["a"].__setitem__("capacity", 10)),
    },
    "frames": {
        "read-only": _frames_case(lambda df: df["capacity"].sum() and None),
        "setitem-new": _frames_case(lambda df: _setitem(df, "zone", 1)),
        "setitem-replace": _frames_case(lambda df: _setitem(df, "type", ["x", "y", "z"])),
        "int-to-float": _frames_case(lambda df: _setitem(df, "capacity", [10.0, 40, 5])),
        "nan-attr": _frames_case(lambda df: _setitem(df, "capacity",
                                                     [float("nan"), 40, 5])),
        "none-attr": _frames_case(lambda df: _setitem(df, "capacity", [None, 40, 5])),
        "reassigned-node-frame": _frames_case(lambda df: df[df["type"] == "host"]),
        "reassigned-edge-frame": _frames_case(
            mutate_edges=lambda df: df[df["bytes"] > 20]),
        "copied-frames": _frames_case(lambda df: df.copy(), lambda df: df.copy()),
        "edge-setitem": _frames_case(mutate_edges=lambda df: _setitem(df, "bytes",
                                                                      [1, 2, 3, 4])),
        "swapped": lambda nodes_df, edges_df: (edges_df, nodes_df),
    },
    "sql": {
        "read-only": _sql("SELECT COUNT(*) FROM nodes"),
        "update": _sql("UPDATE nodes SET type = 'switch' WHERE id = 'a'"),
        "update-int-to-float": _sql("UPDATE nodes SET capacity = 10.0 WHERE id = 'a'"),
        "insert": _sql("INSERT INTO nodes (id, type, capacity) VALUES ('z', 'host', 1)"),
        "insert-edge": _sql("INSERT INTO edges (source, target, bytes) VALUES ('a', 'c', 5)"),
        "delete": _sql("DELETE FROM edges WHERE source = 'a'"),
        "delete-node": _sql("DELETE FROM nodes WHERE id = 'c'",
                            "DELETE FROM edges WHERE source = 'c' OR target = 'c'"),
        "update-null": _sql("UPDATE nodes SET capacity = NULL WHERE id = 'b'"),
    },
}


def _graph_with(extra):
    def build():
        graph = sample_graph()
        extra(graph)
        return graph
    return build


GRAPHS = {
    "plain": sample_graph,
    "nan-valued": _graph_with(lambda g: g.set_node_attribute("b", "load", float("nan"))),
    "none-valued": _graph_with(lambda g: g.set_edge_attribute("a", "b", "note", None)),
    "name-key": _graph_with(lambda g: g.graph_attributes.__setitem__("name", "inner")),
    "pred-order": _graph_with(lambda g: g.add_edge("c", "a", bytes=1, kind="link")),
}

CASES = [(graph, backend, case) for graph in sorted(GRAPHS)
         for backend in sorted(VIEW_CASES) for case in sorted(VIEW_CASES[backend])]


def _outcome(graph, backend, mutate):
    """The reconverted graph and its diff from *graph*, or the error."""
    try:
        result = _round_trip(graph, backend, mutate)
    except Exception as error:  # noqa: BLE001 - both paths must fail alike
        return type(error).__name__, str(error)
    return image(result), diff_graphs(graph, result).summary()


class TestViewCasesMatchUnfrozen:
    @pytest.mark.parametrize("graph_kind,backend,case", CASES)
    def test_round_trip_matches_the_unfrozen_path(self, graph_kind, backend, case):
        mutate = VIEW_CASES[backend][case]
        plain = GRAPHS[graph_kind]()
        frozen = GRAPHS[graph_kind]().freeze()
        # untouched round trips first, so the mutated view meets a memo whose
        # round trip is checked
        for _ in range(2):
            warm = _round_trip(frozen, backend, _untouched(backend))
        assert image(warm) == image(_round_trip(plain, backend, _untouched(backend)))

        assert (_outcome(frozen, backend, mutate)
                == _outcome(plain, backend, mutate))
        assert image(frozen) == image(plain)
        assert compute_stats(frozen) == compute_stats(plain)

    def test_untouched_views_share_storage(self):
        graph = sample_graph().freeze()
        for backend in VIEW_CASES:
            for _ in range(2):  # the first also checks the round trip
                assert _round_trip(graph, backend, _untouched(backend)
                                   )._shares_storage_with(graph)
        read = _round_trip(graph, "networkx", _read_views)
        assert read._shares_storage_with(graph)

    def test_none_valued_graph_never_shares_frame_storage(self):
        graph = GRAPHS["none-valued"]().freeze()
        for backend in ("frames", "sql"):
            for _ in range(3):
                result = _round_trip(graph, backend, _untouched(backend))
                assert not result.frozen
        for _ in range(2):
            result = _round_trip(graph, "networkx", _untouched("networkx"))
        assert result._shares_storage_with(graph)


# ---------------------------------------------------------------------------
# a cell's view dies with the cell
# ---------------------------------------------------------------------------
class _FixedCodeProvider(LlmProvider):
    model_name = "gpt-4"

    def __init__(self, code):
        super().__init__()
        self._code = code

    def _generate(self, request):
        return f"```python\n{self._code}\n```", {}


PROGRAMS = {
    "success": ("def heavy(graph):\n"
                "    return sum(1 for _ in graph.edges)\n"
                "result = heavy(G) + len(G.edges) + len(dict(G.degree))\n"),
    "failure": ("def heavy(graph):\n"
                "    return len(graph.edges) / 0\n"
                "result = heavy(G)\n"),
}


class TestViewRelease:
    @pytest.mark.parametrize("outcome", sorted(PROGRAMS))
    def test_networkx_view_is_freed_right_after_the_run(self, traffic_app, outcome):
        views = []

        class Recording(type(traffic_app)):
            def networkx_view(self):
                view = super().networkx_view()
                views.append(weakref.ref(view))
                return view

        application = Recording(graph=traffic_app.graph)
        pipeline = NetworkManagementPipeline(
            application, _FixedCodeProvider(PROGRAMS[outcome]), "networkx")
        gc.collect()
        gc.disable()
        try:
            result = pipeline.run(QueryRequest(query="count", backend="networkx"))
            assert result.succeeded == (outcome == "success")
            assert len(views) == 1 and views[0]() is None
        finally:
            gc.enable()
        assert outcome == "failure" or result.result_value > 0
