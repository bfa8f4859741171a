"""Conversions from :class:`PropertyGraph` to the three code-gen backends.

The paper evaluates three representations of the same network state:

* a **NetworkX** graph (``networkx.DiGraph`` / ``networkx.Graph``),
* two **dataframes** (a node table and an edge table), and
* a relational **SQL database** with ``nodes`` and ``edges`` tables.

Each application wrapper builds a :class:`PropertyGraph` once and converts it
to whichever representation the selected backend requires, so the generated
code for every backend runs on exactly the same underlying network state.

Frozen graphs (:meth:`PropertyGraph.freeze`) convert from a per-graph memo.
A view built from a directed frozen graph records which graph it came from.
Converting such a view back is O(1) graph work when two things hold. First,
the view's state must be byte-for-byte what was handed out: the pickle of
what the reverse conversion reads must match the memoized digest. ``==`` is
not enough, since ``1 == 1.0`` but the two convert back differently. Second,
one real reverse conversion for that (graph, backend, name, directed) must
already have reproduced the graph's storage exactly. The result is then a
frozen graph sharing the original's storage. Any other view takes the full
reverse conversion.
"""

from __future__ import annotations

import functools
import hashlib
import io
import pickle
from typing import Any, Callable, Dict, List, Optional, Tuple

import networkx as nx
from networkx.classes.reportviews import NodeView, OutEdgeView

from repro.frames import DataFrame
from repro.graph.model import PropertyGraph
from repro.sqlengine import Database
from repro.sqlengine.database import Table


NODE_ID_COLUMN = "id"
EDGE_SOURCE_COLUMN = "source"
EDGE_TARGET_COLUMN = "target"

#: attribute under which a view built from a frozen graph records its origin
_ORIGIN_ATTR = "_repro_view_origin"


class _ViewOrigin:
    """The frozen graph a view was built from, and the view's state when it
    was handed out: the digest of what the reverse conversion reads, plus
    (networkx) the exact bytes of the view's small ``graph`` dict."""

    __slots__ = ("graph", "digest", "extra")

    def __init__(self, graph: PropertyGraph, digest: Optional[bytes],
                 extra: Optional[bytes] = None) -> None:
        self.graph = graph
        self.digest = digest
        self.extra = extra


class _Inexact(Exception):
    """A value whose pickle is not a plain-data image of it."""


class _PlainPickler(pickle.Pickler):
    """Pickles plain data only.  ``reducer_override`` is only consulted for
    objects outside None/bool/int/float/str/bytes/dict/list/tuple/set/
    frozenset, so any other object refuses, and no code a program defined
    runs while its view is checked."""

    def reducer_override(self, obj):
        raise _Inexact(type(obj).__name__)


def _exact_bytes(state: Any) -> Optional[bytes]:
    """An exact image of *state*, or ``None`` when it holds other objects."""
    buffer = io.BytesIO()
    try:
        _PlainPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(state)
    except (_Inexact, RecursionError):
        return None
    return buffer.getvalue()


def _exact_digest(state: Any) -> Optional[bytes]:
    image = _exact_bytes(state)
    return None if image is None else hashlib.blake2b(image).digest()


def _view_memo(graph: PropertyGraph):
    """The memo behind *graph*'s views, or ``None`` when its views take the
    plain conversions (unfrozen, undirected, or keys networkx rejects)."""
    memo = graph._frozen_memo()
    if memo is None or not graph.directed or not memo.get(
            ("plain-keys",), lambda: _plain_keys(graph)):
        return None
    return memo


def _plain_keys(graph: PropertyGraph) -> bool:
    """True when ``add_node``/``add_edge`` accept every node and attribute
    key as keywords, so filling networkx dicts directly is equivalent."""
    if None in graph._nodes:
        return False
    node_keys = {key for attrs in graph._nodes.values() for key in attrs}
    edge_keys = {key for targets in graph._succ.values()
                 for attrs in targets.values() for key in attrs}
    return (all(isinstance(key, str) for key in node_keys | edge_keys)
            and "node_for_adding" not in node_keys
            and not edge_keys & {"u_of_edge", "v_of_edge"})


def _origin_of(*views: Any) -> Optional[PropertyGraph]:
    """The frozen graph every one of *views* was handed out from, if any."""
    origins = [getattr(view, "__dict__", {}).get(_ORIGIN_ATTR) for view in views]
    if any(origin is None for origin in origins):
        return None
    graph = origins[0].graph
    return graph if all(origin.graph is graph for origin in origins) else None


def _storage_digest(graph: PropertyGraph, pred=None) -> Optional[bytes]:
    return _exact_digest((graph._nodes, graph._succ,
                          graph._pred if pred is None else pred))


def _round_trip_pred(graph: PropertyGraph) -> Dict[Any, Dict[Any, Any]]:
    """The predecessor index a reverse conversion builds: edges are re-added
    in successor order, so each node lists its predecessors in that order
    (the graph's own index is reused when its order already agrees)."""
    pred: Dict[Any, Dict[Any, Any]] = {node: {} for node in graph._nodes}
    for source, targets in graph._succ.items():
        for target, attrs in targets.items():
            pred[target][source] = attrs
    if all(list(mine) == list(theirs)
           for mine, theirs in zip(pred.values(), graph._pred.values())):
        return graph._pred
    return pred


def _reconvert(origin: PropertyGraph, backend: str, as_handed_out: bool,
               name: str, directed: bool, graph_attributes: Dict[str, Any],
               full: Callable[[], PropertyGraph]) -> PropertyGraph:
    """Convert a view of frozen *origin* back: share *origin*'s storage when
    the view is exactly as handed out and one full conversion (*full*) has
    shown that the round trip reproduces the storage; else convert fully."""
    if not as_handed_out:
        return full()
    memo = origin._frozen_memo()
    pred = memo.get(("round-trip-pred",), lambda: _round_trip_pred(origin))

    def round_trip_is_exact() -> bool:
        expected = memo.get(("round-trip-storage",),
                            lambda: _storage_digest(origin, pred))
        return expected is not None and _storage_digest(full()) == expected

    if not memo.get(("round-trip", backend, name, directed), round_trip_is_exact):
        return full()
    return origin._share(name, directed, graph_attributes, pred)


def release_view(view: Any) -> None:
    """Drop the report views networkx caches on a graph (``G.edges``,
    ``G.degree``, ...).  Each points back at its graph, a reference cycle
    that keeps a dead graph alive until the next full garbage collection;
    without them the graph is freed with its last reference."""
    if isinstance(view, nx.Graph):
        cached = vars(view)
        for name in _cached_views(type(view)) & cached.keys():
            del cached[name]


@functools.lru_cache(maxsize=None)
def _cached_views(cls: type) -> frozenset:
    return frozenset(name for klass in cls.__mro__ for name, attr in vars(klass).items()
                     if isinstance(attr, functools.cached_property))


# ---------------------------------------------------------------------------
# NetworkX
# ---------------------------------------------------------------------------
#: instance attributes of a networkx graph that are data, not cached views
_NX_DATA = frozenset({"graph", "_node", "_adj", "_succ", "_pred",
                      "__networkx_cache__", _ORIGIN_ATTR})


def to_networkx(graph: PropertyGraph, force_directed: bool = False):
    """Convert to ``networkx.DiGraph`` (or ``Graph`` for undirected graphs).

    With *force_directed* an undirected graph is also exposed as a
    ``DiGraph`` holding exactly the stored edge orientation — used by the
    timeline-aware synthesis namespace, where snapshot diffs are defined
    over raw stored tuples.
    """
    nx_graph = nx.DiGraph() if (graph.directed or force_directed) else nx.Graph()
    nx_graph.graph.update(graph.graph_attributes)
    nx_graph.graph["name"] = graph.name
    memo = _view_memo(graph)
    if memo is None:
        for node_id, attrs in graph.nodes(data=True):
            nx_graph.add_node(node_id, **dict(attrs))
        for source, target, attrs in graph.edges(data=True):
            nx_graph.add_edge(source, target, **dict(attrs))
        return nx_graph
    # what add_node/add_edge would do, without a call per element
    nodes, succ, pred = nx_graph._node, nx_graph._succ, nx_graph._pred
    for node_id, attrs in graph._nodes.items():
        nodes[node_id] = dict(attrs)
        succ[node_id] = {}
        pred[node_id] = {}
    for source, targets in graph._succ.items():
        row = succ[source]
        for target, attrs in targets.items():
            row[target] = pred[target][source] = dict(attrs)
    digest = memo.get(("view-digest", "networkx"),
                      lambda: _exact_digest(_nx_state(nx_graph)))
    setattr(nx_graph, _ORIGIN_ATTR,
            _ViewOrigin(graph, digest, _exact_bytes(nx_graph.graph)))
    return nx_graph


def _nx_state(nx_graph) -> Tuple[Any, ...]:
    """What :func:`from_networkx` reads of a DiGraph, besides ``graph``."""
    return nx_graph._node, nx_graph._succ, nx_graph._adj


def _nx_as_handed_out(nx_graph) -> bool:
    if type(nx_graph) is not nx.DiGraph:
        return False
    attributes = vars(nx_graph)
    if not attributes.keys() - _NX_DATA <= _cached_views(nx.DiGraph):
        return False  # an instance attribute shadows a method
    nodes = attributes.get("nodes")
    if nodes is not None and (type(nodes) is not NodeView
                              or nodes._nodes is not nx_graph._node):
        return False
    edges = attributes.get("edges")
    if edges is not None and (type(edges) is not OutEdgeView
                              or edges._graph is not nx_graph
                              or edges._adjdict is not nx_graph._succ
                              or edges._nodes_nbrs != nx_graph._succ.items):
        return False
    origin = attributes[_ORIGIN_ATTR]
    return (origin.digest is not None
            and _exact_bytes(nx_graph.graph) == origin.extra
            and _exact_digest(_nx_state(nx_graph)) == origin.digest)


def from_networkx(nx_graph) -> PropertyGraph:
    """Convert a NetworkX graph back into a :class:`PropertyGraph`."""
    origin = _origin_of(nx_graph)
    if origin is None:
        return _from_networkx(nx_graph)
    graph_attributes = {k: v for k, v in nx_graph.graph.items() if k != "name"}
    return _reconvert(origin, "networkx", _nx_as_handed_out(nx_graph),
                      nx_graph.graph.get("name", "graph"), nx_graph.is_directed(),
                      graph_attributes, lambda: _from_networkx(nx_graph))


def _from_networkx(nx_graph) -> PropertyGraph:
    directed = nx_graph.is_directed()
    graph = PropertyGraph(name=nx_graph.graph.get("name", "graph"), directed=directed)
    graph.graph_attributes.update(
        {k: v for k, v in nx_graph.graph.items() if k != "name"})
    for node_id, attrs in nx_graph.nodes(data=True):
        graph.add_node(node_id, **dict(attrs))
    for source, target, attrs in nx_graph.edges(data=True):
        graph.add_edge(source, target, **dict(attrs))
    return graph


# ---------------------------------------------------------------------------
# dataframes
# ---------------------------------------------------------------------------
def _collect_attribute_keys(items: List[Tuple[Any, Dict[str, Any]]]) -> List[str]:
    ordered: Dict[str, None] = {}
    for _, attrs in items:
        for key in attrs:
            ordered.setdefault(key, None)
    return list(ordered)


def to_frames(graph: PropertyGraph) -> Tuple[DataFrame, DataFrame]:
    """Convert into ``(node_frame, edge_frame)``.

    The node frame has an ``id`` column plus one column per node attribute;
    the edge frame has ``source``/``target`` columns plus one column per edge
    attribute — the same schema the paper's pandas backend uses.
    """
    memo = _view_memo(graph)
    return _build_frames(graph) if memo is None else _handed_out_frames(graph, memo)


def _handed_out_frames(graph: PropertyGraph, memo) -> Tuple[DataFrame, DataFrame]:
    """Fresh frames holding column-list copies of the memoized frame pair."""
    columns = memo.get(("frames",), lambda: tuple(
        frame._columns for frame in _build_frames(graph)))
    origin = _ViewOrigin(graph, memo.get(("view-digest", "frames"),
                                         lambda: _exact_digest(columns)))
    frames = tuple(DataFrame(table) for table in columns)
    for frame in frames:
        setattr(frame, _ORIGIN_ATTR, origin)
    return frames


def _build_frames(graph: PropertyGraph) -> Tuple[DataFrame, DataFrame]:
    node_items = graph.nodes(data=True)
    node_keys = _collect_attribute_keys(node_items)
    node_records = []
    for node_id, attrs in node_items:
        record = {NODE_ID_COLUMN: node_id}
        for key in node_keys:
            record[key] = attrs.get(key)
        node_records.append(record)
    node_frame = DataFrame.from_records(node_records,
                                        columns=[NODE_ID_COLUMN] + node_keys)

    edge_items = [((source, target), attrs)
                  for source, target, attrs in graph.edges(data=True)]
    edge_keys = _collect_attribute_keys(edge_items)
    edge_records = []
    for (source, target), attrs in edge_items:
        record = {EDGE_SOURCE_COLUMN: source, EDGE_TARGET_COLUMN: target}
        for key in edge_keys:
            record[key] = attrs.get(key)
        edge_records.append(record)
    edge_frame = DataFrame.from_records(
        edge_records, columns=[EDGE_SOURCE_COLUMN, EDGE_TARGET_COLUMN] + edge_keys)
    return node_frame, edge_frame


def _frames_as_handed_out(node_frame, edge_frame) -> bool:
    handed = vars(node_frame)[_ORIGIN_ATTR].digest
    return (handed is not None
            and all(type(frame) is DataFrame
                    and vars(frame).keys() == {"_columns", _ORIGIN_ATTR}
                    for frame in (node_frame, edge_frame))
            and _exact_digest((node_frame._columns, edge_frame._columns)) == handed)


def from_frames(node_frame: DataFrame, edge_frame: DataFrame,
                name: str = "graph", directed: bool = True) -> PropertyGraph:
    """Rebuild a graph from node/edge frames produced by :func:`to_frames`."""
    origin = _origin_of(node_frame, edge_frame)
    if origin is None:
        return _from_frames(node_frame, edge_frame, name, directed)
    return _reconvert(origin, "frames", _frames_as_handed_out(node_frame, edge_frame),
                      name, directed, {},
                      lambda: _from_frames(node_frame, edge_frame, name, directed))


def _from_frames(node_frame: DataFrame, edge_frame: DataFrame,
                 name: str, directed: bool) -> PropertyGraph:
    graph = PropertyGraph(name=name, directed=directed)
    for _, record in node_frame.iterrows():
        node_id = record[NODE_ID_COLUMN]
        attrs = {k: v for k, v in record.items() if k != NODE_ID_COLUMN and v is not None}
        graph.add_node(node_id, **attrs)
    for _, record in edge_frame.iterrows():
        source = record[EDGE_SOURCE_COLUMN]
        target = record[EDGE_TARGET_COLUMN]
        attrs = {k: v for k, v in record.items()
                 if k not in (EDGE_SOURCE_COLUMN, EDGE_TARGET_COLUMN) and v is not None}
        graph.add_edge(source, target, **attrs)
    return graph


# ---------------------------------------------------------------------------
# SQL
# ---------------------------------------------------------------------------
def to_sql_database(graph: PropertyGraph, name: Optional[str] = None) -> Database:
    """Convert into a :class:`~repro.sqlengine.Database` with node/edge tables."""
    database = Database(name or graph.name)
    node_frame, edge_frame = to_frames(graph)
    for table_name, frame in (("nodes", node_frame), ("edges", edge_frame)):
        # the rows come from the frame's own columns, so Table.insert's
        # per-row schema check has nothing to reject
        database.create_table(table_name, frame.columns).rows.extend(frame.to_records())
    origin = _origin_of(node_frame, edge_frame)
    if origin is not None:
        digest = origin._frozen_memo().get(("view-digest", "sql"),
                                           lambda: _exact_digest(_sql_state(database)))
        setattr(database, _ORIGIN_ATTR, _ViewOrigin(origin, digest))
    return database


def _sql_state(database: Database) -> List[Tuple[Any, ...]]:
    return [(key, table.name, table.columns, table.rows)
            for key, table in database._tables.items()]


def _sql_as_handed_out(database) -> bool:
    handed = vars(database)[_ORIGIN_ATTR].digest
    return (handed is not None and type(database) is Database
            and vars(database).keys() == {"name", "_tables", _ORIGIN_ATTR}
            and all(type(table) is Table
                    and vars(table).keys() == {"name", "columns", "rows"}
                    for table in database._tables.values())
            and _exact_digest(_sql_state(database)) == handed)


def from_sql_database(database: Database, name: str = "graph",
                      directed: bool = True) -> PropertyGraph:
    """Rebuild a graph from a database produced by :func:`to_sql_database`."""
    origin = _origin_of(database)
    if origin is not None and _sql_as_handed_out(database):
        # the tables are exactly what to_frames' columns made them, so the
        # frames they read back as are the handed-out frames
        node_frame, edge_frame = _handed_out_frames(origin, origin._frozen_memo())
    else:
        node_table = database.table("nodes")
        edge_table = database.table("edges")
        node_frame = DataFrame.from_records(node_table.rows, columns=node_table.columns)
        edge_frame = DataFrame.from_records(edge_table.rows, columns=edge_table.columns)
    return from_frames(node_frame, edge_frame, name=name, directed=directed)
