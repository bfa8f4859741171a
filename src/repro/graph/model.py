"""The :class:`PropertyGraph` directed attributed graph.

This is the single in-memory representation that every application wrapper in
the reproduction produces (Figure 2,  1  in the paper): nodes carry attribute
dictionaries (IP address, device type, capacity, ...), directed edges carry
attribute dictionaries (bytes, connections, packets, relationship kind, ...).

The class intentionally mirrors a small, explicit subset of the NetworkX
``DiGraph`` API (``add_node``, ``add_edge``, ``nodes``, ``edges``,
``neighbors``), because the LLM-generated code in the NetworkX backend runs
against a real ``networkx.DiGraph`` obtained through
:func:`repro.graph.convert.to_networkx`.  Keeping the two shapes close makes
conversions loss-free and easy to reason about.

A graph can be *frozen* (:meth:`PropertyGraph.freeze`): its mutators then
raise :class:`GraphError`, and the functions of :mod:`repro.graph.stats`,
:mod:`repro.graph.convert` and :mod:`repro.graph.diff` may answer from a
small per-graph :class:`GraphMemo` instead of walking the whole graph again.
The benchmark freezes every context graph it builds, since every cell reads
the same network state.
"""

from __future__ import annotations

import copy as _copy
import threading
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.utils.validation import ValidationError, require


class GraphError(ValidationError):
    """Raised for structurally invalid graph operations."""


NodeId = Any
EdgeKey = Tuple[NodeId, NodeId]
AttrDict = Dict[str, Any]


class NodeView:
    """Read-mostly view of a node and its attributes."""

    __slots__ = ("node_id", "attributes")

    def __init__(self, node_id: NodeId, attributes: AttrDict) -> None:
        self.node_id = node_id
        self.attributes = attributes

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    def __contains__(self, key: str) -> bool:
        return key in self.attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeView({self.node_id!r}, {self.attributes!r})"


class EdgeView:
    """Read-mostly view of a directed edge and its attributes."""

    __slots__ = ("source", "target", "attributes")

    def __init__(self, source: NodeId, target: NodeId, attributes: AttrDict) -> None:
        self.source = source
        self.target = target
        self.attributes = attributes

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    def __contains__(self, key: str) -> bool:
        return key in self.attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeView({self.source!r} -> {self.target!r}, {self.attributes!r})"


_MISSING = object()
#: guards the creation of a frozen graph's memo (its fills take the memo's own lock)
_MEMO_CREATE_LOCK = threading.Lock()


class GraphMemo:
    """Lazily filled values derived from one frozen graph storage.

    Graphs that share frozen storage (see :meth:`PropertyGraph._share`)
    share one memo, so a key must name every wrapper field (``directed``,
    ``name``, ...) its value depends on.  Values are filled on first use
    under a re-entrant lock, so concurrent threads compute each one once
    and all observe the same object.  The memo is never pickled.
    """

    __slots__ = ("_lock", "_values")

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._values: Dict[Any, Any] = {}

    def get(self, key: Any, build: Callable[[], Any]) -> Any:
        """The value under *key*, calling *build* to fill it the first time."""
        value = self._values.get(key, _MISSING)
        if value is _MISSING:
            with self._lock:
                value = self._values.get(key, _MISSING)
                if value is _MISSING:
                    value = self._values[key] = build()
        return value


class PropertyGraph:
    """A directed graph whose nodes and edges carry attribute dictionaries.

    Parameters
    ----------
    name:
        Human-readable name recorded in serialized output.
    directed:
        When ``False`` the graph stores a single undirected edge per pair
        (kept for communication graphs that are naturally symmetric).  The
        default is directed, matching both applications in the paper.
    """

    # class-level defaults: only a frozen graph carries these per instance,
    # so an unfrozen graph pickles exactly as it always has
    _frozen = False
    _memo: Optional[GraphMemo] = None

    def __init__(self, name: str = "graph", directed: bool = True) -> None:
        self.name = name
        self.directed = bool(directed)
        self._nodes: Dict[NodeId, AttrDict] = {}
        self._succ: Dict[NodeId, Dict[NodeId, AttrDict]] = {}
        self._pred: Dict[NodeId, Dict[NodeId, AttrDict]] = {}
        self.graph_attributes: AttrDict = {}

    # ------------------------------------------------------------------
    # node operations
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, **attributes: Any) -> None:
        """Add a node (or merge attributes into an existing node)."""
        self._require_mutable()
        if node_id not in self._nodes:
            self._nodes[node_id] = {}
            self._succ[node_id] = {}
            self._pred[node_id] = {}
        self._nodes[node_id].update(attributes)

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node and every edge incident to it."""
        self._require_mutable()
        self._require_node(node_id)
        for target in list(self._succ[node_id]):
            del self._pred[target][node_id]
        for source in list(self._pred[node_id]):
            del self._succ[source][node_id]
        del self._succ[node_id]
        del self._pred[node_id]
        del self._nodes[node_id]

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def node(self, node_id: NodeId) -> NodeView:
        self._require_node(node_id)
        return NodeView(node_id, self._nodes[node_id])

    def node_attributes(self, node_id: NodeId) -> AttrDict:
        self._require_node(node_id)
        return self._nodes[node_id]

    def set_node_attribute(self, node_id: NodeId, key: str, value: Any) -> None:
        self._require_mutable()
        self._require_node(node_id)
        self._nodes[node_id][key] = value

    def nodes(self, data: bool = False) -> List:
        """Return node ids, or ``(id, attrs)`` pairs when ``data`` is true."""
        if data:
            return [(nid, attrs) for nid, attrs in self._nodes.items()]
        return list(self._nodes)

    def iter_nodes(self) -> Iterator[NodeView]:
        for nid, attrs in self._nodes.items():
            yield NodeView(nid, attrs)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # edge operations
    # ------------------------------------------------------------------
    def add_edge(self, source: NodeId, target: NodeId, **attributes: Any) -> None:
        """Add a directed edge (auto-creating endpoints), merging attributes."""
        self._require_mutable()
        if source not in self._nodes:
            self.add_node(source)
        if target not in self._nodes:
            self.add_node(target)
        existing = self._succ[source].get(target)
        if existing is None:
            existing = {}
            self._succ[source][target] = existing
            self._pred[target][source] = existing
            if not self.directed:
                self._succ[target][source] = existing
                self._pred[source][target] = existing
        existing.update(attributes)

    def remove_edge(self, source: NodeId, target: NodeId) -> None:
        self._require_mutable()
        self._require_edge(source, target)
        del self._succ[source][target]
        del self._pred[target][source]
        if not self.directed and source != target:
            del self._succ[target][source]
            del self._pred[source][target]

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        return source in self._succ and target in self._succ[source]

    def edge(self, source: NodeId, target: NodeId) -> EdgeView:
        self._require_edge(source, target)
        return EdgeView(source, target, self._succ[source][target])

    def edge_attributes(self, source: NodeId, target: NodeId) -> AttrDict:
        self._require_edge(source, target)
        return self._succ[source][target]

    def set_edge_attribute(self, source: NodeId, target: NodeId, key: str, value: Any) -> None:
        self._require_mutable()
        self._require_edge(source, target)
        self._succ[source][target][key] = value

    def edges(self, data: bool = False) -> List:
        """Return ``(u, v)`` tuples, or ``(u, v, attrs)`` when ``data`` is true."""
        result = []
        seen = set()
        for source, targets in self._succ.items():
            for target, attrs in targets.items():
                if not self.directed:
                    key = frozenset((source, target))
                    if key in seen:
                        continue
                    seen.add(key)
                if data:
                    result.append((source, target, attrs))
                else:
                    result.append((source, target))
        return result

    def iter_edges(self) -> Iterator[EdgeView]:
        for source, target, attrs in self.edges(data=True):
            yield EdgeView(source, target, attrs)

    @property
    def edge_count(self) -> int:
        return len(self.edges())

    # ------------------------------------------------------------------
    # adjacency queries
    # ------------------------------------------------------------------
    def successors(self, node_id: NodeId) -> List[NodeId]:
        self._require_node(node_id)
        return list(self._succ[node_id])

    def predecessors(self, node_id: NodeId) -> List[NodeId]:
        self._require_node(node_id)
        return list(self._pred[node_id])

    def neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Union of successors and predecessors (order-stable, deduplicated)."""
        self._require_node(node_id)
        combined: Dict[NodeId, None] = {}
        for other in self._succ[node_id]:
            combined[other] = None
        for other in self._pred[node_id]:
            combined[other] = None
        return list(combined)

    def out_degree(self, node_id: NodeId, weight: Optional[str] = None) -> float:
        self._require_node(node_id)
        if weight is None:
            return len(self._succ[node_id])
        return sum(attrs.get(weight, 0) for attrs in self._succ[node_id].values())

    def in_degree(self, node_id: NodeId, weight: Optional[str] = None) -> float:
        self._require_node(node_id)
        if weight is None:
            return len(self._pred[node_id])
        return sum(attrs.get(weight, 0) for attrs in self._pred[node_id].values())

    def degree(self, node_id: NodeId, weight: Optional[str] = None) -> float:
        return self.out_degree(node_id, weight) + self.in_degree(node_id, weight)

    # ------------------------------------------------------------------
    # bulk helpers
    # ------------------------------------------------------------------
    def find_nodes(self, **conditions: Any) -> List[NodeId]:
        """Return ids of nodes whose attributes equal every given condition."""
        matches = []
        for nid, attrs in self._nodes.items():
            if all(attrs.get(key) == value for key, value in conditions.items()):
                matches.append(nid)
        return matches

    def find_edges(self, **conditions: Any) -> List[EdgeKey]:
        """Return ``(u, v)`` pairs whose attributes equal every given condition."""
        matches = []
        for source, target, attrs in self.edges(data=True):
            if all(attrs.get(key) == value for key, value in conditions.items()):
                matches.append((source, target))
        return matches

    def subgraph(self, node_ids: Iterable[NodeId]) -> "PropertyGraph":
        """Return a deep-copied subgraph induced on *node_ids*."""
        keep = set(node_ids)
        missing = keep - set(self._nodes)
        require(not missing, f"subgraph references unknown nodes: {sorted(map(str, missing))}")
        sub = PropertyGraph(name=f"{self.name}.subgraph", directed=self.directed)
        for nid in keep:
            sub.add_node(nid, **_copy.deepcopy(self._nodes[nid]))
        for source, target, attrs in self.edges(data=True):
            if source in keep and target in keep:
                sub.add_edge(source, target, **_copy.deepcopy(attrs))
        sub.graph_attributes = _copy.deepcopy(self.graph_attributes)
        return sub

    def copy(self) -> "PropertyGraph":
        """Deep copy of the graph (attribute dictionaries are not shared).

        The copy is mutable, also when this graph is frozen.
        """
        duplicate = PropertyGraph(name=self.name, directed=self.directed)
        for nid, attrs in self._nodes.items():
            duplicate.add_node(nid, **_copy.deepcopy(attrs))
        for source, target, attrs in self.edges(data=True):
            duplicate.add_edge(source, target, **_copy.deepcopy(attrs))
        duplicate.graph_attributes = _copy.deepcopy(self.graph_attributes)
        return duplicate

    def total_edge_weight(self, key: str) -> float:
        """Sum an edge attribute over all edges, treating missing values as 0."""
        return sum(attrs.get(key, 0) for _, _, attrs in self.edges(data=True))

    def node_attribute_values(self, key: str) -> Dict[NodeId, Any]:
        """Mapping from node id to attribute value, skipping nodes without it."""
        return {nid: attrs[key] for nid, attrs in self._nodes.items() if key in attrs}

    # ------------------------------------------------------------------
    # immutability
    # ------------------------------------------------------------------
    def freeze(self) -> "PropertyGraph":
        """Make the graph immutable and return it.

        From now on ``add_*``, ``remove_*`` and ``set_*_attribute`` raise
        :class:`GraphError`; :meth:`copy` still returns a mutable graph.
        Freezing is cheap: the per-graph memo is only built when a
        conversion, statistic or diff first asks for it.
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _frozen_memo(self) -> Optional[GraphMemo]:
        """The memo of a frozen graph (created on first use), else ``None``."""
        if not self._frozen:
            return None
        memo = self._memo
        if memo is None:
            with _MEMO_CREATE_LOCK:
                memo = self._memo
                if memo is None:
                    memo = self._memo = GraphMemo()
        return memo

    def _share(self, name: str, directed: bool, graph_attributes: AttrDict,
               pred: Dict[NodeId, Dict[NodeId, AttrDict]]) -> "PropertyGraph":
        """A frozen graph sharing this frozen graph's node, successor and
        attribute storage (and its memo) under other wrapper fields.

        *pred* is the predecessor index the shared graph presents; it holds
        this graph's own edge attribute dictionaries.
        """
        shared = PropertyGraph(name=name, directed=directed)
        shared._nodes = self._nodes
        shared._succ = self._succ
        shared._pred = pred
        shared.graph_attributes = graph_attributes
        shared._frozen = True
        shared._memo = self._frozen_memo()
        return shared

    def _shares_storage_with(self, other: "PropertyGraph") -> bool:
        """True when both graphs are frozen and share node and edge storage."""
        return (self._frozen and other._frozen and self._nodes is other._nodes
                and self._succ is other._succ)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_memo", None)  # derived and process-local (holds a lock)
        return state

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (f"PropertyGraph(name={self.name!r}, {kind}, "
                f"nodes={self.node_count}, edges={self.edge_count})")

    def __eq__(self, other: object) -> bool:
        from repro.graph.diff import graphs_equal  # local import to avoid cycle

        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return graphs_equal(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # mutable container

    # ------------------------------------------------------------------
    # internal checks
    # ------------------------------------------------------------------
    def _require_mutable(self) -> None:
        if self._frozen:
            raise GraphError(f"graph {self.name!r} is frozen; modify a copy() of it")

    def _require_node(self, node_id: NodeId) -> None:
        if node_id not in self._nodes:
            raise GraphError(f"node {node_id!r} is not in the graph")

    def _require_edge(self, source: NodeId, target: NodeId) -> None:
        if source not in self._succ or target not in self._succ[source]:
            raise GraphError(f"edge {source!r} -> {target!r} is not in the graph")
