"""Undirected multigraph with node roles and stable edge ids.

Nodes carry a role tag (source / receiver / relay) and edges are a
multiset of unordered pairs, each with its own id, so parallel edges
between the same endpoints coexist.  Self-loops are rejected: they can
never appear on a path or in a cut.  Graphs are mutable while being
built; the algorithms treat the graphs they receive as read-only.

A `Graph` stores ids only: two dicts, node id to role and edge id to its
ends, both in insertion order.  It keeps no adjacency.  Each library
call builds its own integer snapshot (`connectivity._Snapshot`), and
that snapshot is the adjacency every search and traversal reads.
`connected_within` is the verifier's own reachability check on ids,
independent of the snapshot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "DisjointPathSet",
    "Graph",
    "GraphError",
    "GraphFormatError",
    "Path",
    "ROLES",
    "connected_within",
    "load",
    "save",
]

ROLES = ("source", "receiver", "relay")


class GraphError(ValueError):
    pass


class GraphFormatError(GraphError):
    """Raised when serialized graph data violates the JSON schema."""


class Graph:
    def __init__(self):
        self.nodes: dict[str, str] = {}
        self.edges: dict[str, tuple[str, str]] = {}
        self._next_node = 0
        self._next_edge = 0

    # -- mutation --------------------------------------------------------------

    def add_node(self, role: str = "relay", node_id: str | None = None) -> str:
        if role not in ROLES:
            raise GraphError(f"unknown role {role!r}")
        if node_id is None:
            while f"n{self._next_node}" in self.nodes:
                self._next_node += 1
            node_id = f"n{self._next_node}"
            self._next_node += 1
        elif node_id in self.nodes:
            raise GraphError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = role
        return node_id

    def set_role(self, node_id: str, role: str) -> None:
        self._require_node(node_id)
        if role not in ROLES:
            raise GraphError(f"unknown role {role!r}")
        self.nodes[node_id] = role

    def add_edge(self, u: str, v: str, edge_id: str | None = None) -> str:
        self._require_node(u)
        self._require_node(v)
        if u == v:
            raise GraphError(f"self-loop on {u!r} rejected")
        if edge_id is None:
            while f"e{self._next_edge}" in self.edges:
                self._next_edge += 1
            edge_id = f"e{self._next_edge}"
            self._next_edge += 1
        elif edge_id in self.edges:
            raise GraphError(f"duplicate edge id {edge_id!r}")
        self.edges[edge_id] = (u, v)
        return edge_id

    # -- queries ---------------------------------------------------------------

    def _require_node(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise GraphError(f"unknown node {node_id!r}")

    def endpoints(self, edge_id: str) -> tuple[str, str]:
        if edge_id not in self.edges:
            raise GraphError(f"unknown edge {edge_id!r}")
        return self.edges[edge_id]

    def nodes_with_role(self, role: str) -> list[str]:
        return [n for n, r in self.nodes.items() if r == role]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def copy(self) -> "Graph":
        g = Graph()
        g.nodes = dict(self.nodes)
        g.edges = dict(self.edges)
        return g

    def __repr__(self) -> str:
        return f"Graph({self.num_nodes} nodes, {self.num_edges} edges)"


def connected_within(g: Graph, terminals: Iterable[str], allowed: set[str] | None = None) -> bool:
    """True iff all terminals lie in one component of the allowed edges.

    allowed=None allows every edge; ids in allowed that are not edges of g
    are skipped.  The search runs on ids, apart from the snapshot.
    """
    terms = list(terminals)
    if len(terms) <= 1:
        return True
    edges = g.edges
    near: dict[str, list[str]] = {}
    for u, v in edges.values() if allowed is None else (edges[e] for e in allowed if e in edges):
        near.setdefault(u, []).append(v)
        near.setdefault(v, []).append(u)
    seen = {terms[0]}
    stack = [terms[0]]
    while stack:
        for y in near.get(stack.pop(), ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen.issuperset(terms)


@dataclass(frozen=True)
class Path:
    """A walk that repeats no node and no edge, as node and edge sequences."""

    nodes: tuple[str, ...]
    edges: tuple[str, ...]

    @property
    def start(self) -> str:
        return self.nodes[0]

    @property
    def end(self) -> str:
        return self.nodes[-1]

    def validate(self, g: Graph) -> None:
        if len(self.nodes) != len(self.edges) + 1:
            raise GraphError("node/edge sequence lengths inconsistent")
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("path repeats a node")
        if len(set(self.edges)) != len(self.edges):
            raise GraphError("path repeats an edge")
        for i, e in enumerate(self.edges):
            u, v = g.endpoints(e)
            if {u, v} != {self.nodes[i], self.nodes[i + 1]}:
                raise GraphError(f"edge {e!r} does not join {self.nodes[i]!r}-{self.nodes[i+1]!r}")

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DisjointPathSet:
    """Paths sharing no edge id; path i runs from its own source to receiver."""

    paths: tuple[Path, ...]

    def edge_ids(self) -> set[str]:
        out: set[str] = set()
        for p in self.paths:
            out.update(p.edges)
        return out

    def validate(self, g: Graph) -> None:
        seen: set[str] = set()
        for p in self.paths:
            p.validate(g)
            overlap = seen & set(p.edges)
            if overlap:
                raise GraphError(f"paths share edges {sorted(overlap)}")
            seen.update(p.edges)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


# -- JSON serialization -----------------------------------------------------------
# Schema: {"nodes": [{"id": str, "role": "source"|"receiver"|"relay"}],
#          "edges": [{"id": str, "u": str, "v": str}]}


def save(g: Graph) -> str:
    doc = {
        "nodes": [{"id": n, "role": r} for n, r in g.nodes.items()],
        "edges": [{"id": e, "u": u, "v": v} for e, (u, v) in g.edges.items()],
    }
    return json.dumps(doc, indent=2)


def _require_str(obj: dict, key: str, where: str) -> str:
    val = obj.get(key)
    if not isinstance(val, str) or not val:
        raise GraphFormatError(f"{where}: {key!r} must be a non-empty string")
    return val


def load(data: str | bytes) -> Graph:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be an object")
    nodes = doc.get("nodes")
    edges = doc.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise GraphFormatError("'nodes' and 'edges' must be lists")
    g = Graph()
    for entry in nodes:
        if not isinstance(entry, dict):
            raise GraphFormatError("node entries must be objects")
        nid = _require_str(entry, "id", "node")
        role = _require_str(entry, "role", f"node {nid!r}")
        try:
            g.add_node(role, nid)
        except GraphError as exc:
            raise GraphFormatError(f"node {nid!r}: {exc}") from exc
    for entry in edges:
        if not isinstance(entry, dict):
            raise GraphFormatError("edge entries must be objects")
        eid = _require_str(entry, "id", "edge")
        u = _require_str(entry, "u", f"edge {eid!r}")
        v = _require_str(entry, "v", f"edge {eid!r}")
        try:
            g.add_edge(u, v, eid)
        except GraphError as exc:
            raise GraphFormatError(f"edge {eid!r}: {exc}") from exc
    return g
