"""Edge/node connectivity, min cuts, and edge-disjoint path search.

Every max-flow here runs on one integer residual graph (`_Network`):
node ids map to ints once per call, arcs and their reverses sit in flat
lists, and each flow starts from a copy of the capacity list.  Flows
push unit shortest augmenting paths found by BFS.

Single-pair questions are unit-capacity max-flows in which each
undirected edge carries one unit in at most one direction; flow
decomposition with lowest-edge-id tie-breaking turns the flow into
concrete pairwise edge-disjoint paths, whose count equals the minimum
cut.  Node connectivity splits each node into in/out halves and runs
Even's algorithm (Even, 1975; Esfahanian & Hakimi, 1984): flows only
from the first kappa+1 nodes, so O(kappa*n) flows instead of one per
non-adjacent pair.

The multi-pair variant (distinct source-receiver pairs that must be
mutually edge-disjoint) is NP-complete in general, so it is solved by
exact backtracking with admissible pruning and an explicit size guard,
except when all sources (or all receivers) coincide, which collapses to
a single max-flow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import DisjointPathSet, Graph, GraphError, Path

__all__ = [
    "CutReport",
    "MAX_EDGES",
    "MAX_PAIRS",
    "SearchBudgetExceeded",
    "edge_connectivity",
    "find_disjoint_paths_multi",
    "is_k_edge_connected",
    "iter_disjoint_path_sets",
    "max_edge_disjoint_paths",
    "node_connectivity",
]

MAX_PAIRS = 12
MAX_EDGES = 200


class SearchBudgetExceeded(RuntimeError):
    """Instance too large for exact search."""


@dataclass(frozen=True)
class CutReport:
    """A minimum cut: its size and a witness (edge ids or node ids)."""

    value: int
    witness: tuple[str, ...]


# -- one integer max-flow core -------------------------------------------------------
# Nodes are ints.  Arc a and its reverse a ^ 1 are stored side by side:
# head[a] is the node a enters and cap[a] its capacity.  An undirected
# edge is the pair (1, 1): either direction can carry the unit, and a unit
# sent one way can be cancelled by one sent back.  A directed arc is (c, 0).  One unit per augmenting
# path is the bottleneck in both models used here: undirected edges have
# capacity 1, and in the split-node graph every path between non-adjacent
# nodes enters an intermediate in-half, which passes on at most one unit.


class _Network:
    """Residual graph skeleton; out[x] lists the arcs leaving x in insertion order."""

    __slots__ = ("out", "head", "cap")

    def __init__(self, n: int):
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.head: list[int] = []
        self.cap: list[int] = []

    def add(self, x: int, y: int, forward: int, backward: int) -> None:
        a = len(self.head)
        self.out[x].append(a)
        self.out[y].append(a + 1)
        self.head += (y, x)
        self.cap += (forward, backward)


def _edge_network(g: Graph, allowed: set[str] | None = None) -> tuple[_Network, dict[str, int]]:
    """g as a residual graph, with its node index.

    Edge i becomes arcs 2i (u to v) and 2i+1 (v to u), of capacity 1 each
    (0 outside `allowed`).  Adding the edges in id order lists each node's
    arcs in g._adj order, which fixes the BFS order and so the paths found.
    """
    index = {v: i for i, v in enumerate(g.nodes)}
    net = _Network(len(index))
    for e, (u, v) in g.edges.items():
        c = 1 if allowed is None or e in allowed else 0
        net.add(index[u], index[v], c, c)
    return net, index


def _flow(net: _Network, cap: list[int], s: int, t: int, limit: int | None = None):
    """Shortest augmenting paths from s to t until none is left or `limit` are found.

    cap is updated in place.  Returns (value, parent).  parent is None when
    the flow stopped at `limit`; otherwise it is the last BFS tree, and the
    nodes with parent[x] != -1 are the residual-reachable source side of the
    minimal minimum cut, the same set for every maximum flow.
    """
    out, head = net.out, net.head
    n = len(out)
    value = 0
    while value != limit:
        parent = [-1] * n
        parent[s] = -2
        queue = [s]
        for x in queue:
            for a in out[x]:
                if cap[a]:
                    y = head[a]
                    if parent[y] == -1:
                        parent[y] = a
                        queue.append(y)
            if parent[t] != -1:
                break
        else:
            return value, parent
        y = t
        while y != s:
            a = parent[y]
            cap[a] -= 1
            cap[a ^ 1] += 1
            y = head[a ^ 1]
        value += 1
    return value, None


def _walk_path(net: _Network, cap: list[int], s: int, t: int) -> tuple[list[int], list[int]]:
    """Follow one unit of undirected flow from s to t, splicing out flow cycles.

    Returns the node and arc sequences; the flow along them is cleared.
    """
    out, head = net.out, net.head
    nodes = [s]
    arcs: list[int] = []
    pos = {s: 0}
    x = s
    while x != t:
        for a in out[x]:
            if cap[a] < cap[a ^ 1]:
                break
        else:
            raise AssertionError("flow conservation violated during decomposition")
        y = head[a]
        if y in pos:
            i = pos[y]
            for ca in arcs[i:] + [a]:
                cap[ca] = cap[ca ^ 1] = 1
            for n2 in nodes[i + 1 :]:
                del pos[n2]
            del nodes[i + 1 :]
            del arcs[i:]
        else:
            arcs.append(a)
            nodes.append(y)
            pos[y] = len(nodes) - 1
        x = y
    for a in arcs:
        cap[a] = cap[a ^ 1] = 1
    return nodes, arcs


def _named_path(g: Graph, nodes: list[int], arcs: list[int]) -> Path:
    names, eids = list(g.nodes), list(g.edges)
    return Path(tuple(names[x] for x in nodes), tuple(eids[a >> 1] for a in arcs))


def max_edge_disjoint_paths(g: Graph, s: str, r: str) -> DisjointPathSet:
    """A maximum set of pairwise edge-disjoint s-r paths (max-flow value)."""
    g._require_node(s)
    g._require_node(r)
    if s == r:
        raise ValueError("source and receiver must differ")
    net, index = _edge_network(g)
    cap = net.cap[:]
    value, _ = _flow(net, cap, index[s], index[r])
    paths = tuple(_named_path(g, *_walk_path(net, cap, index[s], index[r])) for _ in range(value))
    return DisjointPathSet(paths)


def edge_connectivity(g: Graph) -> CutReport:
    """Size and witness of a smallest edge cut (0 if already disconnected)."""
    if g.num_nodes < 2:
        raise GraphError("edge connectivity needs at least 2 nodes")
    if not g.is_connected():
        return CutReport(0, ())
    net, index = _edge_network(g)
    best_value = None
    best_witness: tuple[str, ...] = ()
    for t in range(1, len(index)):
        value, parent = _flow(net, net.cap[:], 0, t, best_value)
        if parent is not None:
            best_value = value
            best_witness = tuple(
                e
                for e, (u, v) in g.edges.items()
                if (parent[index[u]] == -1) != (parent[index[v]] == -1)
            )
    return CutReport(best_value, best_witness)


def is_k_edge_connected(g: Graph, k: int) -> bool:
    if k <= 0:
        return True
    if g.num_nodes < 2:
        return False
    if not g.is_connected():
        return False
    return edge_connectivity(g).value >= k


def node_connectivity(g: Graph) -> CutReport:
    """Fewest node removals that disconnect g (or reduce it to one node).

    Node i splits into in-half 2i and out-half 2i+1 joined by an arc of
    capacity 1; each edge becomes two arcs of capacity n, out-half to
    in-half.  Even's algorithm: a minimum separator misses one of the
    first kappa+1 nodes, and every node it cuts off from the first such
    node v_i comes later, so the pairs (v_i, v_j), j > i, find kappa.
    Hence once the best value so far is at most the source index, it is
    kappa and the scan stops; each flow stops once it reaches that value.
    Pairs run in lexicographic order and only a strictly smaller value
    replaces the witness, so the witness is the minimal cut of the first
    minimising non-adjacent pair, as a scan of every pair would find.
    """
    if g.num_nodes == 0:
        raise GraphError("node connectivity needs at least 1 node")
    if g.num_nodes == 1:
        return CutReport(0, ())
    if not g.is_connected():
        return CutReport(0, ())
    nodes = list(g.nodes)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    net = _Network(2 * n)
    for i in range(n):
        net.add(2 * i, 2 * i + 1, 1, 0)
    adjacent: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.edges.values():
        iu, iv = index[u], index[v]
        net.add(2 * iu + 1, 2 * iv, n, 0)
        net.add(2 * iv + 1, 2 * iu, n, 0)
        adjacent[iu].add(iv)
        adjacent[iv].add(iu)
    # every pair adjacent: removals can only reduce to a one-node graph
    best_value, best_witness = n - 1, tuple(nodes[1:])
    i = 0
    while i < best_value:
        for j in range(i + 1, n):
            if j in adjacent[i]:
                continue
            value, parent = _flow(net, net.cap[:], 2 * i + 1, 2 * j, best_value)
            if parent is not None:
                best_value = value
                best_witness = tuple(
                    v for x, v in enumerate(nodes) if parent[2 * x] != -1 and parent[2 * x + 1] == -1
                )
        i += 1
    return CutReport(best_value, best_witness)


# -- multi-pair edge-disjoint paths --------------------------------------------------


def _check_guard(g: Graph, pairs: Sequence[tuple[str, str]]) -> None:
    if len(pairs) > MAX_PAIRS or g.num_edges > MAX_EDGES:
        raise SearchBudgetExceeded(
            f"instance too large for exact search "
            f"({len(pairs)} pairs > {MAX_PAIRS} or {g.num_edges} edges > {MAX_EDGES})"
        )


def _validate_pairs(g: Graph, pairs: Sequence[tuple[str, str]]) -> None:
    if not pairs:
        raise ValueError("need at least one source-receiver pair")
    for s, r in pairs:
        g._require_node(s)
        g._require_node(r)
        if s == r:
            raise ValueError(f"pair has identical endpoints {s!r}")


def _shared_source_flow(g: Graph, pairs: Sequence[tuple[str, str]]) -> DisjointPathSet | None:
    """All pairs share a source: a super-sink max-flow settles it exactly."""
    net, index = _edge_network(g)
    sink = len(index)
    net.out.append([])
    for _, r in pairs:
        net.add(index[r], sink, 1, 1)
    source = index[pairs[0][0]]
    cap = net.cap[:]
    value, _ = _flow(net, cap, source, sink)
    if value < len(pairs):
        return None
    result: list[Path | None] = [None] * len(pairs)
    for _ in range(value):
        nodes, arcs = _walk_path(net, cap, source, sink)
        result[(arcs[-1] >> 1) - g.num_edges] = _named_path(g, nodes[:-1], arcs[:-1])
    return DisjointPathSet(tuple(result))


def _reverse_path(p: Path) -> Path:
    return Path(tuple(reversed(p.nodes)), tuple(reversed(p.edges)))


def _bfs_dist(g: Graph, s: str, t: str, allowed: set[str] | None) -> int | None:
    if s == t:
        return 0
    dist = {s: 0}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for e in g._adj[x]:
            if allowed is not None and e not in allowed:
                continue
            y = g.other_end(e, x)
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == t:
                    return dist[y]
                queue.append(y)
    return None


def _remaining_bound(g: Graph, pairs, start: int, allowed: set[str]) -> int | None:
    """Admissible lower bound on edges still needed; None if hopeless."""
    total = 0
    groups: dict[tuple[str, str], int] = {}
    for s, r in pairs[start:]:
        d = _bfs_dist(g, s, r, allowed)
        if d is None:
            return None
        total += d
        groups[(s, r)] = groups.get((s, r), 0) + 1
    repeated = [(s, r, count) for (s, r), count in groups.items() if count > 1]
    if repeated:
        net, index = _edge_network(g, allowed)
        for s, r, count in repeated:
            value, _ = _flow(net, net.cap[:], index[s], index[r], count)
            if value < count:
                return None
    return total


def _iter_simple_paths(
    g: Graph, s: str, r: str, allowed: set[str], max_len: int | None
) -> Iterator[Path]:
    """Simple s-r paths in lexicographic edge order, length-pruned."""
    nodes = [s]
    edges: list[str] = []
    on_path = {s}

    def rec() -> Iterator[Path]:
        x = nodes[-1]
        if x == r:
            yield Path(tuple(nodes), tuple(edges))
            return
        if max_len is not None:
            rest = _bfs_dist(g, x, r, allowed - set(edges))
            if rest is None or len(edges) + rest > max_len:
                return
        for e in sorted(g._adj[x], key=g.edge_order):
            if e not in allowed or e in edges:
                continue
            y = g.other_end(e, x)
            if y in on_path:
                continue
            nodes.append(y)
            edges.append(e)
            on_path.add(y)
            yield from rec()
            nodes.pop()
            edges.pop()
            on_path.remove(y)

    yield from rec()


def iter_disjoint_path_sets(
    g: Graph, pairs: Sequence[tuple[str, str]], allowed: set[str] | None = None
) -> Iterator[DisjointPathSet]:
    """Exhaustively enumerate every pairwise edge-disjoint path assignment."""
    _validate_pairs(g, pairs)
    _check_guard(g, pairs)
    pool = set(g.edges) if allowed is None else set(allowed)

    def rec(i: int, avail: set[str]) -> Iterator[list[Path]]:
        if i == len(pairs):
            yield []
            return
        if _remaining_bound(g, pairs, i, avail) is None:
            return
        s, r = pairs[i]
        for path in _iter_simple_paths(g, s, r, avail, None):
            rest_avail = avail - set(path.edges)
            for rest in rec(i + 1, rest_avail):
                yield [path] + rest

    for combo in rec(0, pool):
        yield DisjointPathSet(tuple(combo))


def find_disjoint_paths_multi(
    g: Graph, pairs: Sequence[tuple[str, str]]
) -> DisjointPathSet | None:
    """Exact search for mutually edge-disjoint paths, one per pair.

    Returns a witness set or None once the search space is exhausted.
    Coinciding sources (or receivers) short-circuit to a polynomial
    max-flow; otherwise iterative deepening on the total edge count with
    per-pair residual reachability/flow pruning keeps the backtracking
    honest without losing completeness.
    """
    _validate_pairs(g, pairs)
    _check_guard(g, pairs)
    sources = {s for s, _ in pairs}
    receivers = {r for _, r in pairs}
    if len(sources) == 1:
        return _shared_source_flow(g, pairs)
    if len(receivers) == 1:
        flipped = [(r, s) for s, r in pairs]
        found = _shared_source_flow(g, flipped)
        if found is None:
            return None
        return DisjointPathSet(tuple(_reverse_path(p) for p in found.paths))

    all_edges = set(g.edges)
    base = _remaining_bound(g, pairs, 0, all_edges)
    if base is None:
        return None

    def dfs(i: int, budget: int, avail: set[str]) -> list[Path] | None:
        if i == len(pairs):
            return []
        bound = _remaining_bound(g, pairs, i, avail)
        if bound is None or bound > budget:
            return None
        s, r = pairs[i]
        rest_bound = _remaining_bound(g, pairs, i + 1, avail)
        if rest_bound is None:
            rest_bound = 0
        for path in _iter_simple_paths(g, s, r, avail, budget - rest_bound):
            rest = dfs(i + 1, budget - len(path), avail - set(path.edges))
            if rest is not None:
                return [path] + rest
        return None

    for budget in range(base, g.num_edges + 1):
        combo = dfs(0, budget, all_edges)
        if combo is not None:
            return DisjointPathSet(tuple(combo))
    return None
