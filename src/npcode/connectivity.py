"""Edge/node connectivity, min cuts, and edge-disjoint path search.

Each call builds one integer snapshot of the graph (`_Snapshot`): it
alone maps node ids to ints, edge ids to mask bits and flow arcs, and
int results back to ids.  Every max-flow runs on an integer residual
graph (`_Network`) with arcs and their reverses in flat lists, by unit
shortest augmenting paths, on a capacity list the caller passes in.

Single-pair questions are unit-capacity max-flows in which each
undirected edge carries one unit in at most one direction; flow
decomposition with lowest-edge-id tie-breaking turns the flow into
concrete pairwise edge-disjoint paths, whose count equals the minimum
cut.  Node connectivity splits each node into in/out halves.  Its value
takes Esfahanian & Hakimi's pairs (1984): from a node v of least degree
delta to each non-neighbour, and between each non-adjacent pair of v's
neighbours, so O(n + delta^2) flows instead of one per non-adjacent
pair.  A lexicographic scan of the non-adjacent pairs then takes the
witness from the first pair that reaches that value.

Both connectivities run their flows from one source at a time through
`_chained_flows`, which lets a flow go on from the last sink's residual
when the next sink is adjacent; its docstring says why every value and
witness stays that of a fresh flow.

The multi-pair variant (distinct source-receiver pairs that must be
mutually edge-disjoint) is NP-complete in general.  When all sources (or
all receivers) coincide it is a single max-flow; otherwise one exact
walker (`_used_edge_sets`) answers it, run once per total edge budget
for a shortest path set.  Each step, like each Steiner-tree state,
spends one of the call's `_MAX_STATES` states.  The walker carries each
path as an edge mask and lists each distinct set of used edges once,
with the first path set (pair by pair, lowest-edge-id first) that uses
it; everything after a (pair index, edges left) state depends on those
two alone, so each such state is walked once.  The caller may end a
state early: when its edges cannot hold the later pairs' shortest paths
plus the spare edges it names, or when some cut it names keeps fewer
edges than the paths and trees that must still cross it, which is the
cut condition for edge-disjoint routing (Okamura & Seymour, 1981).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .graph import DisjointPathSet, Graph, GraphError, Path

__all__ = [
    "CutReport",
    "SearchBudgetExceeded",
    "edge_connectivity",
    "find_disjoint_paths_multi",
    "is_k_edge_connected",
    "iter_disjoint_path_sets",
    "max_edge_disjoint_paths",
    "node_connectivity",
]

_MAX_STATES = 2_000_000  # search states one call may spend; see _Snapshot.count


class SearchBudgetExceeded(RuntimeError):
    """The exact search spent its whole state budget before it could answer."""


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


def _walk_path(net: _Network, cap: list[int], s: int, t: int) -> int:
    """Follow one unit of undirected flow from s to t, splicing out flow cycles.

    Returns the walked arcs as an edge mask (arc a is bit a >> 1); the flow
    along them is cleared.
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
    return sum(1 << (a >> 1) for a in arcs)


# -- the integer snapshot ----------------------------------------------------------------
# Every call builds one read-only integer snapshot of the graph: node i is
# the i-th of g.nodes (index maps ids to ints), edge j the j-th of g.edges
# (the order edges were added in), bit 1 << j of an edge mask, and arcs 2j
# (u to v) and 2j+1 (v to u) of a flow network.  edge_ends[j] holds its two
# nodes, and adj[i] lists (bit, j, neighbour) for the edges at node i,
# lowest j first.  Walks try edges in that order, so paths come out
# lowest-edge-id first.  A search carries each path or tree as its edge mask
# and traces it back to ids (path_set, edge_ids) only for the result.


class _Snapshot:
    __slots__ = ("index", "nodes", "edges", "edge_ends", "adj", "inc", "full", "ends",
                 "repeated", "net", "spent")

    def __init__(self, g: Graph, pairs: Sequence[tuple[str, str]] = (), spent: int = 0):
        self.spent = spent
        self.nodes = list(g.nodes)
        self.edges = list(g.edges)
        self.index = index = {v: i for i, v in enumerate(self.nodes)}
        self.edge_ends = [(index[u], index[v]) for u, v in g.edges.values()]
        adj: list[list[tuple[int, int, int]]] = [[] for _ in self.nodes]
        inc = [0] * len(self.nodes)  # edge mask per node
        for j, (u, v) in enumerate(self.edge_ends):
            bit = 1 << j
            adj[u].append((bit, j, v))
            adj[v].append((bit, j, u))
            inc[u] |= bit
            inc[v] |= bit
        self.adj, self.inc = adj, inc
        self.full = (1 << len(self.edges)) - 1
        self.ends = [(index[s], index[r]) for s, r in pairs]
        # repeated[i]: (s, r, count) for each pair that occurs count > 1 times in ends[i:]
        self.repeated = [[(*pair, c) for pair, c in Counter(self.ends[i:]).items() if c > 1]
                         for i in range(len(self.ends))]
        self.net = self.network() if any(self.repeated) else None

    def count(self, spent: int) -> None:
        """Record the states the call has spent; past _MAX_STATES the search stops."""
        if spent > _MAX_STATES:
            raise SearchBudgetExceeded(f"exact search stopped at its budget of {_MAX_STATES:,} states")
        self.spent = spent

    def network(self, *hubs: Sequence[int]) -> _Network:
        """The unit-capacity residual graph; its arcs at each node follow adj, which
        fixes the BFS order and so the paths found.  Each hub is one more node,
        numbered len(nodes) on, joined to the nodes it lists by more edges,
        numbered len(edges) on in the order listed."""
        n = len(self.nodes)
        net = _Network(n + len(hubs))
        for u, v in self.edge_ends:
            net.add(u, v, 1, 1)
        for h, joined in enumerate(hubs):
            for x in joined:
                net.add(x, n + h, 1, 1)
        return net

    def bounds(self, i: int, avail: int) -> list[list[int]] | None:
        """Hop counts to the receivers of pairs i.. within avail, or None when
        some pair has no path left, or a repeated pair too few edge-disjoint ones."""
        to_r = []
        for s, r in self.ends[i:]:
            to_r.append(_distances(self.adj, r, avail))
            if to_r[-1][s] < 0:
                return None
        for s, r, count in self.repeated[i]:
            cap = [avail >> (a >> 1) & 1 for a in range(2 * len(self.edges))]
            if _flow(self.net, cap, s, r, count)[0] < count:
                return None
        return to_r

    def paths(self, i: int, avail: int, to_r: list[int], max_len: int) -> Iterator[int]:
        """Edge masks of the simple paths of pair i inside avail, lowest-edge-id first.

        Only paths of at most max_len edges are walked, with to_r the hop
        counts to the receiver within avail: a step is dropped when even the
        shortest way on from its end would be too long.  The edges a walk
        may still take are avail less those at every path node but the
        last, so no node repeats.  Each step taken spends one state.
        """
        adj, inc = self.adj, self.inc
        x, r = self.ends[i]
        it, usable, mask = iter(adj[x]), avail, 0
        stack = []
        spent, limit = self.spent, _MAX_STATES  # self.spent is current at each yield
        while True:
            for bit, _, y in it:
                if not usable & bit:
                    continue
                if y == r:
                    self.count(spent + 1)
                    yield mask | bit
                    spent = self.spent
                elif 0 <= to_r[y] < max_len - len(stack):
                    spent += 1
                    if spent > limit:
                        self.count(spent)  # raises
                    stack.append((it, x, usable, mask))
                    it, x, usable, mask = iter(adj[y]), y, usable & ~inc[x], mask | bit
                    break
            else:
                if not stack:
                    self.spent = spent
                    return
                it, x, usable, mask = stack.pop()

    def path_set(self, masks: Sequence[int], ends=None) -> DisjointPathSet:
        """The paths the edge masks trace, one per pair of ends (default: the pairs')."""
        paths = []
        for (x, r), mask in zip(self.ends if ends is None else ends, masks):
            nodes, edges = [self.nodes[x]], []
            while x != r:
                bit, j, x = next(step for step in self.adj[x] if mask & step[0])
                mask ^= bit
                nodes.append(self.nodes[x])
                edges.append(self.edges[j])
            paths.append(Path(tuple(nodes), tuple(edges)))
        return DisjointPathSet(tuple(paths))

    def edge_ids(self, mask: int) -> tuple[str, ...]:
        return tuple(e for j, e in enumerate(self.edges) if mask >> j & 1)


def _distances(adj, root: int, avail: int) -> list[int]:
    """BFS hop counts from root over the edges in avail; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[root] = 0
    queue = [root]
    for x in queue:
        d = dist[x] + 1
        for bit, _, y in adj[x]:
            if avail & bit and dist[y] < 0:
                dist[y] = d
                queue.append(y)
    return dist


def max_edge_disjoint_paths(g: Graph, s: str, r: str) -> DisjointPathSet:
    """A maximum set of pairwise edge-disjoint s-r paths (max-flow value)."""
    g._require_node(s)
    g._require_node(r)
    if s == r:
        raise ValueError("source and receiver must differ")
    snap = _Snapshot(g)
    net = snap.network()
    cap = net.cap[:]
    x, y = snap.index[s], snap.index[r]
    value, _ = _flow(net, cap, x, y)
    return snap.path_set([_walk_path(net, cap, x, y) for _ in range(value)], [(x, y)] * value)


def _chained_flows(net: _Network, source: int, sinks: Iterable[int], bound: int | None,
                   near: Callable[[int, int], bool]) -> Iterator[tuple[int, int, list[int] | None]]:
    """Yield (sink, value, parent) for each sink in turn: the flow from
    source, stopped at bound, the least value so far (None: no bound yet).

    A fresh flow runs from a copy of net.cap, and value and parent are
    `_flow`'s: parent is None unless the flow fell short, and then bound
    drops to its value.  Either way the last flow f, kept in cap, carries
    bound units from source to the last sink t.  When the next sink t' is
    adjacent to t (near(t', t)) and has at least bound arcs, the sink
    changes first (Hao & Orlin, 1994): a flow g of bound units from t to t'
    on f's residual makes f + g a bound-unit flow from source to t', so the
    pair's value is at least bound, and (t', bound, None) is yielded, as a
    fresh flow stopped at bound would give.  Conversely, for any bound-unit
    flow f' from source to t', f' - f is a bound-unit flow from t to t' on
    f's residual, so g falls short only when the fresh flow would too.
    Then, and when t' is not adjacent to t or has fewer than bound arcs
    (each unit enters a sink by its own arc), t' gets the fresh flow, so
    every value and witness comes from the same flow as without the chain.
    Adjacency keeps the chained search local: on dense random graphs,
    chaining to a far sink costs more than a fresh flow.
    """
    last = None
    for t in sinks:
        if (last is not None and len(net.out[t]) >= bound and near(t, last)
                and _flow(net, cap, last, t, bound)[0] == bound):
            yield t, bound, None
        else:
            cap = net.cap[:]
            value, parent = _flow(net, cap, source, t, bound)
            if parent is not None:
                bound = value
            yield t, value, parent
        last = t


def edge_connectivity(g: Graph) -> CutReport:
    """Size and witness of a smallest edge cut (0 if already disconnected).

    The flows are `_chained_flows`' from node 0 to each later node, with no
    bound, so the first runs to the end; the witness is the minimal cut of
    the last flow that fell short, the first to reach the minimum.
    """
    if g.num_nodes < 2:
        raise GraphError("edge connectivity needs at least 2 nodes")
    snap = _Snapshot(g)
    if min(_distances(snap.adj, 0, snap.full)) < 0:
        return CutReport(0, ())
    adj = snap.adj
    for _, flowed, parent in _chained_flows(snap.network(), 0, range(1, len(adj)), None,
                                            lambda t, last: any(y == last for _, _, y in adj[t])):
        if parent is not None:
            value, cut = flowed, parent
    witness = tuple(
        e for e, (u, v) in zip(snap.edges, snap.edge_ends)
        if (cut[u] == -1) != (cut[v] == -1)
    )
    return CutReport(value, witness)


def is_k_edge_connected(g: Graph, k: int) -> bool:
    """True iff lambda(g) >= k: every cut separating the nodes has k edges.

    Only lambda >= k is asked, so no witness is built: a node of degree
    < k answers at once, and otherwise `_chained_flows` runs from node 0
    with bound k, every flow stopping at k units, until the first one
    that falls short.
    """
    if k <= 0:
        return True
    if g.num_nodes < 2:
        return False
    snap = _Snapshot(g)
    adj = snap.adj
    if min(len(a) for a in adj) < k:
        return False
    return all(parent is None for _, _, parent in _chained_flows(
        snap.network(), 0, range(1, len(adj)), k, lambda t, last: any(y == last for _, _, y in adj[t])))


def node_connectivity(g: Graph) -> CutReport:
    """Fewest node removals that disconnect g (or reduce it to one node).

    Node i splits into in-half 2i and out-half 2i+1 joined by an arc of
    capacity 1; each edge becomes two arcs of capacity n, out-half to
    in-half.  The value comes from Esfahanian & Hakimi's pairs: take v, the
    first node of least degree (distinct neighbours), and start from
    kappa = deg(v).  A minimum separator either misses v, and then cuts it
    off from some non-neighbour, or holds v, and then v has a neighbour in
    every component it leaves, two of them non-adjacent.  So one flow from
    v to each non-neighbour and one between each non-adjacent pair of v's
    neighbours find kappa, each flow stopped once it reaches the value so
    far: at most n - 1 - delta + delta*(delta-1)/2 flows.  The witness is
    the minimal cut of the first non-adjacent pair, in lexicographic order,
    whose flow (stopped at kappa + 1) is kappa, as a scan of every pair
    would find.  Every minimum separator misses one of the first kappa + 1
    nodes, and the first it misses is cut off from a later node, so that
    pair comes within the first kappa + 1 rows (one flow on Harary graphs).
    The scan skips each pair whose value-phase flow, either way, passed kappa.

    Both phases run `_chained_flows` once per source row, from out-half
    2i+1 to the in-half 2j of each sink j, chained when j is adjacent in g
    to the row's last sink.
    """
    if g.num_nodes == 0:
        raise GraphError("node connectivity needs at least 1 node")
    if g.num_nodes == 1:
        return CutReport(0, ())
    snap = _Snapshot(g)
    if min(_distances(snap.adj, 0, snap.full)) < 0:
        return CutReport(0, ())
    nodes = snap.nodes
    n = len(nodes)
    net = _Network(2 * n)
    for i in range(n):
        net.add(2 * i, 2 * i + 1, 1, 0)
    for u, v in snap.edge_ends:
        net.add(2 * u + 1, 2 * v, n, 0)
        net.add(2 * v + 1, 2 * u, n, 0)
    adjacent = [{y for _, _, y in at} for at in snap.adj]
    low = min(range(n), key=lambda x: len(adjacent[x]))
    kappa = len(adjacent[low])
    if kappa == n - 1:
        # every pair adjacent: removals can only reduce to a one-node graph
        return CutReport(n - 1, tuple(nodes[1:]))

    def near(t: int, last: int) -> bool:
        return last // 2 in adjacent[t // 2]

    around = sorted(adjacent[low])
    rows = [(low, [y for y in range(n) if y != low and y not in adjacent[low]])]
    rows += [(x, [y for y in around[a + 1 :] if y not in adjacent[x]]) for a, x in enumerate(around)]
    known = {}  # a lower bound on each flown pair's local connectivity
    for x, ys in rows:
        for t, value, _ in _chained_flows(net, 2 * x + 1, [2 * y for y in ys], kappa, near):
            known[min(x, t // 2), max(x, t // 2)] = value
            kappa = min(kappa, value)
    for i in range(n):
        sinks = (2 * j for j in range(i + 1, n) if j not in adjacent[i] and known.get((i, j), kappa) <= kappa)
        for _, value, parent in _chained_flows(net, 2 * i + 1, sinks, kappa + 1, near):
            if value == kappa:
                return CutReport(kappa, tuple(
                    v for x, v in enumerate(nodes) if parent[2 * x] != -1 and parent[2 * x + 1] == -1
                ))
    raise AssertionError("no non-adjacent pair reaches the node connectivity")


# -- multi-pair edge-disjoint paths --------------------------------------------------


def _pair_snapshot(g: Graph, pairs: Sequence[tuple[str, str]], spent: int = 0) -> _Snapshot:
    """The snapshot of a multi-pair search, once the pairs are valid, from spent states on."""
    if not pairs:
        raise ValueError("need at least one source-receiver pair")
    for s, r in pairs:
        g._require_node(s)
        g._require_node(r)
        if s == r:
            raise ValueError(f"pair has identical endpoints {s!r}")
    return _Snapshot(g, pairs, spent)


def _shared_source_flow(snap: _Snapshot, source: int, targets: Sequence[int]) -> list[int] | None:
    """One super-sink max-flow from source to all targets: the edge mask of a
    path to each target, or None when they do not all fit."""
    net = snap.network(targets)
    cap = net.cap[:]
    value, _ = _flow(net, cap, source, len(snap.nodes))
    if value < len(targets):
        return None
    masks = [0] * value
    for _ in range(value):
        mask = _walk_path(net, cap, source, len(snap.nodes))
        # the top bit is the sink edge, numbered after the graph's edges by target
        masks[mask.bit_length() - 1 - len(snap.edges)] = mask & snap.full
    return masks


def _multi_paths(snap: _Snapshot) -> list[int] | None:
    """Edge masks of mutually edge-disjoint paths, one per pair, or None once
    the search space is exhausted.

    Coinciding sources (or receivers) short-circuit to a polynomial
    max-flow.  Otherwise `_used_edge_sets` runs once per total edge budget
    B, least first, with m - B spare edges (iterative deepening, Korf
    1985): its room at (i, avail) is then B less the edges pairs < i took
    and the later pairs' hop counts.  The first set found returns, so the
    walk's memo skips only states that ended with no set, and the witness
    is the first path set, pair by pair and lowest-edge-id first, whose
    total length is the least.
    """
    sources = [s for s, _ in snap.ends]
    receivers = [r for _, r in snap.ends]
    if len(set(sources)) == 1:
        return _shared_source_flow(snap, sources[0], receivers)
    if len(set(receivers)) == 1:
        # a path traced from its own source is the flow's path reversed
        return _shared_source_flow(snap, receivers[0], sources)
    to_r = snap.bounds(0, snap.full)
    if to_r is None:
        return None
    m = len(snap.edges)
    for budget in range(sum(d[s] for d, (s, _) in zip(to_r, snap.ends)), m + 1):
        for walks in _used_edge_sets(snap, lambda: (m - budget, ())):
            return walks
    return None


def _used_edge_sets(snap: _Snapshot, limits: Callable[[], tuple[int, Sequence]] = lambda: (0, ())
                    ) -> Iterator[list[int]]:
    """The pairs' edge masks for every distinct used-edge set, once.

    The one multi-pair walker: `iter_disjoint_path_sets` lists its sets,
    `_multi_paths` runs it once per edge budget, and the strict feasibility
    search under its tree and cut limits.  Assignments are walked pair by pair, each pair's simple paths
    lowest-edge-id first in the edges the earlier pairs left; a branch ends
    once a later pair has no path left, or a repeated pair too few
    edge-disjoint ones.  Each distinct set of used edges comes with the
    first path set, in that order, that uses it.  The rest of a walk
    depends only on the pair index and the edges left, so a state walked
    before is skipped: all it could yield repeats a used-edge set already
    seen.

    limits() gives (spare, cuts), read at each state; by default (0, ()).
    The walk skips the sets that leave fewer than spare edges unused (for
    the strict search, the edges its trees need).  Every later pair j
    needs at least its hop count dist_j within the edges left, so at state
    (i, avail) pair i's path may take at most
    room = |avail| - spare - (sum of dist_j over j > i) edges, and the
    walk returns when room is below pair i's own hop count.  cuts, when
    given, holds for each pair index i (0 to k) a list of (crossing, least):
    an edge mask and the fewest of its edges that the paths of pairs i..
    and the trees must cross.  The walk returns at (i, avail) when some
    cut has fewer than least of its edges in avail.  With the defaults this
    cuts only branches that complete no path set, so every set comes.  The
    limits may only grow: then the other sets still come in the order
    above, each with the first path set that uses it, since a state
    skipped as walked was walked under limits no tighter than the current
    ones, and a state cut off stays cut off.
    """
    k = len(snap.ends)
    walks = [0] * k  # edge mask of each pair's path
    walked: list[set[int]] = [set() for _ in range(k + 1)]  # edges left, per pair index

    def walk(i: int, avail: int) -> Iterator[list[int]]:
        walked[i].add(avail)
        spare, cuts = limits()
        if cuts:
            for crossing, least in cuts[i]:
                if (avail & crossing).bit_count() < least:
                    return
        if i == k:
            yield walks[:]
            return
        to_r = snap.bounds(i, avail)
        if to_r is None:
            return
        need = [d[s] for d, (s, _) in zip(to_r, snap.ends[i:])]
        room = avail.bit_count() - spare - sum(need[1:])
        if room < need[0]:
            return
        for mask in snap.paths(i, avail, to_r[0], room):
            if avail ^ mask not in walked[i + 1]:
                walks[i] = mask
                yield from walk(i + 1, avail ^ mask)

    yield from walk(0, snap.full)


def iter_disjoint_path_sets(
    g: Graph, pairs: Sequence[tuple[str, str]]
) -> Iterator[DisjointPathSet]:
    """Each distinct used-edge set of pairwise edge-disjoint paths, once and
    within the state budget, as the first path set that uses it (see `_used_edge_sets`)."""
    snap = _pair_snapshot(g, pairs)
    for walks in _used_edge_sets(snap):
        yield snap.path_set(walks)


def find_disjoint_paths_multi(
    g: Graph, pairs: Sequence[tuple[str, str]]
) -> DisjointPathSet | None:
    """Exact search for mutually edge-disjoint paths, one per pair, within
    the state budget: a witness set, or None once the search space is
    exhausted; see `_multi_paths` for the search and which witness it finds.
    """
    snap = _pair_snapshot(g, pairs)
    walks = _multi_paths(snap)
    return None if walks is None else snap.path_set(walks)
