"""Protection-deployment feasibility: paths plus source/receiver trees.

An instance is deployable when three structures coexist in the graph:
k pairwise edge-disjoint paths (one per source-receiver pair), a tree
connecting all sources, and a tree connecting all receivers.  In strict
mode (the default) the three edge sets must be pairwise disjoint; the
relaxed flag lets the trees reuse path edges, which weakens the verdict
(the bridged 3-regular counterexample below is relaxed-feasible but
strictly infeasible).

The search is exact: path assignments are enumerated exhaustively, one
per distinct set of used edges (all that a tree placement depends on),
less those that leave the strict trees too few edges, in all or across
some cut between the terminals, and, for each, minimal
source-connecting trees are enumerated in the leftover edges until a
receiver tree fits too.  Each search builds one integer snapshot of
the graph (`connectivity._Snapshot`), which owns the node index, the
edge bits, the flow arcs and the tracing back to ids: paths, cuts and
trees are all found on it, with edge sets as int masks, and only the
reported witness becomes ids.
A "feasible" answer always carries a full witness; an "infeasible" answer
means the whole space was exhausted, or names a cut certificate.
The independent checks (`verify_report`, the certificate recount) stay
on edge ids.

A certificate is a node set X.  Every path of a pair that X separates
crosses X, and so does each tree whose terminals X splits; in strict
mode these structures are pairwise edge-disjoint, so fewer crossing
edges than crossing structures rule out every deployment at once.  This
generalises the bridged counterexample below, whose bridge cannot carry
both a path and the receiver tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, permutations
from typing import Callable, Iterator, Sequence

from .connectivity import (
    SearchBudgetExceeded,
    _distances,
    _flow,
    _multi_paths,
    _pair_snapshot,
    _Snapshot,
    _used_edge_sets,
    is_k_edge_connected,
)
from .graph import DisjointPathSet, Graph, GraphError, connected_within

__all__ = [
    "FeasibilityReport",
    "InfeasibleInstanceError",
    "ProtectionInstance",
    "build_fig2_fixture",
    "check_feasibility",
    "check_single_source",
    "verify_report",
]

_PAIRING_MAX = 6
_HAMILTON_MAX = 16

REASON_PATHS = "paths"
REASON_SOURCE_TREE = "source-tree"
REASON_RECEIVER_TREE = "receiver-tree"


class InfeasibleInstanceError(ValueError):
    """Raised by callers that require a feasible instance."""

    def __init__(self, report: "FeasibilityReport"):
        super().__init__(f"instance infeasible: {report.failure_reason}")
        self.report = report


@dataclass(frozen=True)
class ProtectionInstance:
    """A graph with ordered sources S and receivers R to protect.

    Accepted shapes: |S| = |R| = k (pairs by index), |S| = 1 with k
    receivers, or |S| = |R| = 1 with num_paths = k parallel demands.
    """

    graph: Graph
    sources: tuple[str, ...]
    receivers: tuple[str, ...]
    num_paths: int | None = None

    def __init__(self, graph: Graph, sources: Sequence[str], receivers: Sequence[str],
                 num_paths: int | None = None):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "sources", tuple(sources))
        object.__setattr__(self, "receivers", tuple(receivers))
        object.__setattr__(self, "num_paths", num_paths)
        self._validate()

    def _validate(self) -> None:
        s, r = self.sources, self.receivers
        if not s or not r:
            raise ValueError("sources and receivers must be non-empty")
        if len(set(s)) != len(s) or len(set(r)) != len(r):
            raise ValueError("duplicate node in sources or receivers")
        if set(s) & set(r):
            raise ValueError("sources and receivers must be disjoint node sets")
        for node in (*s, *r):
            self.graph._require_node(node)
        if len(s) == 1:
            if len(r) == 1:
                if self.num_paths is not None and self.num_paths < 1:
                    raise ValueError("num_paths must be positive")
            elif self.num_paths not in (None, len(r)):
                raise ValueError("num_paths must equal the receiver count")
        elif len(s) == len(r):
            if self.num_paths not in (None, len(s)):
                raise ValueError("num_paths must equal the pair count")
        else:
            raise ValueError("need |S| = |R|, or a single source")

    @property
    def k(self) -> int:
        if len(self.sources) == 1:
            if len(self.receivers) == 1:
                return self.num_paths if self.num_paths is not None else 1
            return len(self.receivers)
        return len(self.sources)

    def pairs(self, pairing: Sequence[str] | None = None) -> list[tuple[str, str]]:
        """The (source, receiver) pairs, the receivers in pairing's order when given."""
        receivers = self.receivers if pairing is None else pairing
        if len(self.sources) == 1:
            if len(receivers) == 1:
                return [(self.sources[0], receivers[0])] * self.k
            return [(self.sources[0], r) for r in receivers]
        return list(zip(self.sources, receivers))


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    paths: DisjointPathSet | None = None
    source_tree: tuple[str, ...] = ()
    receiver_tree: tuple[str, ...] = ()
    failure_reason: str | None = None
    relaxed: bool = False
    pairing: tuple[str, ...] | None = None
    k_edge_connected: bool | None = None
    hamiltonian: bool | None = None
    certificate: tuple[str, ...] = ()


# -- tree machinery -----------------------------------------------------------------
# Trees are placed on the search's integer snapshot (connectivity._Snapshot):
# terminals are node indices, a pool or a tree is an edge mask, and the lowest
# bit is the lowest edge id, so growing trees lowest bit first keeps the
# enumeration order of the edge ids.


def _prune_to_terminals(snap: _Snapshot, chosen: int, terminals: int) -> int:
    """Drop leaf branches that end outside the terminal set (a node mask)."""
    while True:
        leaves = 0
        for x, at in enumerate(snap.inc):
            at &= chosen
            if at and not at & (at - 1) and not terminals >> x & 1:
                leaves |= at
        if not leaves:
            return chosen
        chosen &= ~leaves


def _tree_for_terminals(snap: _Snapshot, pool: int, terminals: Sequence[int]) -> int | None:
    """First tree connecting the terminals inside the pool, or None.

    The tree joins the BFS-tree paths from each terminal back to the first
    one; every leaf of that union is a terminal, so there is nothing to prune.
    """
    root = terminals[0]
    reached_by = [0] * len(snap.nodes)  # the edge bit that first reached each node
    seen = 1 << root
    queue = [root]
    for x in queue:
        for bit, _, y in snap.adj[x]:
            if pool & bit and not seen >> y & 1:
                seen |= 1 << y
                reached_by[y] = bit
                queue.append(y)
    if any(not seen >> t & 1 for t in terminals):
        return None
    chosen = 0
    for x in terminals[1:]:
        while x != root and not chosen & reached_by[x]:
            bit = reached_by[x]
            chosen |= bit
            u, v = snap.edge_ends[bit.bit_length() - 1]
            x = u if v == x else v
    return chosen


def _rejoins(adj, component: int, terms: int, avail: int, x: int) -> bool:
    """Whether node x reaches the component (a node mask) over the edges in
    avail, or else reaches no node of the terms mask.  The search goes out
    from x and stops at the first component node it meets."""
    seen = 1 << x
    queue = [x]
    for x in queue:
        for bit, _, y in adj[x]:
            if avail & bit and not seen >> y & 1:
                if component >> y & 1:
                    return True
                seen |= 1 << y
                queue.append(y)
    return not seen & terms


def _iter_steiner_trees(snap: _Snapshot, pool: int, terminals: Sequence[int]) -> Iterator[int]:
    """All inclusion-minimal trees connecting the terminals, each once.

    A state grows a tree from the first terminal: component is its node
    mask, touched the edges at those nodes and inner the edges with both
    ends in it.  The state either takes the lowest boundary edge left in the
    pool or bans it, the latter only while the terminals stay reachable.
    They all are while the pool joins them, as it must at the start: the
    component is joined by its tree, and a ban keeps the rest joined
    unless it cuts the banned edge's outer end off from the component,
    with some terminal on that end's side (`_rejoins`).
    """
    if len(terminals) <= 1:
        yield 0
        return
    adj, inc, edge_ends = snap.adj, snap.inc, snap.edge_ends
    root = terminals[0]
    terms = sum(1 << t for t in terminals)
    seen_trees: set[int] = set()

    def rec(component: int, touched: int, inner: int, chosen: int, banned: int) -> Iterator[int]:
        snap.count(snap.spent + 1)
        if not terms & ~component:
            tree = _prune_to_terminals(snap, chosen, terms)
            if tree not in seen_trees:
                seen_trees.add(tree)
                yield tree
            return
        boundary = touched & ~inner & pool & ~banned
        if not boundary:
            return
        bit = boundary & -boundary
        u, v = edge_ends[bit.bit_length() - 1]
        grown = v if component >> u & 1 else u
        yield from rec(component | 1 << grown, touched | inc[grown],
                       inner | (inc[grown] & touched), chosen | bit, banned)
        banned |= bit
        if joined and _rejoins(adj, component, terms, pool & ~banned, grown):
            yield from rec(component, touched, inner, chosen, banned)

    dist = _distances(adj, root, pool)
    joined = all(dist[t] >= 0 for t in terminals)
    yield from rec(1 << root, inc[root], 0, 0, 0)


# -- the feasibility search -----------------------------------------------------------


def _witness_for_path_set(
    snap: _Snapshot,
    used: int,
    sources: Sequence[int],
    receivers: Sequence[int],
    relaxed: bool,
    settle: Callable[[], bool] | None = None,
) -> tuple[int | None, int | None, bool]:
    """Try to place both trees around a path set's used edges (a mask).

    Returns (source_tree, receiver_tree, source_tree_found) as edge masks;
    the trees are None when no placement exists for this path set.  An
    empty mask is a valid tree for a single terminal.  settle, if given,
    runs once, when the first source tree leaves no room for a receiver
    tree; when it returns True the attempt ends there, with no trees.
    """
    spool = snap.full if relaxed else snap.full & ~used
    source_tree_found = False
    for stree in _iter_steiner_trees(snap, spool, sources):
        rtree = _tree_for_terminals(snap, spool & ~stree, receivers)
        if rtree is not None:
            return stree, rtree, True
        if not source_tree_found and settle is not None and settle():
            return None, None, True
        source_tree_found = True
    return None, None, source_tree_found


def _cut_demand(g: Graph, pairs, sources, receivers, side: set[str]) -> tuple[int, int, int, int]:
    """(c, p, s, r) for a node set: the edges crossing it, the pairs it
    separates, and whether it splits the sources and the receivers (1 or 0).
    """
    crossing = sum((u in side) != (v in side) for u, v in g.edges.values())
    separated = sum((s in side) != (r in side) for s, r in pairs)
    return crossing, separated, _splits(side, sources), _splits(side, receivers)


def _splits(side: set, terms) -> int:
    """1 when the side holds some but not all of the terminals, else 0."""
    return int(len({t in side for t in terms}) == 2)


def _side_demand(snap: _Snapshot, parent, sources: Sequence[int], receivers: Sequence[int]):
    """(crossing, separated, s, r) for X, the nodes x with parent[x] != -1:
    X's edge mask, the number of pairs i.. it separates for i from 0 to k,
    and 1 or 0 for whether it splits the sources and the receivers (node
    indices).  The verifier recounts certificates on ids (`_cut_demand`).
    """
    inside = {x for x in range(len(snap.nodes)) if parent[x] != -1}
    crossing = 0
    for x in inside:
        crossing ^= snap.inc[x]  # an edge inside X is counted twice
    separated = [sum((x in inside) != (y in inside) for x, y in snap.ends[i:])
                 for i in range(len(snap.ends) + 1)]
    return crossing, separated, _splits(inside, sources), _splits(inside, receivers)


def _deficient_cut(snap: _Snapshot, sources, receivers, any_source_tree: bool):
    """(certificate, failure reason) for a strict infeasible instance, or None.

    Candidate sides are the minimal minimum cuts between terminals (node
    indices), one flow per unordered pair stopped at k+2 units: no side
    crossed by that many edges can be deficient.  Each is counted on the
    snapshot (`_side_demand`).  A deficient side, traced to node ids,
    proves infeasibility, but it gives the reason the exhaustive search
    names only in two cases: receiver-tree when the first path set left
    room for a source tree (empty for one source), and source-tree when the
    side splits the sources and every crossing edge carries a path (c == p).
    """
    terminals = list(dict.fromkeys((*sources, *receivers)))
    net = snap.network()
    limit = len(snap.ends) + 2
    for i, a in enumerate(terminals):
        for b in terminals[i + 1 :]:
            _, parent = _flow(net, net.cap[:], a, b, limit)
            if parent is None:
                continue
            crossing, separated, s, r = _side_demand(snap, parent, sources, receivers)
            c, p = crossing.bit_count(), separated[0]
            if c >= p + s + r:
                continue
            certificate = tuple(v for v, x in zip(snap.nodes, parent) if x != -1)
            if any_source_tree:
                return certificate, REASON_RECEIVER_TREE
            if s and c == p:
                return certificate, REASON_SOURCE_TREE
    return None


_CUT_SIDE_MAX = 3  # most terminals on the smaller side of a bipartition in _terminal_cuts


def _terminal_cuts(snap: _Snapshot, sources: Sequence[int], receivers: Sequence[int]):
    """`_side_demand`'s (crossing, separated, s, r) for the minimal minimum
    cut X of each bipartition of the distinct terminals whose smaller side
    holds at most _CUT_SIDE_MAX of them.

    Each cut is one flow, spending one state, from a hub joined to one
    side's terminals to a hub joined to the other's, on one network whose
    terminal arcs are switched for each flow.  Those arcs carry m + 1, so
    X holds the side's terminals and no other.
    """
    terminals = list(dict.fromkeys((*sources, *receivers)))
    t, n, m = len(terminals), len(snap.nodes), len(snap.edges)
    net = snap.network(terminals, terminals)
    # arc 2(m + i) + 1 enters terminal i from hub n; arc 2(m + t + i) leaves it for hub n + 1
    closed = net.cap[: 2 * m] + [0] * (4 * t)
    cuts = []
    for size in range(1, min(_CUT_SIDE_MAX, t // 2) + 1):
        for side in combinations(range(t), size):
            if 2 * size == t and side[0]:
                continue  # the other side lists the same bipartition
            cap = closed[:]
            for i in range(t):
                cap[2 * (m + i) + 1 if i in side else 2 * (m + t + i)] = m + 1
            snap.count(snap.spent + 1)
            cuts.append(_side_demand(snap, _flow(net, cap, n, n + 1)[1], sources, receivers))
    return cuts


def _walk_limits(snap: _Snapshot, sources: Sequence[int], receivers: Sequence[int]):
    """The strict walk's (spare, cuts) before and from the first source tree found on.

    spare is the edges the trees need: |S| - 1, and |R| - 1 more from the
    first source tree on.  cuts[i] lists (crossing, least) for each of
    _terminal_cuts' cuts, least being what the paths of pairs i.. and the
    trees must cross it: separated[i] + s, and r more from the first source
    tree on, least slack first.  Before a source tree is found the receiver
    tree counts nowhere, so a skipped set never had room for a source tree.
    """
    cuts = _terminal_cuts(snap, sources, receivers)
    limits = []
    for rtree in (0, 1):
        rows = []
        for i in range(len(snap.ends) + 1):
            row = [(c, separated[i] + s + r * rtree) for c, separated, s, r in cuts]
            rows.append(sorted([cut for cut in row if cut[1]],
                               key=lambda cut: cut[0].bit_count() - cut[1]))
        limits.append((len(sources) - 1 + (len(receivers) - 1) * rtree, rows))
    return limits


def _search(snap: _Snapshot, sources, receivers, relaxed: bool):
    """Exact witness search on the pairs' snapshot; returns a report without pairing metadata.

    Relaxed trees are placed in the whole graph, so the first path set's
    answer is every path set's.  In strict mode a deficient cut settles an
    infeasible verdict.  The cut is tried once the first path set's first
    source tree leaves no room for a receiver tree, so a bridge that both
    trees must cross does not wait for every other source tree, or after
    that path set's trees when it has none.  Otherwise every other set
    of used edges is tried, which is all a tree placement depends on, with
    the first path set that uses it.  Before that walk starts, the search
    flows one cut per small bipartition of the terminals (`_terminal_cuts`).
    The walk then skips the sets that leave fewer edges than the trees
    need, and ends each branch where some cut has fewer edges left than
    the later paths and the trees that must cross it (Okamura & Seymour's
    cut condition): the source tree, and from the first source tree found
    on, the receiver tree too (`_walk_limits`).  A set that only has room
    for a source tree is never skipped before one is found, so the reason
    stays the one the full walk gives.  One snapshot carries the whole
    search: paths are one edge mask per pair, and only the reported
    witness is traced back to ids.
    """
    terms = [snap.index[v] for v in sources], [snap.index[v] for v in receivers]

    def witness(walks: list[int], stree: int, rtree: int) -> FeasibilityReport:
        return FeasibilityReport(True, snap.path_set(walks), snap.edge_ids(stree),
                                 snap.edge_ids(rtree), relaxed=relaxed)

    fast = _multi_paths(snap)
    if fast is None:
        return FeasibilityReport(False, failure_reason=REASON_PATHS, relaxed=relaxed)
    fast_used = sum(fast)  # the masks are disjoint
    cut = None

    def settle() -> bool:
        nonlocal cut
        cut = _deficient_cut(snap, *terms, True)
        return cut is not None

    stree, rtree, any_source_tree = _witness_for_path_set(
        snap, fast_used, *terms, relaxed, None if relaxed else settle)
    if rtree is not None:
        return witness(fast, stree, rtree)
    if not relaxed:
        if not any_source_tree:
            cut = _deficient_cut(snap, *terms, False)
        if cut is not None:
            certificate, reason = cut
            return FeasibilityReport(False, failure_reason=reason, certificate=certificate)
        limits = _walk_limits(snap, *terms)
        for walks in _used_edge_sets(snap, lambda: limits[any_source_tree]):
            used = sum(walks)
            if used == fast_used:
                continue
            stree, rtree, s_found = _witness_for_path_set(snap, used, *terms, relaxed)
            if rtree is not None:
                return witness(walks, stree, rtree)
            any_source_tree = any_source_tree or s_found
    if not any_source_tree:
        return FeasibilityReport(False, failure_reason=REASON_SOURCE_TREE, relaxed=relaxed)
    return FeasibilityReport(False, failure_reason=REASON_RECEIVER_TREE, relaxed=relaxed)


def check_feasibility(
    inst: ProtectionInstance,
    relaxed: bool = False,
    pairing: str = "fixed",
) -> FeasibilityReport:
    """Decide deployability and produce a witness or a certified refusal.

    pairing="fixed" keeps the given source/receiver index pairing;
    "auto" tries every receiver permutation (pair count <= 6 only) on one budget.
    """
    g = inst.graph
    if pairing not in ("fixed", "auto"):
        raise ValueError(f"unknown pairing mode {pairing!r}")
    if pairing == "auto" and len(inst.sources) > 1:
        if len(inst.sources) > _PAIRING_MAX:
            raise SearchBudgetExceeded(
                f"auto pairing supports at most {_PAIRING_MAX} pairs"
            )
        fixed_report, spent = None, 0
        for perm in permutations(inst.receivers):
            snap = _pair_snapshot(g, inst.pairs(perm), spent)
            report = _search(snap, inst.sources, perm, relaxed)
            spent = snap.spent
            if report.feasible:
                return FeasibilityReport(
                    True, report.paths, report.source_tree, report.receiver_tree,
                    relaxed=relaxed, pairing=perm,
                )
            if fixed_report is None:
                fixed_report = report
        return FeasibilityReport(
            False, failure_reason=fixed_report.failure_reason, relaxed=relaxed
        )
    return _search(_pair_snapshot(g, inst.pairs()), inst.sources, inst.receivers, relaxed)


def check_single_source(inst: ProtectionInstance, relaxed: bool = False) -> FeasibilityReport:
    """Single-source feasibility plus the sufficient-condition report.

    Also answers whether the graph is k-edge connected and (for up to
    16 nodes, by an exact bitmask search) whether it carries a Hamiltonian
    cycle; together these two are a sufficient condition for
    deployability from any source to any k receivers.
    """
    if len(inst.sources) != 1:
        raise ValueError("check_single_source needs exactly one source")
    base = check_feasibility(inst, relaxed=relaxed)
    g = inst.graph
    k_conn = is_k_edge_connected(g, inst.k)
    ham = _hamiltonian_cycle_exists(g) if g.num_nodes <= _HAMILTON_MAX else None
    return replace(base, k_edge_connected=k_conn, hamiltonian=ham)


def _hamiltonian_cycle_exists(g: Graph) -> bool:
    """Depth-first search over (visited mask, end) states from the first node.

    Nodes after the first are bits 0..n-2.  A state is a path from the
    first node that visits exactly the nodes in mask and ends at one of
    them; a cycle exists when a full path ends at a neighbour of the
    first node.  A state that led to no cycle is recorded in failed[mask]
    (a bitmask of ends) and never expanded again, so the search keeps the
    Bellman / Held-Karp bound of O(2^n * n) states and stops at the first
    cycle it finds.
    """
    n = g.num_nodes
    if n < 3:
        return False
    snap = _Snapshot(g)
    if any(len(at) < 2 for at in snap.adj) or min(_distances(snap.adj, 0, snap.full)) < 0:
        return False
    # node i is bit i - 1, so the first node's own bit shifts out
    first_nbrs, *nbrs = (sum({1 << y for _, _, y in at}) >> 1 for at in snap.adj)
    full = (1 << (n - 1)) - 1
    failed: dict[int, int] = {}

    def extend(mask: int, end: int) -> bool:
        if mask == full:
            return bool(first_nbrs & end)
        if failed.get(mask, 0) & end:
            return False
        free = nbrs[end.bit_length() - 1] & ~mask
        while free:
            low = free & -free
            if extend(mask | low, low):
                return True
            free ^= low
        failed[mask] = failed.get(mask, 0) | end
        return False

    start = first_nbrs
    while start:
        low = start & -start
        if extend(low, low):
            return True
        start ^= low
    return False


# -- independent witness verification -------------------------------------------------


def verify_report(inst: ProtectionInstance, report: FeasibilityReport) -> list[str]:
    """Re-check a report from scratch; returns problems.

    A feasible report's witness is rebuilt edge by edge; an infeasible
    report's cut certificate is recounted.
    """
    problems: list[str] = []
    g = inst.graph
    if report.pairing is not None and sorted(report.pairing) != sorted(inst.receivers):
        return [f"pairing {list(report.pairing)} is not an ordering of the receivers"]
    pairs = inst.pairs(report.pairing)
    receiver_terms = list(dict.fromkeys(r for _, r in pairs))
    if not report.feasible:
        if not report.certificate:
            return ["report is not feasible; nothing to verify"]
        return _verify_certificate(inst, report, pairs, receiver_terms)
    paths = report.paths
    if paths is None or len(paths) != len(pairs):
        return ["witness path count does not match the instance"]
    try:
        paths.validate(g)
    except GraphError as exc:
        problems.append(f"paths invalid: {exc}")
    for p, (s, r) in zip(paths, pairs):
        if p.start != s or p.end != r:
            problems.append(f"path endpoints {p.start!r}-{p.end!r} differ from pair {s!r}-{r!r}")
    for name, tree, terms in (
        ("source tree", report.source_tree, list(inst.sources)),
        ("receiver tree", report.receiver_tree, receiver_terms),
    ):
        if len(terms) <= 1:
            if tree:
                problems.append(f"{name} should be empty for a single terminal")
            continue
        if not tree:
            problems.append(f"{name} missing")
            continue
        nodes_in_tree: set[str] = set()
        for e in tree:
            if e not in g.edges:
                problems.append(f"{name} uses unknown edge {e!r}")
                break
            nodes_in_tree.update(g.edges[e])
        else:
            # connected with |V|-1 edges means acyclic, hence a tree
            if len(tree) != len(nodes_in_tree) - 1 or not connected_within(
                g, list(nodes_in_tree), set(tree)
            ):
                problems.append(f"{name} is not a tree")
            if not connected_within(g, terms, set(tree)) or not set(terms) <= nodes_in_tree:
                problems.append(f"{name} does not span its terminals")
    path_edges = paths.edge_ids() if paths else set()
    stree, rtree = set(report.source_tree), set(report.receiver_tree)
    if stree & rtree:
        problems.append("source and receiver trees share edges")
    if not report.relaxed:
        if path_edges & stree:
            problems.append("source tree reuses path edges in strict mode")
        if path_edges & rtree:
            problems.append("receiver tree reuses path edges in strict mode")
    return problems


def _verify_certificate(inst, report, pairs, receiver_terms) -> list[str]:
    """Recount a cut certificate: fewer crossing edges than structures that must cross."""
    if report.relaxed:
        return ["cut certificates hold in strict mode only"]
    unknown = [v for v in report.certificate if v not in inst.graph.nodes]
    if unknown:
        return [f"certificate names unknown nodes {unknown}"]
    side = set(report.certificate)
    c, p, s, r = _cut_demand(inst.graph, pairs, inst.sources, receiver_terms, side)
    problems = []
    if c >= p + s + r:
        problems.append(
            f"certificate is not deficient: {c} crossing edges for {p + s + r} crossings"
        )
    if report.failure_reason == REASON_SOURCE_TREE and not (s and c <= p):
        problems.append("certificate leaves room for a source tree beside the paths")
    return problems


# -- the 3-regular bridged counterexample ---------------------------------------------


def build_fig2_fixture() -> ProtectionInstance:
    """A 10-node 3-regular graph where deployment provably fails.

    Two blocks, each a 5-cycle a-b-c-d-e with chords b-d and c-e, joined
    by the single bridge a1-a2.  Every degree is 3 and the bridge is a
    cut edge, so paths from the source to the far-side receiver always
    consume the bridge and the receivers cannot be interconnected
    afterwards: the receiver-tree condition fails for every path choice.
    """
    g = Graph()
    for blk in ("1", "2"):
        for name in "abcde":
            g.add_node("relay", f"{name}{blk}")
        cycle = ["a", "b", "c", "d", "e"]
        for i, x in enumerate(cycle):
            y = cycle[(i + 1) % 5]
            g.add_edge(f"{x}{blk}", f"{y}{blk}")
        g.add_edge(f"b{blk}", f"d{blk}")
        g.add_edge(f"c{blk}", f"e{blk}")
    g.add_edge("a1", "a2")
    g.set_role("b1", "source")
    for r in ("d1", "e1", "b2"):
        g.set_role(r, "receiver")
    return ProtectionInstance(g, ("b1",), ("d1", "e1", "b2"))
