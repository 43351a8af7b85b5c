"""Optimal k-connected topologies and minimum-edge bounds.

The Harary graph H_{k,n} (Harary, 1962) is the canonical k-connected
graph on n nodes with the fewest possible edges, exactly ceil(k*n/2):
a circulant ring of chords at distance up to floor(k/2), plus diameters
(even n) or near-diameters through v0 (odd n) when k is odd.  harary
builds it in one pass over each node's ring offsets, O(k*n) work, and
adds the edges in a fixed order, so ids e0.. and the saved JSON are stable.

The bound formulas answer how few edges any connected n-node network
can have while still supporting protected deployment: n+k-2 when the
terminals are a single source or preselected pairs, and
ceil(n*(n-k+1)/2) when sources and receivers may be chosen arbitrarily.
build_minimal_witness constructs graphs that attain the n+k-2 bounds.
"""

from __future__ import annotations

from .feasibility import ProtectionInstance
from .graph import Graph

__all__ = [
    "build_minimal_witness",
    "harary",
    "harary_lower_bound",
    "min_edges_arbitrary",
    "min_edges_predetermined",
    "min_edges_single_source",
]


def harary(n: int, k: int) -> Graph:
    """Construct H_{k,n}: k-connected, n nodes, exactly ceil(k*n/2) edges.

    Nodes are v0..v{n-1} on a ring.  Each v_i is joined to every v_j with
    j > i at ring distance at most floor(k/2), in increasing j, so each
    edge is listed once, from its lower end; odd k then adds the
    (near-)diameters.  No chord repeats a ring edge, since k < n keeps
    floor(k/2) below the ring distance of every chord.
    """
    if k < 2:
        raise ValueError(f"connectivity target must be at least 2, got {k}")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    g = Graph()
    v = [g.add_node("relay", f"v{i}") for i in range(n)]
    r = k // 2
    for i in range(n):
        for j in range(i + 1, min(i + r, n - 1) + 1):
            g.add_edge(v[i], v[j])
        for j in range(max(i + r + 1, n + i - r), n):
            g.add_edge(v[i], v[j])
    if k % 2 == 1:
        if n % 2 == 0:
            chords = [(i, i + n // 2) for i in range(n // 2)]
        else:
            chords = [(0, (n - 1) // 2)] + [(i, i + (n + 1) // 2) for i in range((n - 1) // 2)]
        for i, j in chords:
            g.add_edge(v[i], v[j])
    return g


def harary_lower_bound(n: int, k: int) -> int:
    """max(n-1, ceil(k*n/2)): no k-connected graph on n nodes can have fewer edges.

    Each node needs degree at least k, and a connected graph needs n-1
    edges, which is the larger of the two only for k = 1.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return max(n - 1, (k * n + 1) // 2)


def min_edges_single_source(n: int, k: int) -> int:
    """Fewest edges of a connected n-node graph deployable from one source to k receivers."""
    if k + 1 > n:
        raise ValueError(f"need at least k+1 = {k + 1} nodes, got {n}")
    if k < 1:
        raise ValueError("need at least one receiver")
    return n + k - 2

def min_edges_predetermined(n: int, k: int) -> int:
    """Fewest edges when the k source and k receiver nodes are preselected."""
    if 2 * k > n:
        raise ValueError(f"need at least 2k = {2 * k} nodes, got {n}")
    if k < 1:
        raise ValueError("need at least one pair")
    return n + k - 2


def min_edges_arbitrary(n: int, k: int) -> int:
    """Fewest edges when any k sources and k receivers may be demanded."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return (n * (n - k + 1) + 1) // 2


def build_minimal_witness(n: int, k: int, mode: str) -> ProtectionInstance:
    """An extremal instance attaining the n+k-2 bound, roles assigned.

    Canonical layout: receivers chained r1-r2-...-rk, relays chained off
    r1.  single_source stars the source onto every receiver;
    predetermined chains the sources too and pairs s_i with r_i by a
    direct edge.
    """
    g = Graph()
    if mode == "single_source":
        expected = min_edges_single_source(n, k)
        sources = [g.add_node("source", "s")]
        receivers = [g.add_node("receiver", f"r{i + 1}") for i in range(k)]
        for r in receivers:
            g.add_edge(sources[0], r)
        for a, b in zip(receivers, receivers[1:]):
            g.add_edge(a, b)
    elif mode == "predetermined":
        expected = min_edges_predetermined(n, k)
        sources = [g.add_node("source", f"s{i + 1}") for i in range(k)]
        receivers = [g.add_node("receiver", f"r{i + 1}") for i in range(k)]
        for a, b in zip(sources, sources[1:]):
            g.add_edge(a, b)
        for a, b in zip(receivers, receivers[1:]):
            g.add_edge(a, b)
        for s, r in zip(sources, receivers):
            g.add_edge(s, r)
    else:
        raise ValueError(f"unknown mode {mode!r}; use single_source or predetermined")
    chain_tail = receivers[0]
    for i in range(n - g.num_nodes):
        u = g.add_node("relay", f"u{i + 1}")
        g.add_edge(chain_tail, u)
        chain_tail = u
    inst = ProtectionInstance(g, sources, receivers)
    if g.num_edges != expected:
        raise AssertionError(f"witness has {g.num_edges} edges, expected {expected}")
    return inst
