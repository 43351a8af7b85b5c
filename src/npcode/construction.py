"""Optimal k-connected topologies and minimum-edge bounds.

The Harary graph H_{k,n} (Harary, 1962) is the canonical k-connected
graph on n nodes with the fewest possible edges, exactly ceil(k*n/2):
a circulant ring of chords at distance up to floor(k/2), plus diameters
(even n) or near-diameters through v0 (odd n) when k is odd.

The bound formulas answer how few edges any connected n-node network
can have while still supporting protected deployment: n+k-2 when the
terminals are a single source or preselected pairs, and
ceil(n*(n-k+1)/2) when sources and receivers may be chosen arbitrarily.
build_minimal_witness constructs graphs that attain the n+k-2 bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .feasibility import ProtectionInstance
from .graph import Graph

__all__ = [
    "HararySpec",
    "build_minimal_witness",
    "harary",
    "harary_lower_bound",
    "min_edges_arbitrary",
    "min_edges_predetermined",
    "min_edges_single_source",
]


@dataclass(frozen=True)
class HararySpec:
    n: int
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"connectivity target must be at least 2, got {self.k}")
        if self.k >= self.n:
            raise ValueError(f"need k < n, got k={self.k}, n={self.n}")


def harary(n: int, k: int) -> Graph:
    """Construct H_{k,n}: k-connected, n nodes, exactly ceil(k*n/2) edges."""
    HararySpec(n, k)
    g = Graph()
    for i in range(n):
        g.add_node("relay", f"v{i}")
    added: set[frozenset[str]] = set()

    def connect(i: int, j: int) -> None:
        u, v = f"v{i % n}", f"v{j % n}"
        key = frozenset((u, v))
        if u != v and key not in added:
            added.add(key)
            g.add_edge(u, v)

    r = k // 2
    for i in range(n - 1):
        for j in range(i + 1, n):
            if j - i <= r or n + i - j <= r:
                connect(i, j)
    if k % 2 == 1:
        if n % 2 == 0:
            for i in range(n // 2):
                connect(i, i + n // 2)
        else:
            connect(0, (n - 1) // 2)
            connect(0, (n + 1) // 2)
            for i in range(1, (n - 3) // 2 + 1):
                connect(i, i + (n + 1) // 2)
    return g


def harary_lower_bound(n: int, k: int) -> int:
    """ceil(k*n/2): no k-connected graph on n nodes can have fewer edges."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return (k * n + 1) // 2


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
        s = g.add_node("source", "s")
        receivers = [g.add_node("receiver", f"r{i + 1}") for i in range(k)]
        for r in receivers:
            g.add_edge(s, r)
        for a, b in zip(receivers, receivers[1:]):
            g.add_edge(a, b)
        chain_tail = receivers[0]
        for i in range(n - k - 1):
            u = g.add_node("relay", f"u{i + 1}")
            g.add_edge(chain_tail, u)
            chain_tail = u
        inst = ProtectionInstance(g, [s], receivers)
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
        chain_tail = receivers[0]
        for i in range(n - 2 * k):
            u = g.add_node("relay", f"u{i + 1}")
            g.add_edge(chain_tail, u)
            chain_tail = u
        inst = ProtectionInstance(g, sources, receivers)
    else:
        raise ValueError(f"unknown mode {mode!r}; use single_source or predetermined")
    if g.num_edges != expected:
        raise AssertionError(f"witness has {g.num_edges} edges, expected {expected}")
    return inst
