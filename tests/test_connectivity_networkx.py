"""Edge and node connectivity against networkx, on graphs of up to 60 nodes.

The brute-force oracles in oracles.py enumerate cuts and stop at about
8 nodes; networkx reaches the sizes the max-flow code is meant for.
Edge connectivity of a multigraph is the min cut of the simple graph
whose edge capacities count the parallel edges.
"""

import random

import networkx as nx
import pytest

from npcode.connectivity import edge_connectivity, node_connectivity
from npcode.construction import harary
from npcode.graph import Graph


def _random_graph(rng, n, extra, parallel, connected=True):
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    for i in range(1, n if connected else n // 2):
        g.add_edge(ids[rng.randrange(i)], ids[i])
    present = {frozenset(uv) for uv in g.edges.values()}
    for _ in range(extra):
        u, v = rng.sample(ids, 2)
        if parallel or frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            g.add_edge(u, v)
    return g


def _complete_graph(n, copies=1):
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(copies):
                g.add_edge(ids[i], ids[j])
    return g


def _corpus():
    rng = random.Random(2024)
    cases = []
    for n in (3, 5, 8, 12, 20, 30, 45, 60):
        for extra in (0, n // 2, 2 * n):
            cases.append((f"simple n={n} extra={extra}", _random_graph(rng, n, extra, False)))
            cases.append((f"multi n={n} extra={extra}", _random_graph(rng, n, extra, True)))
    for n in (2, 6, 20):
        cases.append((f"disconnected n={n}", _random_graph(rng, n, n // 2, True, connected=False)))
    for n, copies in ((2, 1), (2, 3), (5, 1), (7, 2)):
        cases.append((f"complete n={n} x{copies}", _complete_graph(n, copies)))
    for n, k in ((20, 3), (33, 5), (60, 6)):
        cases.append((f"harary H({k},{n})", harary(n, k)))
    return cases


CORPUS = _corpus()


def _simple(g):
    ref = nx.Graph()
    ref.add_nodes_from(g.nodes)
    for u, v in g.edges.values():
        if ref.has_edge(u, v):
            ref[u][v]["capacity"] += 1
        else:
            ref.add_edge(u, v, capacity=1)
    return ref


def _nx_edge_connectivity(ref):
    if not nx.is_connected(ref):
        return 0
    return nx.stoer_wagner(ref, weight="capacity")[0]


def _split_apart(ref):
    return ref.number_of_nodes() <= 1 or not nx.is_connected(ref)


@pytest.mark.parametrize("label,g", CORPUS, ids=[label for label, _ in CORPUS])
def test_edge_connectivity_matches_networkx(label, g):
    rep = edge_connectivity(g)
    assert rep.value == _nx_edge_connectivity(_simple(g))
    assert len(rep.witness) == rep.value
    cut = set(rep.witness)
    rest = nx.MultiGraph()
    rest.add_nodes_from(g.nodes)
    rest.add_edges_from(uv for e, uv in g.edges.items() if e not in cut)
    assert _split_apart(rest)


@pytest.mark.parametrize("label,g", CORPUS, ids=[label for label, _ in CORPUS])
def test_node_connectivity_matches_networkx(label, g):
    ref = _simple(g)
    rep = node_connectivity(g)
    assert rep.value == nx.node_connectivity(ref)
    assert len(set(rep.witness)) == len(rep.witness) == rep.value
    assert _split_apart(ref.subgraph(set(ref) - set(rep.witness)))


@pytest.mark.parametrize("n", (7, 12, 25, 40))
def test_harary_matches_networkx(n):
    for k in range(2, min(n, 9)):
        h = harary(n, k)
        assert h.num_edges == nx.hkn_harary_graph(k, n).number_of_edges()
        assert node_connectivity(h).value == k
        assert edge_connectivity(h).value == k
