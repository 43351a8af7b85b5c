"""The paper's n+k-2 fewest-edges bounds, checked on every small graph.

networkx's graph atlas lists every graph of up to 7 nodes, one per
isomorphism class, ordered by node count and then edge count.  For each
n from 3 to 6 and each k the formula admits, the connected n-node graphs
are tried from fewest edges up: the first one on which some choice of
terminals has a strict feasible verdict gives the exhaustive minimum,
which must equal the formula.  (n = 7 also matches, but takes about
17 s.)  `min_edges_arbitrary` is not checked here: no reading of it
tried so far matches the exhaustive minimum.  `harary_lower_bound` is
checked against the fewest edges of a k-connected atlas graph, for n
from 2 to 7, with networkx's own node connectivity.
"""

from functools import lru_cache
from itertools import combinations, permutations

import networkx as nx
import pytest

from npcode.construction import harary_lower_bound, min_edges_predetermined, min_edges_single_source
from npcode.feasibility import ProtectionInstance, check_feasibility

from oracles import graph_from_pairs

_NODES = range(3, 7)


@lru_cache(maxsize=None)
def _connected_graphs(n):
    """The connected n-node atlas graphs as library graphs (nodes x0..), fewest edges first."""
    found = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n and nx.is_connected(g)]
    found.sort(key=nx.Graph.number_of_edges)
    return tuple(graph_from_pairs(n, g.edges()) for g in found)


def _fewest_edges(n, terminal_choices):
    """Fewest edges of a connected n-node graph on which some (sources, receivers)
    choice has a strict feasible verdict."""
    for g in _connected_graphs(n):
        for sources, receivers in terminal_choices(list(g.nodes)):
            if check_feasibility(ProtectionInstance(g, sources, receivers)).feasible:
                return g.num_edges
    return None


@pytest.mark.parametrize("n, k", [(n, k) for n in _NODES for k in range(1, n)])
def test_single_source_bound_is_the_atlas_minimum(n, k):
    def choices(nodes):
        for s in nodes:
            rest = [v for v in nodes if v != s]
            for receivers in combinations(rest, k):
                yield (s,), receivers

    assert _fewest_edges(n, choices) == min_edges_single_source(n, k)


@pytest.mark.parametrize("n, k", [(n, k) for n in _NODES for k in range(1, n // 2 + 1)])
def test_predetermined_bound_is_the_atlas_minimum(n, k):
    # sources in node order and receivers in every order cover every pairing
    def choices(nodes):
        for sources in combinations(nodes, k):
            rest = [v for v in nodes if v not in sources]
            for receivers in permutations(rest, k):
                yield sources, receivers

    assert _fewest_edges(n, choices) == min_edges_predetermined(n, k)


def test_harary_bound_is_the_atlas_minimum():
    fewest = {}  # (n, k) -> fewest edges of an n-node graph with node connectivity >= k
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n >= 2 and nx.is_connected(g):
            for k in range(1, nx.node_connectivity(g) + 1):
                fewest[n, k] = min(fewest.get((n, k), g.number_of_edges()), g.number_of_edges())
    assert set(fewest) == {(n, k) for n in range(2, 8) for k in range(1, n)}
    for (n, k), edges in fewest.items():
        assert harary_lower_bound(n, k) == edges, (n, k)
