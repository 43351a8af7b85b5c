"""Edge and node connectivity against networkx, on graphs of up to 60 nodes.

The brute-force oracles in oracles.py enumerate cuts and stop at about
8 nodes; networkx reaches the sizes the max-flow code is meant for.
Edge connectivity of a multigraph is the min cut of the simple graph
whose edge capacities count the parallel edges.  The edge-cut witness is
checked against `edge_cut_ref`, a networkx flow from the first node to
each other node, and the node-cut witness against `node_cut_ref`, a scan
of every non-adjacent pair with networkx flows on a split digraph of its
own.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.flow import build_residual_network, edmonds_karp

from npcode.connectivity import edge_connectivity, node_connectivity
from npcode.construction import harary
from npcode.graph import Graph

from oracles import graph_from_pairs


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
    assert (rep.value, rep.witness) == edge_cut_ref(g)
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


# -- node-cut witnesses against a scan of every non-adjacent pair --------------------


def node_cut_ref(g):
    """(value, witness) that node_connectivity must return, from networkx flows.

    Node v splits into (v, "in") -> (v, "out") of capacity 1, and each edge
    u-v into uncapacitated arcs (u, "out") -> (v, "in") and back.  Every
    non-adjacent pair (s, t), in g.nodes order, gets its local connectivity
    as the max flow from (s, "out") to (t, "in").  The witness belongs to
    the first pair that reaches the minimum: the nodes whose in-half the
    residual graph reaches from (s, "out") and whose out-half it does not.
    """
    nodes = list(g.nodes)
    ref = _simple(g)
    if _split_apart(ref):
        return 0, ()
    pairs = [(s, t) for a, s in enumerate(nodes) for t in nodes[a + 1 :] if not ref.has_edge(s, t)]
    if not pairs:
        return len(nodes) - 1, tuple(nodes[1:])
    split = nx.DiGraph()
    for v in nodes:
        split.add_edge((v, "in"), (v, "out"), capacity=1)
    for u, v in ref.edges:
        split.add_edge((u, "out"), (v, "in"))
        split.add_edge((v, "out"), (u, "in"))
    residual = build_residual_network(split, "capacity")

    def flow(s, t):
        return edmonds_karp(split, (s, "out"), (t, "in"), residual=residual)

    values = [flow(s, t).graph["flow_value"] for s, t in pairs]
    best = min(values)
    s, t = pairs[values.index(best)]
    left = flow(s, t)
    open_arcs = nx.DiGraph()
    open_arcs.add_nodes_from(left)
    open_arcs.add_edges_from((x, y) for x, y, arc in left.edges(data=True) if arc["flow"] < arc["capacity"])
    reached = nx.descendants(open_arcs, (s, "out")) | {(s, "out")}
    return best, tuple(v for v in nodes if (v, "in") in reached and (v, "out") not in reached)


def _shuffled_graph(rng, n, extra, parallel):
    """A random graph whose spanning tree is laid in shuffled node order."""
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    order = ids[:]
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[rng.randrange(i)], order[i])
    for _ in range(extra):
        u, v = rng.sample(ids, 2)
        if parallel or {u, v} not in ({a, b} for a, b in g.edges.values()):
            g.add_edge(u, v)
    return g


def _star(leaves, chords, rng):
    """A star whose centre comes first: it lies in every minimum separator."""
    g = Graph()
    centre = g.add_node()
    ids = [g.add_node() for _ in range(leaves)]
    for v in ids:
        g.add_edge(centre, v)
    for _ in range(chords):  # chords between leaves, never closing all of them up
        i = rng.randrange(leaves - 2)
        g.add_edge(ids[i], ids[rng.randrange(i + 1, leaves - 1)])
    return g


def _hub(a, b, copies):
    """K_a and K_b joined only through a first node with two neighbours in each.

    The hub has the least degree and is the one minimum separator, so the
    value comes from a pair of its neighbours, not from a flow out of it.
    """
    g = Graph()
    hub = g.add_node()
    for size in (a, b):
        ids = [g.add_node() for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                g.add_edge(ids[i], ids[j])
        for v in ids[:2]:
            for _ in range(copies):
                g.add_edge(hub, v)
    return g


def _bridged(rng, a, b, copies):
    """Two random blocks joined by `copies` parallel edges between one pair of nodes."""
    g = Graph()
    ends = []
    for side, size, parallel in (("L", a, True), ("R", b, False)):
        block = _shuffled_graph(rng, size, 2 * size, parallel)
        for v in block.nodes:
            g.add_node("relay", side + v)
        for u, v in block.edges.values():
            g.add_edge(side + u, side + v)
        ends.append(side + rng.choice(list(block.nodes)))
    for _ in range(copies):
        g.add_edge(*ends)
    return g


def _node_cut_corpus():
    """Seeded graphs of at most 14 nodes, by family."""
    rng = random.Random(1984)
    families = {
        "random": [_shuffled_graph(rng, rng.randint(2, 14), rng.randrange(0, 30), rng.random() < 0.6)
                   for _ in range(200)],
        "dense": [_shuffled_graph(rng, n, n * n, rng.random() < 0.5)
                  for n in range(4, 15) for _ in range(3)],
        "disconnected": [_random_graph(rng, n, n, True, connected=False) for n in range(2, 15)],
        "complete": [_complete_graph(n, copies) for n in range(2, 7) for copies in (1, 2, 3)],
        "star": [_star(leaves, chords, rng) for leaves in range(3, 14) for chords in (0, 2, 5)],
        "hub": [_hub(a, b, copies) for a in (5, 6) for b in (5, 6, 7) for copies in (1, 2)],
        "bridged": [_bridged(rng, rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 3))
                    for _ in range(30)],
        "harary": [harary(n, k) for n in range(3, 15) for k in range(2, n)],
    }
    return families


NODE_CUT_CORPUS = _node_cut_corpus()


def test_node_cut_corpus_shape():
    graphs = [g for family in NODE_CUT_CORPUS.values() for g in family]
    assert len(graphs) >= 300
    assert all(g.num_nodes <= 14 for g in graphs)
    assert any(len(set(g.edges.values())) < g.num_edges for g in graphs)  # parallel edges
    # the centre, first, is the one minimum separator: the witness scan passes row 0
    for family in ("star", "hub"):
        assert all(node_cut_ref(g) == (1, (next(iter(g.nodes)),)) for g in NODE_CUT_CORPUS[family])


@pytest.mark.parametrize("family", sorted(NODE_CUT_CORPUS))
def test_node_connectivity_matches_node_cut_ref(family):
    for trial, g in enumerate(NODE_CUT_CORPUS[family]):
        rep = node_connectivity(g)
        assert (rep.value, rep.witness) == node_cut_ref(g), f"{family} {trial}"


@st.composite
def _multigraphs(draw):
    n = draw(st.integers(1, 14))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda uv: uv[0] != uv[1])
    return graph_from_pairs(n, draw(st.lists(pair, max_size=40)) if n > 1 else [])


@settings(max_examples=150, deadline=None)
@given(_multigraphs())
def test_node_connectivity_matches_node_cut_ref_hypothesis(g):
    rep = node_connectivity(g)
    assert (rep.value, rep.witness) == node_cut_ref(g)


def _separated_blocks(kappa, m, seed):
    """Two K_m blocks joined only through kappa separator nodes that come first.

    Each separator has 3 to 5 neighbours in each block, so the least degree
    exceeds kappa and the first minimising pair lies past the separators' rows.
    """
    rng = random.Random(seed)
    g = Graph()
    separators = [g.add_node() for _ in range(kappa)]
    blocks = [_complete_graph(m) for _ in range(2)]
    for side, block in zip("AB", blocks):
        for v in block.nodes:
            g.add_node("relay", side + v)
        for u, v in block.edges.values():
            g.add_edge(side + u, side + v)
    for s in separators:
        for side, block in zip("AB", blocks):
            for v in rng.sample(list(block.nodes), rng.randint(3, 5)):
                g.add_edge(s, side + v)
    return g


@pytest.mark.parametrize("kappa,m,seed,rerun_flows", [(2, 12, 6, 66), (3, 20, 28, 151)])
def test_witness_scan_skips_pairs_the_value_phase_passed(monkeypatch, kappa, m, seed, rerun_flows):
    from npcode import connectivity

    g = _separated_blocks(kappa, m, seed)
    assert g.num_nodes == kappa + 2 * m
    calls = []
    flow = connectivity._flow

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(connectivity, "_flow", counted)
    rep = node_connectivity(g)
    assert (rep.value, rep.witness) == node_cut_ref(g)
    assert rep.value == kappa
    # a scan that reflows every pair of the separators' rows takes rerun_flows
    assert len(calls) < rerun_flows


# -- edge-cut witnesses against a flow from the first node to each other node --------


def edge_cut_ref(g):
    """(value, witness) that edge_connectivity must return, from networkx flows.

    Each edge u-v adds one unit of capacity to the arcs u -> v and v -> u,
    so parallel edges count.  The value is the least max flow from the first
    node s to any other node.  The witness belongs to the first t, in
    g.nodes order, whose flow reaches it: the edges, in g.edges order, with
    exactly one end on the side that the residual graph reaches from s.
    """
    nodes = list(g.nodes)
    ref = _simple(g)
    if _split_apart(ref):
        return 0, ()
    arcs = nx.DiGraph()
    for u, v, c in ref.edges(data="capacity"):
        arcs.add_edge(u, v, capacity=c)
        arcs.add_edge(v, u, capacity=c)
    s = nodes[0]
    flows = [nx.maximum_flow(arcs, s, t) for t in nodes[1:]]
    best = min(value for value, _ in flows)
    flow = next(flow for value, flow in flows if value == best)
    reached = {s}
    queue = [s]
    for x in queue:
        for y, c in arcs[x].items():
            if y not in reached and flow[x][y] - flow[y][x] < c["capacity"]:
                reached.add(y)
                queue.append(y)
    return best, tuple(e for e, (u, v) in g.edges.items() if (u in reached) != (v in reached))


@settings(max_examples=150, deadline=None)
@given(_multigraphs().filter(lambda g: g.num_nodes > 1))
def test_edge_connectivity_matches_edge_cut_ref_hypothesis(g):
    rep = edge_connectivity(g)
    assert (rep.value, rep.witness) == edge_cut_ref(g)
