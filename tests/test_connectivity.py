import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npcode import connectivity
from npcode.connectivity import (
    SearchBudgetExceeded,
    edge_connectivity,
    find_disjoint_paths_multi,
    is_k_edge_connected,
    iter_disjoint_path_sets,
    max_edge_disjoint_paths,
    node_connectivity,
)
from npcode.construction import harary
from npcode.feasibility import ProtectionInstance, check_feasibility
from npcode.graph import Graph

from oracles import (
    brute_disjoint_path_sets,
    brute_global_min_cut,
    brute_min_st_cut,
    brute_node_cut,
    connected_graph_corpus,
    connected_ref,
    degree_ref,
    disjoint_path_sets_ref,
    edge_list,
    first_per_used_edge_set,
    graph_from_pairs,
)

MULTI_PINS = json.loads((Path(__file__).parent / "data" / "multi_path_pins.json").read_text())


def _path_graph(n):
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b)
    return g, ids


def _cycle_graph(n):
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    for i in range(n):
        g.add_edge(ids[i], ids[(i + 1) % n])
    return g, ids


def _complete_graph(n):
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(ids[i], ids[j])
    return g, ids


def _random_graph(rng, n, extra):
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    order = ids[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        g.add_edge(a, b)
    for _ in range(extra):
        u, v = rng.sample(ids, 2)
        g.add_edge(u, v)
    return g, ids


def test_path_graph_single_path():
    g, ids = _path_graph(3)
    paths = max_edge_disjoint_paths(g, ids[0], ids[2])
    assert len(paths) == 1
    paths.validate(g)
    assert paths.paths[0].start == ids[0] and paths.paths[0].end == ids[2]


def test_k4_three_paths():
    g, ids = _complete_graph(4)
    for s in ids:
        for r in ids:
            if s != r:
                found = max_edge_disjoint_paths(g, s, r)
                assert len(found) == 3
                found.validate(g)


def test_same_endpoints_rejected():
    g, ids = _path_graph(2)
    with pytest.raises(ValueError):
        max_edge_disjoint_paths(g, ids[0], ids[0])


def test_corpus_matches_known_isomorphism_counts():
    from collections import Counter

    from oracles import CONNECTED_GRAPH_COUNTS

    counts = Counter(n for n, _ in connected_graph_corpus(6))
    assert dict(counts) == CONNECTED_GRAPH_COUNTS


def test_menger_on_corpus_upto_5():
    for n, pairs in connected_graph_corpus(5):
        g = graph_from_pairs(n, pairs)
        nodes = list(g.nodes)
        edges = edge_list(g)
        for i, s in enumerate(nodes):
            for r in nodes[i + 1 :]:
                found = max_edge_disjoint_paths(g, s, r)
                found.validate(g)
                cut, _ = brute_min_st_cut(nodes, edges, s, r)
                assert len(found) == cut, f"n={n} pairs={pairs} {s}-{r}"


def test_edge_connectivity_fixtures():
    tree, _ = _path_graph(5)
    rep = edge_connectivity(tree)
    assert rep.value == 1 and len(rep.witness) == 1
    cyc, _ = _cycle_graph(6)
    assert edge_connectivity(cyc).value == 2
    h = harary(9, 4)
    rep = edge_connectivity(h)
    assert rep.value == 4
    assert brute_global_min_cut(list(h.nodes), edge_list(h)) == 4


def test_edge_connectivity_witness_disconnects():
    rng = random.Random(3)
    for _ in range(10):
        g, _ = _random_graph(rng, rng.randrange(3, 8), rng.randrange(0, 8))
        rep = edge_connectivity(g)
        assert len(rep.witness) == rep.value
        live = set(g.edges) - set(rep.witness)
        nodes = list(g.nodes)
        assert not connected_ref(nodes, edge_list(g), live)


def test_edge_connectivity_disconnected_and_tiny():
    g = Graph()
    g.add_node()
    g.add_node()
    assert edge_connectivity(g).value == 0
    assert edge_connectivity(g).witness == ()
    single = Graph()
    single.add_node()
    with pytest.raises(Exception):
        edge_connectivity(single)


def test_node_connectivity_fixtures():
    k4, _ = _complete_graph(4)
    rep = node_connectivity(k4)
    assert rep.value == 3 and len(rep.witness) == 3
    c5, _ = _cycle_graph(5)
    assert node_connectivity(c5).value == 2
    from npcode.feasibility import build_fig2_fixture

    fig2 = build_fig2_fixture().graph
    rep = node_connectivity(fig2)
    assert rep.value == 1
    assert brute_node_cut(list(fig2.nodes), edge_list(fig2)) == 1
    # witness really is a cut vertex
    (cut_node,) = rep.witness
    keep = [v for v in fig2.nodes if v != cut_node]
    live = [(e, u, v) for e, u, v in edge_list(fig2) if cut_node not in (u, v)]
    assert not connected_ref(keep, live)


def test_node_connectivity_matches_brute_on_corpus_upto_5():
    for n, pairs in connected_graph_corpus(5):
        g = graph_from_pairs(n, pairs)
        assert node_connectivity(g).value == brute_node_cut(list(g.nodes), edge_list(g))


def test_kappa_ordering():
    rng = random.Random(11)
    for _ in range(15):
        g, _ = _random_graph(rng, rng.randrange(3, 8), rng.randrange(0, 10))
        kv = node_connectivity(g).value
        ke = edge_connectivity(g).value
        min_deg = min(degree_ref(g).values())
        assert kv <= ke <= min_deg


def test_is_k_edge_connected():
    cyc, _ = _cycle_graph(7)
    assert is_k_edge_connected(cyc, 2)
    assert not is_k_edge_connected(cyc, 3)
    tree, _ = _path_graph(4)
    assert not is_k_edge_connected(tree, 2)
    assert is_k_edge_connected(tree, 0)
    for n in range(4, 9):
        for k in range(2, n):
            h = harary(n, k)
            assert is_k_edge_connected(h, k)
            assert not is_k_edge_connected(h, k + 1)


@st.composite
def _small_multigraphs(draw):
    """Up to 10 nodes: random edges, many of them parallel, over 0-2 copies of a ring."""
    n = draw(st.integers(2, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda uv: uv[0] != uv[1])
    ring = [(i, (i + 1) % n) for i in range(n)] * draw(st.integers(0, 2))
    return graph_from_pairs(n, ring + draw(st.lists(pair, max_size=25)))


@settings(max_examples=150, deadline=None)
@given(_small_multigraphs())
def test_is_k_edge_connected_matches_edge_connectivity(g):
    value = edge_connectivity(g).value
    for k in range(max(degree_ref(g).values()) + 2):
        assert is_k_edge_connected(g, k) == (value >= k), k


def test_whitney_on_corpus_upto_5():
    for n, pairs in connected_graph_corpus(5):
        g = graph_from_pairs(n, pairs)
        nodes = list(g.nodes)
        pair_min = min(
            len(max_edge_disjoint_paths(g, s, r))
            for i, s in enumerate(nodes)
            for r in nodes[i + 1 :]
        )
        max_deg = max(degree_ref(g).values())
        for k in range(1, max_deg + 2):
            assert is_k_edge_connected(g, k) == (pair_min >= k)


def test_multi_shared_source_flow_shortcut():
    g, ids = _complete_graph(5)
    pairs = [(ids[0], ids[1]), (ids[0], ids[2]), (ids[0], ids[3])]
    found = find_disjoint_paths_multi(g, pairs)
    assert found is not None
    found.validate(g)
    for p, (s, r) in zip(found, pairs):
        assert p.start == s and p.end == r
    # same with a shared receiver
    flipped = [(ids[1], ids[0]), (ids[2], ids[0]), (ids[3], ids[0])]
    found = find_disjoint_paths_multi(g, flipped)
    assert found is not None
    found.validate(g)
    for p, (s, r) in zip(found, flipped):
        assert p.start == s and p.end == r


def test_multi_bridge_infeasible():
    g = Graph()
    left = [g.add_node() for _ in range(3)]
    right = [g.add_node() for _ in range(3)]
    for trio in (left, right):
        for i in range(3):
            g.add_edge(trio[i], trio[(i + 1) % 3])
    g.add_edge(left[0], right[0])  # the only crossing
    pairs = [(left[1], right[1]), (left[2], right[2])]
    assert find_disjoint_paths_multi(g, pairs) is None


def test_multi_matches_brute_on_random_graphs():
    rng = random.Random(42)
    for trial in range(25):
        g, ids = _random_graph(rng, 8, rng.randrange(2, 8))
        n_pairs = rng.choice([2, 3])
        picked = rng.sample(ids, 2 * n_pairs)
        pairs = [(picked[2 * i], picked[2 * i + 1]) for i in range(n_pairs)]
        found = find_disjoint_paths_multi(g, pairs)
        expect = bool(brute_disjoint_path_sets(edge_list(g), pairs))
        assert (found is not None) == expect, f"trial {trial}"
        if found is not None:
            found.validate(g)
            for p, (s, r) in zip(found, pairs):
                assert p.start == s and p.end == r


def test_iter_path_sets_exhaustive_count():
    g, ids = _cycle_graph(4)
    pairs = [(ids[0], ids[2])]
    got = list(iter_disjoint_path_sets(g, pairs))
    assert len(got) == 2  # both arcs of the cycle
    brute = brute_disjoint_path_sets(edge_list(g), pairs)
    assert len(brute) == 2


def test_size_guard():
    # many pairs are no reason to refuse: 13 copies of one pair in K4 need 13
    # edge-disjoint paths where a cut of 3 edges allows 3, and both searches say so
    g, ids = _complete_graph(4)
    pairs = [(ids[0], ids[1])] * 13
    assert find_disjoint_paths_multi(g, pairs) is None
    assert list(iter_disjoint_path_sets(g, pairs)) == []
    report = check_feasibility(ProtectionInstance(g, [ids[0]], [ids[1]], num_paths=13))
    assert not report.feasible and report.failure_reason == "paths"


def test_duplicated_pair_demands():
    g, ids = _cycle_graph(6)
    pairs = [(ids[0], ids[3])] * 2
    found = find_disjoint_paths_multi(g, pairs)
    assert found is not None
    found.validate(g)
    assert find_disjoint_paths_multi(g, pairs + [(ids[0], ids[3])]) is None


# Exact values, witnesses and paths: the CLI `connectivity`, `feasibility`
# and `simulate` verbs print them, so any change to the flow code keeps them.
PINNED_CUTS = {
    "H(3,20)": ((3, ("e0", "e1", "e20")), (3, ("v1", "v10", "v19"))),
    "H(6,30)": (
        (6, ("e0", "e1", "e2", "e3", "e4", "e5")),
        (6, ("v1", "v2", "v3", "v27", "v28", "v29")),
    ),
    "fig2": ((1, ("e14",)), (1, ("a2",))),
    "random40": ((2, ("e30", "e32")), (2, ("n13", "n32"))),
}


def _pinned_graph(name):
    from npcode.feasibility import build_fig2_fixture

    if name == "H(3,20)":
        return harary(20, 3)
    if name == "H(6,30)":
        return harary(30, 6)
    if name == "fig2":
        return build_fig2_fixture().graph
    g, _ = _random_graph(random.Random(40), 40, 60)
    return g


@pytest.mark.parametrize("name", sorted(PINNED_CUTS))
def test_cut_witnesses_pinned(name):
    g = _pinned_graph(name)
    ec, nc = edge_connectivity(g), node_connectivity(g)
    assert ((ec.value, ec.witness), (nc.value, nc.witness)) == PINNED_CUTS[name]


def _as_tuples(found):
    return [(p.nodes, p.edges) for p in found.paths]


def test_disjoint_paths_pinned():
    h = harary(12, 4)
    assert _as_tuples(max_edge_disjoint_paths(h, "v0", "v6")) == [
        (("v0", "v1", "v3", "v5", "v6"), ("e0", "e5", "e10", "e13")),
        (("v0", "v2", "v4", "v6"), ("e1", "e8", "e12")),
        (("v0", "v10", "v8", "v6"), ("e2", "e20", "e16")),
        (("v0", "v11", "v9", "v7", "v6"), ("e3", "e22", "e18", "e15")),
    ]
    shared_source = [("v0", "v3"), ("v0", "v6"), ("v0", "v9")]
    assert _as_tuples(find_disjoint_paths_multi(h, shared_source)) == [
        (("v0", "v1", "v3"), ("e0", "e5")),
        (("v0", "v2", "v4", "v6"), ("e1", "e8", "e12")),
        (("v0", "v10", "v9"), ("e2", "e21")),
    ]
    shared_receiver = [(r, s) for s, r in shared_source]
    assert _as_tuples(find_disjoint_paths_multi(h, shared_receiver)) == [
        (("v3", "v1", "v0"), ("e5", "e0")),
        (("v6", "v4", "v2", "v0"), ("e12", "e8", "e1")),
        (("v9", "v10", "v0"), ("e21", "e2")),
    ]


@pytest.mark.parametrize("n,k", [(60, 4), (40, 3), (60, 6)])
def test_node_connectivity_runs_few_flows(monkeypatch, n, k):
    from npcode import connectivity

    calls = []
    flow = connectivity._flow

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(connectivity, "_flow", counted)
    assert node_connectivity(harary(n, k)).value == k
    # one flow from v0 to each non-neighbour, one per non-adjacent pair of its
    # k neighbours, and one for the witness: the first pair (v0, v_j) reaches k
    assert len(calls) <= n + k * (k - 1) // 2


@pytest.mark.parametrize("n,k", [(60, 6), (200, 4)])
def test_chained_flows_start_few_flows_at_a_source(monkeypatch, n, k):
    sources = []
    flow = connectivity._flow

    def counted(net, cap, s, t, limit=None):
        sources.append(s)
        return flow(net, cap, s, t, limit)

    monkeypatch.setattr(connectivity, "_flow", counted)
    h = harary(n, k)
    assert edge_connectivity(h).value == k
    # v_t is adjacent to v_{t-1}, so each later sink's flow chains on from the
    # last sink's residual and reaches k there: n - 1 flows, one from v0
    assert len(sources) == n - 1
    assert sources.count(0) == 1
    sources.clear()
    assert node_connectivity(h).value == k
    # out-half 2i + 1 starts a fresh flow from v_i; a chained flow starts at
    # the last sink's in-half.  One fresh flow for v0's non-neighbours, at
    # most one per non-adjacent pair of its k neighbours, one for the witness.
    assert sum(s % 2 for s in sources) <= 2 + k * (k - 1) // 2


def _spanning_random_graph(n, m, seed):
    # bench_connectivity's rule: a random spanning tree, then distinct sorted
    # random pairs until there are m edges
    rng = random.Random(seed)
    g = Graph()
    ids = [g.add_node("relay", f"v{i}") for i in range(n)]
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    for u, v in sorted(pairs):
        g.add_edge(ids[u], ids[v])
    return g


@pytest.mark.parametrize("build,edge,node", [
    pytest.param(lambda: _spanning_random_graph(100, 600, 7), (5, 99, 88), (5, 113, 98), id="n100-m600"),
    pytest.param(lambda: _spanning_random_graph(50, 100, 3), (1, 49, 43), (1, 89, 76), id="n50-m100"),
    pytest.param(lambda: harary(60, 6), (6, 59, 1), (6, 60, 5), id="H6-60"),
])
def test_chained_flows_keep_their_fresh_flows(monkeypatch, build, edge, node):
    # (value, flows, fresh flows) as recorded before the chain rule was shared:
    # a chain that starts at the wrong node still finds every value and
    # witness, but falls back to more fresh flows
    sources = []
    flow = connectivity._flow

    def counted(net, cap, s, t, limit=None):
        sources.append(s)
        return flow(net, cap, s, t, limit)

    monkeypatch.setattr(connectivity, "_flow", counted)
    g = build()
    value = edge_connectivity(g).value
    assert (value, sources.count(0)) == (edge[0], edge[2])  # fresh flows start at node 0
    assert len(sources) <= edge[1]
    sources.clear()
    value = node_connectivity(g).value
    assert (value, sum(s % 2 for s in sources)) == (node[0], node[2])  # and at an out-half
    assert len(sources) <= node[1]


# -- the integer path walker against the string-keyed oracle -------------------------


def _path_set_corpus(seed, count):
    """Seeded small multigraphs, with repeated pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 8)
        g, ids = _random_graph(rng, n, rng.randrange(2, n + 2))  # parallel edges allowed
        pairs = [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            pairs.insert(rng.randrange(len(pairs) + 1), rng.choice(pairs))
        if rng.random() < 0.4:
            # unused draws: they keep the seeded graphs, and so the corpus606
            # pins, as they were recorded
            for _ in g.edges:
                rng.random()
        yield g, pairs


def _multi_h(n, k):
    return harary(n, k), [(f"v{i}", f"v{n // 2 + i}") for i in range(k)]


def test_path_sets_are_first_per_used_edge_set_of_the_oracle():
    cases = list(_path_set_corpus(606, 150))
    cases.append(_multi_h(10, 4))
    repeated = 0
    for trial, (g, pairs) in enumerate(cases):
        ref = list(disjoint_path_sets_ref(edge_list(g), pairs))
        got = [[(p.nodes, p.edges) for p in found]
               for found in iter_disjoint_path_sets(g, pairs)]
        assert got == list(first_per_used_edge_set(ref)), f"trial {trial}"
        repeated += len(ref) - len(got)
    assert repeated  # the corpus repeats used-edge sets, so the deduplication is exercised
    assert len(got) == 157  # multi H(4,10): 1,636 path sets, 157 distinct used-edge sets


def _least_path_set_ref(g, pairs):
    """The first path set of least total length in the oracle's order, or None."""
    best = None
    for chosen in disjoint_path_sets_ref(edge_list(g), pairs):
        length = sum(len(eids) for _, eids in chosen)
        if best is None or length < best[0]:
            best = length, chosen
    return None if best is None else best[1]


def _distinct_terminal_corpus(seed, count):
    """Seeded 5-8-node multigraphs with 2-3 pairs on 4-6 distinct terminals."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 8)
        g, ids = _random_graph(rng, n, rng.randrange(2, n + 2))  # parallel edges allowed
        k = rng.choice([2, 3]) if n >= 6 else 2
        picked = rng.sample(ids, 2 * k)
        yield g, [(picked[2 * i], picked[2 * i + 1]) for i in range(k)]


def test_fast_path_set_is_the_first_of_least_total_length():
    # find_disjoint_paths_multi's witness, with no shared source or receiver
    # to shortcut it, is the first path set of least total length in the
    # walk's order: some witnesses are not the first path set of all
    outcomes = later = 0
    for trial, (g, pairs) in enumerate(_distinct_terminal_corpus(2424, 400)):
        expect = _least_path_set_ref(g, pairs)
        found = find_disjoint_paths_multi(g, pairs)
        assert (None if found is None else _as_tuples(found)) == expect, f"trial {trial}"
        outcomes |= 1 << (expect is None)
        later += expect is not None and expect != next(disjoint_path_sets_ref(edge_list(g), pairs))
    assert outcomes == 3 and later


@st.composite
def _distinct_terminal_instances(draw):
    n = draw(st.integers(4, 8))
    k = draw(st.integers(2, n // 2 if n < 6 else 3))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda uv: uv[0] != uv[1])
    g = graph_from_pairs(n, draw(st.lists(pair, max_size=14)))
    picked = draw(st.permutations(range(n)))[: 2 * k]
    return g, [(f"x{picked[2 * i]}", f"x{picked[2 * i + 1]}") for i in range(k)]


@settings(max_examples=150, deadline=None)
@given(_distinct_terminal_instances())
def test_fast_path_set_is_the_first_of_least_total_length_hypothesis(instance):
    g, pairs = instance
    found = find_disjoint_paths_multi(g, pairs)
    assert (None if found is None else _as_tuples(found)) == _least_path_set_ref(g, pairs)


def test_repeated_pair_path_sets_counted_once_per_used_edge_set():
    # K7 with the pair v1-v3 twice: 476,256 path sets, 23,283 used-edge sets
    # (counted once with disjoint_path_sets_ref and first_per_used_edge_set)
    pairs = [("v1", "v3"), ("v1", "v3"), ("v2", "v4")]
    assert sum(1 for _ in iter_disjoint_path_sets(harary(7, 6), pairs)) == 23_283


def test_repeated_pair_walk_stops_at_the_budget():
    # K8 with the same pairs: 1,291,965 used-edge sets, which took 56 s to list
    # with no budget; the walk now stops at the default budget (4-6 s on a
    # 2-core Xeon)
    pairs = [("v1", "v3"), ("v1", "v3"), ("v2", "v4")]
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceeded, match=f"budget of {connectivity._MAX_STATES:,} states"):
        for _ in iter_disjoint_path_sets(harary(8, 7), pairs):
            pass
    assert time.perf_counter() - start < 30


def test_walk_path_splices_out_a_flow_cycle():
    # one unit of flow s-a-t, plus a circulation a-b-c-a that the walk meets
    # first at a: the returned path is s-a-t, and every arc is cleared
    s, a, t, b, c = range(5)
    net = connectivity._Network(5)
    for x, y in ((s, a), (a, b), (b, c), (c, a), (a, t)):  # edges 0..4
        net.add(x, y, 1, 1)
    cap = net.cap[:]
    for arc in (0, 2, 4, 6, 8):  # each edge carries its unit forward
        cap[arc], cap[arc ^ 1] = 0, 2
    assert connectivity._walk_path(net, cap, s, t) == 1 << 0 | 1 << 4
    assert cap == [1] * 10


def _pinned_multi_cases():
    for k, n in ((3, 8), (3, 12), (3, 20), (4, 10), (4, 12)):
        yield f"H({k},{n})", *_multi_h(n, k)
    rng = random.Random(42)  # the instances of test_multi_matches_brute_on_random_graphs
    for trial in range(25):
        g, ids = _random_graph(rng, 8, rng.randrange(2, 8))
        n_pairs = rng.choice([2, 3])
        picked = rng.sample(ids, 2 * n_pairs)
        yield f"random42-{trial}", g, [(picked[2 * i], picked[2 * i + 1]) for i in range(n_pairs)]
    for trial, (g, pairs) in enumerate(_path_set_corpus(606, 150)):
        if len({s for s, _ in pairs}) > 1 and len({r for _, r in pairs}) > 1:
            yield f"corpus606-{trial}", g, pairs


def test_multi_witnesses_pinned():
    # general-branch witnesses, recorded with the string-keyed search
    cases = list(_pinned_multi_cases())
    assert sorted(label for label, _, _ in cases) == sorted(MULTI_PINS)
    for label, g, pairs in cases:
        found = find_disjoint_paths_multi(g, pairs)
        got = None if found is None else [[" ".join(p.nodes), " ".join(p.edges)] for p in found]
        assert got == MULTI_PINS[label], label
