import networkx as nx
import pytest

from npcode.connectivity import edge_connectivity, node_connectivity
from npcode.construction import (
    build_minimal_witness,
    harary,
    harary_lower_bound,
    min_edges_arbitrary,
    min_edges_predetermined,
    min_edges_single_source,
)
from npcode.feasibility import check_feasibility
from npcode.graph import save

from oracles import (
    brute_global_min_cut,
    brute_node_cut,
    connected_graph_corpus,
    connected_ref,
    degree_ref,
    edge_list,
    graph_from_pairs,
    harary_ref,
)


def test_h2n_is_the_cycle():
    for n in (3, 5, 8):
        g = harary(n, 2)
        assert g.num_edges == n
        assert set(degree_ref(g).values()) == {2}


def test_edge_count_examples():
    assert harary(10, 3).num_edges == 15
    g59 = harary(9, 5)
    assert g59.num_edges == 23
    assert edge_connectivity(g59).value == 5


def test_harary_grid_small():
    for n in range(4, 9):
        for k in range(2, n):
            g = harary(n, k)
            assert g.num_edges == harary_lower_bound(n, k) == (k * n + 1) // 2
            assert edge_connectivity(g).value == k
            assert node_connectivity(g).value == k
            assert brute_global_min_cut(list(g.nodes), edge_list(g)) == k
            assert brute_node_cut(list(g.nodes), edge_list(g)) == k


def test_harary_validation():
    with pytest.raises(ValueError, match="need k < n"):
        harary(3, 3)
    with pytest.raises(ValueError, match="at least 2"):
        harary(5, 1)


def test_harary_matches_the_pair_scan_byte_for_byte():
    # save() is a function of the ordered node and edge items alone, so equal
    # item lists mean equal bytes; the grid compares those, since save's
    # indented JSON would take most of the test's time
    for n in range(3, 60):
        for k in range(2, n):
            g, ref = harary(n, k), harary_ref(n, k)
            assert list(g.nodes.items()) == list(ref.nodes.items()), (n, k)
            assert list(g.edges.items()) == list(ref.edges.items()), (n, k)
    for n, k in ((2000, 4), (2001, 5)):
        assert save(harary(n, k)) == save(harary_ref(n, k)), (n, k)


def test_harary_edge_sets_match_networkx():
    # networkx places the near-diameters of odd n with odd k elsewhere
    for n in range(3, 40):
        for k in range(2, n):
            if n % 2 and k % 2:
                continue
            ours = {frozenset(int(x[1:]) for x in uv) for uv in harary(n, k).edges.values()}
            theirs = {frozenset(uv) for uv in nx.hkn_harary_graph(k, n).edges()}
            assert ours == theirs, (n, k)


def test_bound_formulas():
    assert min_edges_single_source(10, 3) == 11
    assert min_edges_single_source(4, 3) == 2 * 3 - 1  # n = k + 1
    assert min_edges_predetermined(10, 3) == 11
    assert min_edges_predetermined(8, 3) == 9
    assert min_edges_predetermined(6, 3) == 3 * 3 - 2  # n = 2k
    assert min_edges_arbitrary(10, 3) == 40
    assert min_edges_arbitrary(5, 2) == 10  # complete graph size
    assert min_edges_arbitrary(7, 7) == 4  # k = n gives ceil(n/2)
    assert harary_lower_bound(10, 3) == 15
    assert harary_lower_bound(9, 5) == 23
    with pytest.raises(ValueError):
        min_edges_single_source(3, 3)
    with pytest.raises(ValueError):
        min_edges_predetermined(5, 3)
    with pytest.raises(ValueError):
        min_edges_arbitrary(4, 5)


def test_lower_bound_holds_on_corpus():
    for n, pairs in connected_graph_corpus(5):
        g = graph_from_pairs(n, pairs)
        k = edge_connectivity(g).value
        assert g.num_edges >= harary_lower_bound(n, k)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (8, 3)])
def test_single_source_witness(n, k):
    from npcode.feasibility import check_single_source

    inst = build_minimal_witness(n, k, "single_source")
    g = inst.graph
    assert g.num_edges == min_edges_single_source(n, k) == n + k - 2
    assert g.num_nodes == n
    assert connected_ref(g.nodes, edge_list(g))
    assert check_single_source(inst, relaxed=True).feasible
    assert check_feasibility(inst).feasible  # the canonical layout is even strict


@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 3)])
def test_predetermined_witness(n, k):
    inst = build_minimal_witness(n, k, "predetermined")
    g = inst.graph
    assert g.num_edges == min_edges_predetermined(n, k) == n + k - 2
    assert g.num_nodes == n
    assert connected_ref(g.nodes, edge_list(g))
    assert check_feasibility(inst, relaxed=True).feasible
    assert check_feasibility(inst).feasible


def test_degenerate_single_source_is_star_plus_tree():
    k = 3
    inst = build_minimal_witness(k + 1, k, "single_source")
    assert inst.graph.num_edges == 2 * k - 1
    assert degree_ref(inst.graph)["s"] == k


def test_witness_extremality_6_2():
    for mode in ("single_source", "predetermined"):
        inst = build_minimal_witness(6, 2, mode)
        for eid in list(inst.graph.edges):
            g2 = inst.graph.copy()
            del g2.edges[eid]
            from npcode.feasibility import ProtectionInstance

            inst2 = ProtectionInstance(g2, inst.sources, inst.receivers)
            still = connected_ref(g2.nodes, edge_list(g2)) and check_feasibility(inst2).feasible
            assert not still, f"{mode}: removing {eid} kept the instance intact"


def test_harary_single_source_deployable_up_to_12():
    import random

    from npcode.feasibility import ProtectionInstance, check_single_source, verify_report

    rng = random.Random(2)
    for n, k in [(10, 3), (11, 4), (12, 5), (12, 11)]:
        g = harary(n, k)
        nodes = list(g.nodes)
        for _ in range(2):
            picked = rng.sample(nodes, k + 1)
            inst = ProtectionInstance(g, picked[:1], picked[1:])
            report = check_single_source(inst)
            assert report.feasible, f"H_{{{k},{n}}} from {picked[0]}"
            assert verify_report(inst, report) == []


def test_witness_validation():
    with pytest.raises(ValueError):
        build_minimal_witness(5, 5, "single_source")
    with pytest.raises(ValueError):
        build_minimal_witness(5, 3, "predetermined")
    with pytest.raises(ValueError):
        build_minimal_witness(6, 2, "mystery")
