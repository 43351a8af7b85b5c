import random
from dataclasses import replace
from itertools import combinations, permutations
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npcode import cli, connectivity, feasibility
from npcode.connectivity import SearchBudgetExceeded, max_edge_disjoint_paths
from npcode.construction import harary
from npcode.feasibility import (
    FeasibilityReport,
    ProtectionInstance,
    build_fig2_fixture,
    check_feasibility,
    check_single_source,
    verify_report,
)
from npcode.graph import DisjointPathSet, Graph, Path, load, save

from oracles import (
    adjacency_ref,
    auto_pairing_ref,
    brute_min_st_cut,
    degree_ref,
    edge_list,
    every_order_reason_ref,
    feasible_ref,
    graph_from_pairs,
    hamiltonian_ref,
    reachable_ref,
)

K6_BRIDGE = FsPath(__file__).parent / "data" / "k6_bridge.json"


def _complete_graph(n):
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(ids[i], ids[j])
    return g, ids


def _cycle_graph(n):
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    for i in range(n):
        g.add_edge(ids[i], ids[(i + 1) % n])
    return g, ids


def _random_connected(rng, n, extra):
    g = Graph()
    ids = [g.add_node() for _ in range(n)]
    order = ids[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        g.add_edge(a, b)
    tried = 0
    while tried < extra:
        u, v = rng.sample(ids, 2)
        if v not in adjacency_ref(g)[u]:
            g.add_edge(u, v)
        tried += 1
    return g, ids


def test_single_source_k5():
    g, ids = _complete_graph(5)
    inst = ProtectionInstance(g, [ids[0]], ids[1:4])
    report = check_feasibility(inst)
    assert report.feasible
    assert verify_report(inst, report) == []
    assert report.source_tree == ()
    assert len(report.receiver_tree) >= 2


def test_cycle_two_receivers():
    g, ids = _cycle_graph(6)
    inst = ProtectionInstance(g, [ids[0]], [ids[2], ids[4]])
    report = check_single_source(inst)
    assert report.feasible
    assert report.k_edge_connected is True  # cycles are 2-edge connected
    assert report.hamiltonian is True
    assert verify_report(inst, report) == []


def test_fig2_fixture_infeasible_receiver_tree():
    inst = build_fig2_fixture()
    g = inst.graph
    assert g.num_nodes == 10 and g.num_edges == 15
    assert set(degree_ref(g).values()) == {3}
    report = check_feasibility(inst)
    assert not report.feasible
    assert report.failure_reason == "receiver-tree"
    single = check_single_source(inst)
    assert single.k_edge_connected is False  # the bridge caps kappa_e at 1
    assert single.hamiltonian is False
    assert hamiltonian_ref(g) is False
    # the relaxation flips the verdict: trees may then reuse the bridge
    relaxed = check_feasibility(inst, relaxed=True)
    assert relaxed.feasible
    assert verify_report(inst, relaxed) == []


def test_fig2_matches_exhaustive_oracle():
    inst = build_fig2_fixture()
    assert not feasible_ref(inst.graph, inst.sources, inst.receivers, inst.pairs(), False)
    assert feasible_ref(inst.graph, inst.sources, inst.receivers, inst.pairs(), True)


def test_h310_receivers_feasible():
    g = harary(10, 3)
    inst = ProtectionInstance(g, ["v0"], ["v3", "v5", "v8"])
    report = check_single_source(inst)
    assert report.feasible
    assert report.k_edge_connected is True
    assert report.hamiltonian is True
    assert verify_report(inst, report) == []


def test_random_instances_match_oracle():
    rng = random.Random(500)
    checked_true = checked_false = 0
    for trial in range(12):
        g, ids = _random_connected(rng, 8, rng.randrange(0, 4))
        picked = rng.sample(ids, 4)
        sources, receivers = picked[:2], picked[2:]
        inst = ProtectionInstance(g, sources, receivers)
        for relaxed in (False, True):
            got = check_feasibility(inst, relaxed=relaxed)
            expect = feasible_ref(g, sources, receivers, inst.pairs(), relaxed)
            assert got.feasible == expect, f"trial {trial} relaxed={relaxed}"
            if got.feasible:
                checked_true += 1
                assert verify_report(inst, got) == []
            else:
                checked_false += 1
    assert checked_true and checked_false  # sample exercises both verdicts


def test_random_single_source_instances_match_oracle():
    rng = random.Random(901)
    for trial in range(10):
        g, ids = _random_connected(rng, 8, rng.randrange(0, 5))
        picked = rng.sample(ids, 4)
        inst = ProtectionInstance(g, picked[:1], picked[1:])
        got = check_feasibility(inst)
        expect = feasible_ref(g, inst.sources, inst.receivers, inst.pairs(), False)
        assert got.feasible == expect, f"trial {trial}"


def test_monotone_under_edge_addition():
    rng = random.Random(77)
    for _ in range(8):
        g, ids = _random_connected(rng, 6, 3)
        picked = rng.sample(ids, 3)
        inst = ProtectionInstance(g, [picked[0]], picked[1:])
        if not check_feasibility(inst).feasible:
            continue
        g2 = g.copy()
        adjacent = adjacency_ref(g)
        candidates = [
            (u, v)
            for i, u in enumerate(ids)
            for v in ids[i + 1 :]
            if v not in adjacent[u]
        ]
        if not candidates:
            continue
        u, v = rng.choice(candidates)
        g2.add_edge(u, v)
        inst2 = ProtectionInstance(g2, inst.sources, inst.receivers)
        assert check_feasibility(inst2).feasible


def test_single_pair_level_k_matches_min_cut():
    rng = random.Random(31)
    for _ in range(20):
        g, ids = _random_connected(rng, 7, rng.randrange(0, 8))
        s, r = rng.sample(ids, 2)
        cut, _ = brute_min_st_cut(list(g.nodes), edge_list(g), s, r)
        for k in range(1, 5):
            inst = ProtectionInstance(g, [s], [r], num_paths=k)
            report = check_feasibility(inst)
            assert report.feasible == (cut >= k)
            assert report.feasible == (len(max_edge_disjoint_paths(g, s, r)) >= k)
            if report.feasible:
                assert report.source_tree == () and report.receiver_tree == ()


def test_auto_pairing_rescues_crossed_demands():
    g = Graph()
    s1, s2, r1, r2 = (g.add_node(node_id=x) for x in ("s1", "s2", "r1", "r2"))
    g.add_edge(s1, r2)
    g.add_edge(s2, r1)
    g.add_edge(s1, s2)
    g.add_edge(r1, r2)
    inst = ProtectionInstance(g, [s1, s2], [r1, r2])
    fixed = check_feasibility(inst)
    assert not fixed.feasible and fixed.failure_reason == "paths"
    auto = check_feasibility(inst, pairing="auto")
    assert auto.feasible
    assert auto.pairing == ("r2", "r1")
    assert verify_report(inst, auto) == []


def test_verify_report_needs_a_pairing_of_every_receiver():
    # both paths end at r1 and the source tree joins s1 and s2; only the
    # pairing check notices that r2 receives nothing
    g = Graph()
    s1, s2, r1, r2 = (g.add_node(node_id=x) for x in ("s1", "s2", "r1", "r2"))
    e0, e1, e2 = g.add_edge(s1, r1), g.add_edge(s2, r1), g.add_edge(s1, s2)
    g.add_edge(r1, r2)
    inst = ProtectionInstance(g, [s1, s2], [r1, r2])
    paths = DisjointPathSet((Path((s1, r1), (e0,)), Path((s2, r1), (e1,))))
    report = FeasibilityReport(True, paths, (e2,), (), pairing=(r1, r1))
    assert verify_report(inst, report) == [
        "pairing ['r1', 'r1'] is not an ordering of the receivers"
    ]


def test_verify_report_reads_a_single_source_pairing():
    # a single-source report may carry its receivers' order as a pairing:
    # the identity verifies, and a reordered one fails on the swapped ends
    inst = ProtectionInstance(harary(10, 3), ["v0"], ["v3", "v5", "v8"])
    report = check_feasibility(inst)
    assert report.feasible and verify_report(inst, report) == []
    assert verify_report(inst, replace(report, pairing=("v3", "v5", "v8"))) == []
    assert verify_report(inst, replace(report, pairing=("v5", "v3", "v8"))) == [
        "path endpoints 'v0'-'v3' differ from pair 'v0'-'v5'",
        "path endpoints 'v0'-'v5' differ from pair 'v0'-'v3'",
    ]
    repeated = ProtectionInstance(harary(10, 3), ["v0"], ["v5"], num_paths=3)
    report = check_feasibility(repeated)
    assert report.feasible and verify_report(repeated, replace(report, pairing=("v5",))) == []


def test_source_tree_failure_reason():
    # paths exist but the two sources can never be interconnected
    g = Graph()
    s1, s2, r1, r2 = (g.add_node(node_id=x) for x in ("s1", "s2", "r1", "r2"))
    g.add_edge(s1, r1)
    g.add_edge(s2, r2)
    g.add_edge(r1, r2)
    inst = ProtectionInstance(g, [s1, s2], [r1, r2])
    report = check_feasibility(inst)
    assert not report.feasible
    assert report.failure_reason == "source-tree"
    assert report.certificate == ("s1",)  # its one edge carries the s1-r1 path
    assert verify_report(inst, report) == []
    # a cut that splits the sources but spares an edge does not show the reason
    spare = replace(report, certificate=("s1", "r1"))
    assert verify_report(inst, spare) == [
        "certificate leaves room for a source tree beside the paths"
    ]


def test_instance_validation():
    g, ids = _complete_graph(4)
    with pytest.raises(ValueError):
        ProtectionInstance(g, [], [ids[0]])
    with pytest.raises(ValueError):
        ProtectionInstance(g, [ids[0]], [ids[0]])  # S and R overlap
    with pytest.raises(ValueError):
        ProtectionInstance(g, [ids[0], ids[0]], [ids[1], ids[2]])
    with pytest.raises(ValueError):
        ProtectionInstance(g, [ids[0], ids[1]], [ids[2]])  # |S| != |R|
    with pytest.raises(ValueError):
        ProtectionInstance(g, [ids[0]], [ids[1], ids[2]], num_paths=5)
    inst = ProtectionInstance(g, [ids[0]], [ids[1], ids[2]])
    assert inst.k == 2
    assert inst.pairs() == [(ids[0], ids[1]), (ids[0], ids[2])]
    pair_inst = ProtectionInstance(g, [ids[0]], [ids[1]], num_paths=3)
    assert pair_inst.k == 3
    assert pair_inst.pairs() == [(ids[0], ids[1])] * 3


def test_verify_report_catches_tampering():
    g, ids = _complete_graph(5)
    inst = ProtectionInstance(g, [ids[0]], ids[1:4])
    report = check_feasibility(inst)
    assert verify_report(inst, report) == []

    # steal a path edge into the receiver tree
    stolen = report.paths.paths[0].edges[0]
    bad = replace(report, receiver_tree=report.receiver_tree + (stolen,))
    assert verify_report(inst, bad)


def _h12_witness():
    # paths e12 v0-v6, e13 v1-v7, e14 v2-v8; source tree e0 e2, receiver tree e7 e8
    inst = ProtectionInstance(harary(12, 3), ["v0", "v1", "v2"], ["v6", "v7", "v8"])
    return inst, check_feasibility(inst)


def _k5_witness():
    # one source n0: paths e0 n0-n1, e1 n0-n2, e2 n0-n3; receiver tree e4 n1-n2, e5 n1-n3
    g, ids = _complete_graph(5)
    inst = ProtectionInstance(g, [ids[0]], ids[1:4])
    return inst, check_feasibility(inst)


def _path(nodes, edges):
    return Path(tuple(nodes), tuple(edges))


@pytest.mark.parametrize("witness, tamper, problems", [
    (_h12_witness, lambda r: replace(r, paths=DisjointPathSet(r.paths.paths[:2])),
     ["witness path count does not match the instance"]),
    (_h12_witness,
     lambda r: replace(r, paths=DisjointPathSet((_path(["v0", "v6"], ["e13"]),) + r.paths.paths[1:])),
     ["paths invalid: edge 'e13' does not join 'v0'-'v6'"]),
    (_h12_witness,
     lambda r: replace(r, paths=DisjointPathSet((r.paths.paths[1], r.paths.paths[0], r.paths.paths[2]))),
     ["path endpoints 'v1'-'v7' differ from pair 'v0'-'v6'",
      "path endpoints 'v0'-'v6' differ from pair 'v1'-'v7'"]),
    (_k5_witness, lambda r: replace(r, source_tree=("e9",)),
     ["source tree should be empty for a single terminal"]),
    (_h12_witness, lambda r: replace(r, source_tree=()), ["source tree missing"]),
    (_h12_witness, lambda r: replace(r, receiver_tree=("e7", "nope")),
     ["receiver tree uses unknown edge 'nope'"]),
    (_k5_witness, lambda r: replace(r, receiver_tree=("e4", "e5", "e7")), ["receiver tree is not a tree"]),
    (_h12_witness, lambda r: replace(r, receiver_tree=("e7",)),
     ["receiver tree does not span its terminals"]),
    # the ring from v0 to v8 is one tree that spans both terminal sets
    (_h12_witness,
     lambda r: replace(r, source_tree=("e0", *(f"e{i}" for i in range(2, 9))),
                       receiver_tree=("e0", *(f"e{i}" for i in range(2, 9)))),
     ["source and receiver trees share edges"]),
    (_h12_witness, lambda r: replace(r, source_tree=("e0", "e2", "e12")),
     ["source tree reuses path edges in strict mode"]),
    (_h12_witness, lambda r: replace(r, source_tree=("e0", "e2", "e12"), relaxed=True), []),
], ids=["path count", "invalid path", "endpoints", "single terminal", "missing tree",
        "unknown edge", "cycle", "misses a terminal", "shared tree edges", "strict reuse",
        "relaxed reuse"])
def test_verify_report_names_each_rejection(witness, tamper, problems):
    inst, report = witness()
    assert verify_report(inst, report) == []
    assert verify_report(inst, tamper(report)) == problems


def test_check_single_source_requires_one_source():
    g, ids = _complete_graph(4)
    with pytest.raises(ValueError):
        check_single_source(ProtectionInstance(g, ids[:2], ids[2:]))


def test_hamiltonian_matches_oracle_on_small_graphs():
    rng = random.Random(9)
    from npcode.feasibility import _hamiltonian_cycle_exists

    for _ in range(15):
        g, _ = _random_connected(rng, rng.randrange(3, 7), rng.randrange(0, 6))
        assert _hamiltonian_cycle_exists(g) == hamiltonian_ref(g)
    rng = random.Random(1916)
    answers = set()
    for _ in range(40):
        n = rng.randint(3, 9)
        g, _ = _random_connected(rng, n, rng.randrange(0, 2 * n))
        expect = hamiltonian_ref(g)
        assert _hamiltonian_cycle_exists(g) == expect, f"{n} nodes, {sorted(g.edges.values())}"
        answers.add(expect)
    assert answers == {True, False}


def test_hamiltonian_unknown_above_16_nodes():
    g = harary(17, 2)
    inst = ProtectionInstance(g, ["v0"], ["v5", "v11"])
    report = check_single_source(inst)
    assert report.hamiltonian is None
    assert report.k_edge_connected is True


def test_sufficient_condition_regime_samples():
    # k-edge-connected Hamiltonian graphs accept any source and receivers
    rng = random.Random(123)
    for n, k in [(6, 2), (7, 3), (8, 3), (9, 4)]:
        g = harary(n, k)
        nodes = list(g.nodes)
        for _ in range(3):
            picked = rng.sample(nodes, k + 1)
            inst = ProtectionInstance(g, picked[:1], picked[1:])
            report = check_single_source(inst)
            assert report.k_edge_connected is True
            assert report.hamiltonian is True
            assert report.feasible, f"H_{{{k},{n}}} source {picked[0]}"
            assert verify_report(inst, report) == []


# -- cut certificates, the used-edge memo and the relaxed shortcut --------------------


def _bridged_blocks(m):
    """Two H(3,m) blocks joined by one bridge, as in the Fig. 2 argument scaled up."""
    g = Graph()
    for block in "ab":
        h = harary(m, 3)
        for v in h.nodes:
            g.add_node("relay", f"{block}{v}")
        for u, v in h.edges.values():
            g.add_edge(f"{block}{u}", f"{block}{v}")
    g.add_edge("av0", "bv0")
    return ProtectionInstance(g, ["av1"], ["av2", "av3", "bv1"])


def _k6_bridge():
    """Two K6 blocks joined by the bridge a6-b6, sources a1, b1 and receivers a2, b2."""
    g = load(K6_BRIDGE.read_text())
    return ProtectionInstance(g, g.nodes_with_role("source"), g.nodes_with_role("receiver"))


def _small_corpus(seed, count):
    """Seeded strict instances on 5-6 nodes, half with a K4 block hung on a bridge."""
    rng = random.Random(seed)
    for _ in range(count):
        g, ids = _random_connected(rng, rng.randint(5, 6), rng.randrange(2, 7))
        if rng.random() < 0.5:
            block = [g.add_node(node_id=f"b{i}") for i in range(4)]
            for i in range(4):
                for j in range(i + 1, 4):
                    g.add_edge(block[i], block[j])
            g.add_edge(rng.choice(ids), block[0])
        nodes = list(g.nodes)
        if rng.random() < 0.5:
            picked = rng.sample(nodes, rng.randint(3, 4))
            yield ProtectionInstance(g, picked[:1], picked[1:])
        else:
            picked = rng.sample(nodes, 4)
            yield ProtectionInstance(g, picked[:2], picked[2:])


def test_certificates_are_exact_on_a_bridged_corpus(monkeypatch):
    instances = list(_small_corpus(2024, 100))
    reports = [check_feasibility(inst) for inst in instances]
    monkeypatch.setattr(feasibility, "_deficient_cut", lambda *args: None)
    certified = searched = 0
    for trial, (inst, report) in enumerate(zip(instances, reports)):
        expect = feasible_ref(inst.graph, inst.sources, inst.receivers, inst.pairs(), False)
        assert report.feasible == expect, f"trial {trial}"
        # the full search gives the same verdict, reason and witness
        assert replace(report, certificate=()) == check_feasibility(inst), f"trial {trial}"
        if report.certificate:
            certified += 1
            assert verify_report(inst, report) == [], f"trial {trial}"
        elif not report.feasible:
            searched += 1
    assert certified and searched  # the corpus exercises both infeasible routes


def _assert_cut_counts_agree(inst, snap, parent, demand, label):
    """The search's count of a side on the snapshot (`_side_demand`'s
    crossing, separated, s, r) against the verifier's recount on ids
    (`_cut_demand`), at every pair index, for the side parent marks."""
    g, pairs = inst.graph, inst.pairs()
    side = {v for v, x in zip(snap.nodes, parent) if x != -1}
    crossing, separated, s, r = demand
    assert set(snap.edge_ids(crossing)) == {e for e, (u, v) in g.edges.items()
                                            if (u in side) != (v in side)}, label
    for i in range(len(pairs) + 1):
        recount = feasibility._cut_demand(g, pairs[i:], inst.sources, inst.receivers, side)
        assert (crossing.bit_count(), separated[i], s, r) == recount, label


def _terms(snap, inst):
    return [snap.index[v] for v in inst.sources], [snap.index[v] for v in inst.receivers]


def test_snapshot_cut_counts_match_the_verifier_recount(monkeypatch):
    # the search counts each cut on its snapshot and the verifier recounts a
    # certificate on ids, in independent code: the two agree on every
    # certificate of the strict corpus and of the pinned reports, and on
    # every terminal cut of multi H(4,10) and H(4,12)
    from test_tree_pins import TREE_PINS, _pinned_cases

    certified = [(f"corpus {trial}", inst, report.certificate)
                 for trial, inst in enumerate(_small_corpus(2024, 100))
                 for report in [check_feasibility(inst)] if report.certificate]
    corpus = len(certified)
    certified += [(label, inst, TREE_PINS[label]["certificate"])
                  for label, inst, _ in _pinned_cases() if TREE_PINS[label]["certificate"]]
    assert corpus and len(certified) - corpus == 46  # 42 strict, 4 relaxed
    for label, inst, certificate in certified:
        snap = connectivity._pair_snapshot(inst.graph, inst.pairs())
        parent = [0 if v in certificate else -1 for v in snap.nodes]
        demand = feasibility._side_demand(snap, parent, *_terms(snap, inst))
        _assert_cut_counts_agree(inst, snap, parent, demand, label)

    side_demand = feasibility._side_demand
    parents = []

    def recorded(snap, parent, *terms):
        parents.append(parent)  # a flow's, with its two hubs last
        return side_demand(snap, parent, *terms)

    monkeypatch.setattr(feasibility, "_side_demand", recorded)
    for n in (10, 12):
        inst = ProtectionInstance(harary(n, 4), [f"v{i}" for i in range(4)],
                                  [f"v{n // 2 + i}" for i in range(4)])
        snap = connectivity._pair_snapshot(inst.graph, inst.pairs())
        del parents[:]
        cuts = feasibility._terminal_cuts(snap, *_terms(snap, inst))
        assert len(parents) == len(cuts) == 92
        for parent, demand in zip(parents, cuts):
            _assert_cut_counts_agree(inst, snap, parent, demand, f"H(4,{n})")


def test_receiver_split_cut_does_not_name_the_reason():
    # r1 hangs on x alone, so {r1} is a deficient cut that splits the
    # receivers; but the only path set also cuts s1 off from s2, and the
    # search names the source tree, which no candidate cut can certify
    g = Graph()
    s1, s2, r1, r2, x = (g.add_node(node_id=v) for v in ("s1", "s2", "r1", "r2", "x"))
    for u, v in ((r1, x), (x, s2), (s2, r2), (r2, s1), (x, s1)):
        g.add_edge(u, v)
    inst = ProtectionInstance(g, [s1, s2], [r1, r2])
    c, p, s, r = feasibility._cut_demand(g, inst.pairs(), inst.sources, inst.receivers, {r1})
    assert r == 1 and c < p + s + r
    report = check_feasibility(inst)
    assert not report.feasible
    assert report.failure_reason == "source-tree"
    assert report.certificate == ()


def test_certified_verdicts_skip_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("path sets enumerated")

    monkeypatch.setattr(feasibility, "_used_edge_sets", refuse)
    for inst, side in ((build_fig2_fixture(), "1"), (_bridged_blocks(14), "a")):
        report = check_feasibility(inst)
        assert not report.feasible
        assert report.failure_reason == "receiver-tree"
        # the bridge splits off the source's block
        assert report.certificate == tuple(v for v in inst.graph.nodes if side in v)
        assert verify_report(inst, report) == []


@pytest.mark.parametrize("make", [
    lambda: ProtectionInstance(harary(10, 4), ["v0", "v1", "v2", "v3"], ["v5", "v6", "v7", "v8"]),
    lambda: _bridged_blocks(14),
    build_fig2_fixture,
    lambda: ProtectionInstance(harary(10, 3), ["v0"], ["v2", "v5", "v7"]),
], ids=["multi H(4,10)", "bridged 14", "fig2 strict", "single H(3,10)"])
def test_one_snapshot_per_search(monkeypatch, make):
    # the paths, the cut certificate and the trees are all found on one snapshot
    inst = make()
    built = []
    init = connectivity._Snapshot.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(connectivity._Snapshot, "__init__", counted)
    check_feasibility(inst)
    assert len(built) == 1
    assert not hasattr(connectivity, "_edge_network")


def _edge_mask(g, path_set):
    """A path set's used edges as the search's edge mask (edge j is bit j)."""
    bit = {e: 1 << j for j, e in enumerate(g.edges)}
    return sum(bit[e] for e in path_set.edge_ids())


def _family(inst):
    """The walk's terminal cuts on a fresh snapshot of the instance, each as
    (crossing edge ids, separated, s, r)."""
    snap = connectivity._pair_snapshot(inst.graph, inst.pairs())
    return [(set(snap.edge_ids(c)), sep, s, r)
            for c, sep, s, r in feasibility._terminal_cuts(snap, *_terms(snap, inst))]


def test_witness_attempt_once_per_used_edge_set(monkeypatch):
    # the strict walk tries the fast path set first, then each other used-edge
    # set once, in the full walk's order.  It skips only sets that leave the
    # trees too few edges: fewer than (|S| - 1) + (|R| - 1) = 6 of the 20 in
    # all, or fewer across some terminal cut than the trees that must cross it
    g = harary(10, 4)
    inst = ProtectionInstance(g, ["v0", "v1", "v2", "v3"], ["v5", "v6", "v7", "v8"])
    tried = []
    attempt = feasibility._witness_for_path_set

    def counted(snap, used, *args):
        tried.append(used)  # the path set's used edges, as an edge mask
        return attempt(snap, used, *args)

    monkeypatch.setattr(feasibility, "_witness_for_path_set", counted)
    report = check_feasibility(inst)
    assert report.failure_reason == "receiver-tree" and report.certificate == ()
    fast = _edge_mask(g, connectivity.find_disjoint_paths_multi(g, inst.pairs()))
    path_sets = list(connectivity.iter_disjoint_path_sets(g, inst.pairs()))
    every = [_edge_mask(g, ps) for ps in path_sets]
    assert len(every) == len(set(every)) == 157
    assert tried[0] == fast and len(tried) == len(set(tried)) == 5
    assert tried[1:] == [used for used in every if used in tried[1:]]
    assert all(used.bit_count() <= 20 - 3 for used in tried)
    cuts = _family(inst)
    assert len(cuts) == 8 + 28 + 56  # one per bipartition with at most 3 terminals on a side
    skipped = [ps.edge_ids() for ps, used in zip(path_sets, every) if used not in tried]
    assert len(skipped) == 157 - 5  # the fast set is one of the 157
    for used in skipped:
        assert len(used) > 20 - 6 or any(len(crossing - used) < s + r
                                         for crossing, _, s, r in cuts)


def test_tree_bans_spend_what_a_full_reachability_check_spends(monkeypatch):
    # a Steiner-tree state bans an edge only while every terminal stays
    # reachable from the tree grown so far; _rejoins searches out from the
    # banned edge's outer end alone, and must give the trees and spend the
    # states that a search from the whole tree gives, on pools that join the
    # terminals and on pools that do not
    rng = random.Random(11)
    cases = []
    for _ in range(300):
        g, ids = _random_connected(rng, rng.randint(4, 8), rng.randrange(0, 8))
        snap = connectivity._Snapshot(g)
        pool = snap.full if rng.random() < 0.3 else rng.getrandbits(len(snap.edges))
        cases.append((snap, pool, rng.sample(range(len(ids)), rng.randint(2, 4))))

    def enumerate_all():
        out = []
        for snap, pool, terminals in cases:
            snap.spent = 0
            out.append((list(feasibility._iter_steiner_trees(snap, pool, terminals)), snap.spent))
        return out

    def reaches_from_the_tree(adj, component, terms, avail, x):
        edges = [(j, u, v) for u, at in enumerate(adj) for _, j, v in at]
        allowed = {j for j, _, _ in edges if avail >> j & 1}
        tree = [u for u in range(len(adj)) if component >> u & 1]
        seen = set().union(*(reachable_ref(u, edges, allowed) for u in tree))
        return all(t in seen for t in range(len(adj)) if terms >> t & 1)

    searched = enumerate_all()
    monkeypatch.setattr(feasibility, "_rejoins", reaches_from_the_tree)
    assert searched == enumerate_all()
    assert sum(bool(trees) for trees, _ in searched) > 100
    assert sum(not trees for trees, _ in searched) > 20


def _witness_spans(monkeypatch) -> list[list]:
    """Record the snapshot's spent states on entry to and exit from each witness
    attempt; an attempt that raised keeps None as its exit."""
    spans = []
    attempt = feasibility._witness_for_path_set

    def counted(snap, *args):
        spans.append([snap.spent, None])
        result = attempt(snap, *args)
        spans[-1][1] = snap.spent
        return result

    monkeypatch.setattr(feasibility, "_witness_for_path_set", counted)
    return spans


def test_tree_enumeration_cap_stops_the_search(monkeypatch, tmp_path, capsys):
    g = harary(12, 3)
    sources, receivers = ["v0", "v1", "v2"], ["v6", "v7", "v8"]
    inst = ProtectionInstance(g, sources, receivers)
    spans = _witness_spans(monkeypatch)
    assert check_feasibility(inst).feasible
    # a tree joining three sources grows through at least three states, so two
    # past the walk to the first path set stop the search in its tree
    limit = spans[0][0] + 2
    monkeypatch.setattr(connectivity, "_MAX_STATES", limit)
    spans.clear()
    with pytest.raises(SearchBudgetExceeded, match=f"^exact search stopped at its budget of {limit} states$"):
        check_feasibility(inst)
    assert spans == [[limit - 2, None]]
    path = tmp_path / "h12.json"
    path.write_text(save(g))
    argv = ["feasibility", "--graph", str(path), "--sources", ",".join(sources),
            "--receivers", ",".join(receivers)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: exact search stopped at its budget of {limit} states\n"


def test_tree_states_across_path_sets_share_one_budget(monkeypatch):
    # multi H(4,10) tries trees around the 5 path sets that
    # test_witness_attempt_once_per_used_edge_set pins; the budget counts every
    # tree state of every attempt, and the walks between them, on one total
    inst = ProtectionInstance(harary(10, 4), ["v0", "v1", "v2", "v3"], ["v5", "v6", "v7", "v8"])
    spans = _witness_spans(monkeypatch)
    check_feasibility(inst)
    states = [leave - enter for enter, leave in spans]
    assert len(spans) == 5 and min(states) > 0
    assert all(leave <= enter for (_, leave), (enter, _) in zip(spans, spans[1:]))
    # stop half way through the attempt that grows the most tree states: no
    # attempt alone comes near the limit, the total does
    i = states.index(max(states))
    limit = spans[i][0] + states[i] // 2
    assert max(states) < limit < spans[-1][1]
    monkeypatch.setattr(connectivity, "_MAX_STATES", limit)
    spans.clear()
    with pytest.raises(SearchBudgetExceeded, match=f"budget of {limit:,} states"):
        check_feasibility(inst)
    assert len(spans) == i + 1 and spans[-1][1] is None


def _full_walk(inst, pairs=None):
    """The strict search with neither the walk's prune nor the cut: the fast
    path set, then each other set of iter_disjoint_path_sets in order, each
    tried by _witness_for_path_set.  pairs, if given, replaces the instance's."""
    g, pairs = inst.graph, pairs or inst.pairs()
    snap = connectivity._pair_snapshot(g, pairs)
    terms = _terms(snap, inst)
    fast = connectivity.find_disjoint_paths_multi(g, pairs)
    if fast is None:
        return FeasibilityReport(False, failure_reason="paths")
    any_source_tree = False
    for ps in [fast, *connectivity.iter_disjoint_path_sets(g, pairs)]:
        used = _edge_mask(g, ps)
        if ps is not fast and used == _edge_mask(g, fast):
            continue
        stree, rtree, found = feasibility._witness_for_path_set(snap, used, *terms, False)
        if rtree is not None:
            return FeasibilityReport(True, ps, snap.edge_ids(stree), snap.edge_ids(rtree))
        any_source_tree = any_source_tree or found
    return FeasibilityReport(False, failure_reason="receiver-tree" if any_source_tree
                             else "source-tree")


def _multi_pair_corpus(seed, count):
    """Seeded strict instances on 6-8 nodes with 2-3 pairs, then multi H(4,10)."""
    rng = random.Random(seed)
    for _ in range(count):
        g, ids = _random_connected(rng, rng.randint(6, 8), rng.randrange(3, 9))
        k = rng.randint(2, 3)
        picked = rng.sample(ids, 2 * k)
        yield ProtectionInstance(g, picked[:k], picked[k:])
    yield ProtectionInstance(harary(10, 4), ["v0", "v1", "v2", "v3"], ["v5", "v6", "v7", "v8"])


def test_pruned_walk_matches_the_full_walk(monkeypatch):
    # the verdict, reason and witness of the pruned search, with and without
    # the cut, are the full walk's; the cut only adds a certificate
    instances = list(_multi_pair_corpus(2026, 80))
    cut_reports = [check_feasibility(inst) for inst in instances]
    monkeypatch.setattr(feasibility, "_deficient_cut", lambda *args: None)
    tried = []
    attempt = feasibility._witness_for_path_set

    def counted(*args):
        tried.append(1)
        return attempt(*args)

    monkeypatch.setattr(feasibility, "_witness_for_path_set", counted)
    walked = pruned = 0
    reasons = set()
    for trial, (inst, cut_report) in enumerate(zip(instances, cut_reports)):
        start = len(tried)
        expect = _full_walk(inst)
        full = len(tried) - start
        assert check_feasibility(inst) == expect, f"trial {trial}"
        search = len(tried) - start - full
        assert replace(cut_report, certificate=()) == expect, f"trial {trial}"
        if cut_report.certificate:
            assert verify_report(inst, cut_report) == [], f"trial {trial}"
        walked += search > 1
        pruned += search < full
        reasons.add(expect.failure_reason)
    # the corpus walks, prunes, and ends in every verdict; H(4,10) comes last
    assert walked and pruned and reasons == {None, "paths", "source-tree", "receiver-tree"}
    assert (full, search) == (157, 5)


def _four_pair_corpus(seed, count):
    """Seeded strict instances on 8-10 nodes, each with its pairs: four pairs
    on 8 terminals, and in every fourth one the first of three pairs twice."""
    rng = random.Random(seed)
    for trial in range(count):
        g, ids = _random_connected(rng, rng.randint(8, 10), rng.randrange(4, 16))
        picked = rng.sample(ids, 8)
        if trial % 4 == 3:
            inst = ProtectionInstance(g, picked[:3], picked[4:7])
            yield inst, inst.pairs()[:1] + inst.pairs()
        else:
            inst = ProtectionInstance(g, picked[:4], picked[4:])
            yield inst, inst.pairs()


def test_cut_pruned_walk_matches_the_full_walk_on_four_pairs(monkeypatch):
    # with the certificate off every infeasible instance walks; the walk,
    # pruned by the edge count and the terminal cuts, gives the full walk's
    # report, and so does check_feasibility where the pairs are the instance's
    monkeypatch.setattr(feasibility, "_deficient_cut", lambda *args: None)
    tried = []
    attempt = feasibility._witness_for_path_set

    def counted(*args):
        tried.append(1)
        return attempt(*args)

    monkeypatch.setattr(feasibility, "_witness_for_path_set", counted)
    pruned = 0
    reasons = set()
    for trial, (inst, pairs) in enumerate(_four_pair_corpus(2027, 80)):
        start = len(tried)
        expect = _full_walk(inst, pairs)
        full = len(tried) - start
        snap = connectivity._pair_snapshot(inst.graph, pairs)
        report = feasibility._search(snap, inst.sources, inst.receivers, False)
        assert report == expect, f"trial {trial}"
        if pairs == inst.pairs():
            assert check_feasibility(inst) == expect, f"trial {trial}"
        pruned += len(tried) - start - full < full
        reasons.add((expect.failure_reason, pairs != inst.pairs()))
    assert pruned > 20
    assert reasons == {(reason, repeated) for repeated in (False, True)
                       for reason in (None, "paths", "source-tree", "receiver-tree")}


def test_every_witness_meets_every_terminal_cut():
    # recounted on edge ids: each cut of the walk's family keeps apart every
    # pair it counts as separated, and the sources or receivers it says it
    # splits; and every feasible witness has, at each pair index i, at least
    # as many structures crossing the cut in the edges the paths of pairs < i
    # leave as the walk demands there, which bounds those edges too
    from npcode.graph import connected_within

    instances = list(_multi_pair_corpus(2026, 80))
    instances += [inst for inst, pairs in _four_pair_corpus(2027, 80) if pairs == inst.pairs()]
    witnesses = 0
    for trial, inst in enumerate(instances):
        g, pairs = inst.graph, inst.pairs()
        cuts = _family(inst)
        for crossing, separated, s, r in cuts:
            rest = set(g.edges) - crossing
            for i, (x, y) in enumerate(pairs):
                if separated[i] > separated[i + 1]:
                    assert not connected_within(g, [x, y], rest), f"trial {trial}"
            assert not s or not connected_within(g, inst.sources, rest), f"trial {trial}"
            assert not r or not connected_within(g, inst.receivers, rest), f"trial {trial}"
        report = check_feasibility(inst)
        if not report.feasible:
            continue
        witnesses += 1
        paths = [set(p.edges) for p in report.paths]
        trees = [set(report.source_tree), set(report.receiver_tree)]
        for crossing, separated, s, r in cuts:
            for i in range(len(pairs) + 1):
                left = crossing.difference(*paths[:i])
                crossers = sum(bool(left & used) for used in paths[i:] + trees)
                assert len(left) >= crossers >= separated[i] + s + r, f"trial {trial}"
    assert witnesses > 30


def test_multi_h416_answers_inside_the_budget(monkeypatch):
    # no cut certifies multi H(4,16); the pruned walk refutes it in 123,231
    # states, 92 of them flows, where the full walk took 1,591,388 of the 2,000,000
    inst = ProtectionInstance(harary(16, 4), ["v0", "v1", "v2", "v3"], ["v8", "v9", "v10", "v11"])
    spent = []
    search = feasibility._search

    def counted(snap, *args):
        report = search(snap, *args)
        spent.append(snap.spent)
        return report

    monkeypatch.setattr(feasibility, "_search", counted)
    report = check_feasibility(inst)
    assert report.failure_reason == "receiver-tree" and report.certificate == ()
    assert len(spent) == 1 and spent[0] < 125_000


def test_cut_settles_a_bridge_that_splits_both_trees():
    # two K6 blocks on the bridge a6-b6, pairs a1-a2 and b1-b2: the first
    # source tree crosses the bridge and leaves no receiver tree, and the cut
    # is tried there, not after every other source tree of the fast path set
    import time

    inst = _k6_bridge()
    start = time.perf_counter()
    report = check_feasibility(inst)
    assert time.perf_counter() - start < 1.0
    assert report.failure_reason == "receiver-tree"
    assert report.certificate == ("a1", "a2", "a3", "a4", "a5", "a6")
    assert verify_report(inst, report) == []


def test_auto_pairing_spends_one_budget(monkeypatch):
    # the given receiver order is infeasible and the hub search then finds a
    # pairing; the budget that lets auto answer is the sum of the two searches,
    # not the larger
    sources, receivers = ["v0", "v1", "v2", "v3"], ["v5", "v6", "v7", "v8"]
    inst = ProtectionInstance(harary(10, 4), sources, receivers)
    spent = []
    search = feasibility._search

    def counted(snap, *args):
        report = search(snap, *args)
        spent.append(snap.spent)
        return report

    monkeypatch.setattr(feasibility, "_search", counted)
    report = check_feasibility(inst, pairing="auto")
    assert report.pairing == ("v8", "v7", "v6", "v5") and spent == [1_542, 1_547]
    assert max(b - a for a, b in zip([0] + spent, spent)) < spent[-1] - 1
    monkeypatch.setattr(connectivity, "_MAX_STATES", spent[-1])
    assert check_feasibility(inst, pairing="auto") == report
    monkeypatch.setattr(connectivity, "_MAX_STATES", spent[-1] - 1)
    with pytest.raises(SearchBudgetExceeded):
        check_feasibility(inst, pairing="auto")


def _auto_corpus(seed, count):
    """Seeded instances on 6-11 nodes with 2-4 pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(6, 11)
        g, ids = _random_connected(rng, n, rng.randrange(3, 2 * n))
        k = rng.randint(2, min(4, n // 2))
        picked = rng.sample(ids, 2 * k)
        yield ProtectionInstance(g, picked[:k], picked[k:])


def test_auto_pairing_matches_the_permutation_loop():
    # the hub search against every receiver order tried with the fixed
    # pairing: the same verdicts, the same report where the given order is
    # feasible, verified witnesses, and refusals with no certificate.  A
    # strict refusal names the given order's reason; relaxed trees ignore the
    # paths, so a relaxed one names the reason that holds for every order
    seen = set()
    for trial, inst in enumerate(_auto_corpus(3303, 200)):
        for relaxed in (False, True):
            label = f"trial {trial}, relaxed {relaxed}"
            auto = check_feasibility(inst, relaxed=relaxed, pairing="auto")
            expect = auto_pairing_ref(inst, relaxed)
            if relaxed and not expect.feasible:
                expect = replace(expect, failure_reason=every_order_reason_ref(inst))
            assert (auto.feasible, auto.failure_reason) == (
                expect.feasible, expect.failure_reason), label
            if expect.pairing == inst.receivers:
                assert auto == expect, label
            if auto.feasible:
                assert verify_report(inst, auto) == [], label
                seen.add((relaxed, auto.pairing == inst.receivers))
            else:
                assert auto.certificate == (), label
                seen.add((relaxed, auto.failure_reason))
    # both modes answer from the given order and from another, and refuse
    assert seen >= {(False, True), (False, False), (True, True), (True, False),
                    (False, "paths"), (False, "receiver-tree"), (True, "paths")}


@pytest.mark.parametrize("n, k", [(16, 5), (12, 6), (14, 6)])
def test_auto_pairing_answers_where_the_loop_stopped(n, k):
    # multi H(4,n) with pairs v_i -> v_{n/2+i}: every receiver order took one
    # search each and stopped at the budget; the hub search answers at once
    import time

    inst = ProtectionInstance(harary(n, 4), [f"v{i}" for i in range(k)],
                              [f"v{n // 2 + i}" for i in range(k)])
    start = time.perf_counter()
    report = check_feasibility(inst, pairing="auto")
    assert time.perf_counter() - start < 2.0
    assert report.feasible and report.pairing != inst.receivers
    assert verify_report(inst, report) == []


def test_auto_pairing_has_no_pair_limit():
    # 7 pairs on H(4,16) were refused outright; no pairing has the paths
    import time

    inst = ProtectionInstance(harary(16, 4), [f"v{i}" for i in range(7)],
                              [f"v{8 + i}" for i in range(7)])
    start = time.perf_counter()
    report = check_feasibility(inst, pairing="auto")
    assert time.perf_counter() - start < 2.0
    assert report == FeasibilityReport(False, failure_reason="paths")


def test_auto_pairing_refuses_every_pairing_from_one_cut(monkeypatch):
    # the 2xK6 bridge's certificate keeps a1, a2 on one side: any pairing
    # separates |1 - 1| = 0 pairs, and the one bridge edge is fewer than the
    # two trees that cross it, so no hub search runs
    import time

    inst = _k6_bridge()
    calls = []
    search = feasibility._search

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(feasibility, "_search", counted)
    start = time.perf_counter()
    report = check_feasibility(inst, pairing="auto")
    assert time.perf_counter() - start < 1.0
    assert report == FeasibilityReport(False, failure_reason="receiver-tree")
    assert len(calls) == 1


def test_single_source_on_a_large_graph_is_one_flow():
    # 101 nodes and 202 edges: a single source needs no enumeration at all
    g = harary(101, 4)
    inst = ProtectionInstance(g, ["v0"], ["v20", "v40", "v60", "v80"])
    report = check_feasibility(inst)
    assert report.feasible and len(report.paths) == 4
    assert verify_report(inst, report) == []


def test_verify_report_rechecks_certificates():
    inst = build_fig2_fixture()
    report = check_feasibility(inst)
    assert report.certificate == ("a1", "b1", "c1", "d1", "e1")
    assert verify_report(inst, report) == []
    # with a2 inside, two edges cross for the two structures that must cross
    wider = replace(report, certificate=report.certificate + ("a2",))
    assert verify_report(inst, wider) == [
        "certificate is not deficient: 2 crossing edges for 2 crossings"
    ]
    assert verify_report(inst, replace(report, certificate=("zz",)))
    # the paths do not count in relaxed mode, and Fig. 2 is relaxed-feasible
    assert verify_report(inst, replace(report, relaxed=True)) == [
        "certificate is not deficient: 1 crossing edges for 1 crossings"
    ]
    assert verify_report(inst, replace(report, certificate=())) == [
        "report is not feasible; nothing to verify"
    ]
    assert check_single_source(inst).certificate == report.certificate


# Relaxed-infeasible instances, each a small graph with a K4 or H(3,6) block
# on one bridge.  Every path set gives the same relaxed answer, so the first
# one decides; trying them all takes 1-4 s on each (2-core Xeon).  The bridge
# is one edge for the two trees that must cross it, so it certifies the answer.
RELAXED_MANY_PATH_SETS = [
    (
        "v0 v1 v2 v3 v4 v5 bv0 bv1 bv2 bv3",
        "v0-v4 v4-v3 v3-v1 v1-v5 v5-v2 v5-v0 v3-v5 v4-v1 "
        "bv0-bv1 bv0-bv3 bv1-bv2 bv2-bv3 bv0-bv2 bv1-bv3 v4-bv3",
        ["v0", "bv2", "bv1"], ["v4", "bv3", "bv0"],
    ),
    (
        "v0 v1 v2 v3 v4 v5 v6 v7 bv0 bv1 bv2 bv3",
        "v5-v6 v6-v4 v4-v7 v7-v0 v0-v3 v3-v2 v2-v1 v4-v2 v3-v5 "
        "bv0-bv1 bv0-bv3 bv1-bv2 bv2-bv3 bv0-bv2 bv1-bv3 v2-bv0",
        ["bv0", "v5", "v2"], ["bv2", "v1", "bv3"],
    ),
    (
        "v0 v1 v2 v3 v4 v5 bv0 bv1 bv2 bv3 bv4 bv5",
        "v3-v2 v2-v4 v4-v0 v0-v1 v1-v5 v5-v0 v5-v2 bv0-bv1 bv0-bv5 bv1-bv2 "
        "bv2-bv3 bv3-bv4 bv4-bv5 bv0-bv3 bv1-bv4 bv2-bv5 v1-bv2",
        ["bv0", "bv5", "v4"], ["v1", "bv3", "v0"],
    ),
]


@pytest.mark.parametrize(
    "nodes, edges, sources, receivers", RELAXED_MANY_PATH_SETS, ids=["k4-10", "k4-12", "h36-12"]
)
def test_relaxed_answers_from_the_first_path_set(nodes, edges, sources, receivers):
    g = Graph()
    for v in nodes.split():
        g.add_node(node_id=v)
    for uv in edges.split():
        g.add_edge(*uv.split("-"))
    inst = ProtectionInstance(g, sources, receivers)
    report = check_feasibility(inst, relaxed=True)
    assert report.feasible == feasible_ref(g, sources, receivers, inst.pairs(), True)
    assert report.failure_reason == "receiver-tree" and report.certificate
    assert verify_report(inst, report) == []


def _km_bridge(m):
    """Two K_m blocks a1..am and b1..bm on the bridge am-bm, pairs a1-a2 and b1-b2."""
    g = Graph()
    for block in "ab":
        ids = [g.add_node("relay", f"{block}{i}") for i in range(1, m + 1)]
        for u, v in combinations(ids, 2):
            g.add_edge(u, v)
    g.add_edge(f"a{m}", f"b{m}")
    return ProtectionInstance(g, ["a1", "b1"], ["a2", "b2"])


@pytest.mark.parametrize("m", [6, 7])
def test_relaxed_bridge_answers_with_a_certificate(m):
    # the trees may reuse path edges, but not each other's: the one bridge
    # edge is fewer than the two trees that must cross it.  Going through
    # every source tree took 3.4 s on K6, and K7 stopped at the budget
    import time

    inst = _km_bridge(m)
    reports = {}
    for pairing in ("fixed", "auto"):
        start = time.perf_counter()
        reports[pairing] = check_feasibility(inst, relaxed=True, pairing=pairing)
        assert time.perf_counter() - start < 1.0, pairing
        assert reports[pairing].failure_reason == "receiver-tree", pairing
    assert reports["auto"].certificate == ()  # an auto refusal carries none
    fixed = reports["fixed"]
    assert fixed.relaxed and fixed.certificate == tuple(f"a{i}" for i in range(1, m + 1))
    # the paths do not count, so the recount holds for every pairing
    for perm in permutations(inst.receivers):
        assert verify_report(inst, replace(fixed, pairing=perm)) == [], perm


@st.composite
def _two_sided_instances(draw):
    """Multigraphs of 4-8 nodes on two sides of at most 4 nodes: each side a
    complete graph less the drawn edges, and up to three more edges
    anywhere, so at most 15 in all.  2-4 pairs, each receiver on its
    source's side when one is left there."""
    n = draw(st.integers(4, 8))
    cut = draw(st.integers(max(1, n - 4), min(4, n - 1)))
    side = [v < cut for v in range(n)]
    inner = [(u, v) for u, v in combinations(range(n), 2) if side[u] == side[v]]
    dropped = draw(st.lists(st.booleans(), min_size=len(inner), max_size=len(inner)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda uv: uv[0] != uv[1])
    extra = draw(st.lists(pair, max_size=3))
    g = graph_from_pairs(n, [uv for uv, drop in zip(inner, dropped) if not drop] + extra)
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(2, n // 2))
    sources, rest = order[:k], order[k:]
    receivers = []
    for v in sources:
        receivers.append(([x for x in rest if side[x] == side[v]] or rest)[0])
        rest.remove(receivers[-1])
    return ProtectionInstance(g, [f"x{v}" for v in sources], [f"x{v}" for v in receivers])


@settings(max_examples=300, deadline=None)
@given(_two_sided_instances())
def test_relaxed_certificates_recount_and_refute_hypothesis(inst):
    report = check_feasibility(inst, relaxed=True)
    if report.certificate:
        assert verify_report(inst, report) == []
        assert not feasible_ref(inst.graph, inst.sources, inst.receivers, inst.pairs(), True)


# -- Hamiltonicity by the Held-Karp bitmask DP ----------------------------------------


def _complete_bipartite(a, b):
    g = Graph()
    left = [g.add_node() for _ in range(a)]
    right = [g.add_node() for _ in range(b)]
    for u in left:
        for v in right:
            g.add_edge(u, v)
    return g


def test_hamiltonian_dp_refutes_petersen_and_unbalanced_bipartite():
    import time

    from npcode.feasibility import _hamiltonian_cycle_exists

    petersen = Graph()
    outer = [petersen.add_node() for _ in range(5)]
    inner = [petersen.add_node() for _ in range(5)]
    for i in range(5):
        petersen.add_edge(outer[i], outer[(i + 1) % 5])
        petersen.add_edge(inner[i], inner[(i + 2) % 5])
        petersen.add_edge(outer[i], inner[i])
    assert _hamiltonian_cycle_exists(petersen) is False
    for a, b in ((2, 3), (3, 4), (4, 6)):
        assert _hamiltonian_cycle_exists(_complete_bipartite(a, b)) is False
    assert _hamiltonian_cycle_exists(_complete_bipartite(4, 4)) is True
    start = time.perf_counter()
    assert _hamiltonian_cycle_exists(_complete_bipartite(7, 9)) is False
    assert time.perf_counter() - start < 1.0  # 16 nodes; backtracking ran for minutes


def test_hamiltonian_search_stops_at_the_first_cycle():
    import time

    from npcode.feasibility import _hamiltonian_cycle_exists

    graphs = [harary(16, k) for k in (3, 4, 6)]
    start = time.perf_counter()
    assert [_hamiltonian_cycle_exists(g) for g in graphs] == [True, True, True]
    # a full 2^15-mask table took 2-36 ms per graph; the search ends in well under 1 ms
    assert time.perf_counter() - start < 0.03
