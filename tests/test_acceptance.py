"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every tolerance is exact; the stated runtime budgets
are asserted too.
"""

import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations

import numpy as np

from npcode.codec import build_code, encode_blocks, recover_blocks
from npcode.connectivity import (
    edge_connectivity,
    is_k_edge_connected,
    max_edge_disjoint_paths,
    node_connectivity,
)
from npcode.construction import (
    build_minimal_witness,
    harary,
    harary_lower_bound,
    min_edges_arbitrary,
    min_edges_predetermined,
    min_edges_single_source,
)
from npcode.feasibility import ProtectionInstance, build_fig2_fixture, check_feasibility
from npcode.galois import FieldContext
from npcode.graph import Graph

from oracles import (
    brute_global_min_cut,
    brute_min_st_cut,
    brute_node_cut,
    connected_graph_corpus,
    connected_ref,
    degree_ref,
    edge_list,
    feasible_ref,
    graph_from_pairs,
)

GF8 = FieldContext(8)


def _report(number: int, label: str, started: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.1f}s")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_harary_optimality():
    started = time.perf_counter()
    for n in range(3, 13):
        for k in range(2, n):
            g = harary(n, k)
            assert g.num_nodes == n
            assert g.num_edges == (k * n + 1) // 2, f"H_{{{k},{n}}} edge count"
            assert edge_connectivity(g).value == k, f"H_{{{k},{n}}} kappa_e"
            assert node_connectivity(g).value == k, f"H_{{{k},{n}}} kappa_v"
            if n <= 8:
                nodes, edges = list(g.nodes), edge_list(g)
                assert brute_global_min_cut(nodes, edges) == k
                assert brute_node_cut(nodes, edges) == k
    _report(1, "Harary optimality", started, 30.0)


def test_criterion_2_npc_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for k in range(2, 13):
        for t in range(1, min(4, k - 1) + 1):
            code = build_code(k, t, GF8)
            data = rng.integers(0, 256, size=(100, k - t), dtype=np.uint8)
            sent = encode_blocks(code, data)
            for size in range(t + 1):
                for pattern in combinations(range(k), size):
                    received = sent.copy()
                    received[:, list(pattern)] = 0
                    out = recover_blocks(code, received, pattern)
                    assert np.array_equal(out, data), f"k={k} t={t} pattern={pattern}"
    _report(2, "NPC recovery", started, 60.0)


def test_criterion_3_menger_whitney():
    started = time.perf_counter()
    for n, pairs in connected_graph_corpus(6):
        g = graph_from_pairs(n, pairs)
        nodes, edges = list(g.nodes), edge_list(g)
        pair_min = None
        for i, s in enumerate(nodes):
            for r in nodes[i + 1 :]:
                found = max_edge_disjoint_paths(g, s, r)
                found.validate(g)
                cut, _ = brute_min_st_cut(nodes, edges, s, r)
                assert len(found) == cut, f"n={n} {pairs} pair {s}-{r}"
                pair_min = cut if pair_min is None else min(pair_min, cut)
        max_deg = max(degree_ref(g).values())
        for k in range(1, max_deg + 2):
            assert is_k_edge_connected(g, k) == (pair_min >= k)
    _report(3, "Menger/Whitney equivalence", started, 300.0)


def test_criterion_4_fig2_counterexample():
    started = time.perf_counter()
    inst = build_fig2_fixture()
    g = inst.graph
    assert g.num_nodes == 10 and g.num_edges == 15
    assert set(degree_ref(g).values()) == {3}
    assert edge_connectivity(g).value == 1
    report = check_feasibility(inst)
    assert not report.feasible
    assert report.failure_reason == "receiver-tree"
    assert not feasible_ref(g, inst.sources, inst.receivers, inst.pairs(), False)
    _report(4, "bridged 3-regular counterexample", started, 10.0)


def test_criterion_5_bound_formulas_and_witnesses():
    started = time.perf_counter()
    grid = []
    for n in range(4, 14):
        for k in range(1, n):
            if len(grid) < 50 and k + 1 <= n:
                grid.append((n, k))
    assert len(grid) == 50
    for n, k in grid:
        assert min_edges_single_source(n, k) == n + k - 2
        if 2 * k <= n:
            assert min_edges_predetermined(n, k) == n + k - 2
        assert min_edges_arbitrary(n, k) == -(-(n * (n - k + 1)) // 2)
    for n, k in [(6, 2), (8, 3), (10, 3)]:
        for mode in ("single_source", "predetermined"):
            inst = build_minimal_witness(n, k, mode)
            g = inst.graph
            assert g.num_edges == n + k - 2
            assert connected_ref(g.nodes, edge_list(g))
            assert check_feasibility(inst, relaxed=True).feasible
            for eid in list(g.edges):
                g2 = g.copy()
                del g2.edges[eid]
                inst2 = ProtectionInstance(g2, inst.sources, inst.receivers)
                intact = connected_ref(g2.nodes, edge_list(g2)) and check_feasibility(inst2).feasible
                assert not intact, f"{mode} (n={n},k={k}): {eid} removable"
    _report(5, "bound formulas and extremal witnesses", started, None)


def test_criterion_6_single_pair_biconditional():
    started = time.perf_counter()
    rng = random.Random(606)
    for trial in range(200):
        n = rng.randrange(4, 11)
        g = Graph()
        ids = [g.add_node() for _ in range(n)]
        order = ids[:]
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            g.add_edge(a, b)
        for _ in range(rng.randrange(0, n)):
            u, v = rng.sample(ids, 2)
            g.add_edge(u, v)
        s, r = rng.sample(ids, 2)
        cut, _ = brute_min_st_cut(list(g.nodes), edge_list(g), s, r)
        for k in range(1, 5):
            inst = ProtectionInstance(g, [s], [r], num_paths=k)
            assert check_feasibility(inst).feasible == (cut >= k), f"trial {trial} k={k}"
    _report(6, "single-pair biconditional", started, None)


def test_criterion_7_end_to_end_pipeline():
    started = time.perf_counter()
    env = dict(os.environ)
    env.pop("NPC_FIELD_POLY", None)

    def cli(args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "npcode", *args],
            input=stdin, capture_output=True, text=True, env=env,
        )

    transcripts = []
    for _ in range(2):
        gen = cli(["generate", "--harary", "10", "3"])
        assert gen.returncode == 0
        feas = cli(
            ["feasibility", "--sources", "v0", "--receivers", "v3,v5,v8"],
            stdin=gen.stdout,
        )
        assert feas.returncode == 0
        outputs = [gen.stdout, feas.stdout]
        for fail in ("L1", "L2", "L3"):
            sim = cli(
                ["simulate", "--k", "3", "--t", "1", "--failures", fail, "--seed", "7"],
                stdin=feas.stdout,
            )
            assert sim.returncode == 0, f"failure {fail}: {sim.stderr}"
            assert json.loads(sim.stdout)["status"] == "recovered"
            outputs.append(sim.stdout)
        transcripts.append("".join(outputs))
    assert transcripts[0] == transcripts[1], "pipeline output not byte-identical"
    _report(7, "end-to-end pipeline", started, None)
