"""Full feasibility reports pinned: paths, both trees, reason and certificate.

The witnesses come from the exact search's enumeration order, so a change
to how trees are placed must leave every pinned report byte-identical.
`tree_pins.json` maps each label of `_pinned_cases` to `_report_doc` of its
report; regenerate it only for a deliberate change of enumeration order.
"""

import json
import random
from pathlib import Path

from npcode.construction import build_minimal_witness, harary
from npcode.feasibility import (
    ProtectionInstance,
    build_fig2_fixture,
    check_feasibility,
    verify_report,
)
from npcode.graph import Graph

TREE_PINS = json.loads((Path(__file__).parent / "data" / "tree_pins.json").read_text())


def _seeded_instance(rng):
    """6-9 nodes on a spanning path plus chords (parallel edges allowed); one
    edge in four is removed and re-added under its old id, so edge-id order
    and insertion order differ."""
    n = rng.randint(6, 9)
    g = Graph()
    ids = [g.add_node("relay", f"v{j}") for j in range(n)]
    order = ids[:]
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        g.add_edge(a, b)
    for _ in range(rng.randint(n // 2, 2 * n)):
        g.add_edge(*rng.sample(ids, 2))
    for e in list(g.edges):
        if rng.random() < 0.25:
            u, v = g.edges[e]
            del g.edges[e]
            g.add_edge(u, v, e)
    k = rng.choice((1, 2, 2, 3, 3))
    if k == 1:
        picked = rng.sample(ids, rng.randint(3, 4))
        return ProtectionInstance(g, picked[:1], picked[1:])
    picked = rng.sample(ids, 2 * k)
    return ProtectionInstance(g, picked[:k], picked[k:])


def _pinned_cases():
    """(label, instance, relaxed), in a fixed order."""
    rng = random.Random(1313)
    for i in range(200):
        inst = _seeded_instance(rng)
        yield f"corpus-{i} strict", inst, False
        yield f"corpus-{i} relaxed", inst, True
    # the feasible questions of perfbench's topology workload
    for k, n in ((3, 10), (4, 10), (3, 20), (4, 20), (3, 30), (4, 30)):
        receivers = [f"v{(i + 1) * n // (k + 1)}" for i in range(k)]
        yield f"single H({k},{n})", ProtectionInstance(harary(n, k), ["v0"], receivers), False
    for n in (8, 10, 12, 16, 20):
        inst = ProtectionInstance(harary(n, 3), [f"v{i}" for i in range(3)],
                                  [f"v{n // 2 + i}" for i in range(3)])
        yield f"multi H(3,{n})", inst, False
    for n, k in ((10, 3), (20, 4)):
        for mode in ("single_source", "predetermined"):
            yield f"witness {mode} {n},{k}", build_minimal_witness(n, k, mode), False
    yield "fig2 relaxed", build_fig2_fixture(), True


def _report_doc(report):
    return {
        "feasible": report.feasible,
        "paths": None if report.paths is None
        else [[" ".join(p.nodes), " ".join(p.edges)] for p in report.paths],
        "source_tree": list(report.source_tree),
        "receiver_tree": list(report.receiver_tree),
        "failure_reason": report.failure_reason,
        "certificate": list(report.certificate),
    }


def test_tree_witnesses_pinned():
    cases = list(_pinned_cases())
    assert [label for label, _, _ in cases] == list(TREE_PINS)
    multi_feasible = 0
    for label, inst, relaxed in cases:
        report = check_feasibility(inst, relaxed=relaxed)
        assert _report_doc(report) == TREE_PINS[label], label
        if report.feasible:
            assert verify_report(inst, report) == [], label
            multi_feasible += len(inst.sources) > 1
    # the pins exercise the Steiner enumeration, not only single-source trees
    assert multi_feasible >= 100
