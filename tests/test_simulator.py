from itertools import combinations

import numpy as np
import pytest

from npcode.codec import build_code
from npcode.construction import harary
from npcode import simulator
from npcode.feasibility import (
    InfeasibleInstanceError,
    ProtectionInstance,
    build_fig2_fixture,
    check_feasibility,
)
from npcode.galois import FieldContext
from npcode.simulator import (
    ExplicitFailures,
    RandomFailures,
    Scenario,
    path_labels,
    run,
    run_node_failure,
)

GF8 = FieldContext(8)


def _h310_instance():
    g = harary(10, 3)
    return ProtectionInstance(g, ["v0"], ["v3", "v5", "v8"])


def _payload(blocks, width, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(blocks, width), dtype=np.uint8)


def test_no_failures_recovers():
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    sc = Scenario(inst, code, _payload(5, 2), ExplicitFailures(()))
    report = run(sc)
    assert report.recovered and report.mismatches == 0
    assert report.status == "recovered"
    assert len(report.provisioned) == 3


def test_parity_path_failures_leave_data_intact():
    g = harary(8, 4)
    inst = ProtectionInstance(g, ["v0"], ["v2", "v4", "v5", "v6"])
    code = build_code(4, 2, GF8)
    sc = Scenario(inst, code, _payload(6, 2), ExplicitFailures(("L3", "L4")))
    report = run(sc)
    assert report.recovered
    assert report.failed_paths == ("L3", "L4")


def test_all_single_and_double_failures():
    g = harary(8, 4)
    inst = ProtectionInstance(g, ["v0"], ["v2", "v4", "v5", "v6"])
    code = build_code(4, 2, GF8)
    labels = path_labels(4)
    for size in (0, 1, 2):
        for failed in combinations(labels, size):
            sc = Scenario(inst, code, _payload(4, 2, seed=size), ExplicitFailures(failed))
            assert run(sc).recovered, f"failures {failed}"


def test_too_many_failures_reported_not_raised():
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    sc = Scenario(inst, code, _payload(3, 2), ExplicitFailures(("L1", "L2")))
    report = run(sc)
    assert not report.recovered
    assert report.capacity_exceeded
    assert report.status == "capacity exceeded"
    assert report.mismatches == 3


def test_random_failures_deterministic():
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    reports = [
        run(Scenario(inst, code, _payload(4, 2), RandomFailures(1, seed=5)))
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
    other = run(Scenario(inst, code, _payload(4, 2), RandomFailures(1, seed=6)))
    assert other.recovered


def test_random_failure_count_out_of_range():
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    assert run(Scenario(inst, code, _payload(4, 2), RandomFailures(0))).failed_paths == ()
    with pytest.raises(ValueError, match="^cannot fail a negative number of paths, got -1$"):
        run(Scenario(inst, code, _payload(4, 2), RandomFailures(-1)))
    with pytest.raises(ValueError, match="^cannot fail more paths than provisioned$"):
        run(Scenario(inst, code, _payload(4, 2), RandomFailures(4)))


def test_infeasible_instance_raises():
    inst = build_fig2_fixture()
    code = build_code(3, 1, GF8)
    sc = Scenario(inst, code, _payload(2, 2), ExplicitFailures(()))
    with pytest.raises(InfeasibleInstanceError):
        run(sc)


def test_provisioned_paths_are_drilled_as_given(monkeypatch):
    # Fig. 2 is infeasible strict, so only its relaxed witness can be drilled
    inst = build_fig2_fixture()
    paths = check_feasibility(inst, relaxed=True).paths
    monkeypatch.setattr(simulator, "check_feasibility", None)
    sc = Scenario(inst, build_code(3, 1, GF8), _payload(4, 2), ExplicitFailures(("L2",)),
                  provisioned=paths)
    report = run(sc)
    assert report.recovered and report.provisioned is paths
    # relay c1 carries only the b1-c1-e1 path
    assert run_node_failure(sc, "c1").failed_paths == ("L2",)
    with pytest.raises(ValueError, match="k=4 paths but instance provisions 3"):
        run(Scenario(inst, build_code(4, 1, GF8), _payload(2, 3), ExplicitFailures(()),
                     provisioned=paths))


def test_code_path_count_mismatch():
    inst = _h310_instance()
    code = build_code(4, 1, GF8)
    sc = Scenario(inst, code, _payload(2, 3), ExplicitFailures(()))
    with pytest.raises(ValueError):
        run(sc)


def test_node_failure_relay():
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    sc = Scenario(inst, code, _payload(3, 2), ExplicitFailures(()))
    base = run(sc)
    # pick a relay that lies on exactly one provisioned path
    labels = path_labels(3)
    counts = {}
    for label, p in zip(labels, base.provisioned):
        for v in p.nodes[1:-1]:
            counts[v] = counts.get(v, 0) + 1
    single = next(v for v, c in counts.items() if c == 1)
    report = run_node_failure(sc, single)
    assert report.recovered
    assert len(report.failed_paths) == 1


def test_node_failure_overloaded_relay():
    # force two paths through one relay: s-x-r1 and s-x-r2 cannot avoid x
    from npcode.graph import Graph

    g = Graph()
    s = g.add_node("source", "s")
    x = g.add_node("relay", "x")
    r1 = g.add_node("receiver", "r1")
    r2 = g.add_node("receiver", "r2")
    g.add_edge(s, x)
    g.add_edge(s, x)
    g.add_edge(x, r1)
    g.add_edge(x, r2)
    g.add_edge(r1, r2)
    inst = ProtectionInstance(g, [s], [r1, r2])
    code = build_code(2, 1, GF8)
    sc = Scenario(inst, code, _payload(2, 1), ExplicitFailures(()))
    report = run_node_failure(sc, x)
    assert not report.recovered
    assert report.capacity_exceeded
    assert len(report.failed_paths) == 2


def test_node_failure_rejects_terminals():
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    sc = Scenario(inst, code, _payload(2, 2), ExplicitFailures(()))
    with pytest.raises(ValueError):
        run_node_failure(sc, "v0")
    with pytest.raises(ValueError):
        run_node_failure(sc, "v3")


def test_exhaustive_double_failures_on_split_capacity_graph():
    # splitting every link of H_{3,10} into two unit-capacity connections
    # gives a 6-edge-connected multigraph: one source can feed 6 paths
    g = harary(10, 3)
    doubled = g.copy()
    for eid, (u, v) in list(g.edges.items()):
        doubled.add_edge(u, v, f"{eid}b")
    receivers = ["v2", "v3", "v5", "v6", "v8", "v9"]
    inst = ProtectionInstance(doubled, ["v0"], receivers)
    code = build_code(6, 2, GF8)
    labels = path_labels(6)
    for failed in combinations(labels, 2):
        sc = Scenario(inst, code, _payload(50, 4, seed=hash(failed) % 997),
                      ExplicitFailures(failed))
        report = run(sc)
        assert report.recovered, f"failures {failed}"
        assert report.mismatches == 0


def test_batch_thousand_random_trials_rate_one():
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    scenarios = [
        Scenario(inst, code, _payload(1, 2, seed=i), RandomFailures(1, seed=i))
        for i in range(1000)
    ]
    assert all(run(sc).recovered for sc in scenarios)


def test_batch_statistics():
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    good = [
        Scenario(inst, code, _payload(2, 2, seed=i), RandomFailures(1, seed=i))
        for i in range(4)
    ]
    over = [
        Scenario(inst, code, _payload(2, 2, seed=i), ExplicitFailures(("L1", "L2")))
        for i in range(2)
    ]
    reports = [run(sc) for sc in good + over]
    assert [r.status for r in reports] == ["recovered"] * 4 + ["capacity exceeded"] * 2
    assert [run(sc) for sc in good + over] == reports  # deterministic


def test_payload_forms():
    from npcode.codec import DataBlock

    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    blocks = [DataBlock.of(GF8, [1, 2]), DataBlock.of(GF8, [3, 4])]
    sc = Scenario(inst, code, blocks, ExplicitFailures(("L2",)))
    assert run(sc).recovered
    with pytest.raises(ValueError):
        run(Scenario(inst, code, np.zeros((0, 2), dtype=np.uint8), ExplicitFailures(())))
    with pytest.raises(ValueError):
        run(Scenario(inst, code, _payload(2, 3), ExplicitFailures(())))


def test_unknown_failure_labels():
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    sc = Scenario(inst, code, _payload(2, 2), ExplicitFailures(("L9",)))
    with pytest.raises(ValueError):
        run(sc)


def test_wide_field_scalar_simulation():
    inst = _h310_instance()
    code = build_code(3, 1, FieldContext(12))
    payload = np.array([[100, 7], [3000, 42]], dtype=np.uint16)
    sc = Scenario(inst, code, payload, ExplicitFailures(("L1",)))
    report = run(sc)
    assert report.recovered


def test_mismatch_count_is_exact(monkeypatch):
    from npcode import simulator

    real = simulator.recover_blocks

    def corrupt_three_rows(code, received, erased):
        out = real(code, received, erased).copy()
        out[[3, 40, 41], 1] ^= 1  # one symbol in each of three blocks
        return out

    monkeypatch.setattr(simulator, "recover_blocks", corrupt_three_rows)
    inst = _h310_instance()
    code = build_code(3, 1, GF8)
    report = run(Scenario(inst, code, _payload(64, 2, seed=4), ExplicitFailures(("L1",))))
    assert not report.recovered
    assert report.mismatches == 3
    assert report.status == "mismatch"


def test_payload_range_is_checked_before_the_cast():
    from npcode.simulator import _payload_matrix

    code = build_code(3, 1, GF8)
    for bad in (300, -1):
        payload = np.array([[1, 2], [bad, 3]], dtype=np.int64)
        with pytest.raises(ValueError):
            _payload_matrix(payload, code)
    small = build_code(3, 1, FieldContext(4))
    with pytest.raises(ValueError):
        _payload_matrix(np.array([[1, 16]], dtype=np.uint8), small)
    ok = np.array([[1, 15]], dtype=np.uint8)
    assert _payload_matrix(ok, small) is ok  # in range and already uint8: no copy
