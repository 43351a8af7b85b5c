import json
from itertools import count
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npcode.connectivity import edge_connectivity
from npcode.graph import (
    ROLES,
    DisjointPathSet,
    Graph,
    GraphError,
    GraphFormatError,
    Path,
    connected_within,
    load,
    save,
)

from oracles import connected_ref, degree_ref

FIG2 = FsPath(__file__).parent / "data" / "fig2.json"


def test_basic_mutation_and_degrees():
    g = Graph()
    a = g.add_node()
    b = g.add_node("receiver")
    e = g.add_edge(a, b)
    assert g.nodes == {a: "relay", b: "receiver"}
    assert degree_ref(g) == {a: 1, b: 1}
    assert g.endpoints(e) == (a, b)


def test_triangle_degrees():
    g = Graph()
    ids = [g.add_node() for _ in range(3)]
    for i in range(3):
        g.add_edge(ids[i], ids[(i + 1) % 3])
    assert degree_ref(g) == dict.fromkeys(ids, 2)


def test_multigraph_double_edge_counts_twice():
    g = Graph()
    u, v = g.add_node(), g.add_node()
    e1 = g.add_edge(u, v)
    e2 = g.add_edge(u, v)
    assert e1 != e2 and g.num_edges == 2
    assert degree_ref(g) == {u: 2, v: 2}
    assert g.endpoints(e1) == g.endpoints(e2) == (u, v)


def test_degree_sum_is_twice_edges():
    import random

    rng = random.Random(0)
    for _ in range(20):
        g = Graph()
        nodes = [g.add_node() for _ in range(rng.randrange(2, 9))]
        added = rng.randrange(0, 15)
        for _ in range(added):
            u, v = rng.sample(nodes, 2)
            g.add_edge(u, v)
        assert g.num_edges == added
        assert sum(degree_ref(g).values()) == 2 * g.num_edges


def test_errors():
    g = Graph()
    a = g.add_node()
    with pytest.raises(GraphError):
        g.add_edge(a, a)
    with pytest.raises(GraphError):
        g.add_edge(a, "ghost")
    with pytest.raises(GraphError):
        g.endpoints("nope")
    with pytest.raises(GraphError):
        g.add_node(role="router")
    b = g.add_node(node_id="b")
    with pytest.raises(GraphError):
        g.add_node(node_id="b")
    e = g.add_edge(a, b)
    with pytest.raises(GraphError):
        g.add_edge(a, b, edge_id=e)


def test_remove_and_readd_restores_connectivity():
    g = Graph()
    ids = [g.add_node() for _ in range(4)]
    for i in range(4):
        g.add_edge(ids[i], ids[(i + 1) % 4], f"c{i}")
    before = edge_connectivity(g).value
    del g.edges["c2"]
    assert edge_connectivity(g).value == 1
    g.add_edge(ids[2], ids[3], "c2")
    assert edge_connectivity(g).value == before == 2


def test_save_load_round_trip():
    g = Graph()
    s = g.add_node("source", "s")
    r = g.add_node("receiver", "r")
    w = g.add_node("relay", "w")
    g.add_edge(s, w, "a")
    g.add_edge(w, r, "b")
    g.add_edge(s, r, "c")
    reparsed = load(save(g))
    assert reparsed.nodes == g.nodes
    assert reparsed.edges == g.edges
    assert json.loads(save(reparsed)) == json.loads(save(g))


def test_load_rejects_bad_documents():
    ok = {"nodes": [{"id": "a", "role": "relay"}, {"id": "b", "role": "relay"}],
          "edges": [{"id": "e", "u": "a", "v": "b"}]}
    load(json.dumps(ok))
    bad_endpoint = {"nodes": ok["nodes"], "edges": [{"id": "e", "u": "a", "v": "zz"}]}
    with pytest.raises(GraphFormatError):
        load(json.dumps(bad_endpoint))
    dup_node = {"nodes": ok["nodes"] + [{"id": "a", "role": "relay"}], "edges": []}
    with pytest.raises(GraphFormatError):
        load(json.dumps(dup_node))
    self_loop = {"nodes": ok["nodes"], "edges": [{"id": "e", "u": "a", "v": "a"}]}
    with pytest.raises(GraphFormatError):
        load(json.dumps(self_loop))
    bad_role = {"nodes": [{"id": "a", "role": "router"}], "edges": []}
    with pytest.raises(GraphFormatError):
        load(json.dumps(bad_role))
    with pytest.raises(GraphFormatError):
        load("not json at all")
    with pytest.raises(GraphFormatError):
        load(json.dumps([1, 2, 3]))
    dup_edge = {"nodes": ok["nodes"], "edges": [ok["edges"][0], ok["edges"][0]]}
    with pytest.raises(GraphFormatError):
        load(json.dumps(dup_edge))


def test_fig2_fixture_file_loads():
    g = load(FIG2.read_text())
    assert g.num_nodes == 10
    assert g.num_edges == 15
    assert g.nodes_with_role("source") == ["b1"]
    assert set(g.nodes_with_role("receiver")) == {"d1", "e1", "b2"}
    assert set(degree_ref(g).values()) == {3}


def test_path_validation():
    g = Graph()
    a, b, c = (g.add_node() for _ in range(3))
    e1 = g.add_edge(a, b)
    e2 = g.add_edge(b, c)
    p = Path((a, b, c), (e1, e2))
    p.validate(g)
    assert p.start == a and p.end == c and len(p) == 2
    with pytest.raises(GraphError):
        Path((a, c), (e1,)).validate(g)  # wrong endpoints
    with pytest.raises(GraphError):
        Path((a, b, a), (e1, e1)).validate(g)  # repeats node and edge
    e3 = g.add_edge(a, c)
    good = DisjointPathSet((Path((a, b), (e1,)), Path((a, c), (e3,))))
    good.validate(g)
    bad = DisjointPathSet((Path((a, b), (e1,)), Path((c, b, a), (e2, e1))))
    with pytest.raises(GraphError):
        bad.validate(g)


def test_connected_within():
    g = Graph()
    a, b, c = (g.add_node() for _ in range(3))
    e1 = g.add_edge(a, b)
    g.add_edge(b, c)
    assert connected_within(g, [a, c])
    assert not connected_within(g, [a, c], {e1})
    assert connected_within(g, [a])


# -- Graph against an edge-list model ------------------------------------------------
# Explicit ids come from a small pool that overlaps the automatic n<i> and
# e<i> ids, so duplicates and skipped automatic ids both occur.

_IDS = st.sampled_from(["n0", "n1", "n2", "e0", "e1", "e3", "x", "y"])


def _first_free(prefix, taken):
    return next(f"{prefix}{i}" for i in count() if f"{prefix}{i}" not in taken)


def _check_model(g, nodes, edges, data):
    """g against the model: nodes {id: role} and edges [(id, u, v)], oldest first."""
    assert list(g.nodes.items()) == list(nodes.items())
    assert list(g.edges.items()) == [(e, (u, v)) for e, u, v in edges]
    for e, u, v in edges:
        assert g.endpoints(e) == (u, v)
    ids = [e for e, _, _ in edges]
    terminals = data.draw(st.lists(st.sampled_from(list(nodes)), max_size=4)) if nodes else []
    allowed = data.draw(st.none() | st.sets(st.sampled_from(ids + ["unknown"])))
    assert connected_within(g, terminals, allowed) == connected_ref(terminals, edges, allowed)


def _check_copy(g, nodes, edges):
    c = g.copy()
    assert list(c.nodes.items()) == list(g.nodes.items())
    assert list(c.edges.items()) == list(g.edges.items())
    # a copy's automatic ids count from 0 again, skipping the ids it holds
    x = c.add_node()
    assert x == _first_free("n", nodes)
    if nodes:
        e = c.add_edge(next(iter(nodes)), x)
        assert e == _first_free("e", {e for e, _, _ in edges})
    if edges:
        del c.edges[edges[0][0]]
    assert list(g.nodes.items()) == list(nodes.items())
    assert list(g.edges.items()) == [(e, (u, v)) for e, u, v in edges]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graph_matches_an_edge_list_model(data):
    g = Graph()
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str, str]] = []
    for _ in range(data.draw(st.integers(0, 20))):
        step = data.draw(st.sampled_from(["node", "edge", "edge", "remove"]))
        ids = [e for e, _, _ in edges]
        if step == "node":
            role, nid = data.draw(st.sampled_from(ROLES)), data.draw(st.none() | _IDS)
            if nid in nodes:
                with pytest.raises(GraphError):
                    g.add_node(role, nid)
            else:
                got = g.add_node(role, nid)
                assert got not in nodes and nid in (None, got)
                nodes[got] = role
        elif step == "edge":
            ends = st.sampled_from([*nodes, "unknown"])
            u, v, eid = data.draw(ends), data.draw(ends), data.draw(st.none() | _IDS)
            if u == v or "unknown" in (u, v) or eid in ids:
                with pytest.raises(GraphError):
                    g.add_edge(u, v, eid)
            else:
                got = g.add_edge(u, v, eid)
                assert got not in ids and eid in (None, got)
                edges.append((got, u, v))
        else:
            eid = data.draw(st.sampled_from(ids) | _IDS) if ids else data.draw(_IDS)
            if eid in ids:
                del g.edges[eid]
                del edges[ids.index(eid)]
            else:
                with pytest.raises(GraphError):
                    g.endpoints(eid)
        _check_model(g, nodes, edges, data)
        _check_copy(g, nodes, edges)
