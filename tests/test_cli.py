import json
import os
import subprocess
import sys
from pathlib import Path as FsPath

import numpy as np
import pytest

import npcode as package
from npcode import cli, codec, connectivity, construction, feasibility, graph, simulator
from npcode.galois import FieldContext, default_polynomial

FIG2 = FsPath(__file__).parent / "data" / "fig2.json"


def npcode(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    env.pop("NPC_FIELD_POLY", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "npcode", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def test_generate_harary():
    res = npcode("generate", "--harary", "10", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["nodes"]) == 10
    assert len(doc["edges"]) == 15


def test_generate_invalid_counts():
    res = npcode("generate", "--harary", "3", "3")
    assert res.returncode == 2
    assert res.stderr


@pytest.mark.parametrize("argv, option", [
    (["--harary", "100000000", "4"], "--harary"),
    (["--harary", "100000", "5"], "--harary"),
    (["--minimal-witness", "300000", "3", "predetermined"], "--minimal-witness"),
])
def test_generate_refuses_past_its_edge_limit(monkeypatch, capsys, argv, option):
    # the edge count is checked before any graph is built
    monkeypatch.setattr(construction, "harary", None)
    monkeypatch.setattr(construction, "build_minimal_witness", None)
    assert cli.main(["generate", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1
    assert "200000" in err


def test_generate_edge_limit_is_inclusive_and_stated(monkeypatch, capsys):
    # H(4,100000) has exactly the 200,000 edges the limit allows; a stub
    # stands in for its seconds-long build
    built = []
    monkeypatch.setattr(construction, "harary", lambda n, k: built.append((n, k)) or graph.Graph())
    assert cli.main(["generate", "--harary", "100000", "4"]) == 0
    assert built == [(100000, 4)]
    assert cli.main(["generate", "--harary", "100001", "4"]) == 2
    assert built == [(100000, 4)]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["generate", "--help"])
    assert "at most 200,000 edges" in capsys.readouterr().out


def _read_then_close(args, nbytes):
    """Run a verb, read nbytes of its stdout and close the pipe; (exit code, stderr)."""
    env = dict(os.environ)
    env.pop("NPC_FIELD_POLY", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "npcode", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert len(proc.stdout.read(nbytes)) == nbytes
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


def test_closed_stdout_exits_2_with_one_error_line(tmp_path):
    # H(2000, 4) is about 400 KB of JSON, far more than a pipe buffer holds,
    # so each verb is still writing when the reader goes away
    graph = tmp_path / "h2000.json"
    graph.write_text(npcode("generate", "--harary", "2000", "4").stdout)
    for args in (
        ["generate", "--harary", "2000", "4"],
        ["feasibility", "--graph", str(graph), "--sources", "v0,v1",
         "--receivers", "v1000,v1001", "--verify"],
    ):
        status, err = _read_then_close(args, 10)
        assert status == 2, err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line] == [
            "error: stdout was closed before the output was written"
        ]


def test_generate_minimal_witness():
    res = npcode("generate", "--minimal-witness", "8", "3", "predetermined")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["edges"]) == 8 + 3 - 2
    roles = {n["id"]: n["role"] for n in doc["nodes"]}
    assert sum(1 for r in roles.values() if r == "source") == 3


def test_connectivity_pipeline():
    gen = npcode("generate", "--harary", "10", "3")
    res = npcode("connectivity", stdin=gen.stdout)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["edge_connectivity"]["value"] == 3
    assert doc["node_connectivity"]["value"] == 3


def _cut(value, witness):
    return {"value": value, "witness": witness}


@pytest.mark.parametrize("source,expected", [
    ("harary", {
        "nodes": 30,
        "edges": 90,
        "edge_connectivity": _cut(6, ["e0", "e1", "e2", "e3", "e4", "e5"]),
        "node_connectivity": _cut(6, ["v1", "v2", "v3", "v27", "v28", "v29"]),
    }),
    ("fig2", {
        "nodes": 10,
        "edges": 15,
        "edge_connectivity": _cut(1, ["e14"]),
        "node_connectivity": _cut(1, ["a2"]),
    }),
])
def test_connectivity_stdout_pinned(source, expected):
    if source == "harary":
        res = npcode("connectivity", stdin=npcode("generate", "--harary", "30", "6").stdout)
    else:
        res = npcode("connectivity", "--graph", str(FIG2))
    assert res.returncode == 0
    assert json.loads(res.stdout) == expected


def test_feasibility_exit_codes_and_verify():
    gen = npcode("generate", "--harary", "10", "3")
    ok = npcode(
        "feasibility", "--sources", "v0", "--receivers", "v3,v5,v8", "--verify",
        stdin=gen.stdout,
    )
    assert ok.returncode == 0
    doc = json.loads(ok.stdout)
    assert doc["feasible"] is True
    assert doc["verified"] is True
    assert doc["k_edge_connected"] is True
    assert doc["certificate"] == []
    bad = npcode("feasibility", "--graph", str(FIG2))
    assert bad.returncode == 1
    doc = json.loads(bad.stdout)
    assert doc["feasible"] is False
    assert doc["failure_reason"] == "receiver-tree"
    assert "verified" not in doc


def test_feasibility_verifies_certificate():
    res = npcode("feasibility", "--graph", str(FIG2), "--verify")
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["certificate"] == ["a1", "b1", "c1", "d1", "e1"]
    assert doc["verified"] is True
    assert res.stderr == ""


def test_feasibility_relaxed_flag():
    res = npcode("feasibility", "--graph", str(FIG2), "--relaxed")
    assert res.returncode == 0
    assert json.loads(res.stdout)["relaxed"] is True


def test_feasibility_unknown_ids():
    gen = npcode("generate", "--harary", "6", "2")
    res = npcode("feasibility", "--sources", "zz", "--receivers", "v1", stdin=gen.stdout)
    assert res.returncode == 2


def test_feasibility_budget_stop_exits_2(monkeypatch, tmp_path, capsys):
    # multi-pair H(4,12) spends about 108k states to answer; 1,000 stop it
    monkeypatch.setattr(connectivity, "_MAX_STATES", 1000)
    path = tmp_path / "h12_4.json"
    path.write_text(graph.save(construction.harary(12, 4)))
    argv = ["feasibility", "--graph", str(path), "--sources", "v0,v1,v2,v3",
            "--receivers", "v6,v7,v8,v9"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: exact search stopped at its budget of 1,000 states\n"


def test_feasibility_needs_terminals():
    gen = npcode("generate", "--harary", "6", "2")
    res = npcode("feasibility", stdin=gen.stdout)
    assert res.returncode == 2


def test_bounds():
    res = npcode("bounds", "--n", "10", "--k", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["single_source"] == 11
    assert doc["predetermined"] == 11
    assert doc["arbitrary"] == 40
    assert doc["harary"] == 15
    res = npcode("bounds", "--n", "5", "--k", "3", "--mode", "predetermined")
    assert res.returncode == 2
    res = npcode("bounds", "--n", "5", "--k", "3")
    assert json.loads(res.stdout)["predetermined"] is None


@pytest.mark.parametrize("n, k", [(-5, -3), (3, 0), (3, -1)])
def test_bounds_refuse_invalid_n_and_k(n, k, capsys):
    assert cli.main(["bounds", "--n", str(n), "--k", str(k)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": n, "k": k, "single_source": None, "predetermined": None,
                   "arbitrary": None, "harary": None}
    for mode in ("arbitrary", "harary"):
        assert cli.main(["bounds", "--n", str(n), "--k", str(k), "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: need 1 <= k <")


def test_bounds_limits_of_k():
    # k = n is the widest demand the arbitrary formula states; harary needs k < n
    assert construction.min_edges_arbitrary(5, 5) == 3
    with pytest.raises(ValueError):
        construction.harary_lower_bound(5, 5)
    # a connected graph needs n - 1 edges, more than ceil(k*n/2) at k = 1
    assert construction.harary_lower_bound(5, 1) == 4
    assert construction.min_edges_arbitrary(5, 1) == 13


def test_encode_recover_round_trip():
    enc = npcode("encode", "--k", "6", "--t", "2", "--data", "0102030405060708")
    assert enc.returncode == 0
    doc = json.loads(enc.stdout)
    assert doc["blocks"] == 2
    symbols = doc["symbols"]
    assert len(symbols) == 2 * 6 * 2
    rec = npcode("recover", "--k", "6", "--t", "2", "--symbols", symbols, "--erased", "2,5")
    assert rec.returncode == 0
    out = json.loads(rec.stdout)
    assert out["data"] == "0102030405060708"
    assert out["erased"] == [2, 5]


def test_recover_capacity_exceeded_is_domain_error():
    enc = npcode("encode", "--k", "4", "--t", "1", "--data", "0a0b0c")
    symbols = json.loads(enc.stdout)["symbols"]
    res = npcode("recover", "--k", "4", "--t", "1", "--symbols", symbols, "--erased", "1,2")
    assert res.returncode == 1
    assert "capacity" in res.stderr


@pytest.mark.parametrize("poly", [None, "0x1100B"], ids=["GF8", "GF16"])
def test_recover_rejects_corrupted_survivor(poly):
    env = {"NPC_FIELD_POLY": poly} if poly else None
    width = 2 if poly is None else 4
    data = "".join(f"{v:0{width}x}" for v in range(1, 9))
    enc = npcode("encode", "--k", "6", "--t", "2", "--data", data, env_extra=env)
    symbols = json.loads(enc.stdout)["symbols"]
    # flip one bit of position 3 in the second block; position 1 is erased,
    # so one surviving parity symbol is left to catch it
    at = (6 + 2) * width
    flipped = symbols[:at] + f"{int(symbols[at], 16) ^ 1:x}" + symbols[at + 1 :]
    res = npcode("recover", "--k", "6", "--t", "2", "--symbols", flipped, "--erased", "1",
                 env_extra=env)
    assert res.returncode == 1
    assert "no codeword" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("m", [4, 8, 12, 16])
def test_codec_verbs_take_the_block_path(m, monkeypatch, capsys, tmp_path):
    # the scalar codec is only the API edge and the tests' reference: no verb
    # and no simulation calls it, on any field
    def scalar(*args, **kwargs):
        raise AssertionError("scalar codec called")

    for module in (package, codec, simulator, cli):
        for name in ("encode", "recover"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, scalar)
    monkeypatch.setenv("NPC_FIELD_POLY", f"0x{default_polynomial(m):X}")
    field = FieldContext(m)
    width = 2 * ((m + 7) // 8)
    data = "".join(f"{v:0{width}x}" for v in (1, field.order - 1, 5, 6))

    def run(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    code, out = run("encode", "--k", "3", "--t", "1", "--data", data)
    assert code == 0
    code, out = run("recover", "--k", "3", "--t", "1", "--symbols",
                    json.loads(out)["symbols"], "--erased", "2")
    assert (code, json.loads(out)["data"]) == (0, data)
    path = tmp_path / "h10_3.json"
    path.write_text(graph.save(construction.harary(10, 3)))
    code, out = run("simulate", "--graph", str(path), "--k", "3", "--t", "1",
                    "--sources", "v0", "--receivers", "v3,v5,v8", "--failures", "L2",
                    "--blocks", "8")
    assert (code, json.loads(out)["recovered"]) == (0, True)
    inst = feasibility.ProtectionInstance(construction.harary(10, 3), ["v0"], ["v3", "v5", "v8"])
    payload = np.array([[1, field.order - 1], [0, 7]])
    sc = simulator.Scenario(inst, codec.build_code(3, 1, field), payload,
                            simulator.ExplicitFailures(("L1",)))
    assert simulator.run(sc).recovered


_CODEC_VERBS = {
    "encode": ["--data", "0000"],
    "recover": ["--symbols", "0000"],
    "simulate": ["--graph", str(FIG2), "--failures", "L1"],
}


def test_encode_refuses_k_past_its_limit_at_once():
    # building this code on GF(2^16) ran for seconds on end; the limit is checked first
    res = subprocess.run(
        [sys.executable, "-m", "npcode", "encode", "--k", "4000", "--t", "2000", "--data", "0000"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "NPC_FIELD_POLY": "0x1100B"},
    )
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith("error: --k 4000 ") and res.stderr.count("\n") == 1
    assert "1024" in res.stderr and "Traceback" not in res.stderr


class _Built(Exception):
    pass


@pytest.mark.parametrize("verb", sorted(_CODEC_VERBS))
def test_codec_verbs_k_limit_is_inclusive_and_stated(verb, monkeypatch, capsys):
    # a stub stands in for build_code: it records the call and stops the verb there
    built = []

    def stub(k, t, field):
        built.append((k, t))
        raise _Built

    monkeypatch.setattr(codec, "build_code", stub)
    with pytest.raises(_Built):
        cli.main([verb, "--k", "1024", "--t", "1", *_CODEC_VERBS[verb]])
    assert built == [(1024, 1)]
    # past the limit, nothing is built and no field is read
    monkeypatch.setattr(cli, "_field_from_env", None)
    for k in ("1025", "10000000000"):
        assert cli.main([verb, "--k", k, "--t", "1", *_CODEC_VERBS[verb]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: --k {k} ") and err.count("\n") == 1
    assert built == [(1024, 1)]
    with pytest.raises(SystemExit):
        cli.main([verb, "--help"])
    assert "at most 1024" in capsys.readouterr().out


def test_encode_bad_hex():
    res = npcode("encode", "--k", "4", "--t", "1", "--data", "0a0b")
    assert res.returncode == 2
    res = npcode("encode", "--k", "4", "--t", "1", "--data", "zz0b0c")
    assert res.returncode == 2


def test_field_poly_env_override():
    enc_a = npcode("encode", "--k", "3", "--t", "1", "--data", "0102")
    enc_b = npcode(
        "encode", "--k", "3", "--t", "1", "--data", "0102",
        env_extra={"NPC_FIELD_POLY": "0x11D"},
    )
    assert enc_a.returncode == enc_b.returncode == 0
    doc_b = json.loads(enc_b.stdout)
    assert doc_b["field"]["reduction_poly"] == "0x11D"
    rec = npcode(
        "recover", "--k", "3", "--t", "1",
        "--symbols", doc_b["symbols"], "--erased", "1",
        env_extra={"NPC_FIELD_POLY": "0x11D"},
    )
    assert json.loads(rec.stdout)["data"] == "0102"
    bad = npcode("encode", "--k", "3", "--t", "1", "--data", "0102",
                 env_extra={"NPC_FIELD_POLY": "0x11C"})
    assert bad.returncode == 2  # reducible polynomial


def test_simulate_from_graph_and_exit_codes():
    gen = npcode("generate", "--harary", "10", "3")
    ok = npcode(
        "simulate", "--k", "3", "--t", "1",
        "--sources", "v0", "--receivers", "v3,v5,v8",
        "--failures", "L2", stdin=gen.stdout,
    )
    assert ok.returncode == 0
    doc = json.loads(ok.stdout)
    assert doc["status"] == "recovered"
    over = npcode(
        "simulate", "--k", "3", "--t", "1",
        "--sources", "v0", "--receivers", "v3,v5,v8",
        "--failures", "L1,L2", stdin=gen.stdout,
    )
    assert over.returncode == 1
    assert json.loads(over.stdout)["status"] == "capacity exceeded"


def test_simulate_consumes_feasibility_report():
    gen = npcode("generate", "--harary", "10", "3")
    feas = npcode(
        "feasibility", "--sources", "v0", "--receivers", "v3,v5,v8", stdin=gen.stdout
    )
    sim = npcode("simulate", "--k", "3", "--t", "1", "--random", "1", stdin=feas.stdout)
    assert sim.returncode == 0
    infeasible = npcode("feasibility", "--graph", str(FIG2))
    sim2 = npcode("simulate", "--k", "3", "--t", "1", "--random", "1",
                  stdin=infeasible.stdout)
    assert sim2.returncode == 1


def test_simulate_deterministic_output():
    gen = npcode("generate", "--harary", "10", "3")
    runs = [
        npcode(
            "simulate", "--k", "3", "--t", "1",
            "--sources", "v0", "--receivers", "v3,v5,v8",
            "--random", "1", "--seed", "9", stdin=gen.stdout,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_simulate_wide_field():
    # GF(2^16) symbols do not fit uint8; the payload keeps the field's width
    gen = npcode("generate", "--harary", "10", "3")
    feas = npcode(
        "feasibility", "--sources", "v0", "--receivers", "v3,v5,v8", stdin=gen.stdout
    )
    res = npcode(
        "simulate", "--k", "3", "--t", "1", "--failures", "L2", "--blocks", "16",
        stdin=feas.stdout, env_extra={"NPC_FIELD_POLY": "0x1100B"},
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["recovered"] is True
    assert doc["mismatches"] == 0
    assert doc["field"] == {"m": 16, "reduction_poly": "0x1100B"}


def test_simulate_k_mismatch():
    gen = npcode("generate", "--harary", "10", "3")
    res = npcode(
        "simulate", "--k", "4", "--t", "1",
        "--sources", "v0", "--receivers", "v3,v5,v8",
        "--failures", "L1", stdin=gen.stdout,
    )
    assert res.returncode == 2


@pytest.mark.parametrize("blocks", ["0", "-3"])
def test_simulate_rejects_blocks_below_1(capsys, blocks):
    assert cli.main(["simulate", "--graph", str(FIG2), "--k", "3", "--t", "1",
                     "--failures", "L1", "--blocks", blocks]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "--blocks" in err and err.count("\n") == 1


def test_simulate_rejects_a_negative_random_count(capsys):
    assert cli.main(["simulate", "--graph", str(FIG2), "--k", "3", "--t", "1",
                     "--random", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --random must be at least 0, got -1\n"


def test_simulate_rejects_more_random_failures_than_paths(tmp_path, capsys):
    # refused before the graph is read: the library's own refusal named neither option
    assert cli.main(["simulate", "--graph", str(tmp_path / "missing.json"), "--k", "3", "--t", "1",
                     "--random", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --random must be at most --k (3), got 4\n"
    assert cli.main(["simulate", "--graph", str(FIG2), "--k", "3", "--t", "1",
                     "--random", "3"]) == 1  # every path fails, past t


def test_simulate_report_flags_must_be_booleans(tmp_path, capsys):
    # Fig. 2 is feasible only when its trees may reuse path edges
    assert cli.main(["feasibility", "--graph", str(FIG2), "--relaxed"]) == 0
    report = json.loads(capsys.readouterr().out)
    path = tmp_path / "report.json"

    def simulate(**fields):
        path.write_text(json.dumps({**report, **fields}))
        status = cli.main(["simulate", "--graph", str(path), "--k", "3", "--t", "1",
                           "--failures", "L1"])
        return status, capsys.readouterr()

    assert simulate()[0] == 0
    # the relaxed witness fails the strict recheck: its trees reuse path edges
    status, (out, err) = simulate(relaxed=False)
    assert (status, out) == (2, "")
    assert err.startswith("error: report witness does not verify: ") and err.count("\n") == 1
    for fields in ({"relaxed": "false"}, {"relaxed": None}, {"feasible": "false"}, {"feasible": 1}):
        status, (out, err) = simulate(**fields)
        assert (status, out) == (2, ""), fields
        assert err.startswith("error: ") and err.count("\n") == 1, fields


@pytest.mark.parametrize("poly, itemsize", [("", 1), ("0x1100B", 2)])
def test_simulate_refuses_payload_past_16_mib(monkeypatch, capsys, poly, itemsize):
    monkeypatch.setenv("NPC_FIELD_POLY", poly)

    def simulate(blocks):
        status = cli.main(["simulate", "--graph", str(FIG2), "--k", "3", "--t", "1",
                           "--failures", "L1", "--blocks", str(blocks)])
        return status, capsys.readouterr()

    # k - t = 2 symbols a block; at the limit the payload is drawn, and the
    # strict Fig. 2 instance is then infeasible (exit 1)
    most = 16 * 2**20 // (2 * itemsize)
    assert simulate(most)[0] == 1
    for blocks in (most + 1, 10**10):
        status, (out, err) = simulate(blocks)
        assert (status, out) == (2, "")
        assert err.startswith(f"error: --blocks {blocks} ") and err.count("\n") == 1


def test_graph_verbs_refuse_graphs_past_the_edge_limit(monkeypatch, tmp_path, capsys):
    # a stubbed limit of Fig. 2's edge count less one: each verb that reads a
    # graph refuses it right after the load, before any search (the searches
    # are stubbed out), and a graph at the limit is read.  The node limit is
    # one more: Fig. 2 less an edge, with isolated relays up to one node past
    # it, is refused too.
    for verb in ("connectivity", "feasibility", "simulate"):
        with pytest.raises(SystemExit):
            cli.main([verb, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "at most 200,000 edges and 200,001 nodes" in help_text, verb
    assert cli.main(["feasibility", "--graph", str(FIG2), "--relaxed"]) == 0
    report = tmp_path / "report.json"
    report.write_text(capsys.readouterr().out)
    fig2 = json.loads(FIG2.read_text())
    edges = len(fig2["edges"])
    sparse = dict(fig2, edges=fig2["edges"][1:], nodes=fig2["nodes"] + [
        {"id": f"x{i}", "role": "relay"} for i in range(edges + 1 - len(fig2["nodes"]))])
    sparse_graph = tmp_path / "sparse.json"
    sparse_graph.write_text(json.dumps(sparse))
    sparse_report = tmp_path / "sparse_report.json"
    doc = json.loads(report.read_text())
    doc["instance"]["graph"] = sparse
    sparse_report.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "_GENERATE_MAX_EDGES", edges - 1)
    monkeypatch.setattr(cli, "edge_connectivity", None)
    monkeypatch.setattr(cli, "node_connectivity", None)
    monkeypatch.setattr(feasibility, "check_single_source", None)
    monkeypatch.setattr(feasibility, "check_feasibility", None)
    monkeypatch.setattr(simulator, "run", None)
    sim = ["simulate", "--k", "3", "--t", "1", "--failures", "L1", "--graph"]
    for graph, report_path, refusal, limit in ((FIG2, report, f"{edges} edges", edges - 1),
                                               (sparse_graph, sparse_report, f"{edges + 1} nodes", edges)):
        for argv in (["connectivity", "--graph", str(graph)], ["feasibility", "--graph", str(graph)],
                     [*sim, str(graph)], [*sim, str(report_path)]):
            assert cli.main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: --graph has {refusal}; this verb reads at most {limit}\n"
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_GENERATE_MAX_EDGES", edges)
    assert cli.main(["connectivity", "--graph", str(FIG2)]) == 0
    assert json.loads(capsys.readouterr().out)["edges"] == edges
    assert cli.main(["connectivity", "--graph", str(sparse_graph)]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == edges + 1


_CROSSED = json.dumps({
    "nodes": [{"id": "s1", "role": "source"}, {"id": "s2", "role": "source"},
              {"id": "r1", "role": "receiver"}, {"id": "r2", "role": "receiver"}],
    "edges": [{"id": "e0", "u": "s1", "v": "r2"}, {"id": "e1", "u": "s2", "v": "r1"},
              {"id": "e2", "u": "s1", "v": "s2"}, {"id": "e3", "u": "r1", "v": "r2"}],
})


def _crossed_auto_report(tmp_path, capsys):
    # fixed pairing s1-r1, s2-r2 has no disjoint paths; auto pairs s1-r2, s2-r1
    graph_path = tmp_path / "crossed.json"
    graph_path.write_text(_CROSSED)
    assert cli.main(["feasibility", "--graph", str(graph_path), "--pairing", "auto",
                     "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pairing"] == ["r2", "r1"] and report["verified"] is True
    return report


def _simulate_report(tmp_path, capsys, report, *extra):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    status = cli.main(["simulate", "--graph", str(path), "--k", "2", "--t", "1", *extra])
    return status, capsys.readouterr()


def test_simulate_drills_the_reports_auto_pairing(tmp_path, capsys):
    report = _crossed_auto_report(tmp_path, capsys)
    status, (out, err) = _simulate_report(tmp_path, capsys, report, "--failures", "L1")
    assert (status, err) == (0, "")
    doc = json.loads(out)
    assert doc["status"] == "recovered"
    assert [(p["source"], p["receiver"], p["edges"]) for p in doc["provisioned"]] == [
        ("s1", "r2", ["e0"]), ("s2", "r1", ["e1"])
    ]
    assert doc["provisioned"] == report["paths"]


def test_simulate_report_input_never_solves(monkeypatch, tmp_path, capsys):
    report = _crossed_auto_report(tmp_path, capsys)

    def no_solve(*args, **kwargs):
        raise AssertionError("report input must not be solved again")

    monkeypatch.setattr(feasibility, "check_feasibility", no_solve)
    monkeypatch.setattr(simulator, "check_feasibility", no_solve)
    status, (out, err) = _simulate_report(tmp_path, capsys, report, "--random", "1")
    assert (status, err) == (0, "")
    assert json.loads(out)["recovered"] is True


@pytest.mark.parametrize("edit, reason", [
    (lambda r: r.update(paths=None), "report needs 'paths'"),
    (lambda r: r["paths"][0].update(nodes=[]), "report needs 'paths'"),
    (lambda r: r["paths"][0].update(edges="e0"), "report needs 'paths'"),
    (lambda r: r.update(source_tree=None), "report needs 'paths'"),
    (lambda r: r.update(pairing="r2,r1"), "report needs 'paths'"),
    (lambda r: r["paths"][0].update(edges=["e3"]), "does not verify: paths invalid"),
    (lambda r: r.update(pairing=None), "does not verify: path endpoints"),
    (lambda r: r.update(pairing=["r2", "r2"]), "does not verify: pairing"),
    (lambda r: r.update(source_tree=[]), "does not verify: source tree missing"),
], ids=["no-paths", "empty-nodes", "string-edges", "null-tree", "string-pairing",
        "wrong-edge", "fixed-pairing", "repeated-receiver", "no-source-tree"])
def test_simulate_rejects_a_witness_that_does_not_verify(tmp_path, capsys, edit, reason):
    report = _crossed_auto_report(tmp_path, capsys)
    edit(report)
    status, (out, err) = _simulate_report(tmp_path, capsys, report, "--failures", "L1")
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and reason in err and err.count("\n") == 1


def test_simulate_names_odd_ids_on_one_error_line(tmp_path, capsys):
    # receiver r1 renamed "r\nx": with the report's two paths swapped, the
    # endpoint message quotes the id, so the newline stays inside one line
    graph_path = tmp_path / "crossed.json"
    graph_path.write_text(_CROSSED.replace('"r1"', '"r\\nx"'))
    assert cli.main(["feasibility", "--graph", str(graph_path), "--pairing", "auto"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pairing"] == ["r2", "r\nx"]
    report["paths"].reverse()
    status, (out, err) = _simulate_report(tmp_path, capsys, report, "--failures", "L1")
    assert (status, out) == (2, "")
    assert err.startswith("error: report witness does not verify: path endpoints ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "'r\\nx'" in err


def test_schema_error_exit_2():
    res = npcode("connectivity", stdin="{\"nodes\": 5}")
    assert res.returncode == 2
    res = npcode("feasibility", "--graph", "/no/such/file")
    assert res.returncode == 2


_H10 = json.loads(graph.save(construction.harary(10, 3)))


@pytest.mark.parametrize("instance", [
    5,
    {},
    {"graph": _H10, "sources": 5, "receivers": ["v3", "v5", "v8"]},
    {"graph": _H10, "sources": ["v0"], "receivers": ["v5"], "num_paths": "x"},
], ids=["number", "empty", "number-sources", "string-num-paths"])
def test_simulate_rejects_malformed_report_instance(tmp_path, capsys, instance):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"feasible": True, "instance": instance}))
    assert cli.main(["simulate", "--graph", str(path), "--k", "3", "--t", "1",
                     "--failures", "L1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
