"""Command line front end over the JSON graph format.

Verbs: generate, connectivity, feasibility, bounds, encode, recover,
simulate.  Results go to stdout as JSON, diagnostics to stderr.  Exit
codes: 0 success/feasible/recovered, 1 domain-negative (infeasible,
unrecoverable), 2 usage or input errors, or stdout closed before the
output was written.  NPC_FIELD_POLY overrides the GF(2^m) reduction
polynomial (hex, bit width inferred from the degree).
"""

from __future__ import annotations

import argparse
import binascii
import json
import os
import random
import sys
from pathlib import Path as FilePath

# codec, galois and simulator load numpy: the graph verbs never touch them
from . import codec, construction, feasibility, galois, simulator
from .connectivity import SearchBudgetExceeded, edge_connectivity, node_connectivity
from .graph import DisjointPathSet, Graph, Path, load, save

__all__ = ["main"]

# Work limits, checked before any work.  _GENERATE_MAX_EDGES bounds the
# graphs `generate` builds and those `connectivity`, `feasibility` and
# `simulate` read; these also read at most one more node than that, the
# most `generate` emits (`--minimal-witness 200001 1 single_source`).
# At each limit, on a 2-core host:
# `generate --harary 100000 4` took 2.5 s and 352 MB peak, a 16 MiB
# `simulate` payload (k=3, t=1) 0.6 s and 143 MB, and `build_code` on
# GF(2^16) 0.03 s at k = 1024, t = 512, where one-block `encode` took
# 1.4 s and 557 MB, nearly all in the kernel's tables for the parity.
_GENERATE_MAX_EDGES = 200_000
_SIMULATE_MAX_PAYLOAD = 16 * 2**20
_CODE_MAX_K = 1024


class _UsageError(Exception):
    pass


class _DomainNegative(Exception):
    pass


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return FilePath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _field_from_env() -> galois.FieldContext:
    raw = os.environ.get("NPC_FIELD_POLY", "").strip()
    if not raw:
        return galois.FieldContext(galois.DEFAULT_M)
    try:
        poly = int(raw, 16)
        return galois.FieldContext(poly.bit_length() - 1, poly)
    except ValueError as exc:
        raise _UsageError(f"bad NPC_FIELD_POLY {raw!r}: {exc}") from exc


def _field_json(field: galois.FieldContext) -> dict:
    return {"m": field.m, "reduction_poly": f"0x{field.reduction_poly:X}"}


def _split_ids(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def _graph_json(g: Graph) -> dict:
    return json.loads(save(g))


def _paths_json(paths, pairs) -> list[dict]:
    out = []
    for i, (p, (s, r)) in enumerate(zip(paths, pairs)):
        out.append(
            {
                "label": f"L{i + 1}",
                "source": s,
                "receiver": r,
                "nodes": list(p.nodes),
                "edges": list(p.edges),
            }
        )
    return out


def _instance_json(inst: feasibility.ProtectionInstance) -> dict:
    return {
        "graph": _graph_json(inst.graph),
        "sources": list(inst.sources),
        "receivers": list(inst.receivers),
        "num_paths": inst.num_paths,
    }


def _report_json(inst, report) -> dict:
    return {
        "feasible": report.feasible,
        "failure_reason": report.failure_reason,
        "relaxed": report.relaxed,
        "pairing": list(report.pairing) if report.pairing else None,
        "k_edge_connected": report.k_edge_connected,
        "hamiltonian": report.hamiltonian,
        "paths": _paths_json(report.paths, inst.pairs(report.pairing)) if report.paths else None,
        "source_tree": list(report.source_tree),
        "receiver_tree": list(report.receiver_tree),
        "certificate": list(report.certificate),
        "instance": _instance_json(inst),
    }


# -- verbs ----------------------------------------------------------------------


def _check_edges(option: str, n: int, k: int, edges: int) -> None:
    if edges > _GENERATE_MAX_EDGES:
        raise _UsageError(
            f"{option} {n} {k} would build {edges} edges; generate builds at most "
            f"{_GENERATE_MAX_EDGES}"
        )


def _load_graph(text: str) -> Graph:
    """The graph of a JSON document, refused past the edge or node limit before any search."""
    g = load(text)
    if g.num_edges > _GENERATE_MAX_EDGES:
        raise _UsageError(
            f"--graph has {g.num_edges} edges; this verb reads at most {_GENERATE_MAX_EDGES}"
        )
    if g.num_nodes > _GENERATE_MAX_EDGES + 1:
        raise _UsageError(
            f"--graph has {g.num_nodes} nodes; this verb reads at most {_GENERATE_MAX_EDGES + 1}"
        )
    return g


def _cmd_generate(args) -> int:
    if args.harary:
        n, k = args.harary
        _check_edges("--harary", n, k, (k * n + 1) // 2)
        g = construction.harary(n, k)
    else:
        n, k, mode = args.minimal_witness
        n, k = int(n), int(k)
        _check_edges("--minimal-witness", n, k, n + k - 2)
        g = construction.build_minimal_witness(n, k, mode.replace("-", "_")).graph
    print(save(g))
    return 0


def _cmd_connectivity(args) -> int:
    g = _load_graph(_read_text(args.graph))
    ec = edge_connectivity(g)
    nc = node_connectivity(g)
    _emit(
        {
            "nodes": g.num_nodes,
            "edges": g.num_edges,
            "edge_connectivity": {"value": ec.value, "witness": list(ec.witness)},
            "node_connectivity": {"value": nc.value, "witness": list(nc.witness)},
        }
    )
    return 0


def _instance_from_args(g: Graph, args) -> feasibility.ProtectionInstance:
    sources = _split_ids(getattr(args, "sources", None)) or g.nodes_with_role("source")
    receivers = _split_ids(getattr(args, "receivers", None)) or g.nodes_with_role("receiver")
    if not sources or not receivers:
        raise _UsageError("no sources/receivers given and none tagged in the graph")
    return feasibility.ProtectionInstance(g, sources, receivers)


def _cmd_feasibility(args) -> int:
    g = _load_graph(_read_text(args.graph))
    inst = _instance_from_args(g, args)
    if len(inst.sources) == 1:
        report = feasibility.check_single_source(inst, relaxed=args.relaxed)
    else:
        report = feasibility.check_feasibility(inst, relaxed=args.relaxed, pairing=args.pairing)
    doc = _report_json(inst, report)
    if args.verify and (report.feasible or report.certificate):
        problems = feasibility.verify_report(inst, report)
        doc["verified"] = not problems
        if problems:
            print("; ".join(problems), file=sys.stderr)
    _emit(doc)
    return 0 if report.feasible else 1


def _cmd_bounds(args) -> int:
    n, k = args.n, args.k
    fns = {
        "single-source": construction.min_edges_single_source,
        "predetermined": construction.min_edges_predetermined,
        "arbitrary": construction.min_edges_arbitrary,
        "harary": construction.harary_lower_bound,
    }
    if args.mode != "all":
        value = fns[args.mode](n, k)
        _emit({"n": n, "k": k, "mode": args.mode, "value": value})
        return 0
    doc = {"n": n, "k": k}
    for name, fn in fns.items():
        try:
            doc[name.replace("-", "_")] = fn(n, k)
        except ValueError:
            doc[name.replace("-", "_")] = None
    _emit(doc)
    return 0


def _parse_symbols(raw: str, field: galois.FieldContext):
    import numpy as np

    width = 2 * field.symbol_dtype.itemsize
    raw = raw.strip().lower().removeprefix("0x")
    if len(raw) % width:
        raise _UsageError(f"hex length must be a multiple of {width} chars per symbol")
    try:
        values = np.frombuffer(binascii.unhexlify(raw), dtype=field.symbol_dtype.newbyteorder(">"))
    except ValueError as exc:
        raise _UsageError(f"bad hex data: {exc}") from exc
    too_big = values[values >= field.order]
    if too_big.size:
        raise _UsageError(f"symbol 0x{int(too_big[0]):X} exceeds field order {field.order}")
    return values


def _format_symbols(symbols, field: galois.FieldContext) -> str:
    """An (n, cols) symbol array as hex, block by block, most significant byte first."""
    import numpy as np

    return np.ascontiguousarray(symbols, dtype=field.symbol_dtype.newbyteorder(">")).tobytes().hex()


def _code(args):
    """The field and the (k, t) code of a codec verb, once --k is within its limit."""
    if args.k > _CODE_MAX_K:
        raise _UsageError(f"--k {args.k} is past the limit of {_CODE_MAX_K} symbols per codeword")
    field = _field_from_env()
    return field, codec.build_code(args.k, args.t, field)


def _cmd_encode(args) -> int:
    field, code = _code(args)
    values = _parse_symbols(args.data, field)
    d = code.data_len
    if not values.size or values.size % d:
        raise _UsageError(f"data must be a positive multiple of k-t = {d} symbols")
    codewords = codec.encode_blocks(code, values.reshape(-1, d))
    _emit(
        {
            "k": args.k,
            "t": args.t,
            "field": _field_json(field),
            "blocks": len(codewords),
            "symbols": _format_symbols(codewords, field),
        }
    )
    return 0


def _parse_positions(raw: str, k: int) -> list[int]:
    """1-based positions or L-labels to 0-based indices."""
    out = []
    for token in _split_ids(raw):
        body = token[1:] if token[:1] in ("L", "l") else token
        try:
            pos = int(body)
        except ValueError as exc:
            raise _UsageError(f"bad path/position {token!r}") from exc
        if not 1 <= pos <= k:
            raise _UsageError(f"position {token!r} outside 1..{k}")
        out.append(pos - 1)
    return sorted(set(out))


def _cmd_recover(args) -> int:
    field, code = _code(args)
    values = _parse_symbols(args.symbols, field)
    if not values.size or values.size % args.k:
        raise _UsageError(f"symbols must be a positive multiple of k = {args.k}")
    erased = _parse_positions(args.erased, args.k) if args.erased else []
    try:
        data = codec.recover_blocks(code, values.reshape(-1, args.k), erased)
    except (codec.CapacityExceededError, codec.InconsistentSymbolsError) as exc:
        raise _DomainNegative(str(exc)) from exc
    _emit(
        {
            "k": args.k,
            "t": args.t,
            "field": _field_json(field),
            "blocks": len(data),
            "erased": [p + 1 for p in erased],
            "data": _format_symbols(data, field),
        }
    )
    return 0


def _is_id_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _witness(doc: dict, inst, relaxed: bool) -> feasibility.FeasibilityReport:
    """A feasible report's witness, read from its JSON and re-verified on the instance."""
    paths, pairing = doc.get("paths"), doc.get("pairing")
    if not (
        isinstance(paths, list)
        and all(
            isinstance(p, dict) and _is_id_list(p.get("nodes")) and p["nodes"]
            and _is_id_list(p.get("edges"))
            for p in paths
        )
        and all(_is_id_list(doc.get(key)) for key in ("source_tree", "receiver_tree"))
        and (pairing is None or _is_id_list(pairing))
    ):
        raise _UsageError(
            "report needs 'paths' of objects with non-empty 'nodes' and 'edges' lists of "
            "ids, 'source_tree' and 'receiver_tree' lists of edge ids, and a 'pairing' "
            "list of receiver ids or null"
        )
    report = feasibility.FeasibilityReport(
        True,
        DisjointPathSet(tuple(Path(tuple(p["nodes"]), tuple(p["edges"])) for p in paths)),
        tuple(doc["source_tree"]),
        tuple(doc["receiver_tree"]),
        relaxed=relaxed,
        pairing=None if pairing is None else tuple(pairing),
    )
    problems = feasibility.verify_report(inst, report)
    if problems:
        raise _UsageError(f"report witness does not verify: {'; '.join(problems)}")
    return report


def _simulate_input(args):
    """The instance to drill, with a report's verified witness paths and pairing.

    A graph carries neither, so both are None and simulate solves the
    instance strict.
    """
    doc = json.loads(_read_text(args.graph))
    if isinstance(doc, dict) and "feasible" in doc and "instance" in doc:
        relaxed = doc.get("relaxed", False)
        if not isinstance(doc["feasible"], bool) or not isinstance(relaxed, bool):
            raise _UsageError("report 'feasible' and 'relaxed' must be JSON booleans")
        if not doc["feasible"]:
            raise _DomainNegative("input feasibility report is infeasible")
        inst_doc = doc["instance"]
        if not (
            isinstance(inst_doc, dict)
            and "graph" in inst_doc
            and all(_is_id_list(inst_doc.get(key)) for key in ("sources", "receivers"))
            and (inst_doc.get("num_paths") is None or type(inst_doc["num_paths"]) is int)
        ):
            raise _UsageError(
                "report 'instance' needs a graph, lists of node ids for sources and "
                "receivers, and an integer or null num_paths"
            )
        g = _load_graph(json.dumps(inst_doc["graph"]))
        inst = feasibility.ProtectionInstance(
            g, inst_doc["sources"], inst_doc["receivers"], inst_doc.get("num_paths")
        )
        witness = _witness(doc, inst, relaxed)
        return inst, witness.paths, witness.pairing
    g = _load_graph(json.dumps(doc))
    return _instance_from_args(g, args), None, None


def _cmd_simulate(args) -> int:
    if args.blocks < 1:
        raise _UsageError(f"--blocks must be at least 1, got {args.blocks}")
    if args.random is not None and args.random < 0:
        raise _UsageError(f"--random must be at least 0, got {args.random}")
    field, code = _code(args)
    inst, paths, pairing = _simulate_input(args)
    if inst.k != args.k:
        raise _UsageError(f"instance provisions k={inst.k} paths but --k is {args.k}")
    dtype = field.symbol_dtype
    size = args.blocks * code.data_len * dtype.itemsize
    if size > _SIMULATE_MAX_PAYLOAD:
        raise _UsageError(
            f"--blocks {args.blocks} would draw a {size}-byte payload; simulate draws at "
            f"most {_SIMULATE_MAX_PAYLOAD} bytes ({_SIMULATE_MAX_PAYLOAD >> 20} MiB)"
        )
    import numpy as np

    draw = random.Random(args.seed).randbytes(size)
    payload = (np.frombuffer(draw, dtype=dtype) & field.order - 1).reshape(args.blocks, code.data_len)
    labels = simulator.path_labels(args.k)
    if args.failures is not None:
        positions = _parse_positions(args.failures, args.k)
        model = simulator.ExplicitFailures(tuple(labels[p] for p in positions))
    else:
        model = simulator.RandomFailures(args.random, args.seed)
    sc = simulator.Scenario(inst, code, payload, model, provisioned=paths)
    report = simulator.run(sc)
    _emit(
        {
            "status": report.status,
            "recovered": report.recovered,
            "mismatches": report.mismatches,
            "capacity_exceeded": report.capacity_exceeded,
            "failed_paths": list(report.failed_paths),
            "k": args.k,
            "t": args.t,
            "field": _field_json(field),
            "blocks": args.blocks,
            "seed": args.seed,
            "provisioned": _paths_json(report.provisioned, inst.pairs(pairing)),
        }
    )
    return 0 if report.recovered else 1


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npcode",
        description="Erasure protection codes and the graphs that can carry them.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser(
        "generate", help="emit a graph as JSON",
        description=f"Emit a graph of at most {_GENERATE_MAX_EDGES:,} edges as JSON.",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--harary", nargs=2, type=int, metavar=("N", "K"),
                       help="H(K,N): ceil(K*N/2) edges")
    group.add_argument(
        "--minimal-witness", nargs=3, metavar=("N", "K", "MODE"),
        help="N+K-2 edges; MODE: single_source or predetermined",
    )
    p.set_defaults(func=_cmd_generate)

    graph_limit = f"at most {_GENERATE_MAX_EDGES:,} edges and {_GENERATE_MAX_EDGES + 1:,} nodes"
    graph_help = f"graph JSON file, - for stdin; {graph_limit}"
    p = sub.add_parser("connectivity", help="edge and node connectivity with witnesses")
    p.add_argument("--graph", default="-", help=graph_help)
    p.set_defaults(func=_cmd_connectivity)

    p = sub.add_parser("feasibility", help="decide protection deployability")
    p.add_argument("--graph", default="-", help=graph_help)
    p.add_argument("--sources", help="comma-separated node ids (default: role tags)")
    p.add_argument("--receivers", help="comma-separated node ids (default: role tags)")
    p.add_argument("--relaxed", action="store_true", help="let trees reuse path edges")
    p.add_argument("--pairing", choices=("fixed", "auto"), default="fixed")
    p.add_argument("--verify", action="store_true",
                   help="re-verify the witness or certificate independently")
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("bounds", help="minimum-edge formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=("all", "single-source", "predetermined", "arbitrary", "harary"),
        default="all",
    )
    p.set_defaults(func=_cmd_bounds)

    k_help = f"symbols per codeword, at most {_CODE_MAX_K}"
    p = sub.add_parser("encode", help="encode hex symbol blocks")
    p.add_argument("--k", type=int, required=True, help=k_help)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--data", required=True, help="hex string, (k-t)-symbol blocks")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("recover", help="recover data from erased codewords")
    p.add_argument("--k", type=int, required=True, help=k_help)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--symbols", required=True, help="hex string, k-symbol blocks")
    p.add_argument("--erased", help="1-based erased positions, e.g. 2,5 or L2,L5")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("simulate", help="full protection drill on a graph or report")
    p.add_argument("--graph", default="-",
                   help=f"graph or feasibility-report JSON; {graph_limit}")
    p.add_argument("--k", type=int, required=True, help=k_help)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--sources")
    p.add_argument("--receivers")
    failure = p.add_mutually_exclusive_group(required=True)
    failure.add_argument("--failures", help="path labels to fail, e.g. L1,L3")
    failure.add_argument("--random", type=int, metavar="N", help="fail N random paths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=4,
                   help=f"payload blocks of k-t symbols, at most "
                        f"{_SIMULATE_MAX_PAYLOAD >> 20} MiB in all")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early; with stdout on devnull, the
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2
    # recover raises its codec errors as _DomainNegative: naming a codec
    # class here would load the codec, and numpy, on a graph verb's error
    except (_DomainNegative, feasibility.InfeasibleInstanceError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    # below the exit-1 group, whose library errors are ValueErrors too, as
    # are GraphError and json.JSONDecodeError
    except (_UsageError, SearchBudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
