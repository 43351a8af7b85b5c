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

import numpy as np

from . import construction, feasibility, simulator
from .codec import (
    CapacityExceededError,
    InconsistentSymbolsError,
    build_code,
    encode_blocks,
    recover_blocks,
)
from .connectivity import SearchBudgetExceeded, edge_connectivity, node_connectivity
from .galois import DEFAULT_M, FieldContext
from .graph import Graph, GraphError, load, save

__all__ = ["main"]


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


def _field_from_env() -> FieldContext:
    raw = os.environ.get("NPC_FIELD_POLY", "").strip()
    if not raw:
        return FieldContext(DEFAULT_M)
    try:
        poly = int(raw, 16)
        return FieldContext(poly.bit_length() - 1, poly)
    except ValueError as exc:
        raise _UsageError(f"bad NPC_FIELD_POLY {raw!r}: {exc}") from exc


def _field_json(field: FieldContext) -> dict:
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
    if report.pairing is not None and len(inst.sources) > 1:
        pairs = list(zip(inst.sources, report.pairing))
    else:
        pairs = inst.pairs()
    return {
        "feasible": report.feasible,
        "failure_reason": report.failure_reason,
        "relaxed": report.relaxed,
        "pairing": list(report.pairing) if report.pairing else None,
        "k_edge_connected": report.k_edge_connected,
        "hamiltonian": report.hamiltonian,
        "paths": _paths_json(report.paths, pairs) if report.paths else None,
        "source_tree": list(report.source_tree),
        "receiver_tree": list(report.receiver_tree),
        "certificate": list(report.certificate),
        "instance": _instance_json(inst),
    }


# -- verbs ----------------------------------------------------------------------


def _cmd_generate(args) -> int:
    if args.harary:
        n, k = args.harary
        g = construction.harary(n, k)
    else:
        n, k, mode = args.minimal_witness
        inst = construction.build_minimal_witness(int(n), int(k), mode.replace("-", "_"))
        g = inst.graph
    print(save(g))
    return 0


def _cmd_connectivity(args) -> int:
    g = load(_read_text(args.graph))
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
    g = load(_read_text(args.graph))
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


def _parse_symbols(raw: str, field: FieldContext) -> np.ndarray:
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


def _format_symbols(symbols: np.ndarray, field: FieldContext) -> str:
    """An (n, cols) symbol array as hex, block by block, most significant byte first."""
    return np.ascontiguousarray(symbols, dtype=field.symbol_dtype.newbyteorder(">")).tobytes().hex()


def _cmd_encode(args) -> int:
    field = _field_from_env()
    code = build_code(args.k, args.t, field)
    values = _parse_symbols(args.data, field)
    d = code.data_len
    if not values.size or values.size % d:
        raise _UsageError(f"data must be a positive multiple of k-t = {d} symbols")
    codewords = encode_blocks(code, values.reshape(-1, d))
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
    field = _field_from_env()
    code = build_code(args.k, args.t, field)
    values = _parse_symbols(args.symbols, field)
    if not values.size or values.size % args.k:
        raise _UsageError(f"symbols must be a positive multiple of k = {args.k}")
    erased = _parse_positions(args.erased, args.k) if args.erased else []
    data = recover_blocks(code, values.reshape(-1, args.k), erased)
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


def _simulate_input(args):
    doc = json.loads(_read_text(args.graph))
    if isinstance(doc, dict) and "feasible" in doc and "instance" in doc:
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
        g = load(json.dumps(inst_doc["graph"]))
        inst = feasibility.ProtectionInstance(
            g, inst_doc["sources"], inst_doc["receivers"], inst_doc.get("num_paths")
        )
        return inst, bool(doc.get("relaxed", False))
    g = load(json.dumps(doc))
    return _instance_from_args(g, args), False


def _cmd_simulate(args) -> int:
    inst, relaxed = _simulate_input(args)
    if inst.k != args.k:
        raise _UsageError(f"instance provisions k={inst.k} paths but --k is {args.k}")
    field = _field_from_env()
    code = build_code(args.k, args.t, field)
    rng = random.Random(args.seed)
    payload = [
        [rng.randrange(field.order) for _ in range(code.data_len)]
        for _ in range(args.blocks)
    ]
    labels = simulator.path_labels(args.k)
    if args.failures is not None:
        positions = _parse_positions(args.failures, args.k)
        model = simulator.ExplicitFailures(tuple(labels[p] for p in positions))
    else:
        model = simulator.RandomFailures(args.random, args.seed)
    sc = simulator.Scenario(inst, code, np.array(payload), model, relaxed=relaxed)
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
            "provisioned": _paths_json(report.provisioned, inst.pairs()),
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

    p = sub.add_parser("generate", help="emit a graph as JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--harary", nargs=2, type=int, metavar=("N", "K"))
    group.add_argument(
        "--minimal-witness", nargs=3, metavar=("N", "K", "MODE"),
        help="MODE: single_source or predetermined",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("connectivity", help="edge and node connectivity with witnesses")
    p.add_argument("--graph", default="-", help="graph JSON file, - for stdin")
    p.set_defaults(func=_cmd_connectivity)

    p = sub.add_parser("feasibility", help="decide protection deployability")
    p.add_argument("--graph", default="-")
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

    p = sub.add_parser("encode", help="encode hex symbol blocks")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--data", required=True, help="hex string, (k-t)-symbol blocks")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("recover", help="recover data from erased codewords")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--symbols", required=True, help="hex string, k-symbol blocks")
    p.add_argument("--erased", help="1-based erased positions, e.g. 2,5 or L2,L5")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("simulate", help="full protection drill on a graph or report")
    p.add_argument("--graph", default="-", help="graph or feasibility-report JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--sources")
    p.add_argument("--receivers")
    failure = p.add_mutually_exclusive_group(required=True)
    failure.add_argument("--failures", help="path labels to fail, e.g. L1,L3")
    failure.add_argument("--random", type=int, metavar="N", help="fail N random paths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=4)
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
    except _DomainNegative as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except feasibility.InfeasibleInstanceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (CapacityExceededError, InconsistentSymbolsError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, SearchBudgetExceeded, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
