#!/usr/bin/env python3
"""Time edge and node connectivity as graphs grow.

Runs three calls on each instance:

- `edge_connectivity`, with its cut witness;
- `node_connectivity`, with its separator witness;
- `check_single_source` from v0 to k receivers spread around the node
  order, which is one shared-source max-flow plus `is_k_edge_connected`,
  so mostly an edge connectivity.

The instances are Harary graphs H(k,n), where every sink of a flow from
one source lies next to the one before it, and seeded random graphs of
n nodes and m edges (a random spanning tree, then distinct random node
pairs), whose average degree is 2m/n.

For each instance it prints the best time of --repeat runs of each call
in ms, the two connectivities and the single-source verdict.  --out FILE
writes the same as JSON, with the host.

Usage:
    PYTHONPATH=src python benchmarks/bench_connectivity.py [--instances NAME ...] [--repeat R] [--out FILE]
"""

import argparse
import json
import os
import platform
import random

from bench_gf_kernels import _best_of
from bench_search import _cpu_model
from npcode.connectivity import edge_connectivity, node_connectivity
from npcode.construction import harary
from npcode.feasibility import ProtectionInstance, check_single_source
from npcode.graph import Graph

SINGLE_SOURCE_K = 4  # receivers of the single-source check on a random graph


def _random_graph(n, m, seed):
    rng = random.Random(seed)
    g = Graph()
    ids = [g.add_node("relay", f"v{i}") for i in range(n)]
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    while len(pairs) < m:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    for u, v in sorted(pairs):
        g.add_edge(ids[u], ids[v])
    return g


def _single_source(g, k):
    n = g.num_nodes
    return ProtectionInstance(g, ["v0"], [f"v{(i + 1) * n // (k + 1)}" for i in range(k)])


INSTANCES = {f"H{k}-{n}": (f"H({k},{n})", lambda n=n, k=k: (harary(n, k), k))
             for k, n in ((4, 200), (4, 800), (8, 800))}
INSTANCES.update({f"R{n}-{m}": (f"random n={n} m={m}",
                                lambda n=n, m=m: (_random_graph(n, m, n), SINGLE_SOURCE_K))
                  for n, m in ((200, 2000), (400, 4000))})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", nargs="+", choices=list(INSTANCES), default=list(INSTANCES))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", help="write the results to this JSON file")
    args = parser.parse_args()

    print(f"connectivity, best of {args.repeat}")
    print(f"  {'instance':20} {'edges':>6} {'edge ms':>9} {'node ms':>9} {'single ms':>10}"
          f" {'lambda':>6} {'kappa':>6} {'single':>8}")
    results = []
    for name in args.instances:
        label, make = INSTANCES[name]
        g, k = make()
        inst = _single_source(g, k)
        edge_s, edge = _best_of(args.repeat, lambda: edge_connectivity(g))
        node_s, node = _best_of(args.repeat, lambda: node_connectivity(g))
        single_s, single = _best_of(args.repeat, lambda: check_single_source(inst))
        verdict = "feasible" if single.feasible else single.failure_reason
        print(f"  {label:20} {g.num_edges:6d} {edge_s * 1e3:9.1f} {node_s * 1e3:9.1f}"
              f" {single_s * 1e3:10.1f} {edge.value:6d} {node.value:6d} {verdict:>8}")
        results.append({"instance": label, "nodes": g.num_nodes, "edges": g.num_edges,
                         "edge_ms": round(edge_s * 1e3, 2), "node_ms": round(node_s * 1e3, 2),
                         "single_source_ms": round(single_s * 1e3, 2),
                         "edge_connectivity": edge.value, "node_connectivity": node.value,
                         "single_source": {"k": k, "verdict": verdict,
                                           "k_edge_connected": single.k_edge_connected}})
    if args.out:
        record = {"repeat": args.repeat, "cpu": _cpu_model(), "cores": os.cpu_count(),
                  "python": platform.python_version(), "results": results}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
