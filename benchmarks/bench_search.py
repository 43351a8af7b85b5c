#!/usr/bin/env python3
"""Time the exact feasibility search on the instances no first path set settles.

Runs `check_feasibility`'s search, `feasibility._search` on the pairs'
snapshot, strict on two families and relaxed on a third, and strict
`check_feasibility` with pairing="auto" on a fourth:

- multi-pair H(4,n), pairs v_i -> v_{n/2+i} for i < 4: infeasible with
  no cut certificate, so the search walks the used-edge sets to the end
  (a search that reaches its state budget first reads "budget");
- two K6 blocks a1..a6 and b1..b6 joined by the bridge a6-b6, sources
  a1,b1 and receivers a2,b2: both trees must cross the bridge, so a cut
  certificate settles it;
- the same on two K5, K6 and K7 blocks in relaxed mode, where the trees
  may reuse path edges but the one bridge edge is still fewer than the
  two trees that must cross it;
- auto-paired multi H(4,n), pairs v_i -> v_{n/2+i} for i < 5 and i < 6,
  where any source may serve any receiver: the given pairing is
  infeasible, so the call searches on until some pairing answers.

For each instance it prints the best time of --repeat runs in ms, the
verdict (the failure reason, or "feasible") and the search states the
snapshot spent (for auto, every search of the call, on its one budget).
--out FILE writes the same as JSON, with the host.

Usage:
    PYTHONPATH=src python benchmarks/bench_search.py [--instances NAME ...] [--repeat R] [--out FILE]
"""

import argparse
import json
import os
import platform
from itertools import combinations

from bench_gf_kernels import _best_of
from npcode import connectivity, feasibility
from npcode.construction import harary
from npcode.graph import Graph

SIZES = (10, 12, 14, 16, 18)
AUTO_SIZES = (12, 14, 16)


def _multi_h4(n, k=4):
    g = harary(n, 4)
    half = n // 2
    return g, [f"v{i}" for i in range(k)], [f"v{half + i}" for i in range(k)]


def _km_bridge(m):
    """Two K_m blocks on the bridge am-bm, sources a1,b1 and receivers a2,b2.
    For m = 6 it is the graph of tests/data/k6_bridge.json, less the roles."""
    g = Graph()
    for block in "ab":
        ids = [g.add_node("relay", f"{block}{i}") for i in range(1, m + 1)]
        for u, v in combinations(ids, 2):
            g.add_edge(u, v)
    g.add_edge(f"a{m}", f"b{m}")
    return g, ["a1", "b1"], ["a2", "b2"]


# name -> (label, instance maker, pairing mode, relaxed)
INSTANCES = {f"H4-{n}": (f"multi H(4,{n})", lambda n=n: _multi_h4(n), "fixed", False)
             for n in SIZES}
INSTANCES["2xK6-bridge"] = ("2xK6 bridge", lambda: _km_bridge(6), "fixed", False)
INSTANCES.update({f"relaxed-K{m}-bridge": (f"relaxed 2xK{m}", lambda m=m: _km_bridge(m), "fixed", True)
                  for m in (5, 6, 7)})
INSTANCES.update({f"auto-H4-{n}x{k}": (f"auto H(4,{n}) x{k}", lambda n=n, k=k: _multi_h4(n, k),
                                       "auto", False)
                  for k in (5, 6) for n in AUTO_SIZES})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", nargs="+", choices=list(INSTANCES), default=list(INSTANCES))
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", help="write the results to this JSON file")
    args = parser.parse_args()

    print(f"feasibility search, best of {args.repeat}")
    print(f"  {'instance':16} {'edges':>6} {'ms':>10} {'verdict':>14} {'states':>10}")
    results = []
    for name in args.instances:
        label, make, pairing, relaxed = INSTANCES[name]
        g, sources, receivers = make()
        run = _search if pairing == "fixed" else _auto
        best, (report, states) = _best_of(args.repeat, lambda: run(g, sources, receivers, relaxed))
        verdict = ("budget" if report is None else
                   "feasible" if report.feasible else report.failure_reason)
        print(f"  {label:16} {g.num_edges:6d} {best * 1e3:10.1f} {verdict:>14} {states:10,d}")
        results.append({"instance": label, "pairing": pairing, "relaxed": relaxed,
                         "edges": g.num_edges, "ms": round(best * 1e3, 2),
                         "verdict": verdict, "certificate": bool(report and report.certificate),
                         "states": states})
    if args.out:
        record = {"repeat": args.repeat, "cpu": _cpu_model(), "cores": os.cpu_count(),
                  "python": platform.python_version(), "results": results}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


def _search(g, sources, receivers, relaxed):
    """(report, states spent) of one search with the fixed pairing; the
    report is None when the search reached its state budget."""
    snap = connectivity._pair_snapshot(g, list(zip(sources, receivers)))
    try:
        report = feasibility._search(snap, sources, receivers, relaxed)
    except connectivity.SearchBudgetExceeded:
        report = None
    return report, snap.spent


def _auto(g, sources, receivers, relaxed):
    """(report, states spent) of one `check_feasibility` with pairing="auto";
    the report is None when the call reached its state budget.  Its searches
    share one budget, each snapshot going on from the last one's count, so
    the last snapshot built holds the call's states."""
    snaps = []
    make = feasibility._pair_snapshot

    def recorded(*args):
        snaps.append(make(*args))
        return snaps[-1]

    feasibility._pair_snapshot = recorded
    inst = feasibility.ProtectionInstance(g, sources, receivers)
    try:
        report = feasibility.check_feasibility(inst, relaxed, pairing="auto")
    except connectivity.SearchBudgetExceeded:
        report = None
    finally:
        feasibility._pair_snapshot = make
    return report, snaps[-1].spent


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


if __name__ == "__main__":
    main()
