#!/usr/bin/env python3
"""Time the exact feasibility search on the instances no first path set settles.

Runs strict `check_feasibility`'s search, `feasibility._search` on the
pairs' snapshot, on two families:

- multi-pair H(4,n), pairs v_i -> v_{n/2+i} for i < 4: infeasible with
  no cut certificate, so the search walks the used-edge sets to the end
  (a search that reaches its state budget first reads "budget");
- two K6 blocks a1..a6 and b1..b6 joined by the bridge a6-b6, sources
  a1,b1 and receivers a2,b2: both trees must cross the bridge, so a cut
  certificate settles it.

For each instance it prints the best time of --repeat runs in ms, the
verdict (the failure reason, or "feasible") and the search states the
snapshot spent.  --out FILE writes the same as JSON, with the host.

Usage:
    PYTHONPATH=src python benchmarks/bench_search.py [--instances NAME ...] [--repeat R] [--out FILE]
"""

import argparse
import json
import os
import platform
from pathlib import Path

from bench_gf_kernels import _best_of
from npcode import connectivity, feasibility
from npcode.construction import harary
from npcode.graph import load

SIZES = (10, 12, 14, 16, 18)
K6_BRIDGE = Path(__file__).resolve().parent.parent / "tests" / "data" / "k6_bridge.json"


def _multi_h4(n):
    g = harary(n, 4)
    half = n // 2
    return g, [f"v{i}" for i in range(4)], [f"v{half + i}" for i in range(4)]


def _k6_bridge():
    """The bridge instance the tests and CI load, its terminals from the node roles."""
    g = load(K6_BRIDGE.read_text())
    return g, g.nodes_with_role("source"), g.nodes_with_role("receiver")


INSTANCES = {f"H4-{n}": (f"multi H(4,{n})", lambda n=n: _multi_h4(n)) for n in SIZES}
INSTANCES["2xK6-bridge"] = ("2xK6 bridge", _k6_bridge)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", nargs="+", choices=list(INSTANCES), default=list(INSTANCES))
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", help="write the results to this JSON file")
    args = parser.parse_args()

    print(f"strict feasibility search, best of {args.repeat}")
    print(f"  {'instance':16} {'edges':>6} {'ms':>10} {'verdict':>14} {'states':>10}")
    results = []
    for name in args.instances:
        label, make = INSTANCES[name]
        g, sources, receivers = make()
        best, (report, states) = _best_of(args.repeat, lambda: _search(g, sources, receivers))
        verdict = ("budget" if report is None else
                   "feasible" if report.feasible else report.failure_reason)
        print(f"  {label:16} {g.num_edges:6d} {best * 1e3:10.1f} {verdict:>14} {states:10,d}")
        results.append({"instance": label, "edges": g.num_edges, "ms": round(best * 1e3, 2),
                         "verdict": verdict, "certificate": bool(report and report.certificate),
                         "states": states})
    if args.out:
        record = {"repeat": args.repeat, "cpu": _cpu_model(), "cores": os.cpu_count(),
                  "python": platform.python_version(), "results": results}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


def _search(g, sources, receivers):
    """(report, states spent) of one strict search with the fixed pairing; the
    report is None when the search reached its state budget."""
    snap = connectivity._pair_snapshot(g, list(zip(sources, receivers)))
    try:
        report = feasibility._search(snap, sources, receivers, False)
    except connectivity.SearchBudgetExceeded:
        report = None
    return report, snap.spent


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
