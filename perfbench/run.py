#!/usr/bin/env python3
"""npcode benchmark: closed-loop workloads over the library and the CLI.

Usage (from the root of a source checkout; nothing is installed):

    python3 perfbench/run.py --workload {stream,failover,topology,cli} \\
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics of BENCHMARK.json with no
tracing.  --trace 1 runs a fixed number of rounds twice, untraced and
traced, and reports the per-layer metrics.  Human-readable lines come
first; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A full record, and for --trace 1
the spans, go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
WORKLOADS = ("stream", "failover", "topology", "cli")
SETUP_SAMPLES = 9  # one before the first op, the rest spread over the run


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _make_workload(name: str, seed: int):
    if name == "stream":
        from wl_codec import Stream
        return Stream(seed)
    if name == "failover":
        from wl_codec import Failover
        return Failover(seed)
    if name == "topology":
        from wl_topology import Topology
        return Topology(seed)
    from wl_cli import Cli
    return Cli(seed, ROOT)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "npcode").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args) -> dict:
    import numpy
    import npcode.kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_path": "numba" if npcode.kernels.NUMBA_ACTIVE else "numpy",
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "npcode" / "__init__.py").is_file():
        _fail(f"no npcode sources under {SRC}; run from a source checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    import npcode

    if Path(npcode.__file__).resolve().parent != (SRC / "npcode").resolve():
        _fail(f"imported npcode from {npcode.__file__}, not from {SRC}")

    from measure import geomean_ms, measure, ops_per_s, p50_ms, tail
    from tracer import Tracer, layer_metrics, summarize, write_spans

    record = run_record(args)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()  # before the workload, which may hold library names
    workload = _make_workload(args.workload, args.seed)

    setup_times = []

    def timed_setup():
        start = time.perf_counter()
        made = workload.setup()
        setup_times.append(time.perf_counter() - start)
        return made

    def sample_setup(elapsed: float) -> None:
        # set-up samples spread over the run, so that their median does not
        # hang on the speed of one moment of a shared machine
        if len(setup_times) < SETUP_SAMPLES and elapsed >= (
                len(setup_times) * args.seconds / (SETUP_SAMPLES - 1)):
            timed_setup()

    state = timed_setup()
    if not args.trace:
        passes = [measure(workload.rounds(state), seconds=args.seconds, between=sample_setup)]
        secs = [r.seconds for r in passes[0].records]
        computed = {
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "ops_per_s": (ops_per_s(secs), len(secs)),
            "op_geomean_ms": (geomean_ms(secs), len(secs)),
        }
        wanted = spec["end_to_end"]
    else:
        plain = measure(workload.rounds(state), n_rounds=workload.trace_rounds)
        tracer.active = True
        span = tracer.begin("setup")
        traced_state = workload.setup()
        tracer.end(span)
        tracer.active = False
        workload.traced = True
        traced = measure(workload.rounds(traced_state), n_rounds=workload.trace_rounds,
                         tracer=tracer)
        workload.traced = False
        passes = [plain, traced]
        span_lists = [tracer.spans] + getattr(workload, "child_spans", [])
        layers = layer_metrics(summarize(span_lists))
        plain_rate = ops_per_s([r.seconds for r in plain.records])
        layers["trace.overhead_ratio"] = (
            ops_per_s([r.seconds for r in traced.records]) / plain_rate if plain_rate else 0.0)
        layers["trace.ops"] = len(traced.records)
        computed = {name: (value, len(traced.records)) for name, value in layers.items()}
        wanted = spec["per_layer"]

    known = workload.known_defects(state)
    records = [r for p in passes for r in p.records]
    failed = [r for r in records if r.error is not None]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        _fail(f"BENCHMARK.json names metrics this run does not compute: {missing}")
    metrics = {m["name"]: {"value": computed[m["name"]][0], "unit": m["unit"]} for m in wanted}

    diagnostics = dict(workload.diagnostics(passes[0].records))
    diagnostics["failed_ratio"] = (len(failed) / len(records), "failed/attempted", len(records))
    if not args.trace:
        diagnostics["op_p50_ms"] = (p50_ms(secs), "ms", len(secs))
        t = tail(secs)
        if t is not None:
            diagnostics[f"op_tail_ms@p{t[1]:.2f}"] = (t[0], "ms", t[2])
    known_failed = [(label, r) for label, r in known if r.error is not None]
    if known:
        diagnostics["failed_ratio_with_known_defects"] = (
            (len(failed) + len(known_failed)) / (len(records) + len(known)),
            "failed/attempted", len(records) + len(known))

    print(f"npcode benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={[p.rounds for p in passes]}")
    print("record " + json.dumps(record))
    for m in wanted:
        value, n = computed[m["name"]]
        print(f"metric {m['name']:<44} {value:>14.6g} {m['unit']:<10} n={n}")
    for name, (value, unit, n) in diagnostics.items():
        print(f"diagnostic {name:<40} {value:>14.6g} {unit:<16} n={n}")
    for label, r in known:
        status = "FAILS" if r.error else "passes"
        print(f"known-defect {status}: {label} ({r.seconds:.3f} s) {r.error or ''}")
    for r in failed[:10]:
        print(f"FAILED {r.kind}: {r.error}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "record": record,
            "metrics": metrics,
            "setup_s": setup_times,
            "diagnostics": {k: {"value": v, "unit": u, "n": n}
                            for k, (v, u, n) in diagnostics.items()},
            "attempted": len(records),
            "failed": [{"kind": r.kind, "label": r.label, "error": r.error} for r in failed],
            "ops": [[r.label, r.seconds] for r in passes[0].records],
            "known_defects": [{"op": label, "seconds": r.seconds, "error": r.error}
                              for label, r in known],
            "known_defects_failed": len(known_failed),
        }, fh, indent=1)
    if tracer is not None:
        write_spans(f"{stem}-spans.json", span_lists)

    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
