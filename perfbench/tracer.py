"""Spans around the public functions of each npcode module.

The wrappers live in the benchmark, not in the library: `install` rebinds
every traced function at each npcode module that holds it by name (the
home module, the package re-exports, and modules that imported it with
`from .x import name`, such as `simulator.encode_blocks`), so a call
that goes through any of those names opens a span.  Spans stay in memory
as `[id, name, start, end, parent, op, extra]` lists and are written out
when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions wrapped as `<module>.<function>` spans
TRACED = {
    "kernels": ("gf_matmul",),
    "codec": ("build_code", "encode", "recover", "encode_blocks", "recover_blocks"),
    "graph": ("load", "save"),
    "connectivity": (
        "edge_connectivity",
        "node_connectivity",
        "is_k_edge_connected",
        "max_edge_disjoint_paths",
        "find_disjoint_paths_multi",
        "iter_disjoint_path_sets",
    ),
    "construction": ("harary", "build_minimal_witness"),
    "feasibility": ("check_feasibility", "check_single_source", "verify_report"),
    "simulator": ("run",),
}
GENERATORS = {"connectivity.iter_disjoint_path_sets"}
CLI_VERBS = ("generate", "feasibility", "simulate", "connectivity", "encode", "recover")

ID, NAME, START, END, PARENT, OP, EXTRA = range(7)


class Tracer:
    """Collects spans while `active`; inactive wrappers only pass calls on."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False
        self.op = None
        self._seen_patterns: set = set()

    def begin(self, name: str) -> list:
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self.op, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def pattern_seen(self, key) -> bool:
        """True when this erasure pattern was recovered earlier in the trace."""
        seen = key in self._seen_patterns
        self._seen_patterns.add(key)
        return seen

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import npcode.cli  # noqa: F401  (imports every module that can hold a name)
        from npcode.galois import FieldContext

        modules = [m for n, m in list(sys.modules.items())
                   if (n == "npcode" or n.startswith("npcode.")) and m is not None]
        for mod_name, functions in TRACED.items():
            home = sys.modules[f"npcode.{mod_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrapper(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        FieldContext.__init__ = self._wrapper("galois.FieldContext", FieldContext.__init__)

    def _wrapper(self, name: str, fn):
        if name in GENERATORS:
            return self._generator_wrapper(name, fn)
        extra = _EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if extra is not None:
                span[EXTRA] = extra(tracer, args, out)
            return out

        return traced

    def _generator_wrapper(self, name: str, fn):
        """One span per resume of the generator; EXTRA = 1 when it yielded."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                span = tracer.begin(name) if tracer.active else None
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        tracer.end(span)
                if span is not None:
                    span[EXTRA] = 1
                yield item

        return traced


def _matmul_bytes(tracer, args, out) -> int:
    return int(args[0].nbytes + args[1].nbytes + out.nbytes)


def _recover_pattern(tracer, args, out) -> int:
    code, erased = args[0], args[2]
    key = (code.field.m, code.field.reduction_poly, code.k, code.t, frozenset(erased))
    return int(tracer.pattern_seen(key))


_EXTRAS = {"kernels.gf_matmul": _matmul_bytes, "codec.recover_blocks": _recover_pattern}


# -- aggregation --------------------------------------------------------------


def summarize(span_lists: list[list[list]]) -> dict[str, dict]:
    """Per span name: calls, total ms, self ms and summed extras.

    Each list holds the spans of one process, whose ids and parents refer
    to that list only.  Self time is the span minus its direct children.
    """
    out: dict[str, dict] = {}
    for spans in span_lists:
        child_ms = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child_ms[s[PARENT]] += (s[END] - s[START]) * 1e3
        for s in spans:
            ms = (s[END] - s[START]) * 1e3
            row = out.setdefault(s[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0, "extra": 0})
            row["calls"] += 1
            row["ms"] += ms
            row["self_ms"] += ms - child_ms[s[ID]]
            row["extra"] += s[EXTRA] or 0
    return out


def layer_metrics(rows: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics, by name, from `summarize` rows."""
    def get(name, field):
        return rows.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    for mod_name, functions in TRACED.items():
        for fn_name in functions:
            name = f"{mod_name}.{fn_name}"
            m[f"{name}.calls"] = get(name, "calls")
            m[f"{name}.ms"] = get(name, "ms")
            m[f"{name}.self_ms"] = get(name, "self_ms")
    m["galois.FieldContext.calls"] = get("galois.FieldContext", "calls")
    m["galois.FieldContext.ms"] = get("galois.FieldContext", "ms")
    mm_bytes, mm_ms = get("kernels.gf_matmul", "extra"), get("kernels.gf_matmul", "ms")
    m["kernels.gf_matmul.bytes"] = mm_bytes
    m["kernels.gf_matmul.MBps"] = mm_bytes / 1e6 / (mm_ms / 1e3) if mm_ms else 0.0
    calls = get("codec.recover_blocks", "calls")
    m["codec.recover_blocks.self_us_per_call"] = (
        get("codec.recover_blocks", "self_ms") * 1e3 / calls if calls else 0.0)
    m["codec.pattern_reuse_ratio"] = get("codec.recover_blocks", "extra") / calls if calls else 0.0
    m["connectivity.iter_disjoint_path_sets.sets"] = get("connectivity.iter_disjoint_path_sets", "extra")
    m["cli.import_ms"] = get("cli.import", "ms")
    for verb in CLI_VERBS:
        m[f"cli.{verb}.ms"] = get(f"cli.{verb}", "ms")
    return m


def write_spans(path, span_lists) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(span_lists, fh, separators=(",", ":"))
        fh.write("\n")
