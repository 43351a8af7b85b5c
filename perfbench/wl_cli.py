"""`cli`: one `python -m npcode` child per op, one child at a time.

A round runs, in a seeded order: two pipelines generate -> feasibility ->
simulate (each stage's stdout is the next stage's stdin), connectivity,
and encode and recover of 1024-block hex payloads on the default field
and on GF(2^16) (NPC_FIELD_POLY=0x1100B).  Expected outputs come from
the benchmark's own GF arithmetic or from the inputs themselves.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from npcode import codec, construction, graph
from npcode.galois import FieldContext

from measure import Op, p50_ms, run_op

PIPELINES = ((10, 3, 1), (12, 4, 2))  # (n, k, t); every round runs both
SIM_BLOCKS = 4096
CONNECTIVITY = (20, 4)  # H(4, 20)
CODEC = (6, 2)  # (k, t) of the encode/recover verbs
CODEC_BLOCKS = 1024
GF16_POLY = 0x1100B
CHILD_TIMEOUT = 60.0


def _gf_mul(a: int, b: int, poly: int, m: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return out


def _hex(values, m: int) -> str:
    width = 2 * ((m + 7) // 8)
    return "".join(f"{v:0{width}x}" for v in values)


class Cli:
    trace_rounds = 1

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.seed = seed
        self.traced = False
        self.child_spans: list[list] = []
        self._first_output: dict = {}
        rng = random.Random(seed)
        self.pipelines = []
        for n, k, t in PIPELINES:
            receivers = ",".join(f"v{i}" for i in sorted(rng.sample(range(1, n), k)))
            failed = [f"L{i}" for i in sorted(rng.sample(range(1, k + 1), rng.randint(1, t)))]
            self.pipelines.append((n, k, failed, [
                ["generate", "--harary", str(n), str(k)],
                ["feasibility", "--sources", "v0", "--receivers", receivers, "--verify"],
                ["simulate", "--k", str(k), "--t", str(t), "--failures", ",".join(failed),
                 "--blocks", str(SIM_BLOCKS), "--seed", str(rng.randrange(1 << 16))],
            ]))
        n, k = CONNECTIVITY
        self.connectivity_input = graph.save(construction.harary(n, k)).encode()
        self.codec_cases = [self._codec_case(rng, m, poly) for m, poly in ((8, None), (16, GF16_POLY))]

    def _codec_case(self, rng, m: int, poly: int | None):
        k, t = CODEC
        field = FieldContext(m, poly)
        parity = [[e.value for e in row] for row in codec.build_code(k, t, field).parity]
        data, words = [], []
        for _ in range(CODEC_BLOCKS):
            block = [rng.randrange(field.order) for _ in range(k - t)]
            extra = []
            for j in range(t):
                acc = 0
                for i, x in enumerate(block):
                    acc ^= _gf_mul(parity[i][j], x, field.reduction_poly, m)
                extra.append(acc)
            data += block
            words += block + extra
        erased = sorted(rng.sample(range(k), rng.randint(1, t)))
        received = [0 if i % k in erased else v for i, v in enumerate(words)]
        env = {} if poly is None else {"NPC_FIELD_POLY": f"0x{poly:X}"}
        return m, env, _hex(data, m), _hex(words, m), _hex(received, m), erased

    # -- children ---------------------------------------------------------------

    def _env(self, extra: dict) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("NPC_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env.update(extra)
        return env

    def _spans_file(self) -> Path:
        return self.root / "perfbench" / "results" / "child-spans.json"

    def _command(self, argv: list[str]) -> list[str]:
        if self.traced:
            return [sys.executable, str(self.root / "perfbench" / "child.py"),
                    str(self._spans_file()), "--", *argv]
        return [sys.executable, "-m", "npcode", *argv]

    def _child_op(self, kind, argv, stdin, check, env=None, group=None, repeat_key=None):
        """An op that runs one child; `holder` keeps the finished process.

        With a repeat_key, the child's stdout must also equal the stdout
        of the first run of the same key in this benchmark run.
        """
        holder = {}
        cmd, full_env = self._command(argv), self._env(env or {})

        def run():
            holder["proc"] = subprocess.run(
                cmd, input=stdin, capture_output=True, env=full_env, cwd=self.root,
                timeout=CHILD_TIMEOUT)
            return holder["proc"]

        def check_proc(proc) -> str | None:
            problem = _exit_problem(proc, 0) or check(json.loads(proc.stdout))
            if problem is None and repeat_key is not None:
                if self._first_output.setdefault(repeat_key, proc.stdout) != proc.stdout:
                    problem = "stdout differs from an earlier run of the same pipeline"
            return problem

        return Op(kind, run, check_proc, group=group, label=" ".join(argv)[:60]), holder

    def _collect_spans(self) -> None:
        path = self._spans_file()
        if self.traced and path.exists():
            self.child_spans.append(json.loads(path.read_text())[0])
            path.unlink()

    def setup(self):
        """A fresh interpreter's `import npcode`, as every op pays it."""
        subprocess.run([sys.executable, "-c", "import npcode"], env=self._env({}),
                       cwd=self.root, check=True, timeout=CHILD_TIMEOUT)
        return None

    def rounds(self, state):
        self._spans_file().parent.mkdir(exist_ok=True)

        def round_ops(r: int):
            units = [("pipeline", 0), ("pipeline", 1), ("connectivity", 0),
                     ("codec", 0), ("codec", 1)]
            random.Random(f"{self.seed}-{r}").shuffle(units)
            for unit, i in units:
                if unit == "pipeline":
                    yield from self._pipeline(i, (r, i))
                elif unit == "connectivity":
                    yield from self._connectivity()
                else:
                    yield from self._codec(i)
        return round_ops

    def _pipeline(self, variant: int, group: int):
        n, k, failed, stages = self.pipelines[variant]
        checks = [
            lambda doc: _graph_problem(doc, n, k),
            lambda doc: _expect(doc, feasible=True, verified=True),
            lambda doc: _expect(doc, recovered=True, mismatches=0, failed_paths=failed,
                                blocks=SIM_BLOCKS),
        ]
        stdin = b""
        for stage, (argv, check) in enumerate(zip(stages, checks)):
            op, holder = self._child_op(argv[0], argv, stdin, check, group=group,
                                        repeat_key=(variant, stage))
            yield op
            self._collect_spans()
            proc = holder.get("proc")
            stdin = proc.stdout if proc is not None else b""

    def _connectivity(self):
        k = CONNECTIVITY[1]
        op, _ = self._child_op(
            "connectivity", ["connectivity"], self.connectivity_input,
            lambda doc: (None if (doc["edge_connectivity"]["value"],
                                  doc["node_connectivity"]["value"]) == (k, k)
                         else f"connectivity {doc['edge_connectivity']['value']}, "
                              f"{doc['node_connectivity']['value']}; expected {k}, {k}"))
        yield op
        self._collect_spans()

    def _codec(self, case: int):
        m, env, data, words, received, erased = self.codec_cases[case]
        k, t = CODEC
        suffix = "" if m == 8 else "_gf16"
        op, _ = self._child_op(
            f"encode{suffix}", ["encode", "--k", str(k), "--t", str(t), "--data", data], b"",
            lambda doc: _expect(doc, symbols=words, blocks=CODEC_BLOCKS), env)
        yield op
        self._collect_spans()
        positions = ",".join(str(p + 1) for p in erased)
        op, _ = self._child_op(
            f"recover{suffix}",
            ["recover", "--k", str(k), "--t", str(t), "--symbols", received, "--erased", positions],
            b"", lambda doc: _expect(doc, data=data, blocks=CODEC_BLOCKS), env)
        yield op
        self._collect_spans()

    def diagnostics(self, records) -> dict:
        stages: dict[tuple, float] = {}
        for r in records:
            if r.group is not None:
                stages[r.group] = stages.get(r.group, 0.0) + r.seconds
        return {"pipeline_p50_ms": (p50_ms(list(stages.values())), "ms", len(stages))}

    def known_defects(self, state):
        """simulate on GF(2^16) exits 1 with OverflowError (ROADMAP item 2)."""
        n, k, failed, stages = self.pipelines[0]
        report = self._first_output.get((0, 1))
        if report is None:  # the pipeline's feasibility stage failed; nothing to feed
            return []
        argv = ["simulate", "--k", str(k), "--t", "1", "--failures", failed[0],
                "--blocks", "64"]
        op, _ = self._child_op(
            "simulate_gf16", argv, report,
            lambda doc: _expect(doc, recovered=True, failed_paths=failed[:1]),
            env={"NPC_FIELD_POLY": f"0x{GF16_POLY:X}"})
        return [("cli: simulate on GF(2^16)", run_op(op))]


def _exit_problem(proc, code: int) -> str | None:
    if proc.returncode == code:
        return None
    last = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
    return f"exit {proc.returncode}, expected {code}: {last[0]}"


def _expect(doc: dict, **fields) -> str | None:
    for key, want in fields.items():
        if doc.get(key) != want:
            return f"{key}={str(doc.get(key))[:80]!r}, expected {str(want)[:80]!r}"
    return None


def _graph_problem(doc: dict, n: int, k: int) -> str | None:
    nodes, edges = len(doc["nodes"]), len(doc["edges"])
    if (nodes, edges) != (n, (k * n + 1) // 2):
        return f"H({k},{n}) has {nodes} nodes and {edges} edges"
    return None
