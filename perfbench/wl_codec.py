"""`stream` and `failover`: the codec workloads, in GF(2^8).

Both call the library through module attributes (`simulator.run`,
`codec.recover_blocks`) so that the traced run sees the calls.
"""

from __future__ import annotations

import numpy as np
from npcode import codec, construction, feasibility, simulator
from npcode.galois import FieldContext

from measure import Op

STREAM_BLOCKS = 65_536
STREAM_CODES = ((12, 4), (6, 2))  # alternated; k=12, t=4 is bench_gf_kernels' default
STREAM_ROUND = 4  # ops per code in a round
FAILOVER_BATCH = 64
FAILOVER_MEAN_RUN = 8  # ops a failure stays in place, on average, until repaired
FAILOVER_CODES = tuple((k, t) for k in range(4, 17) for t in range(1, min(4, k - 1) + 1))


class Stream:
    """One simulator.run per op, on a single source over H(k, k+4)."""

    trace_rounds = 3

    def __init__(self, seed: int):
        self.seed = seed
        self._capture = _RecoveredCapture()

    def setup(self):
        field = FieldContext(8)
        state = []
        for k, t in STREAM_CODES:
            code = codec.build_code(k, t, field)
            g = construction.harary(k + 4, k)
            nodes = list(g.nodes)
            state.append((code, g, nodes[0], tuple(nodes[1 : k + 1])))
        return state

    def rounds(self, state):
        def round_ops(r: int):
            # every round fails 1, 2, 3 and 4 paths once on each code (1..t, cycled),
            # so the mix of erasure counts does not depend on the seed
            rng = np.random.default_rng([self.seed, r])
            for i in range(STREAM_ROUND):
                for code, g, source, receivers in state:
                    yield self._op(rng, code, i % code.t + 1, g, source, receivers)
        return round_ops

    def _op(self, rng, code, n_failed, g, source, receivers) -> Op:
        k, t, d = code.k, code.t, code.data_len
        failed = sorted(int(i) + 1 for i in rng.choice(k, n_failed, replace=False))
        labels = tuple(f"L{i}" for i in failed)
        payload = rng.integers(0, 256, size=(STREAM_BLOCKS, d), dtype=np.uint8)
        fresh = g.copy()
        inst = feasibility.ProtectionInstance(fresh, [source], list(receivers))
        sc = simulator.Scenario(inst, code, payload, simulator.ExplicitFailures(labels))
        capture = self._capture

        def run():
            capture.out = None
            return simulator.run(sc)

        def check(report) -> str | None:
            if not report.recovered or report.mismatches or report.capacity_exceeded:
                return f"report says {report.status} ({report.mismatches} mismatches)"
            if report.failed_paths != labels:
                return f"failed paths {report.failed_paths} != {labels}"
            paths = report.provisioned
            if len(paths) != k:
                return f"{len(paths)} paths provisioned for k={k}"
            paths.validate(fresh)
            for p, r in zip(paths, receivers):
                if (p.start, p.end) != (source, r):
                    return f"path {p.start}-{p.end} does not serve {source}-{r}"
            if capture.out is not None and not np.array_equal(capture.out, payload):
                return "recovered bytes differ from the payload"
            return None

        return Op(f"k{k}t{t}", run, check, label=f"k{k}t{t} {','.join(labels)}")

    def diagnostics(self, records) -> dict:
        data_bytes = {f"k{k}t{t}": STREAM_BLOCKS * (k - t) for k, t in STREAM_CODES}
        secs = sum(r.seconds for r in records)
        data = sum(data_bytes[r.kind] for r in records)
        return {"payload_MBps": (data / 1e6 / secs if secs else 0.0, "MB/s", len(records))}

    def known_defects(self, state) -> list:
        return []


class _RecoveredCapture:
    """Keeps the array simulator.run recovers, so the check can compare bytes.

    If a later simulator stops calling `recover_blocks` by that name the
    capture stays empty and the check falls back on the trial report.
    """

    def __init__(self):
        self.out = None
        self._fn = simulator.recover_blocks
        simulator.recover_blocks = self

    def __call__(self, *args, **kwargs):
        self.out = self._fn(*args, **kwargs)
        return self.out


class Failover:
    """One recover_blocks per op; a (code, erasure set) pair holds for a
    geometric run of ops, as a failure lasts until it is repaired."""

    trace_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        field = FieldContext(8)
        return [codec.build_code(k, t, field) for k, t in FAILOVER_CODES]

    def rounds(self, state):
        def round_ops(r: int):
            # a round is one failure episode on every code, in a seeded order,
            # so the mix of codes does not depend on the seed
            rng = np.random.default_rng([self.seed, r])
            for i in rng.permutation(len(state)):
                code = state[i]
                size = int(rng.integers(1, code.t + 1))
                erased = sorted(int(x) for x in rng.choice(code.k, size, replace=False))
                for _ in range(int(rng.geometric(1 / FAILOVER_MEAN_RUN))):
                    yield self._op(rng, code, erased)
        return round_ops

    def _op(self, rng, code, erased) -> Op:
        data = rng.integers(0, 256, size=(FAILOVER_BATCH, code.data_len), dtype=np.uint8)
        received = codec.encode_blocks(code, data)
        received[:, erased] = 0
        parity_only = min(erased) >= code.data_len

        def check(out) -> str | None:
            if not np.array_equal(out, data):
                return "recovered bytes differ from the source"
            return None

        return Op("parity" if parity_only else "data",
                  lambda: codec.recover_blocks(code, received, list(erased)), check,
                  label=f"k{code.k}t{code.t} {erased}")

    def diagnostics(self, records) -> dict:
        data = sum(1 for r in records if r.kind == "data")
        return {"data_erasure_share": (data / len(records), "ratio", len(records))}

    def known_defects(self, state) -> list:
        return []
