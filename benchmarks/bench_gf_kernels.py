#!/usr/bin/env python3
"""Time the GF(2^m) block kernel, `kernels.gf_matmul`, and the block codec, in MB/s.

Times the kernel on the shapes a [k, k-t] code uses: the (k-t) x t
parity matrix of an encode, a random square (k-t) x (k-t) decode matrix,
and the codec's own recovery shape, the (k-t) x t decode plan
[solve[:, 0] | solve G[:, check]] for a lost data position 0 and its
t-1 surviving checks (the surviving data is received as is).  Each runs
on --blocks blocks and on a 64-block batch, over GF(2^8) (one-byte
symbols) and GF(2^16) (two-byte symbols, one gather per byte plane).
The parity product is checked against the scalar encoder.  A sweep over
GF(2^8) output widths then shows the packed words at work: up to 8
output columns share one table gather per input column.  Last comes one
GF(2^8) round trip through the codec layer at --blocks blocks:
`encode_blocks`, erase the first data column, `recover_blocks`, with the
recovered bytes checked against the data.  Each time is the best of
--repeat; a 64-block time is per call, over a loop of calls.  MB/s
counts the data symbols read.

Then the decode-matrix setup, which the kernel never sees: `build_code`
over the 51 codes of the perfbench `failover` workload (k = 4..16,
t = 1..min(4, k-2), GF(2^8)) and at k = 1024, t = 512 on GF(2^16), the
largest code the CLI verbs admit, and the decode plans of every erasure
pattern of 1..t positions of (12, 4) and (16, 4) on GF(2^8), per pattern,
each plan built on an empty plan cache.  Each field's tables are built
before the timing.

Usage:
    PYTHONPATH=src python benchmarks/bench_gf_kernels.py [--blocks N] [--k K] [--t T] [--repeat R]
"""

import argparse
import time

import numpy as np

from itertools import combinations

from npcode import kernels
from npcode.codec import DataBlock, _decode_plan, build_code, encode, encode_blocks, recover_blocks
from npcode.galois import FieldContext

BATCH = 64
BATCH_CALLS = 200
WIDTHS = (1, 2, 3, 4, 5, 8, 9, 16)
FAILOVER_CODES = tuple((k, t) for k in range(4, 17) for t in range(1, min(4, k - 1) + 1))
PLAN_CODES = ((12, 4), (16, 4))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=200_000)
    parser.add_argument("--k", type=int, default=12)
    parser.add_argument("--t", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    code, data = _time_shapes(FieldContext(8), args, rng)
    _time_shapes(FieldContext(16), args, rng)
    field, d = code.field, code.data_len

    print(f"gf_matmul by output width, {d} input columns, {args.blocks} blocks")
    for mm in WIDTHS:
        coeffs = rng.integers(1, 256, size=(d, mm), dtype=np.uint8)
        best, _ = _best_of(args.repeat, lambda: kernels.gf_matmul(data, coeffs, field))
        print(f"  {f'width {mm}':16} {args.blocks:8d} " + _rate(data.nbytes, best))

    def round_trip():
        received = encode_blocks(code, data)
        received[:, 0] = 0
        return recover_blocks(code, received, [0])

    trip, got = _best_of(args.repeat, round_trip)
    if not np.array_equal(got, data):
        raise SystemExit("round trip did not recover the data")
    print(f"encode_blocks, erase data column 0, recover_blocks, {args.blocks} blocks")
    print(f"  {'round trip':16} {args.blocks:8d} " + _rate(data.nbytes, trip))
    _time_setup(field, args.repeat)


def _time_setup(gf8, repeat):
    """Time the decode-matrix setup: code builds and per-pattern plan builds."""
    gf16 = FieldContext(16)
    build_code(2, 1, gf16)  # the field's tables, outside the timing
    print(f"decode-matrix setup, best of {repeat}")
    print(f"  {'build':28} {'ms':>10}")
    best, _ = _best_of(repeat, lambda: [build_code(k, t, gf8) for k, t in FAILOVER_CODES])
    print(f"  {f'{len(FAILOVER_CODES)} failover codes, GF(2^8)':28} {best * 1e3:10.3f}")
    best, _ = _best_of(repeat, lambda: build_code(1024, 512, gf16))
    print(f"  {'(1024, 512), GF(2^16)':28} {best * 1e3:10.3f}")
    print(f"  {'plans':28} {'patterns':>10} {'us/pattern':>10}")
    for k, t in PLAN_CODES:
        code = build_code(k, t, gf8)
        patterns = [p for size in range(1, t + 1) for p in combinations(range(k), size)]

        def plans():
            code._decode.clear()
            for erased in patterns:
                _decode_plan(code, erased)

        best, _ = _best_of(repeat, plans)
        print(f"  {f'({k}, {t}), GF(2^8)':28} {len(patterns):10d} {best / len(patterns) * 1e6:10.2f}")


def _time_shapes(field, args, rng):
    """Time the parity and decode shapes over one field; return its (code, data)."""
    code = build_code(args.k, args.t, field)
    d = code.data_len
    data = rng.integers(0, field.order, size=(args.blocks, d), dtype=field.symbol_dtype)
    batch = data[:BATCH]
    parity = code.parity_int_matrix()
    decode = rng.integers(1, field.order, size=(d, d), dtype=field.symbol_dtype)
    recovery = _decode_plan(code, [0]).coef

    print(f"gf_matmul over GF(2^{field.m}), k={args.k} t={args.t}, best of {args.repeat}")
    print(f"  {'shape':16} {'blocks':>8} {'ms':>10} {'MB/s':>10}")
    for name, coeffs in (("parity", parity), ("decode", decode), ("recovery", recovery)):
        for blocks in (data, batch):
            calls = 1 if blocks is data else BATCH_CALLS
            best, out = _best_of(args.repeat, lambda: kernels.gf_matmul(blocks, coeffs, field), calls)
            if coeffs is parity and len(blocks):
                scalar = encode(code, DataBlock.of(field, [int(x) for x in blocks[-1]]))
                if scalar.values()[d:] != [int(x) for x in out[-1]]:
                    raise SystemExit("kernel disagrees with the scalar encoder")
            shape = f"{name} {d} x {coeffs.shape[1]}"
            print(f"  {shape:16} {len(blocks):8d} " + _rate(blocks.nbytes, best))
    return code, data


def _rate(nbytes, seconds):
    mbps = nbytes / 1e6 / seconds if seconds else float("inf")
    return f"{seconds * 1e3:10.3f} {mbps:10.1f}"


def _best_of(repeat, fn, calls=1):
    """(fastest time per call in seconds, last result) over repeat loops of calls."""
    best = result = None
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(calls):
            result = fn()
        elapsed = (time.perf_counter() - start) / calls
        best = elapsed if best is None else min(best, elapsed)
    return best, result


if __name__ == "__main__":
    main()
