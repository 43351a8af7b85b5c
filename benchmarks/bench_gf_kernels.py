#!/usr/bin/env python3
"""Time the GF(2^8) block kernel, `kernels.gf_matmul`, and the block codec, in MB/s.

Encodes the parity of random data blocks with a [k, k-t] code (the
product of an (n, k-t) symbol matrix and the (k-t, t) parity matrix),
checks one block against the scalar encoder, and prints the best of
--repeat timings.  It then times one round trip through the codec
layer at the same size: `encode_blocks`, erase the first data column,
`recover_blocks`, with the recovered bytes checked against the data.
MB/s counts the data symbols read.

Usage:
    PYTHONPATH=src python benchmarks/bench_gf_kernels.py [--blocks N] [--k K] [--t T] [--repeat R]
"""

import argparse
import time

import numpy as np

from npcode import kernels
from npcode.codec import DataBlock, build_code, encode, encode_blocks, recover_blocks
from npcode.galois import FieldContext


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=200_000)
    parser.add_argument("--k", type=int, default=12)
    parser.add_argument("--t", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    field = FieldContext(8)
    code = build_code(args.k, args.t, field)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(args.blocks, code.data_len), dtype=np.uint8)
    parity = code.parity_int_matrix()

    best, out = _best_of(args.repeat, lambda: kernels.gf_matmul(data, parity, field))
    if args.blocks:
        scalar = encode(code, DataBlock.of(field, [int(x) for x in data[-1]]))
        if scalar.values()[code.data_len :] != [int(x) for x in out[-1]]:
            raise SystemExit("kernel disagrees with the scalar encoder")

    def round_trip():
        received = encode_blocks(code, data)
        received[:, 0] = 0
        return recover_blocks(code, received, [0])

    trip, got = _best_of(args.repeat, round_trip)
    if not np.array_equal(got, data):
        raise SystemExit("round trip did not recover the data")

    mb = data.nbytes / 1e6
    print(f"gf_matmul parity for {args.blocks} blocks, k={args.k} t={args.t} "
          f"({mb:.1f} MB of data symbols), best of {args.repeat}")
    print(f"  {best * 1e3:8.2f} ms   {mb / best:8.1f} MB/s")
    print("encode_blocks, erase data column 0, recover_blocks, same blocks")
    print(f"  {trip * 1e3:8.2f} ms   {mb / trip:8.1f} MB/s")


def _best_of(repeat, fn):
    """(fastest time in seconds, last result) over repeat calls of fn."""
    best = result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


if __name__ == "__main__":
    main()
