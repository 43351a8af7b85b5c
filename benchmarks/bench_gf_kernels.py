#!/usr/bin/env python3
"""Time the GF(2^8) block kernel, `kernels.gf_matmul`, in MB/s.

Encodes the parity of random data blocks with a [k, k-t] code (the
product of an (n, k-t) symbol matrix and the (k-t, t) parity matrix),
checks one block against the scalar encoder, and prints the best of
--repeat timings.  MB/s counts the data symbols read.

Usage:
    PYTHONPATH=src python benchmarks/bench_gf_kernels.py [--blocks N] [--k K] [--t T] [--repeat R]
"""

import argparse
import time

import numpy as np

from npcode import kernels
from npcode.codec import DataBlock, build_code, encode
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

    best = None
    for _ in range(args.repeat):
        start = time.perf_counter()
        out = kernels.gf_matmul(data, parity, field)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    if args.blocks:
        scalar = encode(code, DataBlock.of(field, [int(x) for x in data[-1]]))
        assert scalar.values()[code.data_len :] == [int(x) for x in out[-1]], "kernel disagrees"

    mb = data.nbytes / 1e6
    print(f"gf_matmul parity for {args.blocks} blocks, k={args.k} t={args.t} "
          f"({mb:.1f} MB of data symbols), best of {args.repeat}")
    print(f"  {best * 1e3:8.2f} ms   {mb / best:8.1f} MB/s")


if __name__ == "__main__":
    main()
