"""The GF(2^m) block kernel (m <= 8): packed-word table gathers.

`gf_matmul(a, b, field)` multiplies an (n, kk) uint8 symbol matrix by a
small (kk, mm) coefficient matrix.  It reads `a` column by column, as
the rows of the C-ordered (kk, n) array `a.T`: that costs nothing when
`a` is already the transpose of such an array (the column-major layout
`codec` keeps), and one transpose otherwise.

The output columns are taken in chunks of at most eight.  For each input
row l of `b` with a nonzero coefficient in a chunk, a q-entry word table
holds in byte j of entry x the product `MUL[b[l, j0 + j], x]`, in the
smallest word of 1, 2, 4 or 8 bytes that fits the chunk.  One `take` of
that table by input column l then yields the products for every output
column of the chunk at once, and the chunk is the XOR of those gathers
(the first one is written straight into the accumulator).  One byte
transpose moves each chunk into the output rows, which come back in the
input's layout, as the transpose of a C-ordered (mm, n) array.  Long
batches are walked in slices of n, so that a slice's accumulator and
gather buffer stay in cache.  `MUL` is the field's full q x q product
table, `field.mul_table` (the table-driven kernel of Plank, Greenan &
Miller, "Screaming Fast Galois Field Arithmetic Using SIMD
Instructions", FAST 2013).

The word tables depend only on the field and the values of `b`, so they
are kept in a memo keyed on the field's (m, polynomial) and on b's
dtype, shape and bytes, and evicted oldest first to stay within
`TABLE_MEMO_BYTES`.  A matrix's tables take up to kk * q * ceil(mm/8) * 8
bytes; a matrix whose tables exceed the whole budget is not kept.
"""

from __future__ import annotations

import threading

import numpy as np

from .galois import FieldContext

# perfbench/run.py reads this for its run record; the kernel is numpy only.
NUMBA_ACTIVE = False

# Bytes of word tables the memo keeps: 8 MiB holds the tables of 136
# 15 x 15 GF(2^8) decode matrices, the largest in a k <= 16 code.
TABLE_MEMO_BYTES = 8 << 20

# Output columns one word table packs, one byte each.
_CHUNK = 8

# Accumulator bytes per slice of the n symbols.  A slice's accumulator,
# gather buffer and the intp copy of its indices that `take` makes then
# stay well inside L2: on a Xeon with 2 MiB of L2 per core, slicing took
# an 8 x 8 product at n = 65,536 from 2.4 to 1.6 ms.
_SLICE_BYTES = 128 << 10

__all__ = ["NUMBA_ACTIVE", "TABLE_MEMO_BYTES", "gf_matmul"]


def _symbols_in_range(a: np.ndarray, order: int) -> bool:
    """True iff every entry of the integer array a lies in [0, order).

    The scan is skipped only when a's dtype cannot hold a value outside
    that range (unsigned, with 2^(8 * itemsize) <= order).
    """
    if a.dtype.kind not in "biu":
        return False
    if a.dtype.kind == "u" and 1 << 8 * a.dtype.itemsize <= order:
        return True
    return not a.size or (int(a.min()) >= 0 and int(a.max()) < order)


def _word_tables(b: np.ndarray, mul: np.ndarray) -> list[tuple[int, int, list[int], np.ndarray]]:
    """(first column, width, nonzero rows, their word tables) per chunk of b's columns.

    b holds uint8 coefficients below the field order.  The tables of a
    chunk form one read-only (len(rows), q) array of unsigned words,
    whose byte j in memory is the product by b[row, first column + j].
    """
    q = mul.shape[0]
    chunks = []
    for j0 in range(0, b.shape[1], _CHUNK):
        sub = b[:, j0 : j0 + _CHUNK]
        w = sub.shape[1]
        word = 1 << (w - 1).bit_length()
        rows = np.flatnonzero(sub.any(axis=1))
        lanes = np.zeros((len(rows), q, word), dtype=np.uint8)
        lanes[:, :, :w] = mul[sub[rows]].transpose(0, 2, 1)
        tables = lanes.view(f"u{word}").reshape(len(rows), q)
        tables.setflags(write=False)
        chunks.append((j0, w, rows.tolist(), tables))
    return chunks


class _TableMemo:
    """Word tables by (field, coefficient values), within a byte budget.

    Entries are evicted oldest first.  A lookup is one dict read; tables
    are built outside the lock and stored whole under it, so concurrent
    callers may build the same tables twice but never see a partial
    entry.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: dict[tuple, tuple[list, int]] = {}
        self._lock = threading.Lock()

    def tables(self, field: FieldContext, b: np.ndarray) -> list:
        """`_word_tables` for b, whose entries must already be checked."""
        key = (field.m, field.reduction_poly, b.dtype, b.shape, b.tobytes())
        entry = self._entries.get(key)
        if entry is not None:
            return entry[0]
        chunks = _word_tables(b.astype(np.uint8), field.mul_table)
        size = sum(tables.nbytes for *_, tables in chunks)
        if size <= self.budget:
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = (chunks, size)
                    self.nbytes += size
                    while self.nbytes > self.budget:
                        self.nbytes -= self._entries.pop(next(iter(self._entries)))[1]
        return chunks


_TABLES = _TableMemo(TABLE_MEMO_BYTES)


def gf_matmul(a: np.ndarray, b: np.ndarray, field: FieldContext) -> np.ndarray:
    """Matrix product a @ b over a field with m <= 8, on uint8 symbols.

    Every symbol of `a` must lie below the field order.  `b` must be a
    (kk, mm) matrix of integers in [0, q), else ValueError.  The result
    is an (n, mm) uint8 array, returned as the transpose of a C-ordered
    (mm, n) array.
    """
    cols_t = np.ascontiguousarray(np.asarray(a, dtype=np.uint8).T)
    kk, n = cols_t.shape
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != kk:
        raise ValueError(f"coefficients must have shape ({kk}, mm), got {b.shape}")
    if not _symbols_in_range(b, field.order):
        raise ValueError(f"coefficients must be integers in [0, {field.order})")
    out = np.empty((b.shape[1], n), dtype=np.uint8)
    for j0, w, rows, tables in _TABLES.tables(field, b):
        if not rows:
            out[j0 : j0 + w] = 0
            continue
        word = tables.itemsize
        step = _SLICE_BYTES // word
        temp = np.empty((2, min(step, n)), dtype=tables.dtype)
        for s0 in range(0, n, step):
            s1 = min(s0 + step, n)
            cols = cols_t[:, s0:s1]
            acc = out[j0, s0:s1] if word == 1 else temp[0, : s1 - s0]
            buf = temp[1, : s1 - s0]
            tables[0].take(cols[rows[0]], out=acc, mode="clip")
            for l, table in zip(rows[1:], tables[1:]):
                table.take(cols[l], out=buf, mode="clip")
                acc ^= buf
            if word > 1:
                out[j0 : j0 + w, s0:s1] = acc.view(np.uint8).reshape(s1 - s0, word)[:, :w].T
    return out.T
