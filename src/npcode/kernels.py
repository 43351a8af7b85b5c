"""The GF(2^m) block kernel (m <= 16): row and packed-word table gathers.

`gf_matmul(a, b, field)` multiplies an (n, kk) symbol matrix by a small
(kk, mm) coefficient matrix, in the field's symbol dtype (uint8 for
m <= 8, uint16 above).  It reads `a` column by column, as the rows of
the C-ordered (kk, n) array `a.T`: that costs nothing when `a` is
already the transpose of such an array (the column-major layout `codec`
keeps), and one transpose otherwise.  Above m = 8 each column is then
split into two byte planes, uint8 rows of its low and its high bytes;
for m <= 8 a column is its only plane.  Both gathers below look up
`field.plane_products`: rows of the full product table for m <= 8, and
256-entry split tables above (the table-driven kernels of Plank, Greenan
& Miller, "Screaming Fast Galois Field Arithmetic Using SIMD
Instructions", FAST 2013).  The output comes back in the input's layout,
as the transpose of a C-ordered (mm, n) array.

`gf_matmul` picks the gather from the input alone: a batch of up to
`_ROW_GATHER_BYTES` bytes per input column (n symbols of 1 or 2 bytes)
takes the row gather, a longer one the word gather.

The row gather is for short batches, where numpy's per-call overhead,
not table reads, sets the cost.  Row (l * planes + p) * entries + x of
its row table holds b[l, :] * (x << 8p), all mm products of one byte.
Plane row r of the input, offset by r * entries, indexes those rows, so
one `take` along axis 0 gathers the products of every plane row, one
XOR reduce over the plane rows sums them, and one copy puts the sum in
the output layout: three numpy calls, whatever kk and mm.

The word gather takes the output columns in chunks of as many symbols as
an 8-byte word holds: eight one-byte or four two-byte lanes.  For each
input row l of `b` with a nonzero coefficient in a chunk, and each byte
plane p, a word table holds in lane j of entry x the product of
b[l, j0 + j] by x << 8p, in the smallest word of 1, 2, 4 or 8 bytes
that fits the chunk.  One `take` of that table by plane p of column l
yields those products for every output column of the chunk at once,
and the chunk is the XOR of those gathers (the first one is written
straight into the accumulator).  One lane transpose moves each chunk
into the output rows.  Long batches are walked in slices of n, so that
a slice's accumulator and gather buffer stay in cache.

Both kinds of table depend only on the field and the values of `b`, so
they are kept in one memo keyed on the kind, the field's (m, polynomial)
and b's dtype, shape and bytes, and evicted oldest first to stay within
`TABLE_MEMO_BYTES`.  A matrix's row table takes kk * planes * entries *
mm symbols, and its word tables up to kk * planes * entries *
ceil(mm / lanes) * 8 bytes (q entries for m <= 8, 256 above); tables
that exceed the whole budget are not kept.
"""

from __future__ import annotations

import threading

import numpy as np

from .galois import FieldContext

# perfbench/run.py reads this for its run record; the kernel is numpy only.
NUMBA_ACTIVE = False

# Bytes of tables the memo keeps: 8 MiB holds the row tables of 145
# 15 x 15 GF(2^8) decode matrices, the largest in a k <= 16 code (or
# the word tables of 136).
TABLE_MEMO_BYTES = 8 << 20

# Bytes of the widest word table entry: 8 one-byte or 4 two-byte products.
_WORD_BYTES = 8

# Accumulator bytes per slice of the n symbols.  A slice's accumulator,
# gather buffer and the intp copy of its indices that `take` makes then
# stay well inside L2: on a Xeon with 2 MiB of L2 per core, slicing took
# an 8 x 8 product at n = 65,536 from 2.4 to 1.6 ms.
_SLICE_BYTES = 128 << 10

# Bytes per input column, n times the symbol size, up to which
# `gf_matmul` takes the row gather.  On a 2-core Xeon, with warm tables,
# over seven shapes from (3, 1) to (16, 16), the row gather took
# 0.4-0.8x the word gather's time at 1024 bytes on GF(2^8) and 0.3-0.9x
# at 2048 bytes on GF(2^16) (n = 1024 on both), broke even at 2048 bytes
# on GF(2^8) (0.5-1.4x), and at 4096 bytes lost on most GF(2^8) shapes
# (up to 1.4x) and took 2.5x for (12, 4) on GF(2^16).  Bytes, not n,
# because each byte plane is one more gathered row per symbol.
_ROW_GATHER_BYTES = 2048

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


def _row_table(b: np.ndarray, field: FieldContext) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """(the row table of b, the plane offsets into it), with their bytes.

    Row (l * planes + p) * entries + x of the read-only (kk * planes *
    entries, mm) table holds b[l, :] * (x << 8p), so plane row r of the
    input, offset by r * entries, indexes its products with every output
    column.
    """
    products = field.plane_products(b)
    kk, mm, planes, entries = products.shape
    table = np.ascontiguousarray(products.transpose(0, 2, 3, 1)).reshape(kk * planes * entries, mm)
    table.setflags(write=False)
    offsets = np.arange(0, kk * planes * entries, entries, dtype=np.intp)[:, None]
    return (table, offsets), table.nbytes + offsets.nbytes


def _word_tables(b: np.ndarray, field: FieldContext) -> tuple[list[tuple[int, int, list[int], np.ndarray]], int]:
    """(first column, width, plane rows, their word tables) per chunk of b's columns, with their bytes.

    Plane row l * planes + p is byte plane p of input column l, for each
    row l of b with a nonzero coefficient in the chunk.  The tables of a
    chunk form one read-only (len(plane rows), entries) array of unsigned
    words, whose lane j in memory is the product of b[l, first column + j]
    by x << 8p.
    """
    lane = field.symbol_dtype
    per_word = _WORD_BYTES // lane.itemsize
    chunks = []
    for j0 in range(0, b.shape[1], per_word):
        sub = b[:, j0 : j0 + per_word]
        w = sub.shape[1]
        word = 1 << (w * lane.itemsize - 1).bit_length()
        rows = np.flatnonzero(sub.any(axis=1))
        products = field.plane_products(sub[rows])
        planes, entries = products.shape[2:]
        lanes = np.zeros((len(rows), planes, entries, word // lane.itemsize), dtype=lane)
        lanes[..., :w] = products.transpose(0, 2, 3, 1)
        tables = lanes.view(f"u{word}").reshape(len(rows) * planes, entries)
        tables.setflags(write=False)
        chunks.append((j0, w, [l * planes + p for l in rows.tolist() for p in range(planes)], tables))
    return chunks, sum(tables.nbytes for *_, tables in chunks)


class _TableMemo:
    """Tables by (kind, field, coefficient values), within a byte budget.

    The kind is the function that builds the tables, `_row_table` or
    `_word_tables`.  Entries are evicted oldest first.  A lookup is one
    dict read; tables are built outside the lock and stored whole under
    it, so concurrent callers may build the same tables twice but never
    see a partial entry.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: dict[tuple, tuple[object, int]] = {}
        self._lock = threading.Lock()

    def tables(self, build, field: FieldContext, b: np.ndarray):
        """`build(b, field)`'s tables, for a b whose entries are already checked."""
        key = (build, field.m, field.reduction_poly, b.dtype, b.shape, b.tobytes())
        entry = self._entries.get(key)
        if entry is not None:
            return entry[0]
        tables, size = build(b.astype(field.symbol_dtype), field)
        if size <= self.budget:
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = (tables, size)
                    self.nbytes += size
                    while self.nbytes > self.budget:
                        self.nbytes -= self._entries.pop(next(iter(self._entries)))[1]
        return tables


_TABLES = _TableMemo(TABLE_MEMO_BYTES)


def _row_gather(cols_t: np.ndarray, b: np.ndarray, field: FieldContext) -> np.ndarray:
    """The (mm, n) product from plane rows cols_t: one take, one XOR reduce."""
    table, offsets = _TABLES.tables(_row_table, field, b)
    products = table.take(cols_t + offsets, axis=0)
    return np.ascontiguousarray(np.bitwise_xor.reduce(products, axis=0).T)


def _word_gather(cols_t: np.ndarray, b: np.ndarray, field: FieldContext) -> np.ndarray:
    """The (mm, n) product from plane rows cols_t: word-table gathers per chunk."""
    lane = field.symbol_dtype
    n = cols_t.shape[1]
    out = np.empty((b.shape[1], n), dtype=lane)
    for j0, w, rows, tables in _TABLES.tables(_word_tables, field, b):
        if not rows:
            out[j0 : j0 + w] = 0
            continue
        word = tables.itemsize
        step = _SLICE_BYTES // word
        temp = np.empty((2, min(step, n)), dtype=tables.dtype)
        for s0 in range(0, n, step):
            s1 = min(s0 + step, n)
            cols = cols_t[:, s0:s1]
            acc = out[j0, s0:s1] if word == lane.itemsize else temp[0, : s1 - s0]
            buf = temp[1, : s1 - s0]
            tables[0].take(cols[rows[0]], out=acc, mode="clip")
            for l, table in zip(rows[1:], tables[1:]):
                table.take(cols[l], out=buf, mode="clip")
                acc ^= buf
            if word > lane.itemsize:
                out[j0 : j0 + w, s0:s1] = acc.view(out.dtype).reshape(s1 - s0, -1)[:, :w].T
    return out


def gf_matmul(a: np.ndarray, b: np.ndarray, field: FieldContext) -> np.ndarray:
    """Matrix product a @ b over a field with m <= 16, on symbols.

    Every symbol of `a` must lie below the field order.  `b` must be a
    (kk, mm) matrix of integers in [0, q), else ValueError.  The result
    is an (n, mm) array in the field's symbol dtype, returned as the
    transpose of a C-ordered (mm, n) array.
    """
    lane = field.symbol_dtype
    cols_t = np.ascontiguousarray(np.asarray(a, dtype=lane).T)
    kk, n = cols_t.shape
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != kk:
        raise ValueError(f"coefficients must have shape ({kk}, mm), got {b.shape}")
    if not _symbols_in_range(b, field.order):
        raise ValueError(f"coefficients must be integers in [0, {field.order})")
    if lane.itemsize == 2:
        # plane row 2l + p holds byte p of input column l, low byte first
        planes = np.empty((kk, 2, n), dtype=np.uint8)
        planes[:, 0], planes[:, 1] = cols_t, cols_t >> 8
        cols_t = planes.reshape(2 * kk, n)
    gather = _row_gather if n * lane.itemsize <= _ROW_GATHER_BYTES else _word_gather
    return gather(cols_t, b, field).T
