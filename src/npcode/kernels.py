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

`gf_matmul` checks its operands, then runs `_product`, the unchecked
product on (kk, n) symbol rows, which `codec.encode_blocks` reaches
through `gf_matmul` and `codec.recover_blocks` calls directly with a
decode plan's matrix and memo key, both made once when the plan was
built.  `_product` picks the gather from the input alone: a batch of up to
`_ROW_GATHER_BYTES` bytes per input column (n symbols of 1 or 2 bytes)
takes the row gather, a longer one the word gather.  With no input
column (kk = 0) there is nothing to gather, and the row gather's XOR
reduce over no rows gives the zero product.

The row gather is for short batches, where numpy's per-call overhead,
not table reads, sets the cost.  Row (l * planes + p) * entries + x of
its row table holds b[l, :] * (x << 8p), all mm products of one byte.
Plane row r of the input, offset by r * entries, indexes those rows, so
one `take` along axis 0 gathers the products of every plane row, one
XOR reduce over the plane rows sums them, and one copy puts the sum in
the output layout: three numpy calls, whatever kk and mm.

The word gather takes the output columns in order, in chunks of as many
symbols as an 8-byte word holds: eight one-byte or four two-byte lanes.
For each input row l of `b` and each byte plane p, a word table holds in
lane i of entry x the product of b[l, j] by x << 8p, for the chunk's
i-th output column j, in the smallest word of 1, 2, 4 or 8 bytes that
fits the chunk.  One `take` of that table by plane p of column l yields
those products for every output column of the chunk at once, and the
chunk is the XOR of those gathers (the first one is written straight
into the accumulator).  One lane transpose moves each chunk into its
output rows.  Long batches are walked in slices of n, so that a slice's
accumulator and gather buffer stay in cache.

Both kinds of table depend only on the field and the values of `b`, so
they are kept in one memo keyed on the kind, the field's (m, polynomial)
and b's dtype, shape and bytes, and evicted oldest first to stay within
`TABLE_MEMO_BYTES`.  A matrix's row table takes kk * planes * entries *
mm symbols, and its word tables up to kk * planes * entries *
ceil(mm / lanes) * 8 bytes (q entries for m <= 8, 256 above); tables
that exceed the whole budget are not kept.  The gathers look their
tables up by b's `_memo_key`: `gf_matmul` builds it on every call, and a
decode plan keeps its own, so a repeated recovery builds none.  Only the
memo holds the tables, so the budget bounds their memory.
"""

from __future__ import annotations

import threading

import numpy as np

from .galois import FieldContext

# perfbench/run.py reads this for its run record; the kernel is numpy only.
NUMBA_ACTIVE = False

# Bytes of tables the memo keeps.  A k <= 16 code's matrices are at most
# (k-t) x t, so 8 MiB holds the row tables of 510 8 x 8 GF(2^8) matrices,
# the largest, or the word tables of 372 11 x 5 ones, the largest there.
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


def _word_tables(b: np.ndarray, field: FieldContext) -> tuple[list, int]:
    """The chunks of b's columns, with their bytes.

    The chunks take the columns in order, as many per chunk as a word
    holds, as (the slice of their output columns, their word tables).
    The tables of a chunk form one read-only (kk * planes, entries) array
    of unsigned words: in row l * planes + p, for byte plane p of input
    column l, lane i of entry x holds the product of b[l, the chunk's
    i-th output column] by x << 8p.
    """
    lane = field.symbol_dtype
    per_word = _WORD_BYTES // lane.itemsize
    chunks = []
    for c0 in range(0, b.shape[1], per_word):
        cols = slice(c0, c0 + per_word)
        products = field.plane_products(b[:, cols])
        kk, width, planes, entries = products.shape
        word = 1 << (width * lane.itemsize - 1).bit_length()
        lanes = np.zeros((kk, planes, entries, word // lane.itemsize), dtype=lane)
        lanes[..., :width] = products.transpose(0, 2, 3, 1)
        tables = lanes.view(f"u{word}").reshape(kk * planes, entries)
        tables.setflags(write=False)
        chunks.append((cols, tables))
    return chunks, sum(tables.nbytes for _, tables in chunks)


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

    def tables(self, build, field: FieldContext, b: np.ndarray, key: tuple):
        """`build(b, field)`'s tables, for a b whose entries are already
        checked and whose `_memo_key` is key."""
        key = (build, *key)
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


def _memo_key(b: np.ndarray, field: FieldContext) -> tuple:
    """b's memo key, less the kind of table: the field's (m, polynomial)
    and b's dtype, shape and bytes."""
    return (field.m, field.reduction_poly, b.dtype, b.shape, b.tobytes())


def _planes(symbols: np.ndarray) -> np.ndarray:
    """The byte-plane rows of the (kk, n) symbol rows: the rows themselves
    for one-byte symbols, else row 2l + p holding byte p of row l, low
    byte first."""
    if symbols.itemsize == 1:
        return symbols
    kk, n = symbols.shape
    planes = np.empty((kk, 2, n), dtype=np.uint8)
    planes[:, 0], planes[:, 1] = symbols, symbols >> 8
    return planes.reshape(2 * kk, n)


def _row_gather(symbols: np.ndarray, b: np.ndarray, field: FieldContext, key: tuple) -> np.ndarray:
    """The (mm, n) product of the symbol rows: one take, one XOR reduce."""
    table, offsets = _TABLES.tables(_row_table, field, b, key)
    products = table.take(_planes(symbols) + offsets, axis=0)
    return np.ascontiguousarray(np.bitwise_xor.reduce(products, axis=0).T)


def _word_gather(symbols: np.ndarray, b: np.ndarray, field: FieldContext, key: tuple) -> np.ndarray:
    """The (mm, n) product of the symbol rows: word-table gathers per chunk."""
    lane = symbols.dtype
    n = symbols.shape[1]
    out = np.empty((b.shape[1], n), dtype=lane)
    planes = _planes(symbols)
    for cols, tables in _TABLES.tables(_word_tables, field, b, key):
        block = out[cols]
        word = tables.itemsize
        step = _SLICE_BYTES // word
        temp = np.empty((2, min(step, n)), dtype=tables.dtype)
        for s0 in range(0, n, step):
            s1 = min(s0 + step, n)
            part = planes[:, s0:s1]
            acc = block[0, s0:s1] if word == lane.itemsize else temp[0, : s1 - s0]
            buf = temp[1, : s1 - s0]
            tables[0].take(part[0], out=acc, mode="clip")
            for row, table in zip(part[1:], tables[1:]):
                table.take(row, out=buf, mode="clip")
                acc ^= buf
            if word > lane.itemsize:
                block[:, s0:s1] = acc.view(lane).reshape(s1 - s0, -1)[:, : len(block)].T
    return out


def _product(symbols: np.ndarray, b: np.ndarray, field: FieldContext, key: tuple) -> np.ndarray:
    """The C-ordered (mm, n) product of (kk, n) symbol rows by b.

    Nothing is checked: the rows must be in the field's symbol dtype, in
    any layout, b a (kk, mm) matrix with entries below the field order,
    and key its `_memo_key`.  A batch of up to `_ROW_GATHER_BYTES` bytes
    per input column takes the row gather, a longer one the word gather.
    """
    kk, n = symbols.shape
    if kk and n * symbols.itemsize > _ROW_GATHER_BYTES:
        return _word_gather(symbols, b, field, key)
    return _row_gather(symbols, b, field, key)


def gf_matmul(a: np.ndarray, b: np.ndarray, field: FieldContext) -> np.ndarray:
    """Matrix product a @ b over a field with m <= 16, on symbols.

    Every symbol of `a` must lie below the field order.  `b` must be a
    (kk, mm) matrix of integers in [0, q), else ValueError.  The result
    is an (n, mm) array in the field's symbol dtype, returned as the
    transpose of a C-ordered (mm, n) array.
    """
    symbols = np.ascontiguousarray(np.asarray(a, dtype=field.symbol_dtype).T)
    kk = symbols.shape[0]
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != kk:
        raise ValueError(f"coefficients must have shape ({kk}, mm), got {b.shape}")
    if not _symbols_in_range(b, field.order):
        raise ValueError(f"coefficients must be integers in [0, {field.order})")
    return _product(symbols, b, field, _memo_key(b, field)).T
