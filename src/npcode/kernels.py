"""The GF(2^m) block kernel (m <= 8): one product table, one column at a time.

`gf_matmul(a, b, field)` multiplies an (n, kk) uint8 symbol matrix by a
small (kk, mm) coefficient matrix.  It reads `a` column by column, as
the rows of the C-ordered (kk, n) array `a.T`: that costs nothing when
`a` is already the transpose of such an array (the column-major layout
`codec` keeps), and one transpose otherwise.  It builds output column j
as the XOR, over the coefficients c = b[l, j], of `MUL[c].take(column
l)`: a zero coefficient is skipped and a coefficient of one XORs the
column in as it is.  The output comes back in the same layout, as the
transpose of a C-ordered (mm, n) array.  `MUL` is the field's full
q x q product table, `field.mul_table` (the table-driven kernel of
Plank, Greenan & Miller, "Screaming Fast Galois Field Arithmetic Using
SIMD Instructions", FAST 2013).
"""

from __future__ import annotations

import numpy as np

from .galois import FieldContext

# perfbench/run.py reads this for its run record; the kernel is numpy only.
NUMBA_ACTIVE = False

__all__ = ["NUMBA_ACTIVE", "gf_matmul"]


def gf_matmul(a: np.ndarray, b: np.ndarray, field: FieldContext) -> np.ndarray:
    """Matrix product a @ b over a field with m <= 8, on uint8 symbols.

    Every symbol of `a` must lie below the field order.  The result is
    an (n, mm) uint8 array, returned as the transpose of a C-ordered
    (mm, n) array.
    """
    mul = field.mul_table
    cols_t = np.ascontiguousarray(np.asarray(a, dtype=np.uint8).T)
    cols = list(cols_t)
    b = np.asarray(b)
    n = cols_t.shape[1]
    out = np.zeros((b.shape[1], n), dtype=np.uint8)
    buf = np.empty(n, dtype=np.uint8)
    coeffs = b.tolist()
    for j, acc in enumerate(out):
        for col, row in zip(cols, coeffs):
            c = row[j]
            if c == 1:
                acc ^= col
            elif c:
                mul[c].take(col, out=buf, mode="clip")
                acc ^= buf
    return out.T
