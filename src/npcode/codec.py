"""Systematic [k, k-t] MDS erasure codes spread over k working paths.

A code for k unit-capacity connections tolerating t failures keeps the
first k-t symbols as plain data and derives the last t as parity, using
the generator [I | P].  P comes from a Vandermonde matrix over distinct
field points systematized by Gaussian elimination, which makes every
choice of k-t generator columns invertible, so any t erased positions
can be solved back from the survivors.

Erasure positions are assumed known (detected failures).  All arithmetic
runs on integer arrays.  One Gauss-Jordan elimination, `_row_reduce`,
reduces the Vandermonde matrix to [I | P] and, as `_gf_inverse`, tests
generator minors in `verify_mds` and inverts the decode matrix of an
erasure set.  Each code caches a decode plan per erasure set, shared by
`recover` and `recover_blocks`, so a pattern that repeats is inverted
once.  A plan holds one coefficient matrix that yields both the data
and the surviving parity symbols the data must reproduce, so
`recover_blocks` makes at most one `kernels.gf_matmul` call (m <= 16).
Each surviving data position is a unit column of that matrix, which the
kernel's long-batch gather copies, so there only the lost data and the
check symbols cost table gathers.
The kernel keeps its tables for a coefficient matrix (a parity matrix,
a decode plan's matrix) in its own memo, within the byte budget
`kernels.TABLE_MEMO_BYTES`, so a repeating pattern also reuses them.
The scalar `encode` and `recover` are one-row calls of `encode_blocks`
and `recover_blocks`.  FieldElement stays at the API edge: data blocks,
codewords and `NpcCode.parity`.

The block path keeps symbols column-major, in the field's symbol dtype
(uint8 for m <= 8, uint16 above): `encode_blocks` returns its (n, k)
codewords as the transpose of one C-ordered (k, n) buffer, so a codeword
position is a contiguous row of n symbols, and `recover_blocks` returns
(n, k-t) data the same way.  Both accept any input layout and check
symbol ranges before any cast; codewords straight from `encode_blocks`
reach the kernel with no copy or transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .kernels import _symbols_in_range
from .galois import DEFAULT_M, FieldContext, FieldElement

__all__ = [
    "CapacityExceededError",
    "CodecError",
    "Codeword",
    "DataBlock",
    "InconsistentSymbolsError",
    "NpcCode",
    "build_code",
    "encode",
    "encode_blocks",
    "recover",
    "recover_blocks",
    "verify_mds",
]


class CodecError(ValueError):
    pass


class CapacityExceededError(CodecError):
    """More erasures than the code can tolerate: capacity exceeded."""


class InconsistentSymbolsError(CodecError):
    """Surviving symbols disagree with every codeword; corruption beyond erasures."""


@dataclass(frozen=True)
class DataBlock:
    """k-t raw data symbols."""

    symbols: tuple[FieldElement, ...]

    @classmethod
    def of(cls, field: FieldContext, values: Iterable[int]) -> "DataBlock":
        return cls(tuple(field.element(v) for v in values))

    def values(self) -> list[int]:
        return [s.value for s in self.symbols]

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Codeword:
    """k transmitted symbols plus the set of known-erased positions (0-based)."""

    symbols: tuple[FieldElement, ...]
    erased: frozenset[int] = frozenset()

    @classmethod
    def of(cls, field: FieldContext, values: Iterable[int], erased: Iterable[int] = ()) -> "Codeword":
        return cls(tuple(field.element(v) for v in values), frozenset(erased))

    def with_erasures(self, positions: Iterable[int]) -> "Codeword":
        """Mark positions erased; their symbol values are zeroed as lost."""
        erased = self.erased | frozenset(positions)
        zero = self.symbols[0].context.zero
        syms = tuple(zero if i in erased else s for i, s in enumerate(self.symbols))
        return Codeword(syms, erased)

    def values(self) -> list[int]:
        return [s.value for s in self.symbols]

    def __len__(self) -> int:
        return len(self.symbols)


class NpcCode:
    """An immutable [k, k-t] systematic code over a FieldContext.

    parity is the (k-t) x t coefficient matrix: column j gives the
    weights of parity symbol j as a combination of the data symbols.
    The constructor checks shape only, so verify_mds can inspect
    arbitrary parities; build_code guarantees the MDS and field-order
    constraints for every code it produces.  The code keeps its parity
    and generator [I | P] as read-only integer arrays, and a decode plan
    per erasure set once that set has been recovered.
    """

    def __init__(self, k: int, t: int, field: FieldContext, parity: Sequence[Sequence[FieldElement]]):
        if not 1 <= t < k:
            raise CodecError(f"need 1 <= t < k, got k={k}, t={t}")
        rows = tuple(tuple(row) for row in parity)
        if len(rows) != k - t or any(len(r) != t for r in rows):
            raise CodecError(f"parity must be {k - t}x{t}")
        self.k = k
        self.t = t
        self.field = field
        self.parity = rows
        dtype = field.symbol_dtype
        p = np.array([[e.value for e in row] for row in rows], dtype=dtype).reshape(k - t, t)
        g = np.hstack([np.eye(k - t, dtype=dtype), p])
        p.setflags(write=False)
        g.setflags(write=False)
        self._parity_ints = p
        self._generator_ints = g
        # frozenset(erased) -> (use, coef, check); see _decode_plan.  Threads
        # that miss together compute equal plans, so the last store is harmless.
        self._decode: dict[frozenset[int], tuple] = {}

    @property
    def data_len(self) -> int:
        return self.k - self.t

    def generator_rows(self) -> list[list[FieldElement]]:
        """The full generator [I | P] as k-t rows of length k."""
        return [self.field.elements(int(v) for v in row) for row in self._generator_ints]

    def parity_int_matrix(self) -> np.ndarray:
        return self._parity_ints

    def generator_int_matrix(self) -> np.ndarray:
        return self._generator_ints

    def __repr__(self) -> str:
        return f"NpcCode(k={self.k}, t={self.t}, field=GF(2^{self.field.m}))"


# -- linear algebra over the field on integer arrays ------------------------------


def _times(tables: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Each coefficient of `tables` (from `plane_products`) times the symbol row."""
    if tables.shape[1] == 1:
        return tables[:, 0].take(row, axis=1)
    return tables[:, 0].take(row & 0xFF, axis=1) ^ tables[:, 1].take(row >> 8, axis=1)


def _row_reduce(aug: np.ndarray, field: FieldContext) -> np.ndarray:
    """Gauss-Jordan: reduce the leading square block of aug to I, in place.

    Per column, one `plane_products` call gives the tables of the pivot's
    inverse and of the other rows' nonzero factors: one gather normalises
    the pivot row, one clears those rows.  CodecError if singular.
    """
    n = aug.shape[0]
    for col in range(n):
        column = aug[:, col].tolist()
        pivot = next((r for r in range(col, n) if column[r]), None)
        if pivot is None:
            raise CodecError("singular matrix")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        rows = [r for r in range(n) if column[r] and r != pivot]
        inv = field.inv_int(column[pivot])
        if inv != 1 or rows:
            tables = field.plane_products([inv] + [column[r] for r in rows])
            aug[col, col:] = _times(tables[:1], aug[col, col:])[0]
            aug[rows, col:] ^= _times(tables[1:], aug[col, col:])
    return aug


def _gf_inverse(a: np.ndarray, field: FieldContext) -> np.ndarray:
    """Gauss-Jordan inverse of a square integer matrix; CodecError if singular."""
    n = a.shape[0]
    return _row_reduce(np.hstack([a, np.eye(n, dtype=a.dtype)]), field)[:, n:]


# -- code construction ----------------------------------------------------------


def build_code(k: int, t: int, field: FieldContext | None = None) -> NpcCode:
    """Build the [k, k-t] systematic code tolerating t erasures.

    The parity block is obtained by evaluating the data polynomial at k
    distinct points (0, 1, g, g^2, ... for a generator g) and reducing
    the evaluation matrix to systematic form, so the result is MDS.
    Requires field order >= k to have enough distinct points.
    """
    if field is None:
        field = FieldContext(DEFAULT_M)
    if t < 1:
        raise CodecError(f"t must be at least 1, got {t}")
    if t >= k:
        raise CodecError(f"t must be smaller than k, got k={k}, t={t}")
    if field.order < k:
        raise CodecError(
            f"field too small: order {field.order} < k = {k} distinct evaluation points needed"
        )
    d = k - t
    g = field.generator().value
    points = [0, 1]
    while len(points) < k:
        points.append(field.mul_int(points[-1], g))
    rows = [[1] * k]
    while len(rows) < d:
        rows.append([field.mul_int(x, y) for x, y in zip(rows[-1], points)])
    parity = _row_reduce(np.array(rows, dtype=field.symbol_dtype), field)[:, d:]
    return NpcCode(k, t, field, [field.elements(row) for row in parity.tolist()])


def verify_mds(code: NpcCode) -> bool:
    """True iff every k-t generator columns are linearly independent."""
    g = code.generator_int_matrix()
    for cols in combinations(range(code.k), code.data_len):
        try:
            _gf_inverse(g[:, list(cols)], code.field)
        except CodecError:
            return False
    return True


def _decode_plan(code: NpcCode, erased: Iterable[int]) -> tuple[list[int], np.ndarray | None, list[int]]:
    """(use, coef, check) for an erasure set, from the code's cache.

    use is the first k-t surviving positions and check the surviving
    parity positions outside use.  With solve the inverse of use's
    generator columns, data = received[use] @ solve and the check
    positions must read data @ G[:, check]; by associativity that is
    received[use] @ (solve @ G[:, check]).  So coef holds both in one
    matrix, [solve | solve @ G[:, check]], and one product gives the data
    and the check symbols.  When use is the data positions, solve is the
    identity and coef is G[:, check]; with no check position it is solve;
    with neither it is None.  Every surviving data position is in use,
    and data @ G[:, use] equals received[use] by construction, so the
    consistency check compares check alone.
    """
    key = frozenset(erased)
    plan = code._decode.get(key)
    if plan is not None:
        return plan
    if not key <= set(range(code.k)):
        raise CodecError(f"erased positions out of range: {sorted(key)}")
    if len(key) > code.t:
        raise CapacityExceededError(
            f"capacity exceeded: {len(key)} erasures > t = {code.t}"
        )
    survivors = [i for i in range(code.k) if i not in key]
    d = code.data_len
    use, check = survivors[:d], survivors[d:]
    g = code.generator_int_matrix()
    coef = g[:, check] if check else None
    if use != list(range(d)):
        solve = _gf_inverse(g[:, use], code.field)
        coef = solve if coef is None else np.hstack([solve, kernels.gf_matmul(solve, coef, code.field)])
    if coef is not None:
        coef.setflags(write=False)
    plan = code._decode[key] = (use, coef, check)
    return plan


# -- single-block encode / recover ----------------------------------------------


def encode(code: NpcCode, data: DataBlock | Sequence[FieldElement]) -> Codeword:
    """Systematic encode: data symbols pass through, parity appended."""
    symbols = tuple(data.symbols if isinstance(data, DataBlock) else data)
    if len(symbols) != code.data_len:
        raise CodecError(f"expected {code.data_len} data symbols, got {len(symbols)}")
    f = code.field
    f._check(*symbols)
    word = encode_blocks(code, np.array([[s.value for s in symbols]], dtype=f.symbol_dtype))[0]
    return Codeword(symbols + tuple(f.elements(word[code.data_len :].tolist())))


def recover(code: NpcCode, received: Codeword) -> DataBlock:
    """Solve the data back from any k-t surviving symbols.

    Erased symbols are ignored.  Raises CapacityExceededError past t
    erasures and InconsistentSymbolsError when the survivors fit no
    codeword.
    """
    if len(received.symbols) != code.k:
        raise CodecError(f"expected {code.k} symbols, got {len(received.symbols)}")
    use, _, check = _decode_plan(code, received.erased)
    f = code.field
    f._check(*(received.symbols[i] for i in use + check))
    values = [0 if i in received.erased else s.value for i, s in enumerate(received.symbols)]
    data = recover_blocks(code, np.array([values], dtype=f.symbol_dtype), received.erased)[0]
    return DataBlock(tuple(f.elements(data.tolist())))


# -- block (bulk) encode / recover ------------------------------------------------


def _as_symbol_matrix(arr, cols: int, field: FieldContext) -> np.ndarray:
    """arr as an (n, cols) array of field symbols, without a copy if it is one.

    The range is checked on the incoming dtype, before the cast to the
    field's symbol dtype, so an out-of-range value raises instead of
    wrapping.
    """
    a = np.asarray(arr)
    if a.ndim != 2 or a.shape[1] != cols:
        raise CodecError(f"expected shape (n, {cols}), got {a.shape}")
    if not _symbols_in_range(a, field.order):
        raise CodecError(f"symbols must be integers in [0, {field.order})")
    return a.astype(field.symbol_dtype, copy=False)


def encode_blocks(code: NpcCode, data: np.ndarray) -> np.ndarray:
    """Encode n data blocks at once: (n, k-t) symbols -> (n, k) symbols.

    The codewords come back as the (n, k) transpose of one C-ordered
    (k, n) buffer: each codeword position is a contiguous row of n
    symbols, data rows first, in the field's symbol dtype.  Any input
    layout is accepted; the data is transposed into the buffer once.
    """
    a = _as_symbol_matrix(data, code.data_len, code.field)
    rows = np.empty((code.k, a.shape[0]), dtype=code.field.symbol_dtype)
    rows[: code.data_len] = a.T
    parity = kernels.gf_matmul(rows[: code.data_len].T, code.parity_int_matrix(), code.field)
    rows[code.data_len :] = parity.T
    return rows.T


def recover_blocks(code: NpcCode, received: np.ndarray, erased: Iterable[int]) -> np.ndarray:
    """Recover n blocks sharing one erasure pattern: (n, k) -> (n, k-t) symbols.

    Any input layout is accepted, and the column-major one that
    `encode_blocks` returns is the fastest: its codeword positions are
    read as contiguous rows without a transpose.  The data comes back as
    the (n, k-t) transpose of a C-ordered (k-t, n) array.
    """
    r = _as_symbol_matrix(received, code.k, code.field)
    use, coef, check = _decode_plan(code, erased)
    rows = np.ascontiguousarray(r.T)
    data = rows[use].T
    if coef is not None:
        out = kernels.gf_matmul(data, coef, code.field)
        if coef.shape[1] > len(check):  # coef solves for the data first
            data = out[:, : code.data_len]
        if check and not np.array_equal(out[:, coef.shape[1] - len(check) :].T, rows[check]):
            raise InconsistentSymbolsError("surviving symbols fit no codeword")
    return data
