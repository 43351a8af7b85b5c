"""Systematic [k, k-t] MDS erasure codes spread over k working paths.

A code for k unit-capacity connections tolerating t failures keeps the
first k-t symbols as plain data and derives the last t as parity, using
the generator [I | P].  It is the evaluation view of Reed-Solomon
coding (Plank, "A Tutorial on Reed-Solomon Coding for Fault-Tolerance in
RAID-like Systems", 1997): position c of a codeword holds f(x_c), for k
distinct field points x = 0, 1, g, g^2, ... (g the field's generator)
and f the polynomial of degree below k-t that takes the data at the
first k-t points.  Any k-t values of f determine it, so any t erased
positions can be solved back from the survivors.

Erasure positions are assumed known (detected failures).  All arithmetic
runs on integer arrays.  One routine, `_lagrange`, builds every
coefficient matrix: the Lagrange basis over some points, evaluated at
others, in one vectorized pass over the field's log/exp tables, with no
kernel call.  The parity is P[i, j] = L_i(x_{k-t+j}), the basis over the
data points.  Each code caches a decode plan per erasure set, shared by
`recover` and `recover_blocks`, so a pattern that repeats is solved
once.  The code is systematic, so each surviving data symbol is one of
the received symbols: `recover_blocks` copies those, and a plan holds
one coefficient matrix, the basis over k-t surviving points evaluated at
the lost data points and at the surviving parity points the data must
reproduce, at most t columns, so a recovery makes at most one call of
the kernel's unchecked product, `kernels._product` (m <= 16).  A plan is
compiled once with all that call needs: its positions as read-only
index arrays, its checked matrix and that matrix's memo key, so a
repeated pattern does only the gathers and the byte compare of the
check symbols.  `encode_blocks` calls `kernels.gf_matmul`.
The kernel keeps its tables for a coefficient matrix (a parity matrix,
a decode plan's matrix) in its own memo, within the byte budget
`kernels.TABLE_MEMO_BYTES`; a plan holds only the key, so the memo alone
bounds their memory.
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
from functools import cached_property
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

    def values(self) -> list[int]:
        return [s.value for s in self.symbols]

    def __len__(self) -> int:
        return len(self.symbols)


class NpcCode:
    """The [k, k-t] systematic MDS code tolerating t erasures over a FieldContext.

    NpcCode(k, t, field) builds the code: it requires 1 <= t < k and
    field order >= k, for k distinct evaluation points 0, 1, g, g^2, ...
    parity is the (k-t) x t coefficient matrix, as FieldElements made on
    first read: column j gives the weights of parity symbol j as a
    combination of the data symbols.  The code keeps its points and
    parity as read-only integer arrays, and a decode plan per erasure
    set once that set has been recovered.
    """

    def __init__(self, k: int, t: int, field: FieldContext):
        if t < 1:
            raise CodecError(f"t must be at least 1, got {t}")
        if t >= k:
            raise CodecError(f"t must be smaller than k, got k={k}, t={t}")
        if field.order < k:
            raise CodecError(
                f"field too small: order {field.order} < k = {k} distinct evaluation points needed"
            )
        self.k = k
        self.t = t
        self.field = field
        points = np.zeros(k, dtype=field.symbol_dtype)
        points[1:] = field.log_exp[1][: k - 1]
        points.setflags(write=False)
        self._points = points
        self._parity_ints = _lagrange(field, points, k - t)
        # frozenset(erased) -> _Plan; see _decode_plan.  Threads
        # that miss together compute equal plans, so the last store is harmless.
        self._decode: dict[frozenset[int], _Plan] = {}

    @property
    def data_len(self) -> int:
        return self.k - self.t

    @cached_property
    def parity(self) -> tuple[tuple[FieldElement, ...], ...]:
        return tuple(tuple(self.field.elements(row)) for row in self._parity_ints.tolist())

    def parity_int_matrix(self) -> np.ndarray:
        return self._parity_ints

    def __repr__(self) -> str:
        return f"NpcCode(k={self.k}, t={self.t}, field=GF(2^{self.field.m}))"


# -- code and decode-plan matrices ---------------------------------------------


def _lagrange(field: FieldContext, points: np.ndarray, d: int) -> np.ndarray:
    """M[i, j] = L_i(points[d + j]), the Lagrange basis over the first d
    of the distinct points evaluated at the others, read-only.

    With x the first d points and + the field's addition (XOR), which is
    also its subtraction, L_i(y) = w_i l(y) / (y + x_i), where l(y)
    is the product of the (y + x_v) and 1/w_i that of the (x_i + x_v)
    for v != i.  So log M[i, j] is log l(y_j) - log(y_j + x_i) -
    log(1/w_i), mod q - 1, from one gather of the logs of x_i + p for
    every point p.  log[0] is 0, so the zero diagonal x_i + x_i adds
    nothing to the sums.
    """
    log, exp = field.log_exp
    logs = log[points[:d, None] ^ points]
    to_y = logs[:, d:]
    coef = exp[(to_y.sum(axis=0) - to_y - logs[:, :d].sum(axis=1)[:, None]) % (field.order - 1)]
    coef.setflags(write=False)
    return coef


def build_code(k: int, t: int, field: FieldContext | None = None) -> NpcCode:
    """The [k, k-t] systematic code tolerating t erasures, over GF(2^8) by default."""
    return NpcCode(k, t, FieldContext(DEFAULT_M) if field is None else field)


def _indices(positions: list[int]) -> np.ndarray:
    a = np.array(positions, dtype=np.intp)
    a.setflags(write=False)
    return a


class _Plan:
    """An erasure set's decode plan; see `_decode_plan`.

    use, lost and check are read-only intp arrays of positions, coef the
    read-only coefficient matrix or None, and key coef's
    `kernels._memo_key`, which finds its gather tables in the kernel's
    memo without keeping them alive.
    """

    __slots__ = ("use", "lost", "check", "coef", "key")

    def __init__(self, use: list[int], lost: list[int], check: list[int], coef: np.ndarray | None, field: FieldContext):
        self.use, self.lost, self.check = _indices(use), _indices(lost), _indices(check)
        self.coef = coef
        self.key = None if coef is None else kernels._memo_key(coef, field)


def _decode_plan(code: NpcCode, erased: Iterable[int]) -> _Plan:
    """The decode plan of an erasure set, from the code's cache.

    use is the first k-t surviving positions, lost the erased data
    positions and check the surviving parity positions outside use.
    The values at the use points determine the data polynomial f, so
    f(y) is the sum over u in use of received[u] L_u(y), with L the
    Lagrange basis over the use points x[use]: coef is that basis at the
    points x[lost + check], at most t columns, and one product gives the
    lost data and the check symbols.  Every other data position is received
    as is.  With no data lost, use is the data positions and coef is
    the parity's check columns; with no check position either, coef is
    None.  f takes the received values at the use points by
    construction, so the consistency check compares check alone.  The
    plan is built once per erasure set, with everything `recover_blocks`
    reads: the positions as index arrays and coef's kernel memo key.
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
    lost = sorted(i for i in key if i < d)
    coef = _lagrange(code.field, code._points[use + lost + check], d) if lost or check else None
    plan = code._decode[key] = _Plan(use, lost, check, coef, code.field)
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
    plan = _decode_plan(code, received.erased)
    f = code.field
    f._check(*(received.symbols[i] for i in np.concatenate((plan.use, plan.check))))
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
    the (n, k-t) transpose of a C-ordered (k-t, n) array: a copy of the
    received data rows, with the lost ones solved in.  Every batch size
    and field takes one path: the plan's index arrays pick the rows, and
    one `kernels._product` call on the plan's matrix and key gives the
    lost data and the check symbols, which must equal the received ones
    byte for byte.
    """
    r = _as_symbol_matrix(received, code.k, code.field)
    plan = _decode_plan(code, erased)
    rows = r.T
    data = rows[: code.data_len].copy()
    if plan.coef is not None:
        lost = plan.lost
        # with no data lost, use is the data positions: their copy is data
        out = kernels._product(rows.take(plan.use, axis=0) if lost.size else data, plan.coef, code.field, plan.key)
        if lost.size:
            data[lost] = out[: lost.size]
        if plan.check.size and out[lost.size :].tobytes() != rows.take(plan.check, axis=0).tobytes():
            raise InconsistentSymbolsError("surviving symbols fit no codeword")
    return data.T
