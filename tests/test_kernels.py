import sys
import threading
from itertools import combinations, product

import numpy as np
import pytest

from npcode import kernels
from npcode.codec import _decode_plan, build_code, encode_blocks, recover_blocks
from npcode.galois import FieldContext

from oracles import gf_mul_ref

GF8 = FieldContext(8)
GF16 = FieldContext(16)


def _matmul_oracle(a, b, ctx):
    n, kk = a.shape
    mm = b.shape[1]
    out = np.zeros((n, mm), dtype=ctx.symbol_dtype)
    for i in range(n):
        for j in range(mm):
            acc = 0
            for l in range(kk):
                acc ^= gf_mul_ref(int(a[i, l]), int(b[l, j]), ctx.reduction_poly, ctx.m)
            out[i, j] = acc
    return out


def _layouts(x):
    """x in C order, in Fortran order and as a strided x[::2] view."""
    spread = np.zeros((2 * x.shape[0], x.shape[1]), dtype=x.dtype)
    spread[::2] = x
    return [np.ascontiguousarray(x), np.asfortranarray(x), spread[::2]]


# (n, kk, mm).  After the first four, mm falls on each side of the 1, 2, 4
# and 8-byte word widths and of the chunk boundaries: 8 one-byte lanes per
# word for m <= 8, 4 two-byte lanes above.
_SHAPES = [(1, 1, 1), (5, 3, 4), (17, 8, 2), (40, 6, 6)] + [
    (9, kk, mm)
    for kk, mm in [(16, 1), (2, 2), (5, 3), (16, 4), (3, 5), (8, 8), (16, 9), (1, 16), (16, 17)]
]


def _spy_gathers(monkeypatch):
    """The names of the gathers gf_matmul runs, in call order."""
    ran = []
    for name in ("_row_gather", "_word_gather"):
        def spy(*args, _name=name, _real=getattr(kernels, name)):
            ran.append(_name)
            return _real(*args)
        monkeypatch.setattr(kernels, name, spy)
    return ran


def _check_shape(shape, fields, batch, monkeypatch):
    """gf_matmul against the oracle on one shape, in every layout of a and b.

    batch is None for the shape's own n, else the number of symbol bytes
    per input column past the row gather's cut-off (0 or 1): those long
    batches draw their rows from the shape's n rows, so the oracle runs on
    those alone, and must take the row gather at the cut-off and the word
    gather past it.
    """
    n, kk, mm = shape
    ran = _spy_gathers(monkeypatch)
    for m in fields:
        ctx = FieldContext(m)
        rng = np.random.default_rng([n, kk, mm, m])
        a = rng.integers(0, ctx.order, size=(n, kk), dtype=ctx.symbol_dtype)
        a[0] = ctx.order - 1  # every bit set, so the high byte too when m > 8
        b = rng.integers(0, ctx.order, size=(kk, mm), dtype=ctx.symbol_dtype)
        if kk > 1:
            b[kk // 2] = 0
        if mm > 1:
            # with mm = 9 or 17 this zero column is a chunk of its own
            b[:, -1] = 0
        expect = _matmul_oracle(a, b, ctx)
        gather = "_row_gather"
        if batch is not None:
            pick = rng.integers(0, n, size=kernels._ROW_GATHER_BYTES // ctx.symbol_dtype.itemsize + batch)
            pick[0] = 0
            a, expect = a[pick], expect[pick]
            gather = "_word_gather" if batch else gather
        for a_in, b_in in product(_layouts(a), _layouts(b)):
            ran.clear()
            got = kernels.gf_matmul(a_in, b_in, ctx)
            assert ran == [gather]
            assert got.shape == (a.shape[0], mm) and got.dtype == ctx.symbol_dtype
            assert got.T.flags.c_contiguous
            assert np.array_equal(got, expect)


@pytest.mark.parametrize("shape", _SHAPES)
def test_numpy_path_matches_oracle(shape, monkeypatch):
    _check_shape(shape, (1, 2, 4, 8, 9, 12, 16), None, monkeypatch)


@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("shape", _SHAPES)
def test_both_gathers_match_oracle_at_the_cut_off(shape, past, monkeypatch):
    _check_shape(shape, (8, 16), past, monkeypatch)


@pytest.mark.parametrize("mm", [1, 3, 8, 9])
def test_long_batches_across_slices(mm):
    # the kernel walks n in slices of 128 KiB of accumulator words (16,384
    # symbols for 8-byte words, 131,072 for 1-byte ones); check the rows on
    # both sides of every possible slice edge
    n = 2 * 131_072 + 5
    rng = np.random.default_rng(mm)
    edges = [0, n - 1] + [i + d for i in range(16_384, n, 16_384) for d in (-1, 0)]
    for ctx in (GF8, GF16):
        a = rng.integers(0, ctx.order, size=(n, 3), dtype=ctx.symbol_dtype)
        b = rng.integers(1, ctx.order, size=(3, mm), dtype=ctx.symbol_dtype)
        got = kernels.gf_matmul(a, b, ctx)
        assert np.array_equal(got[edges], _matmul_oracle(a[edges], b, ctx))


@pytest.mark.parametrize(
    "m, coeff", [(8, -1), (8, 256), (4, 20), (8, 1.9), (12, 4096), (16, 65536), (16, -1)]
)
def test_rejects_bad_coefficients(m, coeff):
    # unchecked, -1 would read the last table row and 1.9 is no table index
    a = np.array([[3]], dtype=np.uint8)
    with pytest.raises(ValueError):
        kernels.gf_matmul(a, [[coeff]], FieldContext(m))


def test_rejects_coefficients_of_wrong_shape():
    a = np.ones((4, 3), dtype=np.uint8)
    for b in ([1, 2, 3], np.ones((2, 2), dtype=np.uint8), np.ones((4, 2), dtype=np.uint8)):
        with pytest.raises(ValueError):
            kernels.gf_matmul(a, b, GF8)


def test_zero_heavy_inputs():
    a = np.zeros((4, 3), dtype=np.uint8)
    b = np.zeros((3, 2), dtype=np.uint8)
    a[0, 0] = 7
    b[0, 1] = 9
    expect = _matmul_oracle(a, b, GF8)
    assert np.array_equal(kernels.gf_matmul(a, b, GF8), expect)


def test_zero_and_one_coefficients():
    # 0 skips a column and 1 XORs it in untouched; mix both with general ones
    rng = np.random.default_rng(7)
    a = rng.integers(0, 256, size=(33, 5), dtype=np.uint8)
    b = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
    b[:, 0] = 0
    b[:, 1] = 1
    b[::2, 2] = 0
    b[1::2, 2] = 1
    b[0, 3] = 1
    b[4, 4] = 0
    got = kernels.gf_matmul(a, b, GF8)
    assert np.array_equal(got, _matmul_oracle(a, b, GF8))
    assert not got[:, 0].any()
    assert np.array_equal(got[:, 1], np.bitwise_xor.reduce(a, axis=1))


def _word_entry(memo, b):
    """The chunks that memo keeps for the coefficient matrix b."""
    [tables] = [
        tables for key, (tables, _) in memo._entries.items()
        if key[0] is kernels._word_tables and key[4:] == (b.shape, b.tobytes())
    ]
    return tables


@pytest.mark.parametrize("ctx", [GF8, GF16], ids=["GF8", "GF16"])
def test_long_batches_gather_every_column(ctx, monkeypatch):
    # past the cut-off every output column is gathered, in chunks of adjacent
    # columns, whatever its coefficients: here unit columns with their 1 in
    # the first and in the last row, a lone nonzero that is not 1, zero
    # columns and dense ones, and then an identity b
    memo = kernels._TableMemo(kernels.TABLE_MEMO_BYTES)
    monkeypatch.setattr(kernels, "_TABLES", memo)
    ran = _spy_gathers(monkeypatch)
    kk = 5
    rng = np.random.default_rng(ctx.m)
    rows = rng.integers(0, ctx.order, size=(17, kk), dtype=ctx.symbol_dtype)
    rows[0] = ctx.order - 1  # every bit set, so the high byte too on GF(2^16)
    pick = rng.integers(0, len(rows), size=kernels._ROW_GATHER_BYTES // ctx.symbol_dtype.itemsize + 1)
    pick[0] = 0
    b = np.zeros((kk, 8), dtype=ctx.symbol_dtype)
    b[0, 0] = 1
    b[:, 1] = rng.integers(1, ctx.order, size=kk)
    b[kk - 1, 2] = 1
    b[2, 3] = 7
    b[:, 5] = rng.integers(1, ctx.order, size=kk)
    b[1, 6] = 1
    for coef in (b, np.eye(kk, dtype=ctx.symbol_dtype)):
        expect = _matmul_oracle(rows, coef, ctx)[pick]
        for a in _layouts(rows[pick]):
            ran.clear()
            got = kernels.gf_matmul(a, coef, ctx)
            assert ran == ["_word_gather"]
            assert got.shape == expect.shape and got.dtype == ctx.symbol_dtype
            assert got.T.flags.c_contiguous
            assert np.array_equal(got, expect)
        mm = coef.shape[1]
        chunks = _word_entry(memo, coef)
        assert [j for cols, _ in chunks for j in range(mm)[cols]] == list(range(mm))
        assert all(tables.shape == (kk * (ctx.m // 8), 256) for _, tables in chunks)


def test_decode_plan_gathers_only_what_it_lost(monkeypatch):
    # a (12, 4) recovery that lost data position 0 uses positions 1..8 and
    # checks 9..11: the surviving data positions are received as they are,
    # so its plan is the 8 x 4 matrix [solve[:, 0] | solve G[:, check]], and
    # a long batch gathers it as one chunk of 4-byte words, one table per
    # plane row
    memo = kernels._TableMemo(kernels.TABLE_MEMO_BYTES)
    monkeypatch.setattr(kernels, "_TABLES", memo)
    code = build_code(12, 4, GF8)
    rng = np.random.default_rng(23)
    data = rng.integers(0, 256, size=(kernels._ROW_GATHER_BYTES + 1, code.data_len), dtype=np.uint8)
    received = encode_blocks(code, data)
    received[:, 0] = 0
    assert np.array_equal(recover_blocks(code, received, [0]), data)
    coef = _decode_plan(code, [0]).coef
    assert coef.shape == (8, 4)
    [(cols, tables)] = _word_entry(memo, coef)
    assert range(4)[cols] == range(4)
    assert tables.dtype == np.uint32 and tables.shape == (8, 256)


def test_zero_row_batch():
    b = np.arange(1, 13, dtype=np.uint8).reshape(4, 3)
    for ctx in (GF8, GF16):
        got = kernels.gf_matmul(np.zeros((0, 4), dtype=ctx.symbol_dtype), b, ctx)
        assert got.shape == (0, 3) and got.dtype == ctx.symbol_dtype


def test_no_input_columns_give_the_zero_product():
    # kk = 0 on both sides of the cut-off: an empty sum, so every output is 0
    for ctx in (GF8, GF16):
        for n in (5, kernels._ROW_GATHER_BYTES + 1):
            a = np.zeros((n, 0), dtype=ctx.symbol_dtype)
            got = kernels.gf_matmul(a, np.zeros((0, 9), dtype=np.uint8), ctx)
            assert got.shape == (n, 9) and got.dtype == ctx.symbol_dtype and not got.any()


def test_small_field_tables():
    ctx = FieldContext(4)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 16, size=(9, 4), dtype=np.uint8)
    b = rng.integers(0, 16, size=(4, 3), dtype=np.uint8)
    got = kernels.gf_matmul(a, b, ctx)
    assert np.array_equal(got, _matmul_oracle(a, b, ctx))


def test_non_default_polynomial():
    ctx = FieldContext(8, 0x11D)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, size=(21, 6), dtype=np.uint8)
    b = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
    under_11b = kernels.gf_matmul(a, b, GF8)
    got = kernels.gf_matmul(a, b, ctx)
    assert np.array_equal(got, _matmul_oracle(a, b, ctx))
    # the product table, and so the memoized word tables, follow the
    # polynomial: equal coefficients give other bytes under 0x11B
    assert not np.array_equal(got, under_11b)
    assert np.array_equal(kernels.gf_matmul(a, b, GF8), under_11b)
    # and follow the field: equal coefficient bytes give other products,
    # in two-byte symbols, under GF(2^16)
    wide = kernels.gf_matmul(a, b, GF16)
    assert wide.dtype == np.uint16
    assert np.array_equal(wide, _matmul_oracle(a, b, GF16))
    assert not np.array_equal(wide, under_11b)


def test_memo_follows_coefficients_changed_in_place():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 256, size=(33, 5), dtype=np.uint8)
    b = rng.integers(0, 256, size=(5, 3), dtype=np.uint8)
    first = kernels.gf_matmul(a, b, GF8)
    b[2, 1] ^= 0x5A
    b[4] = 0
    second = kernels.gf_matmul(a, b, GF8)
    assert np.array_equal(second, _matmul_oracle(a, b, GF8))
    assert not np.array_equal(first, second)


def test_memo_keeps_each_kind_of_table(monkeypatch):
    # one coefficient matrix, a short and a long batch: a row table and word
    # tables, under keys that differ by kind only, each giving the product
    memo = kernels._TableMemo(kernels.TABLE_MEMO_BYTES)
    monkeypatch.setattr(kernels, "_TABLES", memo)
    rng = np.random.default_rng(19)
    rows = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
    b = rng.integers(0, 256, size=(4, 9), dtype=np.uint8)
    expect = _matmul_oracle(rows, b, GF8)
    for n in (6, kernels._ROW_GATHER_BYTES + 1):
        pick = np.arange(n) % 6
        assert np.array_equal(kernels.gf_matmul(rows[pick], b, GF8), expect[pick])
    kinds = [key[0] for key in memo._entries]
    assert kinds == [kernels._row_table, kernels._word_tables]
    assert len({key[1:] for key in memo._entries}) == 1


def _memo_size(memo):
    return sum(size for _, size in memo._entries.values())


def test_memo_stays_within_budget():
    # every erasure set of size <= 4 on a k=16, t=4 code: far more decode
    # tables than the budget holds, so entries are evicted all along
    code = build_code(16, 4, GF8)
    rng = np.random.default_rng(13)
    data = rng.integers(0, 256, size=(8, code.data_len), dtype=np.uint8)
    sent = encode_blocks(code, data)
    memo = kernels._TABLES
    for size in range(5):
        for erased in combinations(range(code.k), size):
            received = sent.copy()
            received[:, list(erased)] = 0
            assert np.array_equal(recover_blocks(code, received, erased), data)
            assert memo.nbytes <= kernels.TABLE_MEMO_BYTES
    assert memo.nbytes == _memo_size(memo)
    assert memo.nbytes > kernels.TABLE_MEMO_BYTES // 2


def test_memo_under_concurrent_callers(monkeypatch):
    # more threads than cores and a short switch interval, on a memo that
    # holds three of the twelve matrices: every result must be right, and
    # the byte count must match the entries kept
    memo = kernels._TableMemo(1 << 16)
    monkeypatch.setattr(kernels, "_TABLES", memo)
    rng = np.random.default_rng(17)
    a = rng.integers(0, 256, size=(16, 9), dtype=np.uint8)
    bs = [rng.integers(0, 256, size=(9, 9), dtype=np.uint8) for _ in range(12)]
    expect = [_matmul_oracle(a, b, GF8) for b in bs]
    wrong = []

    def work(offset):
        for i in range(150):
            j = (i + offset) % len(bs)
            if not np.array_equal(kernels.gf_matmul(a, bs[j], GF8), expect[j]):
                wrong.append(j)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not wrong
    assert memo.nbytes == _memo_size(memo) <= memo.budget
    assert memo._entries


@pytest.mark.parametrize("m", range(1, 9))
def test_product_table_matches_oracle(m):
    ctx = FieldContext(m)
    q = ctx.order
    expect = np.array(
        [[gf_mul_ref(x, y, ctx.reduction_poly, m) for y in range(q)] for x in range(q)],
        dtype=np.uint8,
    )
    assert ctx.mul_table.shape == (q, q)
    assert np.array_equal(ctx.mul_table, expect)


def test_no_product_table_above_m8():
    with pytest.raises(ValueError):
        FieldContext(12).mul_table
