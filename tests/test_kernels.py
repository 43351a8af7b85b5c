import numpy as np
import pytest

from npcode import kernels
from npcode.galois import FieldContext

from oracles import gf_mul_ref

GF8 = FieldContext(8)


def _matmul_oracle(a, b, ctx):
    n, kk = a.shape
    mm = b.shape[1]
    out = np.zeros((n, mm), dtype=np.uint8)
    for i in range(n):
        for j in range(mm):
            acc = 0
            for l in range(kk):
                acc ^= gf_mul_ref(int(a[i, l]), int(b[l, j]), ctx.reduction_poly, ctx.m)
            out[i, j] = acc
    return out


@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 3, 4), (17, 8, 2), (40, 6, 6)])
def test_numpy_path_matches_oracle(shape):
    n, kk, mm = shape
    rng = np.random.default_rng(n * 100 + kk)
    a = rng.integers(0, 256, size=(n, kk), dtype=np.uint8)
    b = rng.integers(0, 256, size=(kk, mm), dtype=np.uint8)
    got = kernels.gf_matmul(a, b, GF8)
    assert got.shape == (n, mm) and got.dtype == np.uint8
    assert np.array_equal(got, _matmul_oracle(a, b, GF8))


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


def test_zero_row_batch():
    b = np.arange(1, 13, dtype=np.uint8).reshape(4, 3)
    got = kernels.gf_matmul(np.zeros((0, 4), dtype=np.uint8), b, GF8)
    assert got.shape == (0, 3) and got.dtype == np.uint8


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
    got = kernels.gf_matmul(a, b, ctx)
    assert np.array_equal(got, _matmul_oracle(a, b, ctx))
    # the product table follows the polynomial, so 0x11B gives other bytes
    assert not np.array_equal(got, kernels.gf_matmul(a, b, GF8))


@pytest.mark.parametrize("m", [1, 2, 4, 8])
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
