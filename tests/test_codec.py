import gc
import random
import sys
import threading
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npcode import codec as codec_module
from npcode import kernels
from npcode.codec import (
    CapacityExceededError,
    CodecError,
    Codeword,
    DataBlock,
    InconsistentSymbolsError,
    build_code,
    encode,
    encode_blocks,
    recover,
    recover_blocks,
)
from npcode.galois import FieldContext, FieldMismatchError

from oracles import gf_dot_ref, gf_mul_ref, gf_solve_ref, rank_ref
from test_code_pins import CODE_CASES

GF8 = FieldContext(8)


def _encode_ref(code, data):
    """np.hstack([data, data @ P]) over the field, one dot product at a time."""
    f = code.field
    p = code.parity_int_matrix()
    parity = [
        [gf_dot_ref([int(x) for x in row], [int(c) for c in p[:, j]], f.reduction_poly, f.m)
         for j in range(code.t)]
        for row in data
    ]
    return np.hstack([np.asarray(data), np.array(parity, dtype=np.int64).reshape(-1, code.t)])


def _systematic(parity):
    """The generator [I | P] of the parity rows P, as int rows."""
    return [[int(i == j) for j in range(len(parity))] + row for i, row in enumerate(parity)]


def _generator(code):
    return _systematic(code.parity_int_matrix().tolist())


def _minors_invertible(code):
    """Whether every k-t generator columns are independent, by the oracle's rank."""
    rows, f = _generator(code), code.field
    return all(
        rank_ref([[row[c] for c in cols] for row in rows], f.reduction_poly, f.m) == code.data_len
        for cols in combinations(range(code.k), code.data_len)
    )


def test_smallest_code_has_nonzero_parity():
    code = build_code(2, 1, GF8)
    assert code.parity[0][0].value != 0
    x = GF8.element(0x42)
    cw = encode(code, DataBlock((x,)))
    assert cw.values() == [0x42, GF8.mul_int(code.parity[0][0].value, 0x42)]


def test_all_minors_invertible_k4_t2():
    assert _minors_invertible(build_code(4, 2, GF8))


def test_k10_t3_all_erasure_patterns_recover():
    code = build_code(10, 3, GF8)
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, size=(20, 7), dtype=np.uint8)
    sent = encode_blocks(code, data)
    for size in range(4):
        for pattern in combinations(range(10), size):
            received = sent.copy()
            received[:, list(pattern)] = 0
            out = recover_blocks(code, received, pattern)
            assert np.array_equal(out, data)


def test_build_code_validation():
    with pytest.raises(CodecError):
        build_code(4, 0, GF8)
    with pytest.raises(CodecError):
        build_code(4, 4, GF8)
    with pytest.raises(CodecError):
        build_code(5, 2, FieldContext(2))  # order 4 < k = 5
    # order >= k is enough: k = q works
    code = build_code(4, 1, FieldContext(2))
    assert _minors_invertible(code)


def test_encode_zero_and_single_symbol():
    code = build_code(5, 2, GF8)
    zeros = DataBlock.of(GF8, [0, 0, 0])
    assert encode(code, zeros).values() == [0] * 5
    a = 0x7D
    single = DataBlock.of(GF8, [a, 0, 0])
    cw = encode(code, single)
    expect = [a, 0, 0] + [GF8.mul_int(code.parity[0][j].value, a) for j in range(2)]
    assert cw.values() == expect


def test_encode_matches_naive_dot_product():
    code = build_code(6, 2, GF8)
    p = [[e.value for e in row] for row in code.parity]
    rng = random.Random(13)
    for _ in range(50):
        data = [rng.randrange(256) for _ in range(4)]
        cw = encode(code, DataBlock.of(GF8, data))
        assert cw.values()[:4] == data
        for j in range(2):
            col = [p[i][j] for i in range(4)]
            assert cw.values()[4 + j] == gf_dot_ref(data, col, GF8.reduction_poly, 8)


def test_recover_systematic_shortcuts():
    code = build_code(4, 2, GF8)
    data = DataBlock.of(GF8, [9, 200])
    cw = encode(code, data)
    assert recover(code, cw).values() == [9, 200]
    assert recover(code, Codeword(cw.symbols, frozenset([2, 3]))).values() == [9, 200]


def test_recover_exhaustive_k6_t2():
    code = build_code(6, 2, GF8)
    rng = random.Random(99)
    patterns = [()] + [(i,) for i in range(6)] + list(combinations(range(6), 2))
    for _ in range(100):
        data = DataBlock.of(GF8, [rng.randrange(256) for _ in range(4)])
        cw = encode(code, data)
        for pattern in patterns:
            got = recover(code, Codeword(cw.symbols, frozenset(pattern)))
            assert got.values() == data.values()


def test_too_many_erasures_is_capacity_exceeded():
    code = build_code(6, 2, GF8)
    cw = encode(code, DataBlock.of(GF8, [1, 2, 3, 4]))
    with pytest.raises(CapacityExceededError):
        recover(code, Codeword(cw.symbols, frozenset([0, 4, 5])))
    rng = np.random.default_rng(0)
    blocks = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
    with pytest.raises(CapacityExceededError):
        recover_blocks(code, encode_blocks(code, blocks), [0, 1, 2])


def test_corrupted_survivor_is_detected():
    code = build_code(6, 2, GF8)
    cw = encode(code, DataBlock.of(GF8, [1, 2, 3, 4]))
    bad = list(cw.values())
    bad[5] ^= 0x01
    with pytest.raises(InconsistentSymbolsError):
        recover(code, Codeword.of(GF8, bad))
    # with one erasure there is still enough redundancy to notice
    bad2 = list(cw.values())
    bad2[0] ^= 0xFF
    with pytest.raises(InconsistentSymbolsError):
        recover(code, Codeword.of(GF8, bad2, erased=[5]))


def test_linearity():
    code = build_code(7, 3, GF8)
    rng = random.Random(4)
    for _ in range(30):
        d1 = [rng.randrange(256) for _ in range(4)]
        d2 = [rng.randrange(256) for _ in range(4)]
        c1 = encode(code, DataBlock.of(GF8, d1)).values()
        c2 = encode(code, DataBlock.of(GF8, d2)).values()
        c12 = encode(code, DataBlock.of(GF8, [a ^ b for a, b in zip(d1, d2)])).values()
        assert c12 == [a ^ b for a, b in zip(c1, c2)]


def test_round_trip_grid_small():
    rng = np.random.default_rng(17)
    for k, t in [(3, 1), (5, 2), (8, 3), (12, 4)]:
        code = build_code(k, t, GF8)
        data = rng.integers(0, 256, size=(10, k - t), dtype=np.uint8)
        sent = encode_blocks(code, data)
        for size in range(t + 1):
            for pattern in combinations(range(k), size):
                received = sent.copy()
                received[:, list(pattern)] = 0
                assert np.array_equal(recover_blocks(code, received, pattern), data)


def test_scalar_and_block_codecs_match_oracle():
    code = build_code(6, 2, GF8)
    rng = np.random.default_rng(23)
    data = rng.integers(0, 256, size=(7, 4), dtype=np.uint8)
    expect = _encode_ref(code, data)
    sent = encode_blocks(code, data)
    assert np.array_equal(sent, expect)
    pattern = [1, 4]
    received = sent.copy()
    received[:, pattern] = 0
    assert np.array_equal(recover_blocks(code, received, pattern), data)
    for block, row in zip(data, expect):
        cw = encode(code, DataBlock.of(GF8, block.tolist()))
        assert cw.values() == row.tolist()
        assert recover(code, Codeword(cw.symbols, frozenset(pattern))).values() == block.tolist()


def test_wide_field_scalar_codec():
    # GF(2^12) runs the codec on uint16 symbols: parity from the oracle's
    # dot products, data back from the survivors
    ctx = FieldContext(12)
    code = build_code(5, 2, ctx)
    data = np.array([[4000, 17, 2049], [4095, 0, 256]], dtype=np.uint16)
    expect = _encode_ref(code, data)
    sent = encode_blocks(code, data)
    assert sent.dtype == np.uint16
    assert np.array_equal(sent, expect)
    received = sent.copy()
    received[:, [0, 3]] = 0
    assert np.array_equal(recover_blocks(code, received, [0, 3]), data)
    for block, row in zip(data, expect):
        cw = encode(code, DataBlock.of(ctx, block.tolist()))
        assert cw.values() == row.tolist()
        assert recover(code, Codeword(cw.symbols, frozenset([0, 3]))).values() == block.tolist()


def test_scalar_api_edge():
    code = build_code(6, 2, GF8)
    data = DataBlock.of(GF8, [1, 2, 3, 4])
    cw = encode(code, data)
    # an erased slot is ignored, whatever it holds: a foreign element, or one
    # outside GF(2^8)
    for junk in (FieldContext(8, 0x11D).element(0xAB), FieldContext(16).element(0xFFFF)):
        symbols = list(cw.symbols)
        symbols[2] = symbols[5] = junk
        assert recover(code, Codeword(tuple(symbols), frozenset({2, 5}))) == data
    # a survivor or a data symbol from another field is an error
    other = FieldContext(8, 0x11D)
    with pytest.raises(FieldMismatchError):
        recover(code, Codeword(cw.symbols[:3] + (other.element(1),) + cw.symbols[4:]))
    with pytest.raises(FieldMismatchError):
        encode(code, DataBlock(data.symbols[:3] + (other.element(4),)))
    with pytest.raises(CodecError):
        encode(code, DataBlock(data.symbols[:3]))
    with pytest.raises(CodecError):
        recover(code, Codeword(cw.symbols[:5]))


def test_parity_uses_oracle_arithmetic():
    # spot-check one parity coefficient against from-scratch arithmetic
    code = build_code(4, 2, GF8)
    g = GF8.generator().value
    # column j of the Vandermonde slice systematized: re-derive by oracle
    points = [0, 1, g, gf_mul_ref(g, g, GF8.reduction_poly, 8)]
    rows = [[1, 1, 1, 1], points]
    assert rank_ref(rows, GF8.reduction_poly, 8) == 2


# -- integer core: properties over several fields, and the decode cache ------------

PROPERTY_FIELDS = {
    "GF(2^8)/0x11B": GF8,
    "GF(2^8)/0x11D": FieldContext(8, 0x11D),
    "GF(2^4)": FieldContext(4),
    "GF(2^12)": FieldContext(12),
    "GF(2^16)": FieldContext(16),
}
_CODES: dict = {}


def _code(name, k, t):
    key = (name, k, t)
    if key not in _CODES:
        _CODES[key] = build_code(k, t, PROPERTY_FIELDS[name])
    return _CODES[key]


@st.composite
def _cases(draw):
    """(code, data, erased): k <= 16, t < k, at most t erased positions."""
    name = draw(st.sampled_from(sorted(PROPERTY_FIELDS)))
    k = draw(st.integers(2, 16))
    t = draw(st.integers(1, k - 1))
    code = _code(name, k, t)
    erased = draw(st.lists(st.integers(0, k - 1), max_size=t, unique=True))
    n = draw(st.integers(1, 6))
    order = code.field.order
    values = draw(st.lists(st.integers(0, order - 1),
                           min_size=n * code.data_len, max_size=n * code.data_len))
    data = np.array(values, dtype=code.field.symbol_dtype).reshape(n, code.data_len)
    return code, data, sorted(erased)


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_property_block_round_trip(case):
    code, data, erased = case
    received = encode_blocks(code, data)
    received[:, erased] = 0
    assert np.array_equal(recover_blocks(code, received, erased), data)


@settings(max_examples=100, deadline=None)
@given(_cases())
def test_property_scalar_and_block_codecs_match_oracle(case):
    code, data, erased = case
    f = code.field
    expect = _encode_ref(code, data)
    assert np.array_equal(encode_blocks(code, data), expect)
    for block, row in zip(data, expect):
        cw = encode(code, DataBlock.of(f, block.tolist()))
        assert cw.values() == row.tolist()
        assert recover(code, Codeword(cw.symbols, frozenset(erased))).values() == block.tolist()


def _points_ref(field, k):
    """The code's evaluation points 0, 1, g, g^2, ..., by the oracle's arithmetic."""
    g, points = field.generator().value, [0, 1]
    while len(points) < k:
        points.append(gf_mul_ref(points[-1], g, field.reduction_poly, field.m))
    return points


def _generator_ref(field, k, t):
    """[I | P] with P solved from the Vandermonde rows by Gauss-Jordan, with
    no library arithmetic."""
    d, poly, m, points = k - t, field.reduction_poly, field.m, _points_ref(field, k)
    rows = [[1] * k]
    while len(rows) < d:
        rows.append([gf_mul_ref(x, y, poly, m) for x, y in zip(rows[-1], points)])
    return _systematic(gf_solve_ref([r[:d] for r in rows], [r[d:] for r in rows], poly, m))


def _plan_ref(field, gen, erased):
    """A decode plan's matrix by Gauss-Jordan: G[:, use]^-1 [I[:, lost] | G[:, check]]."""
    k, d = len(gen[0]), len(gen)
    survivors = [i for i in range(k) if i not in erased]
    use, check = survivors[:d], survivors[d:]
    lost = sorted(i for i in erased if i < d)
    right = [[int(r == i) for i in lost] + [row[c] for c in check] for r, row in enumerate(gen)]
    if not right[0]:
        return None
    return gf_solve_ref([[row[c] for c in use] for row in gen], right, field.reduction_poly, field.m)


@pytest.mark.parametrize("m, poly, k, t", CODE_CASES)
def test_parity_matches_gauss_jordan_oracle(m, poly, k, t):
    field = FieldContext(m, poly)
    parity = build_code(k, t, field).parity_int_matrix()
    assert parity.dtype == field.symbol_dtype
    assert [row[k - t :] for row in _generator_ref(field, k, t)] == parity.tolist()


def _assert_plan_matches_oracle(code, gen, erased):
    coef = codec_module._decode_plan(code, erased).coef
    expect = _plan_ref(code.field, gen, erased)
    if expect is None:
        assert coef is None
    else:
        assert coef.dtype == code.field.symbol_dtype and coef.tolist() == expect, erased


@pytest.mark.parametrize("name", sorted(PROPERTY_FIELDS))
def test_decode_plans_match_gauss_jordan_oracle(name):
    """Seeded erasure patterns of 0 to t positions: each plan's matrix equals
    the oracle's Gauss-Jordan solve, byte for byte."""
    f = PROPERTY_FIELDS[name]
    rng = random.Random(f.m * f.reduction_poly)
    samples = 3 if f.m > 12 else 12
    for k, t in ((6, 2), (min(f.order, 16), 6)):
        code, gen = build_code(k, t, f), _generator_ref(f, k, t)
        for _ in range(samples):
            _assert_plan_matches_oracle(code, gen, rng.sample(range(k), rng.randint(0, t)))


def test_every_decode_plan_of_a_small_code_matches_oracle():
    code, gen = build_code(7, 3, GF8), _generator_ref(GF8, 7, 3)
    for size in range(4):
        for erased in combinations(range(7), size):
            _assert_plan_matches_oracle(code, gen, erased)


@settings(max_examples=150, deadline=None)
@given(_cases(), st.data())
def test_property_single_corruption_detected(case, extra):
    code, data, erased = case
    if len(erased) >= code.t:
        erased = erased[: code.t - 1]
    survivors = [i for i in range(code.k) if i not in erased]
    pos = extra.draw(st.sampled_from(survivors))
    delta = extra.draw(st.integers(1, code.field.order - 1))
    row = extra.draw(st.integers(0, data.shape[0] - 1))
    received = encode_blocks(code, data)
    received[:, erased] = 0
    received[row, pos] ^= delta
    with pytest.raises(InconsistentSymbolsError):
        recover_blocks(code, received, erased)
    cw = Codeword.of(code.field, [int(x) for x in received[row]], erased)
    with pytest.raises(InconsistentSymbolsError):
        recover(code, cw)


def _count_plan_matrices(monkeypatch):
    calls = []
    real = codec_module._lagrange

    def counting(field, points, d):
        calls.append(field)
        return real(field, points, d)

    monkeypatch.setattr(codec_module, "_lagrange", counting)
    return calls


@pytest.mark.parametrize("name", sorted(PROPERTY_FIELDS))
def test_decode_plan_matches_oracle(name):
    """G[:, use] coef gives e_lost[j] in each lost column and G[:, check] in each check column."""
    f = PROPERTY_FIELDS[name]
    rng = random.Random(f.m * f.reduction_poly)
    planned = 0
    for k, t in ((3, 1), (6, 2), (9, 4), (min(f.order, 16), 6)):
        code = build_code(k, t, f)
        g = np.array(_generator(code))
        d = code.data_len
        for _ in range(12):
            erased = rng.sample(range(k), rng.randint(1, t))
            plan = codec_module._decode_plan(code, erased)
            use, lost, coef, check = plan.use.tolist(), plan.lost.tolist(), plan.coef, plan.check.tolist()
            assert lost == sorted(i for i in erased if i < d)
            assert use == [i for i in range(k) if i not in erased][:d]
            assert check == [i for i in range(k) if i not in erased][d:]
            if coef is None:
                assert not check and not lost
                continue
            assert coef.shape == (d, len(lost) + len(check)) and coef.shape[1] <= t
            assert not coef.flags.writeable
            if not lost:
                assert use == list(range(d)) and np.array_equal(coef, g[:, check])
                continue
            rows = g[:, use].tolist()
            expect = [np.eye(d, dtype=int)[:, i] for i in lost] + [g[:, c] for c in check]
            for j, column in enumerate(expect):
                got = [gf_dot_ref(r, coef[:, j].tolist(), f.reduction_poly, f.m) for r in rows]
                assert got == column.tolist(), (erased, j)
            planned += 1
    assert planned >= 10


def test_decode_plan_makes_no_kernel_call(monkeypatch):
    # gf_matmul's product runs through _product too, so this counts both
    code = build_code(10, 4, GF8)
    calls = []
    real = kernels._product

    def counting(symbols, b, field, key):
        calls.append(b.shape)
        return real(symbols, b, field, key)

    monkeypatch.setattr(kernels, "_product", counting)
    for erased in ([0], [2, 7], [1, 3, 5, 8], [6, 9], []):
        codec_module._decode_plan(code, erased)
    assert not calls


def test_decode_cache_inverts_once_per_erasure_set(monkeypatch):
    code = build_code(8, 3, GF8)
    calls = _count_plan_matrices(monkeypatch)
    rng = np.random.default_rng(31)
    for _ in range(5):
        data = rng.integers(0, 256, size=(9, 5), dtype=np.uint8)
        received = encode_blocks(code, data)
        received[:, [1, 6]] = 0
        assert np.array_equal(recover_blocks(code, received, [6, 1]), data)
    assert len(calls) == 1
    # the scalar path shares the cache, in any order of the positions
    cw = encode(code, DataBlock.of(GF8, [1, 2, 3, 4, 5]))
    cw = Codeword(cw.symbols, frozenset([6, 1]))
    assert recover(code, cw).values() == [1, 2, 3, 4, 5]
    assert len(calls) == 1
    # a parity-only erasure set is one more set, with one more matrix
    received = encode_blocks(code, data)
    received[:, [5, 7]] = 0
    assert np.array_equal(recover_blocks(code, received, [5, 7]), data)
    assert np.array_equal(recover_blocks(code, received, [7, 5]), data)
    assert len(calls) == 2
    assert set(code._decode) == {frozenset({1, 6}), frozenset({5, 7})}


def test_decode_cache_is_per_code(monkeypatch):
    a = build_code(6, 2, GF8)
    b = build_code(6, 2, FieldContext(8, 0x11D))
    calls = _count_plan_matrices(monkeypatch)
    data = np.arange(1, 17, dtype=np.uint8).reshape(4, 4)
    for code in (a, b, a, b):
        received = encode_blocks(code, data)
        received[:, [0, 3]] = 0
        assert np.array_equal(recover_blocks(code, received, [0, 3]), data)
    assert [f.reduction_poly for f in calls] == [0x11B, 0x11D]
    assert not np.array_equal(a._decode[frozenset({0, 3})].coef, b._decode[frozenset({0, 3})].coef)


def test_one_kernel_call_per_warm_recovery(monkeypatch):
    # erasing data position 1 of a [8, 5] code leaves use = [0, 2, 3, 4, 5]
    # and check = [6, 7]: the data and the check symbols come from one
    # product; parity-only erasures need one product for the check, and
    # t of them none at all.  A warm recovery looks its tables up by the
    # plan's memo key: it builds no key and neither calls nor re-checks like
    # gf_matmul
    code = build_code(8, 3, GF8)
    data = np.random.default_rng(37).integers(0, 256, size=(64, 5), dtype=np.uint8)
    sent = encode_blocks(code, data)
    calls = []
    real = kernels._product

    def counting(symbols, b, field, key):
        calls.append(b.shape)
        return real(symbols, b, field, key)

    def refused(*args):
        raise AssertionError("called on a warm recovery")

    for erased, products in (([1], 1), ([0, 6], 1), ([5], 1), ([5, 6, 7], 0)):
        received = sent.copy()
        received[:, erased] = 0
        assert np.array_equal(recover_blocks(code, received, erased), data)  # plan now cached
        monkeypatch.setattr(kernels, "_product", counting)
        for name in ("gf_matmul", "_symbols_in_range", "_memo_key"):
            monkeypatch.setattr(kernels, name, refused)
        calls.clear()
        assert np.array_equal(recover_blocks(code, received, erased), data)
        assert len(calls) == products, (erased, calls)
        monkeypatch.undo()


@pytest.mark.parametrize("m", [8, 16])
def test_corruption_detected_past_the_row_gather_cut_off(m):
    # the hypothesis corruption test only reaches short batches: here the
    # kernel takes its word gather, on a plan that solves for the data
    field = FieldContext(m)
    code = build_code(8, 3, field)
    n = kernels._ROW_GATHER_BYTES // field.symbol_dtype.itemsize + 1
    rng = np.random.default_rng(m)
    data = rng.integers(0, field.order, size=(n, 5), dtype=field.symbol_dtype)
    sent = encode_blocks(code, data)
    erased = [1]
    sent[:, erased] = 0
    assert np.array_equal(recover_blocks(code, sent, erased), data)
    plan = codec_module._decode_plan(code, erased)
    assert plan.check.size
    for pos in (plan.check[0], plan.use[-1]):
        received = sent.copy()
        received[n - 1, pos] ^= 1
        with pytest.raises(InconsistentSymbolsError):
            recover_blocks(code, received, erased)


@pytest.mark.parametrize("m", [8, 16])
def test_corruption_detected_on_a_cached_plan(m, monkeypatch):
    # the row gather's twin of the test above: the plan is compiled by a
    # clean recovery of a short batch, then one flipped check symbol, and
    # one flipped use symbol, must each fail the byte compare
    field = FieldContext(m)
    code = build_code(12, 4, field)
    rng = np.random.default_rng(m)
    data = rng.integers(0, field.order, size=(64, 8), dtype=field.symbol_dtype)
    sent = encode_blocks(code, data)
    erased = [2, 9]
    sent[:, erased] = 0
    assert np.array_equal(recover_blocks(code, sent, erased), data)
    plan = code._decode[frozenset(erased)]
    ran = []
    real = kernels._row_gather
    monkeypatch.setattr(kernels, "_row_gather", lambda *args: ran.append(args) or real(*args))
    for pos in (plan.check[0], plan.use[-1]):
        received = sent.copy()
        received[rng.integers(64), pos] ^= 1
        with pytest.raises(InconsistentSymbolsError):
            recover_blocks(code, received, erased)
    assert len(ran) == 2
    assert code._decode[frozenset(erased)] is plan


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("long", [False, True], ids=["row-gather", "word-gather"])
def test_recover_blocks_leaves_received_alone(m, long):
    # the data comes back in a copy of the received data rows: never in the
    # received array itself, nor aliasing it, in encode_blocks' layout (whose
    # rows recover_blocks reads in place) or in a C-ordered copy
    field = FieldContext(m)
    code = build_code(7, 3, field)
    n = kernels._ROW_GATHER_BYTES // field.symbol_dtype.itemsize + 1 if long else 64
    data = np.random.default_rng(m + long).integers(0, field.order, size=(n, 4), dtype=field.symbol_dtype)
    sent = encode_blocks(code, data)
    for erased in ([0], [1, 6], [0, 2, 3], [5], [4, 5, 6]):
        for received in (encode_blocks(code, data), np.ascontiguousarray(sent)):
            received[:, erased] = 0
            before = received.copy()
            got = recover_blocks(code, received, erased)
            assert np.array_equal(got, data), erased
            assert np.array_equal(received, before)
            assert not np.shares_memory(got, received)


# -- the compiled decode plan --------------------------------------------------------

GF16 = FieldContext(16)
_PLAN_CODES: dict = {}


def _row_gather_blocks(field):
    """The longest batch, in blocks, that the kernel's row gather takes."""
    return kernels._ROW_GATHER_BYTES // field.symbol_dtype.itemsize


@st.composite
def _plan_cases(draw):
    """(code, data, erased): k <= 16, t <= 4, a batch at either side of the
    row gather's cut-off, and a data, parity or mixed erasure set."""
    field = draw(st.sampled_from([GF8, GF16]))
    k = draw(st.integers(2, 16))
    t = draw(st.integers(1, min(4, k - 1)))
    d = k - t
    kind = draw(st.sampled_from(["data", "parity", "mixed"] if t > 1 else ["data", "parity"]))
    if kind == "data":
        erased = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=min(t, d), unique=True))
    elif kind == "parity":
        erased = draw(st.lists(st.integers(d, k - 1), min_size=1, max_size=t, unique=True))
    else:
        data_part = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=min(t - 1, d), unique=True))
        erased = data_part + draw(st.lists(st.integers(d, k - 1), min_size=1,
                                           max_size=t - len(data_part), unique=True))
    cut = _row_gather_blocks(field)
    n = draw(st.sampled_from([1, 64, cut, cut + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(0, field.order, size=(n, d), dtype=field.symbol_dtype)
    key = (field.m, k, t)
    if key not in _PLAN_CODES:
        _PLAN_CODES[key] = build_code(k, t, field)
    return _PLAN_CODES[key], data, erased


@settings(max_examples=60, deadline=None)
@given(_plan_cases())
def test_property_compiled_plan_round_trip(case):
    # encode_blocks' column-major view, a C-ordered copy and a strided slice,
    # each recovered twice: first compiling the plan, then reusing it
    code, data, erased = case
    key = frozenset(erased)
    sent = encode_blocks(code, data)
    spread = np.zeros((2 * len(data), code.k), dtype=sent.dtype)
    spread[::2] = sent
    for received in (encode_blocks(code, data), np.ascontiguousarray(sent), spread[::2]):
        received[:, erased] = 0
        before = received.copy()
        code._decode.pop(key, None)
        first = recover_blocks(code, received, erased)
        plan = code._decode[key]
        second = recover_blocks(code, received, erased)
        assert code._decode[key] is plan
        for got in (first, second):
            assert got.dtype == code.field.symbol_dtype and got.T.flags.c_contiguous
            assert np.array_equal(got, data)
            assert not np.shares_memory(got, received)
        assert not np.shares_memory(first, second)
        assert np.array_equal(received, before)


def test_plan_does_not_keep_evicted_tables_alive(monkeypatch):
    # a memo that holds one 8 x 4 row table: compiling a second pattern's plan
    # evicts the first's table, which the first plan then must not keep
    # alive, and its next recovery looks the table up again, exactly
    code = build_code(12, 4, GF8)
    data = np.random.default_rng(41).integers(0, 256, size=(64, 8), dtype=np.uint8)
    sent = encode_blocks(code, data)
    tables, size = kernels._row_table(np.zeros((8, 4), dtype=np.uint8), GF8)
    memo = kernels._TableMemo(size + size // 2)
    monkeypatch.setattr(kernels, "_TABLES", memo)

    def recover_with(erased):
        received = sent.copy()
        received[:, erased] = 0
        assert np.array_equal(recover_blocks(code, received, erased), data)
        return code._decode[frozenset(erased)]

    first = recover_with([0])
    [(table, _)] = [entry for entry, _ in memo._entries.values()]
    gone = weakref.ref(table)
    del table
    assert memo._entries[(kernels._row_table, *first.key)][0][0] is gone()
    recover_with([1])
    gc.collect()
    assert gone() is None
    assert memo.nbytes <= memo.budget and len(memo._entries) == 1
    assert recover_with([0]) is first
    assert memo.nbytes <= memo.budget


def test_shared_plans_under_concurrent_recoveries(monkeypatch):
    # more threads than cores and a short switch interval, on one code's
    # shared plans and a memo that holds two of the six plan matrices'
    # tables, so plans find their tables evicted and rebuild them all along:
    # every recovery must be exact, and the memo within its budget
    code = build_code(12, 4, GF8)
    data = np.random.default_rng(43).integers(0, 256, size=(64, 8), dtype=np.uint8)
    sent = encode_blocks(code, data)
    patterns = [[0], [1], [2, 9], [3, 4], [5, 6, 7], [0, 11]]
    received = []
    for erased in patterns:
        r = sent.copy()
        r[:, erased] = 0
        received.append(r)
    _, size = kernels._row_table(np.zeros((8, 4), dtype=np.uint8), GF8)
    memo = kernels._TableMemo(2 * size)
    monkeypatch.setattr(kernels, "_TABLES", memo)
    wrong = []

    def work(offset):
        for i in range(120):
            j = (i + offset) % len(patterns)
            if not np.array_equal(recover_blocks(code, received[j], patterns[j]), data):
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
    assert memo.nbytes == sum(size for _, size in memo._entries.values()) <= memo.budget


def test_plan_index_arrays_are_read_only():
    code = build_code(9, 3, GF8)
    plan = codec_module._decode_plan(code, [1, 7])
    assert (plan.use.tolist(), plan.lost.tolist(), plan.check.tolist()) == ([0, 2, 3, 4, 5, 6], [1], [8])
    for a in (plan.use, plan.lost, plan.check, plan.coef):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert plan.use.dtype == plan.lost.dtype == plan.check.dtype == np.intp


def test_invalid_erasure_sets_are_not_cached():
    code = build_code(6, 2, GF8)
    received = encode_blocks(code, np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(CapacityExceededError):
        recover_blocks(code, received, [0, 1, 2])
    with pytest.raises(CodecError):
        recover_blocks(code, received, [7])
    assert code._decode == {}


# -- the block layout contract and symbol range checks ------------------------------


@pytest.mark.parametrize("blocks", [1, 17, 64])
def test_encode_blocks_matches_reference_in_every_layout(blocks):
    code = build_code(7, 3, GF8)
    rng = np.random.default_rng(blocks)
    base = rng.integers(0, 256, size=(2 * blocks, 4), dtype=np.uint8)
    for data in (np.ascontiguousarray(base[:blocks]), np.asfortranarray(base[:blocks]), base[::2]):
        out = encode_blocks(code, data)
        assert out.shape == (data.shape[0], 7) and out.dtype == np.uint8
        assert np.array_equal(out, _encode_ref(code, data))
        assert out.T.flags.c_contiguous  # the (n, k) view of one (k, n) buffer


def test_recover_blocks_is_layout_independent():
    code = build_code(8, 3, GF8)
    rng = np.random.default_rng(41)
    data = rng.integers(0, 256, size=(33, 5), dtype=np.uint8)
    wide = np.zeros((66, 8), dtype=np.uint8)
    wide[::2] = encode_blocks(code, data)
    erased = [1, 6]
    wide[:, erased] = 0

    def layouts():
        return np.ascontiguousarray(wide[::2]), np.asfortranarray(wide[::2]), wide[::2]

    for received in layouts():
        assert np.array_equal(recover_blocks(code, received, erased), data)
    # a corrupted survivor in a parity position must be caught in every layout
    wide[9 * 2, 7] ^= 0x5A
    for received in layouts():
        with pytest.raises(InconsistentSymbolsError):
            recover_blocks(code, received, erased)


@pytest.mark.parametrize(
    "m, bad",
    [(8, 300), (8, -1), (4, 259), (4, 16), (12, 4096)],
)
def test_block_api_rejects_out_of_range_symbols(m, bad):
    field = FieldContext(m)
    code = build_code(4, 1, field)
    data = np.array([[1, 2, 3]], dtype=np.int64)
    received = np.array([[1, 2, 3, 0]], dtype=np.int64)
    bad_data = data.copy()
    bad_data[0, 0] = bad
    with pytest.raises(CodecError):
        encode_blocks(code, bad_data)
    bad_received = received.copy()
    bad_received[0, 1] = bad
    with pytest.raises(CodecError):
        recover_blocks(code, bad_received, [3])
    if bad >= 0:
        # the same value as uint16, the symbol dtype of the wide fields
        with pytest.raises(CodecError):
            encode_blocks(code, bad_data.astype(np.uint16))
        with pytest.raises(CodecError):
            recover_blocks(code, bad_received.astype(np.uint16), [3])
    with pytest.raises(CodecError):
        encode_blocks(code, data.astype(np.float64))
    # in-range symbols of any integer dtype encode as their symbol values
    assert np.array_equal(
        encode_blocks(code, data), encode_blocks(code, data.astype(field.symbol_dtype))
    )
