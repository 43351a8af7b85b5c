import random

import numpy as np
import pytest

from npcode.galois import (
    DEFAULT_POLY,
    FieldContext,
    FieldElement,
    FieldMismatchError,
    _is_irreducible,
    default_polynomial,
)

from oracles import gf_inv_ref, gf_mul_ref, gf_order_ref, is_irreducible_ref

GF8 = FieldContext(8)


def test_mul_identity_and_reduction():
    assert all(GF8.mul_int(1, x) == x for x in range(256))
    assert GF8.mul_int(0x02, 0x80) == 0x1B
    # frozen from the shift-and-reduce oracle
    assert gf_mul_ref(0x57, 0x83, DEFAULT_POLY, 8) == 0xC1
    assert GF8.mul_int(0x57, 0x83) == 0xC1


@pytest.mark.parametrize("m", range(1, 9))
def test_mul_matches_oracle_all_pairs(m):
    ctx = FieldContext(m)
    poly = ctx.reduction_poly
    for a in range(ctx.order):
        for b in range(ctx.order):
            assert ctx.mul_int(a, b) == gf_mul_ref(a, b, poly, m)


def _log_exp_inverse(ctx, a):
    """1/a as the codec takes it: exp[-log a], the logs read mod q - 1."""
    log, exp = ctx.log_exp
    return int(exp[-int(log[a]) % (ctx.order - 1)])


def test_inverse():
    assert _log_exp_inverse(GF8, 0x01) == 0x01
    assert gf_inv_ref(0x53, DEFAULT_POLY, 8) == 0xCA
    assert _log_exp_inverse(GF8, 0x53) == 0xCA
    for a in range(1, 256):
        assert GF8.mul_int(a, _log_exp_inverse(GF8, a)) == 0x01


@pytest.mark.parametrize("m", range(1, 9))
def test_inverse_matches_exhaustive_search(m):
    ctx = FieldContext(m)
    for a in range(1, ctx.order):
        assert _log_exp_inverse(ctx, a) == gf_inv_ref(a, ctx.reduction_poly, m)


def test_pow():
    g = GF8.generator().value
    assert GF8.pow_int(g, 0) == 1
    assert GF8.pow_int(g, 1) == g
    assert GF8.pow_int(0, 0) == 1  # 0^0 = 1 by convention
    assert GF8.pow_int(0, 5) == 0
    for a in range(1, 256):
        assert GF8.pow_int(a, 255) == 1  # Lagrange
    assert GF8.log_exp[1][7] == GF8.pow_int(g, 7)
    with pytest.raises(ValueError):
        GF8.pow_int(3, -1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_exhaustive_small(m):
    ctx = FieldContext(m)
    q = ctx.order
    for a in range(q):
        for b in range(q):
            assert ctx.mul_int(a, b) == ctx.mul_int(b, a)
            for c in range(q):
                assert ctx.mul_int(ctx.mul_int(a, b), c) == ctx.mul_int(a, ctx.mul_int(b, c))
                assert ctx.mul_int(a, b ^ c) == ctx.mul_int(a, b) ^ ctx.mul_int(a, c)


def test_field_axioms_random_gf256():
    rng = random.Random(7)
    for _ in range(10_000):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert GF8.mul_int(a, b) == GF8.mul_int(b, a)
        assert GF8.mul_int(GF8.mul_int(a, b), c) == GF8.mul_int(a, GF8.mul_int(b, c))
        assert GF8.mul_int(a, b ^ c) == GF8.mul_int(a, b) ^ GF8.mul_int(a, c)
        assert a ^ a == 0


@pytest.mark.parametrize("m", range(1, 17))
def test_builtin_polynomials_construct(m):
    ctx = FieldContext(m)
    assert ctx.order == 1 << m
    assert ctx.reduction_poly == default_polynomial(m)


@pytest.mark.parametrize("m", [9, 12, 16])
def test_wide_fields_match_oracle(m):
    ctx = FieldContext(m)
    rng = random.Random(m)
    for _ in range(200):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert ctx.mul_int(a, b) == gf_mul_ref(a, b, ctx.reduction_poly, m)
    # c * s is the XOR of c's split-table entries at s's low and high bytes:
    # every symbol, high byte set or not
    row = np.array([0, 1, 255, 256, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(20)])
    coeffs = [0, 1, ctx.order - 1, rng.randrange(ctx.order)]
    products = ctx.plane_products(coeffs)
    assert products.shape == (4, 2, 256) and products.dtype == ctx.symbol_dtype
    for c, (low, high) in zip(coeffs, products):
        got = low[row & 0xFF] ^ high[row >> 8]
        assert got.tolist() == [gf_mul_ref(c, int(x), ctx.reduction_poly, m) for x in row]
    for _ in range(20):
        a = rng.randrange(1, ctx.order)
        assert ctx.mul_int(a, _log_exp_inverse(ctx, a)) == 1


def test_context_validation():
    with pytest.raises(ValueError):
        FieldContext(0)
    with pytest.raises(ValueError):
        FieldContext(17)
    with pytest.raises(ValueError):
        FieldContext(8, 0x11B << 1)  # degree 9, not 8
    with pytest.raises(ValueError):
        FieldContext(4, 0x18)  # x^4 + x^3 is reducible
    # alternate irreducible polynomial is accepted
    alt = FieldContext(8, 0x11D)
    assert alt != GF8
    assert alt.mul_int(0x02, 0x80) == 0x1D


def test_rabin_irreducibility_matches_trial_division():
    for poly in range(1 << 13):  # every polynomial of degree <= 12
        assert _is_irreducible(poly) == is_irreducible_ref(poly), hex(poly)
    for m in range(1, 17):
        assert _is_irreducible(default_polynomial(m)) and is_irreducible_ref(default_polynomial(m))
    # x^16 + x^8 + 1 = (x^8 + x^4 + 1)^2 and x^12 + x^6 + 1 = (x^6 + x^3 + 1)^2 over GF(2)
    for poly in (0x10101, 0x1041):
        assert not _is_irreducible(poly) and not is_irreducible_ref(poly)


def test_reducible_polynomial_message():
    with pytest.raises(ValueError, match=r"^reduction polynomial 0x10101 is reducible over GF\(2\)$"):
        FieldContext(16, 0x10101)
    with pytest.raises(ValueError, match=r"^reduction polynomial 0x18 is reducible over GF\(2\)$"):
        FieldContext(4, 0x18)


def test_context_mixing_is_an_error():
    other = FieldContext(8, 0x11D)
    with pytest.raises(FieldMismatchError, match=r"GF\(2\^8\)/0x11D used in GF\(2\^8\)/0x11B"):
        GF8._check(GF8.element(1), other.element(1))
    assert GF8.element(3) != other.element(3)
    # equal parameters mean the same field even for separate instances
    twin = FieldContext(8)
    GF8._check(twin.element(6))
    assert GF8.element(5) == twin.element(5)
    assert hash(GF8.element(5)) == hash(twin.element(5))


def test_element_validation():
    with pytest.raises(ValueError):
        GF8.element(256)
    with pytest.raises(ValueError):
        FieldContext(4).element(16)
    assert repr(GF8.element(0x0A)) == "FieldElement(0x0A)"
    assert bool(GF8.element(0)) is False and bool(GF8.element(1)) is True


@pytest.mark.parametrize("m", range(1, 17))
def test_generator_is_least_of_full_order(m):
    ctx = FieldContext(m)
    g = ctx.generator().value
    poly, q1 = ctx.reduction_poly, ctx.order - 1
    assert gf_order_ref(g, poly, m) == q1
    assert all(gf_order_ref(h, poly, m) < q1 for h in range(1, g))


def test_generator_has_full_order():
    for m in (2, 4, 8):
        ctx = FieldContext(m)
        g = ctx.generator().value
        powers = []
        x = 1
        for _ in range(ctx.order - 1):
            powers.append(x)
            x = ctx.mul_int(x, g)
        assert len(set(powers)) == ctx.order - 1
        assert x == 1
        assert ctx.log_exp[1].tolist() == powers
