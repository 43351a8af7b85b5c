"""GF(2^m) arithmetic for protection-code coefficients.

Elements are integers in [0, 2^m) read as polynomials over GF(2): bit i
is the coefficient of x^i.  A FieldContext pins down the bit width m and
the degree-m irreducible reduction polynomial, checked with Rabin's
test; a FieldElement couples a value to its context so that values from
different fields can never be combined silently.

Arrays of symbols use one dtype per field, `symbol_dtype`: uint8 for
m <= 8, uint16 above.  The context owns array multiplication:
`plane_products` gives, for each coefficient c, the products
c * (x << 8p) for every byte x of every byte plane p of a symbol, so
c * s is the XOR of one lookup per byte of s.  One doubling construction
builds every such table: for m <= 8 the full q x q product table,
`mul_table`, which `mul_int` and `plane_products` read, and above that
two 256-entry split tables per coefficient.  `kernels.gf_matmul` packs
them into its word tables.  `log_exp` holds the powers of the field's
generator g and their logs, filled from the `plane_products` rows of
g, g^2, g^4, ... by doubling; the codec builds every code and decode
plan from them as sums of logs.  Wider fields multiply scalars by
shift-and-reduce.  A FieldElement is a checked value at the API edge:
it does no arithmetic of its own.
Contexts are immutable after construction and safe to share across
threads; every operation is pure.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_M",
    "DEFAULT_POLY",
    "FieldContext",
    "FieldElement",
    "FieldMismatchError",
    "default_polynomial",
]

# Minimum-weight irreducible polynomial per degree, bit i = coeff of x^i.
_IRREDUCIBLE = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11B,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}

DEFAULT_M = 8
DEFAULT_POLY = _IRREDUCIBLE[DEFAULT_M]

_MAX_M = 16
_TABLE_MAX_M = 8


class FieldMismatchError(ValueError):
    """Raised when elements of two different field contexts are combined."""


def default_polynomial(m: int) -> int:
    """Return the built-in irreducible reduction polynomial of degree m."""
    if m not in _IRREDUCIBLE:
        raise ValueError(f"no built-in polynomial for m={m}; supported 1..{_MAX_M}")
    return _IRREDUCIBLE[m]


def _degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, p: int) -> int:
    dp = _degree(p)
    while a and _degree(a) >= dp:
        a ^= p << (_degree(a) - dp)
    return a


def _mul_mod(a: int, b: int, p: int) -> int:
    """a*b mod p over GF(2), for a of degree below deg(p): shift and reduce."""
    top = 1 << _degree(p)
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= p
    return res


def _prime_factors(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _is_irreducible(p: int) -> bool:
    """Rabin's test (1980): p of degree m is irreducible over GF(2) iff
    x^(2^m) = x mod p and gcd(x^(2^(m/q)) - x, p) = 1 for each prime q | m."""
    m = _degree(p)
    if m < 1:
        return False
    x = _poly_mod(0b10, p)
    frobenius = [x]  # x^(2^i) mod p
    for _ in range(m):
        frobenius.append(_mul_mod(frobenius[-1], frobenius[-1], p))
    if frobenius[m] != x:
        return False
    for q in _prime_factors(m):
        a, b = p, frobenius[m // q] ^ x
        while b:
            a, b = b, _poly_mod(a, b)
        if a != 1:
            return False
    return True


class FieldContext:
    """The field GF(2^m) under a fixed reduction polynomial.

    Parameters
    ----------
    m : int
        Bit width of elements, 1 <= m <= 16.  The field has 2^m elements.
    reduction_poly : int or None
        Degree-m irreducible polynomial as an integer (bit m must be
        set).  None selects a built-in minimum-weight polynomial; the
        m=8 default is 0x11B.
    """

    def __init__(self, m: int = DEFAULT_M, reduction_poly: int | None = None):
        if not 1 <= m <= _MAX_M:
            raise ValueError(f"m must be in 1..{_MAX_M}, got {m}")
        if reduction_poly is None:
            reduction_poly = default_polynomial(m)
        if _degree(reduction_poly) != m:
            raise ValueError(
                f"reduction polynomial 0x{reduction_poly:X} does not have degree {m}"
            )
        if not _is_irreducible(reduction_poly):
            raise ValueError(
                f"reduction polynomial 0x{reduction_poly:X} is reducible over GF(2)"
            )
        self.m = m
        self.reduction_poly = reduction_poly
        self.order = 1 << m
        self.symbol_dtype = np.dtype(np.uint8 if m <= _TABLE_MAX_M else np.uint16)
        self._generator_value = self._find_generator()

    # -- construction helpers -------------------------------------------------

    def _find_generator(self) -> int:
        """The least g of order q-1: g^((q-1)/p) != 1 for each prime p dividing q-1."""
        q1 = self.order - 1
        primes = _prime_factors(q1)
        for g in range(1, self.order):
            if all(self.pow_int(g, q1 // p) != 1 for p in primes):
                return g
        raise AssertionError("no generator found; polynomial is not irreducible")

    def _doubled(self, coeffs) -> np.ndarray:
        """c * (x << 8p) for each coefficient c, byte plane p and byte x.

        Shape coeffs.shape + (planes, 256), one plane per byte of the
        symbol dtype.  Entry x of a plane is the XOR of the c * 2^(8p+j)
        that the bits j of x select, filled by doubling.  The c * 2^i come
        from shift-and-reduce on one Python int that holds every
        coefficient in a 16-bit lane, so their cost hardly grows with the
        number of coefficients.
        """
        c = np.asarray(coeffs, dtype=np.int64)
        m, size, planes = self.m, c.size, self.symbol_dtype.itemsize
        # lane i of v holds c_i * 2^j: a step shifts the lane's bits below
        # m - 1 up and, if bit m - 1 was set, XORs in x^m reduced (`tail`)
        low = int.from_bytes(np.full(size, (1 << m - 1) - 1, dtype="<u2").tobytes(), "little")
        ones = int.from_bytes(b"\x01\x00" * size, "little")
        tail = self.reduction_poly ^ 1 << m
        v = int.from_bytes(c.astype("<u2").tobytes(), "little")
        steps = []
        for _ in range(8 * planes):
            steps.append(v.to_bytes(2 * size, "little"))
            v = (v & low) << 1 ^ (v >> m - 1 & ones) * tail
        basis = np.frombuffer(b"".join(steps), dtype="<u2").reshape((planes, 8) + c.shape)
        bits = np.moveaxis(basis.astype(self.symbol_dtype), (0, 1), (-2, -1))
        out = np.zeros(c.shape + (planes, 256), dtype=self.symbol_dtype)
        for j in range(8):
            out[..., 1 << j : 2 << j] = out[..., : 1 << j] ^ bits[..., j, None]
        return out

    @cached_property
    def mul_table(self) -> np.ndarray:
        """The q x q uint8 product table, mul_table[a, b] = a*b (m <= 8)."""
        if self.m > _TABLE_MAX_M:
            raise ValueError(f"GF(2^{self.m}) has no product table; tables need m <= {_TABLE_MAX_M}")
        q = self.order
        table = np.ascontiguousarray(self._doubled(np.arange(q))[:, 0, :q])
        table.setflags(write=False)
        return table

    @cached_property
    def log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, exp), read-only: exp[i] = g^i for i < q - 1 and log[exp[i]] = i.

        exp, in the symbol dtype, is filled by doubling: step s sets
        exp[n:2n] = exp[:n] * g^n for n = 2^s, up to q - 1 entries, from
        the `plane_products` row of g^n; one call builds every step's row.
        log is int32, and log[0], which no power takes, is 0, so a zero
        term adds nothing to a sum of logs.
        """
        squares = [self._generator_value]  # g^(2^s)
        while len(squares) < self.m:
            squares.append(self.mul_int(squares[-1], squares[-1]))
        q1 = self.order - 1
        exp = np.empty(q1, dtype=self.symbol_dtype)
        exp[0] = 1
        for s, planes in enumerate(self.plane_products(squares)):
            n = 1 << s
            part = exp[: min(n, q1 - n)]
            product = planes[0].take(part & 0xFF)
            if len(planes) > 1:
                product ^= planes[1].take(part >> 8)
            exp[n : n + part.size] = product
        log = np.zeros(self.order, dtype=np.int32)
        log[exp] = np.arange(q1, dtype=np.int32)
        exp.setflags(write=False)
        log.setflags(write=False)
        return log, exp

    # -- element construction --------------------------------------------------

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value, self)

    def elements(self, values) -> list["FieldElement"]:
        return [FieldElement(v, self) for v in values]

    def generator(self) -> "FieldElement":
        """A multiplicative generator of the nonzero elements."""
        return FieldElement(self._generator_value, self)

    # -- integer-level arithmetic ----------------------------------------------

    def mul_int(self, a: int, b: int) -> int:
        if self.m <= _TABLE_MAX_M:
            return int(self.mul_table[a, b])
        return _mul_mod(a, b, self.reduction_poly)

    def plane_products(self, coeffs) -> np.ndarray:
        """c * (x << 8p) for each coefficient c, byte plane p and byte x.

        Shape coeffs.shape + (planes, entries), in the symbol dtype: for a
        symbol s, c * s is the XOR over p of products[..., p, (s >> 8p) & 0xFF].
        For m <= 8, one plane: rows of `mul_table`.  Above, the two planes
        of 256 entries that `_doubled` builds.
        """
        if self.m <= _TABLE_MAX_M:
            return self.mul_table[coeffs][..., None, :]
        return self._doubled(coeffs)

    def pow_int(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be non-negative")
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul_int(result, base)
            base = self.mul_int(base, base)
            e >>= 1
        return result

    # -- element-level operations ----------------------------------------------

    def _check(self, *elems: "FieldElement") -> None:
        for e in elems:
            if e.context != self:
                raise FieldMismatchError(
                    f"element of GF(2^{e.context.m})/0x{e.context.reduction_poly:X} "
                    f"used in GF(2^{self.m})/0x{self.reduction_poly:X}"
                )

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and self.m == other.m
            and self.reduction_poly == other.reduction_poly
        )

    def __hash__(self) -> int:
        return hash((self.m, self.reduction_poly))

    def __repr__(self) -> str:
        return f"FieldContext(m={self.m}, reduction_poly=0x{self.reduction_poly:X})"


class FieldElement:
    """A value in [0, 2^m) bound to its FieldContext."""

    __slots__ = ("value", "context")

    def __init__(self, value: int, context: FieldContext):
        if not 0 <= value < context.order:
            raise ValueError(f"value {value} out of range for GF(2^{context.m})")
        self.value = int(value)
        self.context = context

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.value == other.value
            and self.context == other.context
        )

    def __hash__(self) -> int:
        return hash((self.value, self.context))

    def __repr__(self) -> str:
        width = (self.context.m + 3) // 4
        return f"FieldElement(0x{self.value:0{width}X})"
