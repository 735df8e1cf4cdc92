"""Exact arithmetic in binary extension fields GF(2^m).

A symbol is an integer in [0, 2^m) whose bits are the coefficients of a
polynomial over GF(2); arithmetic is modulo an irreducible reduction
polynomial of degree m.  Addition and subtraction are both XOR.
Multiplication, division and inversion go through log/antilog tables built
once per field from a primitive element, so the per-symbol cost is a couple
of list lookups.  Tables are cached per (degree, polynomial) pair.

The bulk multiply by a constant (:meth:`FieldSpec.scale_array`) uses split
byte tables (Plank, Greenan and Miller, FAST 2013): one 256-entry table per
symbol byte, built per call from the log/antilog tables, and one gather per
byte plane, XORed together.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = [
    "DEFAULT_POLYS",
    "MAX_DEGREE",
    "DivisionByZero",
    "FieldElement",
    "FieldMismatch",
    "FieldSpec",
    "NotEnoughElements",
]


class FieldMismatch(ValueError):
    """Elements of two different fields met in one operation."""


class DivisionByZero(ZeroDivisionError):
    """Division by, or inversion of, the zero element."""


class NotEnoughElements(ValueError):
    """More distinct elements were requested than the field contains."""


#: Irreducible reduction polynomials, one per supported degree.  The degree-8
#: entry is x^8+x^4+x^3+x+1 (the AES polynomial, 0x11B); degree 16 is
#: x^16+x^12+x^3+x+1 (0x1100B).
DEFAULT_POLYS = {
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

MAX_DEGREE = 16


def _clmul_mod(a: int, b: int, poly: int, degree: int) -> int:
    """Carry-less multiply of two reduced symbols, reduced modulo poly."""
    acc = 0
    top = 1 << degree
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return acc


def _poly_rem(a: int, b: int) -> int:
    """Remainder of a divided by b in GF(2)[x], integers as bit vectors."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _is_irreducible(poly: int, degree: int) -> bool:
    # Trial division by every polynomial of degree 1..degree//2; a reducible
    # polynomial of degree <= 16 must have a factor in that range.
    for d in range(1, degree // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _poly_rem(poly, cand) == 0:
                return False
    return True


def _build_tables(degree: int, poly: int):
    """Build (exp, log, generator) tables by walking powers of a generator.

    The exp table is doubled so that exp[i+j] works without reducing the
    index modulo 2^m - 1.
    """
    order = 1 << degree
    if degree == 1:
        return [1, 1], [0, 0], 1
    for g in range(2, order):
        exp = [0] * (2 * (order - 1))
        log = [0] * order
        x = 1
        primitive = True
        for i in range(order - 1):
            if x == 1 and i > 0:
                primitive = False  # cycle closed early: g is not a generator
                break
            exp[i] = x
            log[x] = i
            x = _clmul_mod(x, g, poly, degree)
        if primitive and x == 1:
            for i in range(order - 1, 2 * (order - 1)):
                exp[i] = exp[i - (order - 1)]
            return exp, log, g
    raise AssertionError(f"no primitive element in GF(2^{degree}) mod 0x{poly:x}")


# Shared per (degree, poly): (exp, log, generator, exp_np, log_np).
_TABLE_CACHE: dict[tuple[int, int], tuple] = {}


class FieldSpec:
    """A binary extension field GF(2^m) with an explicit reduction polynomial.

    Instances are immutable and compare equal by (degree, reduction_poly).
    The *_int methods operate on raw integer symbols and are the fast path
    used by the matrix code; :meth:`element` wraps a symbol as a
    :class:`FieldElement` for operator-based arithmetic.
    """

    __slots__ = ("degree", "reduction_poly", "order", "generator",
                 "_exp", "_log", "_exp_np", "_log_np")

    def __init__(self, degree: int, reduction_poly: int | None = None):
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        if reduction_poly is None:
            reduction_poly = DEFAULT_POLYS[degree]
        if reduction_poly.bit_length() != degree + 1:
            raise ValueError(
                f"reduction polynomial 0x{reduction_poly:x} does not have degree {degree}")
        if not _is_irreducible(reduction_poly, degree):
            raise ValueError(f"reduction polynomial 0x{reduction_poly:x} is reducible")
        self.degree = degree
        self.reduction_poly = reduction_poly
        self.order = 1 << degree
        key = (degree, reduction_poly)
        if key not in _TABLE_CACHE:
            exp, log, gen = _build_tables(degree, reduction_poly)
            _TABLE_CACHE[key] = (exp, log, gen,
                                 np.array(exp, dtype=self.dtype),
                                 np.array(log, dtype=np.int32))
        self._exp, self._log, self.generator, self._exp_np, self._log_np = _TABLE_CACHE[key]

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.degree == other.degree
                and self.reduction_poly == other.reduction_poly)

    def __hash__(self) -> int:
        return hash((self.degree, self.reduction_poly))

    def __repr__(self) -> str:
        return f"FieldSpec(GF(2^{self.degree}), poly=0x{self.reduction_poly:x})"

    # -- element construction ------------------------------------------------

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    @property
    def dtype(self):
        """Numpy dtype wide enough for one symbol."""
        return np.uint8 if self.degree <= 8 else np.dtype("<u2")

    @property
    def symbol_bytes(self) -> int:
        return np.dtype(self.dtype).itemsize

    # -- integer-symbol arithmetic (fast path) -------------------------------

    def add_int(self, a: int, b: int) -> int:
        return a ^ b

    def mul_int(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv_int(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return self._exp[(self.order - 1) - self._log[a]]

    def div_int(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by zero")
        if a == 0:
            return 0
        return self._exp[self._log[a] + (self.order - 1) - self._log[b]]

    # -- sampling -------------------------------------------------------------

    def sample_distinct(self, count: int, rng_seed: int) -> list["FieldElement"]:
        """Deterministically sample `count` pairwise-distinct elements."""
        if count > self.order:
            raise NotEnoughElements(
                f"cannot sample {count} distinct elements from a field of order {self.order}")
        rng = random.Random(rng_seed)
        return [FieldElement(v, self) for v in rng.sample(range(self.order), count)]

    # -- vectorized helpers ----------------------------------------------------

    def scale_array(self, c: int, arr: np.ndarray) -> np.ndarray:
        """Multiply every entry of a symbol array by the constant c.

        Split byte tables: multiplication distributes over XOR, so
        c*x = xor_b c*(x_b << 8b) over the little-endian bytes x_b of each
        symbol.  Each byte plane is one gather from a 256-entry table
        T_b[v] = c*(v << 8b), built from the log/exp tables on every call
        (a few microseconds; nothing is cached per constant).

        The result is a fresh array of `self.dtype` (or `arr` itself when
        c == 1, zeros of arr's dtype when c == 0); callers must not mutate
        it in place.
        """
        if c == 0:
            return np.zeros_like(arr)
        if c == 1:
            return arr
        x = np.ascontiguousarray(arr.astype(self.dtype, copy=False))
        planes, width = x.reshape(-1).view(np.uint8), self.symbol_bytes
        out = None
        for b in range(width):
            # Byte b of a symbol is below order >> 8b; higher table rows stay 0.
            v = np.arange(1, min(256, self.order >> (8 * b)), dtype=np.int64)
            table = np.zeros(256, dtype=self.dtype)
            table[v] = self._exp_np[self._log_np[v << (8 * b)] + self._log[c]]
            part = np.take(table, planes[b::width])
            out = part if out is None else np.bitwise_xor(out, part, out=out)
        return out.reshape(x.shape)


class FieldElement:
    """An immutable element of a :class:`FieldSpec` with operator arithmetic.

    Mixing elements of different fields raises :class:`FieldMismatch`.
    In characteristic 2 addition and subtraction coincide (XOR) and
    negation is the identity.
    """

    __slots__ = ("value", "spec")

    def __init__(self, value: int, spec: FieldSpec):
        if not 0 <= value < spec.order:
            raise ValueError(f"symbol 0x{value:x} out of range for {spec!r}")
        self.value = value
        self.spec = spec

    def _check(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec != self.spec:
            raise FieldMismatch(f"cannot mix {self.spec!r} and {other.spec!r}")
        return other

    def __add__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        return FieldElement(self.value ^ other.value, self.spec)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        return FieldElement(self.value ^ other.value, self.spec)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        return FieldElement(self.spec.mul_int(self.value, other.value), self.spec)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        return FieldElement(self.spec.div_int(self.value, other.value), self.spec)

    def __neg__(self) -> "FieldElement":
        return self

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec.inv_int(self.value), self.spec)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement)
                and self.spec == other.spec
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((self.value, self.spec))

    def __repr__(self) -> str:
        return f"FieldElement(0x{self.value:x}, GF(2^{self.spec.degree}))"
