"""Exact arithmetic in binary extension fields GF(2^m).

A symbol is an integer in [0, 2^m) whose bits are the coefficients of a
polynomial over GF(2); arithmetic is modulo an irreducible reduction
polynomial of degree m.  Addition and subtraction are both XOR.
Multiplication, division and inversion go through log/antilog tables built
once per field from a primitive element, so the per-symbol cost is two or three
table lookups.  Tables are cached per (degree, polynomial) pair, and so are their
array forms (:meth:`FieldSpec.product_tables`), built on a field's first matrix product.

The bulk kernel (:meth:`FieldSpec.scale_array`) applies a matrix of constants,
compiled once by :meth:`FieldSpec.plan`, to bit-sliced symbols as XORs of whole bit
planes: the bitmatrix form of Blomer et al. (1995) and Plank and Xu (2006).  Up to
_GATHER_WORDS words it gathers an output plane's inputs and reduces them in one call;
wider, it tables the XOR combinations that rows pick from each group of 4
input planes (Four Russians) and XORs one entry per group into each output.
"""

from __future__ import annotations

from array import array
from functools import cache, cached_property

import numpy as np

__all__ = [
    "DEFAULT_POLYS",
    "MAX_DEGREE",
    "DivisionByZero",
    "FieldElement",
    "FieldMismatch",
    "FieldSpec",
    "KernelPlan",
]


class FieldMismatch(ValueError):
    """Elements of two different fields met in one operation."""


class DivisionByZero(ZeroDivisionError):
    """Division by, or inversion of, the zero element."""


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

_GATHER_WORDS = 1 << 11  # widest planes gathered; wider, the XOR tables win


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


def _is_irreducible(poly: int, degree: int) -> bool:
    # Trial division by every polynomial of degree 1..degree//2; a reducible
    # polynomial of degree <= 16 must have a factor in that range.
    for cand in range(2, 1 << degree // 2 + 1):
        rem = poly
        while rem.bit_length() >= cand.bit_length():
            rem ^= cand << rem.bit_length() - cand.bit_length()
        if rem == 0:
            return False
    return True


def _build_tables(degree: int, poly: int):
    """(exp, log) tables of the first primitive element g; exp is twice over, for exp[i+j].

    Up to m = 8, lists from a walk of all the powers of g.  Past that, uint16 arrays of
    one outer product over w = 2^ceil(m/2): exp[h*w + l] = g^(h*w) * g^l, l < w, looked
    up per 4 bits of g^(h*w) = (g^h)^w (linear in g^h) in tables of g^l * v * x^(4j)."""
    n = (1 << degree) - 1
    w = n if degree <= 8 else 1 << (degree + 1) // 2
    log = [0] * (n + 1) if w == n else array("H", [0]) * (n + 1)  # past m = 8: scratch at first
    for g in range(2 - (degree == 1), n + 1):
        lo, x = [1] * w, g
        for i in range(1, w):
            if x == 1:
                break  # the cycle closed early: g is not primitive
            lo[i], log[x], x = x, i, _clmul_mod(x, g, poly, degree)
        else:
            if w == n:
                return lo * 2, log
            frob = [1, 2]  # x^(b*w): x^w by squaring x, then its powers
            for _ in range((degree + 1) // 2):
                frob[1] = _clmul_mod(frob[1], frob[1], poly, degree)
            while len(frob) < degree:
                frob.append(_clmul_mod(frob[-1], frob[1], poly, degree))
            exp = array("H", [0]) * (2 * n)  # computed in uint32 (x^b * poly), stored in 16 bits
            e, lg = np.frombuffer(exp, np.uint16), np.frombuffer(log, np.uint16)
            t, frob = e[:n + 1].reshape(-1, w), np.array(frob, np.uint32)[:, None]
            row, shifts = np.array(lo, np.uint32), np.arange(degree, dtype=np.uint32)[:, None]
            col = np.bitwise_xor.reduce((row[:len(t)] >> shifts & 1) * frob, 0)  # g^(h*w)
            tab = np.zeros((-(-degree // 4), 16, w), np.uint16)  # [j, v]: g^l * v * x^(4j)
            for b in range(degree):  # row = g^l * x^b
                tab[b // 4, 1 << b % 4:2 << b % 4] = tab[b // 4, :1 << b % 4] ^ row
                row = (row << 1) ^ (row >> (degree - 1)) * np.uint32(poly)
            for j in range(len(tab)):  # t[h, l] = exp[h*w + l]; the log is scratch
                t ^= np.take(tab[j], col >> 4 * j & 15, 0, out=lg.reshape(-1, w))
            if e[1:n].min() == 1:
                continue  # g^i = 1 for some 0 < i < n: g is not primitive
            e[n + 1:] = e[1:n]
            lg[0], lg[e[:n]] = 0, np.arange(n, dtype=np.uint16)
            return exp, log
    raise AssertionError(f"no primitive element in GF(2^{degree}) mod 0x{poly:x}")


_TABLE_CACHE: dict[tuple[int, int], tuple] = {}  # (degree, poly) -> (exp, log), shared


class FieldSpec:
    """A binary extension field GF(2^m) with an explicit reduction polynomial.

    Instances are immutable and compare equal by (degree, reduction_poly).
    The *_int methods operate on raw integer symbols, one at a time;
    :meth:`product_tables` gives the same tables as arrays to whole-array
    products (:class:`mscr.linalg.Matrix`); :meth:`element` wraps a symbol
    as a :class:`FieldElement` for operator-based arithmetic.
    """

    __slots__ = ("degree", "reduction_poly", "order", "_exp", "_log")

    def __init__(self, degree: int, reduction_poly: int | None = None):
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        if reduction_poly is None:
            reduction_poly = DEFAULT_POLYS[degree]
        if reduction_poly.bit_length() != degree + 1:
            raise ValueError(
                f"reduction polynomial 0x{reduction_poly:x} does not have degree {degree}")
        self.degree = degree
        self.reduction_poly = reduction_poly
        self.order = 1 << degree
        key = (degree, reduction_poly)
        if key not in _TABLE_CACHE:  # only irreducible keys enter, so a cached one needs no check
            trusted = reduction_poly == DEFAULT_POLYS[degree]  # a test checks each default
            if not (trusted or _is_irreducible(reduction_poly, degree)):
                raise ValueError(f"reduction polynomial 0x{reduction_poly:x} is reducible")
            _TABLE_CACHE[key] = _build_tables(degree, reduction_poly)
        self._exp, self._log = _TABLE_CACHE[key]

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
    def symbol_bytes(self) -> int:
        return (self.degree + 7) // 8

    # -- integer-symbol arithmetic (fast path) -------------------------------

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

    # -- vectorized helpers ----------------------------------------------------

    @cache  # once per (degree, poly): equal specs share the arrays
    def product_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The exp and log tables as arrays, built on first use.  log[0] is a sentinel
        z = 2(order - 1), past every sum of two logs of nonzero symbols, and exp is zero from z
        to 2z, so exp[log a + log b] is a*b for every a and b, zeros included."""
        z = 2 * (self.order - 1)
        exp, log = np.zeros(2 * z + 1, np.uint16), np.array(self._log, np.intp)
        exp[:z], log[0] = self._exp, z
        exp.flags.writeable = log.flags.writeable = False  # shared by every caller
        return exp, log

    def plan(self, rows) -> "KernelPlan":
        """Compile an r x s matrix of constants once, for all its :meth:`scale_array` calls:
        entry (i*m + a, j*m + b) of its bitmatrix is bit a of rows[i][j] * x^b."""
        m, c = self.degree, np.array(rows, dtype=np.uint32)
        r, s = c.shape
        bits = np.empty((r, m, s, m), dtype=bool)  # [i, a, j, b]: bit a of rows[i][j] * x^b
        shifts = np.arange(m, dtype=np.uint32)[:, None]
        for b in range(m):  # c = rows * x^b, one shift-and-reduce step at a time
            bits[..., b] = (c[:, None] >> shifts) & 1
            c = (c << 1) ^ (c >> (m - 1)) * np.uint32(self.reduction_poly)
        return KernelPlan(bits.reshape(r * m, s * m))

    def scale_array(self, plan: "KernelPlan", planes: np.ndarray, *, out=None) -> np.ndarray:
        """Apply a planned r x s matrix of constants to bit-sliced symbols: the one bulk kernel.

        `planes` is (s*m, words) uint64: row j*m + b holds bit b of coordinate
        j, one bit per block.  Returns the r*m planes of xor_j rows[i][j] * x_j,
        fresh or written to `out`: each XORs the input planes its bitmatrix row
        picks.  Up to _GATHER_WORDS words, one reduce over a gathered copy;
        wider, per group of 4 input planes the XOR combinations some row picks
        are built once, one XOR each, and each row XORs in one per group.
        """
        (r, s), words = plan.bits.shape, planes.shape[1]
        if planes.shape[0] != s:
            raise ValueError(f"{planes.shape[0]} planes do not fit a {r}x{s} bitmatrix")
        out = np.empty((r, words), dtype=np.uint64) if out is None else out
        if words <= _GATHER_WORDS:
            for plane, pick, n, j in zip(out, plan.bits, plan.counts, plan.first):
                if n == 1:
                    plane[:] = planes[j]
                else:  # zeros if nothing is picked
                    np.bitwise_xor.reduce(planes[pick], axis=0, out=plane)
            return out
        dst, table, first = list(out), np.empty((16, words), dtype=np.uint64), plan.first
        for g, (build, col) in enumerate(plan.groups):
            entry = dict(zip((1, 2, 4, 8), planes[4 * g:4 * g + 4]))
            for v in build:  # one XOR from a smaller entry and one plane
                entry[v] = np.bitwise_xor(entry[v & (v - 1)], entry[v & -v], out=table[v])
            for i, v in enumerate(col):
                if first[i] // 4 == g:  # the first touch: a copy, or zeros if nothing is picked
                    dst[i][:] = entry[v] if v else 0
                elif v:
                    np.bitwise_xor(dst[i], entry[v], out=dst[i])
        return out


class KernelPlan:
    """A bitmatrix, how many input planes each row picks and the first; and per group of 4
    input planes, the table entries to build (with prefixes) and each row's code."""

    def __init__(self, bits: np.ndarray):
        self.bits, self.counts, self.first = bits, bits.sum(1).tolist(), bits.argmax(1).tolist()

    @cached_property
    def groups(self):  # built on a plan's first call wider than _GATHER_WORDS
        r, s = self.bits.shape
        codes = np.concatenate([self.bits, np.zeros((r, -s % 4), bool)], 1).reshape(r, -1, 4)
        codes = (codes << np.arange(4, dtype=np.uint8)).sum(2, dtype=np.uint8)
        return [(sorted(u for u in {v >> t << t for v in set(col) for t in range(4)} if u & u - 1),
                 col) for col in codes.T.tolist()]


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
        return FieldElement(self.value ^ self._check(other).value, self.spec)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.spec.mul_int(self.value, self._check(other).value), self.spec)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.spec.div_int(self.value, self._check(other).value), self.spec)

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
