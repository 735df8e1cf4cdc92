"""Dense matrix algebra over GF(2^m), on whole arrays.

A `Matrix` is one read-only (r, c) array of symbols.  Its products, sums and eliminations
run on whole arrays through the field's exp/log table arrays (`FieldSpec.product_tables`): a
product is exp[log a + log b], and the log of zero is a sentinel whose sums index a zero tail
of exp.  A vector is a one-row or one-column Matrix, so every product here is one `@`.
Everything is exact.  Gauss-Jordan elimination pivots on any nonzero entry of its column
(any nonzero pivot is as good as any other in a finite field) and clears that column in
all rows at once.  Also here: Cauchy matrices with their closed-form inverse, and
super-regularity testing by exhaustive enumeration of square minors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .galois import FieldElement, FieldSpec

__all__ = [
    "CauchySpec",
    "DimensionMismatch",
    "DuplicateGenerators",
    "Matrix",
    "SingularMatrix",
    "TooLarge",
    "cauchy",
    "cauchy_inverse",
    "first_singular_minor",
    "random_nonsingular",
]

SUPER_REGULAR_MAX = 8


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class SingularMatrix(ArithmeticError):
    """Elimination found no usable pivot."""


class DuplicateGenerators(ValueError):
    """Cauchy generators are not pairwise distinct."""


class TooLarge(ValueError):
    """Matrix exceeds the size cap of a combinatorial check."""


class Matrix:
    """Immutable dense matrix over one field: `array`, a read-only (r, c) uint16 array.

    Equality and hashing cover the field, the shape and the entries, so a Matrix (and the
    params that hold one) can key a cache."""

    __slots__ = ("spec", "array", "_det")

    def __init__(self, spec: FieldSpec, rows):
        """From an (r, c) array or r equal-length rows of symbols, copied."""
        try:
            array = np.array(rows, dtype=np.uint16)
        except ValueError:
            array = None
        if array is None or array.ndim != 2:
            raise DimensionMismatch("ragged rows")
        array.flags.writeable = False
        self.spec, self.array, self._det = spec, array, None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[FieldElement]]) -> "Matrix":
        if not rows or not rows[0]:
            raise DimensionMismatch("empty matrix")
        spec = rows[0][0].spec
        for r in rows:
            for e in r:
                if e.spec != spec:
                    raise DimensionMismatch("mixed fields in one matrix")
        return cls(spec, [[e.value for e in r] for r in rows])

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        eye = cls(spec, [[int(i == j) for j in range(n)] for i in range(n)])
        eye._det = 1
        return eye

    # -- accessors ------------------------------------------------------------

    def at(self, i: int, j: int) -> FieldElement:
        return FieldElement(int(self.array[i, j]), self.spec)

    def col(self, j: int) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(v, self.spec) for v in self.array[:, j].tolist())

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} to {other.shape}")
        return Matrix(self.spec, self.array ^ other.array)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch(f"matmul {self.shape} by {other.shape}")
        exp, log = self.spec.product_tables()
        terms = exp[log[self.array][:, :, None] + log[other.array]]  # [i, t, j]: a_it * b_tj
        return Matrix(self.spec, np.bitwise_xor.reduce(terms, axis=1))

    def transpose(self) -> "Matrix":
        return Matrix(self.spec, self.array.T)

    def scalar_mul(self, c: FieldElement) -> "Matrix":
        if c.spec != self.spec:
            raise DimensionMismatch("scalar from a different field")
        exp, log = self.spec.product_tables()
        return Matrix(self.spec, exp[log[self.array] + log[c.value]])

    def invert(self) -> "Matrix":
        if self.shape[0] != self.shape[1]:
            raise DimensionMismatch("only square matrices invert")
        return self.solve(Matrix.identity(self.spec, self.shape[0]))

    def solve(self, rhs: "Matrix") -> "Matrix":
        """Solve self @ X = rhs for X (self square nonsingular)."""
        self._compat(rhs)
        n = self.shape[0]
        if self.shape[1] != n:
            raise DimensionMismatch("coefficient matrix must be square")
        if rhs.shape[0] != n:
            raise DimensionMismatch(f"solve {self.shape} against rhs {rhs.shape}")
        augmented = np.concatenate([self.array, rhs.array], axis=1)
        if not _eliminate(self.spec, augmented):
            raise SingularMatrix("matrix is singular")
        return Matrix(self.spec, augmented[:, n:])

    def det(self) -> FieldElement:
        if self.shape[0] != self.shape[1]:
            raise DimensionMismatch("determinant of a non-square matrix")
        if self._det is None:  # once: the entries never change
            self._det = _eliminate(self.spec, np.array(self.array))
        return FieldElement(self._det, self.spec)

    # -- misc -----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    def _compat(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if other.spec != self.spec:
            raise DimensionMismatch("matrices over different fields")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.spec == other.spec
                and np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.spec, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(f"{v:x}" for v in r) for r in self.array.tolist())
        return f"Matrix({self.shape[0]}x{self.shape[1]}, [{body}])"


def _eliminate(spec: FieldSpec, augmented: np.ndarray) -> int:
    """Reduce the leading square of `augmented` to the identity, in place, by the same row
    operations on all its columns: per column, the pivot row over its pivot, then one update
    of every other row, skipped when the column holds no other nonzero entry.

    Returns the determinant of that square: the product of the pivots (a row swap only flips
    a sign, and -1 = 1 here), or 0 as soon as a column has no nonzero pivot.
    """
    exp, log = spec.product_tables()
    n, qm1, det_log = augmented.shape[0], spec.order - 1, 0
    for col in range(n):
        column = augmented[:, col].tolist()
        piv = next((r for r in range(col, n) if column[r]), None)  # any nonzero entry will do
        if piv is None:
            return 0
        if piv != col:
            augmented[[col, piv]] = augmented[[piv, col]]
        lp = int(log[column[piv]])
        det_log += lp
        if lp:  # a pivot other than 1
            augmented[col] = exp[log[augmented[col]] + (qm1 - lp)]
        if column.count(0) < n - 1:  # not yet clear
            factors = log[augmented[:, col]]
            factors[col] = log[0]  # the sentinel: the pivot row stays as it is
            augmented ^= exp[factors[:, None] + log[augmented[col]]]
    return int(exp[det_log % qm1])


@dataclass(frozen=True)
class CauchySpec:
    """Generators (a_1..a_k, b_1..b_k) of a k x k Cauchy matrix.

    All 2k generators must be pairwise distinct so that every a_i - b_j is
    invertible (and the closed-form inverse's denominators are nonzero).
    """

    a: tuple[FieldElement, ...]
    b: tuple[FieldElement, ...]

    def __post_init__(self):
        if not self.a or len(self.a) != len(self.b):
            raise DimensionMismatch("generator lists must be nonempty and equal-length")
        spec = self.a[0].spec
        for e in (*self.a, *self.b):
            if e.spec != spec:
                raise DimensionMismatch("generators from different fields")
        values = [e.value for e in (*self.a, *self.b)]
        if len(set(values)) != len(values):
            raise DuplicateGenerators(f"generators not pairwise distinct: {values}")

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def spec(self) -> FieldSpec:
        return self.a[0].spec


def cauchy(cs: CauchySpec) -> Matrix:
    """Cauchy matrix with entries (a_i - b_j)^-1 (i row, j column)."""
    return Matrix(cs.spec, [[cs.spec.inv_int(a.value ^ b.value) for b in cs.b] for a in cs.a])


def cauchy_inverse(cs: CauchySpec) -> Matrix:
    """Closed-form inverse of cauchy(cs), no elimination involved.

    Entry (j, i) is
        (a_i - b_j) * prod_{l!=i}(b_j - a_l)/(a_i - a_l)
                    * prod_{l!=j}(a_i - b_l)/(b_j - b_l).
    """
    mul, div, k = cs.spec.mul_int, cs.spec.div_int, cs.k
    a, b = [e.value for e in cs.a], [e.value for e in cs.b]
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            num, den = a[i] ^ b[j], 1
            for l in range(k):
                if l != i:
                    num = mul(num, b[j] ^ a[l])
                    den = mul(den, a[i] ^ a[l])
                if l != j:
                    num = mul(num, a[i] ^ b[l])
                    den = mul(den, b[j] ^ b[l])
            rows[j][i] = div(num, den)
    return Matrix(cs.spec, rows)


def first_singular_minor(m: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Locate a singular square submatrix, or None if all are nonsingular.

    Cost grows as sum_s C(n,s)^2 determinants, hence the size cap.
    """
    n = m.shape[0]
    if m.shape[1] != n:
        raise DimensionMismatch("super-regularity applies to square matrices")
    if n > SUPER_REGULAR_MAX:
        raise TooLarge(f"minor enumeration capped at {SUPER_REGULAR_MAX}x{SUPER_REGULAR_MAX}")
    for s in range(1, n + 1):
        for rsel in combinations(range(n), s):
            for csel in combinations(range(n), s):
                if not _eliminate(m.spec, m.array[np.ix_(rsel, csel)]):  # a fresh copy
                    return rsel, csel
    return None


def random_nonsingular(spec: FieldSpec, n: int, rng: random.Random) -> Matrix:
    while True:
        m = Matrix(spec, [[rng.randrange(spec.order) for _ in range(n)] for _ in range(n)])
        if m.det().value != 0:
            return m
