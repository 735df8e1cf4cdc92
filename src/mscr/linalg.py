"""Dense matrix algebra over GF(2^m).

Everything here is exact: Gauss-Jordan elimination with first-nonzero
pivoting (any nonzero pivot is as good as any other in a finite field),
Cauchy matrices with their closed-form inverse, and super-regularity
testing by exhaustive enumeration of square minors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

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
    "dot",
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


def dot(u: Sequence[FieldElement], v: Sequence[FieldElement]) -> FieldElement:
    """Inner product of two equal-length element sequences."""
    if len(u) != len(v) or not u:
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    spec = u[0].spec
    exp, log = spec._exp, spec._log
    acc = 0
    for x, y in zip(u, v):
        a, b = x.value, y.value
        if a and b:
            acc ^= exp[log[a] + log[b]]
    return FieldElement(acc, spec)


class Matrix:
    """Immutable dense matrix over one field, stored row-major as raw ints."""

    __slots__ = ("rows", "cols", "spec", "_m")

    def __init__(self, spec: FieldSpec, int_rows: Sequence[Sequence[int]]):
        self.spec = spec
        self.rows = len(int_rows)
        self.cols = len(int_rows[0]) if self.rows else 0
        for r in int_rows:
            if len(r) != self.cols:
                raise DimensionMismatch("ragged rows")
        self._m = tuple(tuple(r) for r in int_rows)

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
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # -- accessors ------------------------------------------------------------

    def at(self, i: int, j: int) -> FieldElement:
        return FieldElement(self._m[i][j], self.spec)

    def int_at(self, i: int, j: int) -> int:
        return self._m[i][j]

    def row(self, i: int) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(v, self.spec) for v in self._m[i])

    def col(self, j: int) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(r[j], self.spec) for r in self._m)

    def int_rows(self) -> list[list[int]]:
        return [list(r) for r in self._m]

    # -- algebra --------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"add {self.shape} to {other.shape}")
        return Matrix(self.spec, [[a ^ b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(self._m, other._m)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul {self.shape} by {other.shape}")
        exp, log = self.spec._exp, self.spec._log
        out = []
        for arow in self._m:  # row i of the product: xor over t of arow[t] * row t of other
            acc = [0] * other.cols
            for a, brow in zip(arow, other._m):
                if a:
                    la = log[a]
                    acc = [v ^ exp[la + log[b]] if b else v for v, b in zip(acc, brow)]
            out.append(acc)
        return Matrix(self.spec, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.spec, [[self._m[i][j] for i in range(self.rows)]
                                  for j in range(self.cols)])

    def scalar_mul(self, c: FieldElement) -> "Matrix":
        if c.spec != self.spec:
            raise DimensionMismatch("scalar from a different field")
        mul = self.spec.mul_int
        cv = c.value
        return Matrix(self.spec, [[mul(cv, v) for v in r] for r in self._m])

    def invert(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices invert")
        return self.solve(Matrix.identity(self.spec, self.rows))

    def solve(self, rhs: "Matrix") -> "Matrix":
        """Solve self @ X = rhs for X (self square nonsingular)."""
        self._compat(rhs)
        if self.rows != self.cols:
            raise DimensionMismatch("coefficient matrix must be square")
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"solve {self.shape} against rhs {rhs.shape}")
        a = self.int_rows()
        b = rhs.int_rows()
        if not _gauss_jordan(self.spec, a, b):
            raise SingularMatrix("matrix is singular")
        return Matrix(self.spec, b)

    def det(self) -> FieldElement:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        det = _gauss_jordan(self.spec, self.int_rows(), [[] for _ in range(self.rows)])
        return FieldElement(det, self.spec)

    # -- misc -----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _compat(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if other.spec != self.spec:
            raise DimensionMismatch("matrices over different fields")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.spec == other.spec
                and self._m == other._m)

    def __hash__(self) -> int:
        return hash((self.spec, self._m))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(f"{v:x}" for v in r) for r in self._m)
        return f"Matrix({self.rows}x{self.cols}, [{body}])"


def _gauss_jordan(spec: FieldSpec, a: list[list[int]], b: list[list[int]]) -> int:
    """Reduce a to the identity, applying the same row ops to b, in place.

    Returns det(a): the product of the pivots (row swaps only flip a sign,
    and -1 = 1 here), or 0 as soon as a column has no nonzero pivot.
    """
    exp, log = spec._exp, spec._log
    qm1 = spec.order - 1
    n = len(a)
    det_log = 0
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        pv = a[col][col]
        det_log = (det_log + log[pv]) % qm1
        if pv != 1:
            linv = qm1 - log[pv]
            a[col] = [exp[log[v] + linv] if v else 0 for v in a[col]]
            b[col] = [exp[log[v] + linv] if v else 0 for v in b[col]]
        arow, brow = a[col], b[col]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if f:
                lf = log[f]
                a[r] = [v ^ exp[lf + log[w]] if w else v for v, w in zip(a[r], arow)]
                b[r] = [v ^ exp[lf + log[w]] if w else v for v, w in zip(b[r], brow)]
    return exp[det_log]


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
    spec = cs.spec
    rows = [[spec.inv_int(ai.value ^ bj.value) for bj in cs.b] for ai in cs.a]
    return Matrix(spec, rows)


def cauchy_inverse(cs: CauchySpec) -> Matrix:
    """Closed-form inverse of cauchy(cs), no elimination involved.

    Entry (j, i) is
        (a_i - b_j) * prod_{l!=i}(b_j - a_l)/(a_i - a_l)
                    * prod_{l!=j}(a_i - b_l)/(b_j - b_l).
    """
    spec = cs.spec
    mul, div = spec.mul_int, spec.div_int
    k = cs.k
    a = [e.value for e in cs.a]
    b = [e.value for e in cs.b]
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
    return Matrix(spec, rows)


def first_singular_minor(m: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Locate a singular square submatrix, or None if all are nonsingular.

    Cost grows as sum_s C(n,s)^2 determinants, hence the size cap.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("super-regularity applies to square matrices")
    n = m.rows
    if n > SUPER_REGULAR_MAX:
        raise TooLarge(f"minor enumeration capped at {SUPER_REGULAR_MAX}x{SUPER_REGULAR_MAX}")
    spec = m.spec
    grid = m.int_rows()
    for s in range(1, n + 1):
        for rsel in combinations(range(n), s):
            picked = [grid[r] for r in rsel]
            for csel in combinations(range(n), s):
                sub = [[row[c] for c in csel] for row in picked]
                if _gauss_jordan(spec, sub, [[] for _ in range(s)]) == 0:
                    return rsel, csel
    return None


def random_nonsingular(spec: FieldSpec, n: int, rng: random.Random) -> Matrix:
    while True:
        m = Matrix(spec, [[rng.randrange(spec.order) for _ in range(n)] for _ in range(n)])
        if m.det().value != 0:
            return m
