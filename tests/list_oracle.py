"""The list Gauss-Jordan elimination and scalar products: the oracles of mscr.linalg's arrays.

`_gauss_jordan` is the package's earlier elimination, kept as it was: one pivot at a time,
each row rebuilt by a list comprehension.  `dot` is the package's earlier inner product of
two element sequences.  The tests check `Matrix.solve`, `invert`, `det` and `@` against them
and against `list_product`.  The module is imported by tests, not collected itself.
"""

from mscr.galois import FieldElement
from mscr.linalg import DimensionMismatch


def _gauss_jordan(spec, a: list[list[int]], b: list[list[int]]) -> int:
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


def list_product(spec, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a @ b entry by entry, each a sum of scalar products."""
    out = []
    for row in a:
        out.append([0] * len(b[0]))
        for t, x in enumerate(row):
            for j, y in enumerate(b[t]):
                out[-1][j] ^= spec.mul_int(x, y)
    return out


def dot(u, v) -> FieldElement:
    """Inner product of two equal-length element sequences, one scalar product at a time."""
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
