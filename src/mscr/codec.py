"""Encoding a k x k source block to 2k node vectors and getting it back.

Nodes 1..k are systematic and store the columns x_1..x_k of the source
matrix X uncoded.  Nodes k+1..2k store the columns y_1..y_k of

    Y = delta * V_hat X^t U + epsilon * X P        (forward map F)

and the inverse view, F on the mirror side (see `params.Side`), treats Y as the information:

    X = delta' * U_hat Y^t V + epsilon' * Y Q      (dual map G)

With the parameter conditions of :mod:`mscr.params`, G(F(X)) = X for every
block, and any k node vectors determine X (the MDS property).  The systematic
nodes of a set hold their columns of X; `collection_matrix` solves once for
the other columns from the parity coordinates, and `collect` applies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .galois import FieldElement
from .linalg import DimensionMismatch, Matrix, dot
from .params import CodeParams, Side

__all__ = [
    "DuplicateNodes",
    "NodeContent",
    "ParityBlock",
    "SourceBlock",
    "collect",
    "collection_matrix",
    "dual_encode",
    "encode",
    "encode_matrix",
]


class DuplicateNodes(ValueError):
    """The same node id appears twice in a collection request."""


@dataclass(frozen=True)
class SourceBlock:
    """One data chunk: column j is the content of systematic node j."""

    x: Matrix


@dataclass(frozen=True)
class ParityBlock:
    """Encoded chunk: column j is the content of parity node k+j."""

    y: Matrix


@dataclass(frozen=True)
class NodeContent:
    """The k symbols stored by one node (ids are 1-based, 1..2k)."""

    node_id: int
    vector: tuple[FieldElement, ...]


def _map(m: Matrix, side: Side, params: CodeParams) -> Matrix:
    """delta * hat M^t probes + epsilon * M mix: F on the parity side, G on the systematic side."""
    if m.shape != (params.k, params.k) or m.spec != params.field:
        raise DimensionMismatch(
            f"block shape {m.shape} does not fit k={params.k} over {params.field!r}")
    return ((side.hat @ m.transpose() @ side.probes).scalar_mul(side.delta)
            + (m @ side.mix).scalar_mul(side.epsilon))


def encode(block: SourceBlock, params: CodeParams) -> ParityBlock:
    """Forward map: parity matrix Y from source matrix X."""
    return ParityBlock(_map(block.x, params.parity_side, params))


def dual_encode(block: ParityBlock, params: CodeParams) -> SourceBlock:
    """Inverse map: source matrix X from parity matrix Y."""
    return SourceBlock(_map(block.y, params.systematic_side, params))


@lru_cache(maxsize=128)
def encode_matrix(params: CodeParams) -> Matrix:
    """The k^2 x k^2 matrix E with vec(Y) = E vec(X), entry by entry from F.

    X[b][a] enters Y[r][c] with weight delta V_hat[r][a] U[b][c] through the
    aligned term and epsilon P[a][c] through the mixed one when b = r, so
    E[rk + c][bk + a] = delta V_hat[r][a] U[b][c] + epsilon [b = r] P[a][c].
    """
    k, field, mul, side = params.k, params.field, params.field.mul_int, params.parity_side
    d, e = side.delta.value, side.epsilon.value
    v_hat, u, p = side.hat.int_rows(), side.probes.int_rows(), side.mix.int_rows()
    return Matrix(field, [[mul(d, mul(v_hat[r][a], u[b][c])) ^ (mul(e, p[a][c]) if b == r else 0)
                           for b in range(k) for a in range(k)]
                          for r in range(k) for c in range(k)])


@lru_cache(maxsize=128)  # bounded: 128 k=8 decoders hold at most 4.5 MiB (8 MiB over GF(2^16))
def collection_matrix(node_ids: tuple[int, ...],
                      params: CodeParams) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The decoder of a k-node set: the vec(X) indices no node in it holds, and their rows.

    vec(X) is row-major, and coordinate l of the node at position p of the
    sorted ids is coordinate pk + l of the set.  The s systematic nodes hold
    x_H (node j holds X[l][j-1] as coordinate l); the other k - s columns are
    x_M.  The k - s parity nodes hold y_T = A x_M + K x_H, with A and K taken
    from rows of the encode matrix, so one solve gives the rows
    x_M = A^-1 [K | I] (x_H; y_T), in ascending vec(X) order.  The value is
    shared by every caller.
    """
    k, field, ids = params.k, params.field, sorted(node_ids)
    enc = encode_matrix(params)
    held = {l * k + nid - 1: p * k + l for p, nid in enumerate(ids) if nid <= k for l in range(k)}
    parity = [(p * k + l, l * k + nid - k - 1)  # (set coordinate, row of the encode matrix)
              for p, nid in enumerate(ids) if nid > k for l in range(k)]
    missing = [t for t in range(k * k) if t not in held]
    rhs = [[0] * (k * k) for _ in parity]
    for row, (at, e) in zip(rhs, parity):
        row[at] = 1
        for t, c in held.items():
            row[c] = enc.int_at(e, t)
    a = Matrix(field, [[enc.int_at(e, t) for t in missing] for _, e in parity])
    return tuple(missing), tuple(map(tuple, a.solve(Matrix(field, rhs)).int_rows()))


def collect(contents: Sequence[NodeContent], params: CodeParams) -> SourceBlock:
    """Rebuild the source block from any k distinct node contents.

    The held columns are copied and the decoder rows give the rest.  Any k
    vectors decode and re-encode to themselves (the MDS property), so a
    corrupted symbol cannot show here, and the CLI checks shard digests instead.
    """
    k, field = params.k, params.field
    ids = [c.node_id for c in contents]
    if len(set(ids)) != len(ids):
        raise DuplicateNodes(f"node ids {ids} contain duplicates")
    if len(ids) != k:
        raise ValueError(f"collect needs exactly k={k} nodes, got {len(ids)}")
    if any(not 1 <= i <= 2 * k for i in ids):
        raise ValueError(f"node ids {ids} outside 1..{2 * k}")
    for c in contents:
        if len(c.vector) != k or any(e.spec != field for e in c.vector):
            raise DimensionMismatch(f"node {c.node_id} vector does not fit the code")

    by_id = {c.node_id: c.vector for c in contents}
    ids.sort()
    symbols = [sym for i in ids for sym in by_id[i]]
    vec = {l * k + i - 1: sym.value for i in ids if i <= k for l, sym in enumerate(by_id[i])}
    for t, row in zip(*collection_matrix(tuple(ids), params)):
        vec[t] = dot([field.element(v) for v in row], symbols).value
    return SourceBlock(Matrix(field, [[vec[r * k + c] for c in range(k)] for r in range(k)]))
