"""Encoding a k x k source block to 2k node vectors and getting it back.

Nodes 1..k are systematic and store the columns x_1..x_k of the source
matrix X uncoded.  Nodes k+1..2k store the columns y_1..y_k of

    Y = delta * V_hat X^t U + epsilon * X P        (forward map F)

and the inverse view, F on the mirror side (see `params.Side`), treats Y as the information:

    X = delta' * U_hat Y^t V + epsilon' * Y Q      (dual map G)

With the parameter conditions of :mod:`mscr.params`, G(F(X)) = X for every
block, and any k node vectors determine X (the MDS property).  The maps index
the node vectors node-major, as the node store lays them out: x[a*k + b] is
X[b][a], coordinate b of node a+1, and likewise y.  `collection_matrix` solves once
for the coordinates of x that a set's vectors in their `slots` (z) lack; `collect` applies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .galois import FieldElement
from .linalg import DimensionMismatch, Matrix
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
    "slots",
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


def slots(node_ids, k: int) -> list[int]:
    """The ids of a k-node set in the blocks of z: systematic node j in its own block j - 1,
    the parity nodes, in ascending order, in the blocks of the systematic nodes it lacks."""
    parity = iter(sorted(i for i in node_ids if i > k))
    return [j if j in node_ids else next(parity) for j in range(1, k + 1)]


@lru_cache(maxsize=128)
def encode_matrix(params: CodeParams) -> Matrix:
    """The k^2 x k^2 matrix E with y = E x, node-major, from F.

    X[b][a] = x[ak + b] enters Y[r][c] = y[ck + r] with weight delta V_hat[r][a] U[b][c]
    through the aligned term and epsilon P[a][c] through the mixed one when b = r, so
    E[ck + r][ak + b] = delta V_hat[r][a] U[b][c] + epsilon [b = r] P[a][c]: the outer
    product of V_hat and U, plus epsilon P on the diagonal of (r, b).
    """
    k, field, side = params.k, params.field, params.parity_side
    outer = (Matrix(field, side.hat.array.reshape(-1, 1))
             @ Matrix(field, side.probes.array.reshape(1, -1))).scalar_mul(side.delta)
    aligned = outer.array.reshape(k, k, k, k).transpose(3, 0, 1, 2)  # [r, a, b, c] to [c, r, a, b]
    mixed = np.einsum("rb,ac->crab", np.eye(k, dtype=np.uint16),
                      side.mix.scalar_mul(side.epsilon).array)
    return Matrix(field, (aligned ^ mixed).reshape(k * k, k * k))


@lru_cache(maxsize=128)  # bounded: 128 k=8 decoders hold at most 1.1 MiB, in either field
def collection_matrix(node_ids: tuple[int, ...],
                      params: CodeParams) -> tuple[tuple[int, ...], Matrix]:
    """The decoder of a k-node set: the coordinates of x no node in it holds, and their rows.

    The rows read z, the set's vectors in their `slots`.  Its s systematic nodes hold
    x_H in their own blocks, and its k - s parity nodes y_T = A x_M + K x_H in the
    others, with A and K taken from rows of the encode matrix, so one solve gives
    x_M = A^-1 [K | I] z, in ascending order.  The value is shared by every caller.
    """
    k, field, enc = params.k, params.field, encode_matrix(params).array
    blocks = list(enumerate(slots(node_ids, k)))
    held = [b * k + l for b, nid in blocks if nid <= k for l in range(k)]
    missing = [b * k + l for b, nid in blocks if nid > k for l in range(k)]
    equations = [(nid - k - 1) * k + l for _, nid in blocks if nid > k for l in range(k)]  # of E
    rhs = np.zeros((len(missing), k * k), np.uint16)  # [K | I], in the columns of z
    rhs[:, held], rhs[range(len(missing)), missing] = enc[np.ix_(equations, held)], 1
    a = Matrix(field, enc[np.ix_(equations, missing)])
    return tuple(missing), a.solve(Matrix(field, rhs))


def collect(contents: Sequence[NodeContent], params: CodeParams) -> SourceBlock:
    """Rebuild the source block from any k distinct node contents.

    The held coordinates are copied and the decoder rows give the rest, in one product
    rows @ z.  Any k vectors decode and re-encode to themselves (the MDS property), so a
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
    z = Matrix(field, [[sym.value] for i in slots(ids, k) for sym in by_id[i]])  # k^2 x 1
    missing, rows = collection_matrix(tuple(sorted(ids)), params)
    x = z.array[:, 0].copy()
    x[list(missing)] = (rows @ z).array[:, 0]
    return SourceBlock(Matrix(field, x.reshape(k, k).T))  # x[c*k + r] is X[r][c]
