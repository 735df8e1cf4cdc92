import random

import numpy as np
import pytest

from mscr import CodeParams, FieldSpec, SourceBlock, encode, generate
from mscr.cluster import NotEnoughLiveNodes
from mscr.codec import NodeContent, encode_matrix
from mscr.linalg import Matrix, first_singular_minor
from mscr.params import solve_dual_constants


@pytest.fixture(scope="session")
def gf256():
    return FieldSpec(8)


@pytest.fixture(scope="session")
def params63(gf256):
    return generate(3, gf256, seed=7)


@pytest.fixture(scope="session")
def params_k4(gf256):
    return generate(4, gf256, seed=11)


@pytest.fixture(scope="session")
def params_k5(gf256):
    return generate(5, gf256, seed=13)


def make_params(cs, v, d: int, e: int) -> CodeParams:
    """Params from Cauchy generators, V and delta=d, epsilon=e (seed 0)."""
    field = cs.spec
    delta, epsilon = field.element(d), field.element(e)
    delta_prime, epsilon_prime = solve_dual_constants(delta, epsilon)
    return CodeParams(k=cs.k, field=field, cauchy=cs, v=v, delta=delta, epsilon=epsilon,
                      delta_prime=delta_prime, epsilon_prime=epsilon_prime, seed=0)


def is_super_regular(m: Matrix) -> bool:
    """True iff every square submatrix of m is nonsingular (a test oracle)."""
    return first_singular_minor(m) is None


def collection_system(node_ids, params) -> Matrix:
    """The k^2 x k^2 system of a node set (a test oracle): its inverse decodes the set.

    Unknowns are x node-major, and row block b holds the k coordinate equations
    of the node in block b of z: systematic node j in block j - 1, and the i-th
    parity node in the i-th block no systematic node of the set holds.  So the
    inverse's columns read z.  Systematic nodes contribute unit rows, parity
    nodes their row block of the encode matrix.
    """
    k, enc, ids = params.k, encode_matrix(params).int_rows(), sorted(node_ids)
    lacking = [b for b in range(k) if b + 1 not in ids]
    block = {j: j - 1 for j in ids if j <= k} | dict(zip([j for j in ids if j > k], lacking))
    rows = [None] * (k * k)
    for nid, b in block.items():
        for l in range(k):
            rows[b * k + l] = ([int(t == b * k + l) for t in range(k * k)] if nid <= k
                               else enc[(nid - k - 1) * k + l])
    return Matrix(params.field, rows)


def random_block(params, rng: random.Random) -> SourceBlock:
    k, order = params.k, params.field.order
    return SourceBlock(Matrix(params.field,
                              [[rng.randrange(order) for _ in range(k)]
                               for _ in range(k)]))


def ground_truth(params, rng: random.Random):
    """A random block, its parity, and all 2k node contents keyed by id."""
    block = random_block(params, rng)
    parity = encode(block, params)
    k = params.k
    by_id = {j + 1: NodeContent(j + 1, block.x.col(j)) for j in range(k)}
    by_id |= {k + j + 1: NodeContent(k + j + 1, parity.y.col(j)) for j in range(k)}
    return block, parity, by_id


def to_planes(values, m: int) -> np.ndarray:
    """(s, n) symbols to (s*m, words) bit planes, without the byte-edge converters.

    Bit t of word q of plane l*m + b is bit b of symbol l of block 64q + t.
    """
    v = np.array(values, dtype=np.uint64).reshape(len(values), -1)
    s, n = v.shape
    words = -(-n // 64)
    bits = (v[:, None, :] >> np.arange(m, dtype=np.uint64)[:, None]) & np.uint64(1)
    bits = np.pad(bits, ((0, 0), (0, 0), (0, 64 * words - n))).reshape(s * m, words, 64)
    return np.bitwise_or.reduce(bits << np.arange(64, dtype=np.uint64), axis=2)


def from_planes(planes: np.ndarray, m: int, n: int) -> list[list[int]]:
    """Inverse of `to_planes` for the first n blocks."""
    bits = (planes[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    bits = bits.reshape(planes.shape[0] // m, m, -1)[:, :, :n]
    return np.bitwise_or.reduce(bits << np.arange(m, dtype=np.uint64)[:, None], axis=1).tolist()


def block_content(cluster, node_id: int, block: int) -> NodeContent:
    """Scalar view of one node's share of one block of a cluster."""
    data = cluster.node_data[node_id - 1]
    if data is None:
        raise NotEnoughLiveNodes(f"node {node_id} is failed")
    if not 0 <= block < cluster.nblocks:
        raise IndexError(f"block {block} outside 0..{cluster.nblocks - 1}")
    spec, (word, bit) = cluster.params.field, divmod(block, 64)
    bits = (data[:, word] >> bit) & 1
    values = bits.reshape(cluster.params.k, spec.degree) << np.arange(spec.degree, dtype=np.uint64)
    return NodeContent(node_id, tuple(spec.element(int(v)) for v in values.sum(1)))
