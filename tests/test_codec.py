import random
from itertools import combinations

import pytest

from conftest import collection_system, ground_truth, random_block
from mscr.cluster import Cluster
from mscr.codec import (DuplicateNodes, ParityBlock, SourceBlock, collect,
                        collection_matrix, dual_encode, encode, encode_matrix)
from mscr.galois import FieldSpec
from mscr.linalg import DimensionMismatch, Matrix, dot
from mscr.params import generate


def test_zero_block_encodes_to_zero(params63):
    zero = SourceBlock(Matrix(params63.field, [[0] * 3 for _ in range(3)]))
    assert encode(zero, params63).y == zero.x
    assert dual_encode(ParityBlock(zero.x), params63).x == zero.x


def test_roundtrip_both_ways(params63):
    rng = random.Random(31)
    for _ in range(100):
        block = random_block(params63, rng)
        assert dual_encode(encode(block, params63), params63).x == block.x
        parity = ParityBlock(random_block(params63, rng).x)
        assert encode(dual_encode(parity, params63), params63).y == parity.y


def test_encode_wrong_shape(params63, params_k4):
    block = SourceBlock(Matrix(params_k4.field, [[0] * 4 for _ in range(4)]))
    with pytest.raises(DimensionMismatch):
        encode(block, params63)


def test_column_form_matches_matrix_form(params63):
    # y_j = delta * sum_i vhat_i (u_j . x_i) + epsilon * z_j, column by column.
    rng = random.Random(32)
    p = params63
    for _ in range(100):
        block = random_block(p, rng)
        parity = encode(block, p)
        for j in range(1, p.k + 1):
            z_j = (block.x @ p.p).col(j - 1)
            u_j = p.u.col(j - 1)
            acc = [p.epsilon * z_j[t] for t in range(p.k)]
            for i in range(p.k):
                coef = p.delta * dot(u_j, block.x.col(i))
                vhat_i = p.v_hat.col(i)
                acc = [acc[t] + coef * vhat_i[t] for t in range(p.k)]
            assert tuple(acc) == parity.y.col(j - 1)


def test_dual_column_form_matches_matrix_form(params63):
    # x_j = delta' * sum_i uhat_i (v_j . y_i) + epsilon' * z'_j.
    rng = random.Random(33)
    p = params63
    block = random_block(p, rng)
    parity = encode(block, p)
    for j in range(1, p.k + 1):
        zp_j = (parity.y @ p.q).col(j - 1)
        v_j = p.v.col(j - 1)
        acc = [p.epsilon_prime * zp_j[t] for t in range(p.k)]
        for i in range(p.k):
            coef = p.delta_prime * dot(v_j, parity.y.col(i))
            uhat_i = p.u_hat.col(i)
            acc = [acc[t] + coef * uhat_i[t] for t in range(p.k)]
        assert tuple(acc) == block.x.col(j - 1)


def test_encode_linearity(params63):
    rng = random.Random(37)
    for _ in range(20):
        a = params63.field.element(rng.randrange(256))
        x1 = random_block(params63, rng)
        x2 = random_block(params63, rng)
        combo = SourceBlock(x1.x.scalar_mul(a) + x2.x)
        expect = encode(x1, params63).y.scalar_mul(a) + encode(x2, params63).y
        assert encode(combo, params63).y == expect


def test_encode_matrix_agrees_with_encode(params63):
    rng = random.Random(38)
    k = params63.k
    e = encode_matrix(params63)
    for _ in range(20):
        block = random_block(params63, rng)
        x = Matrix(params63.field, [[block.x.int_at(b, a)] for a in range(k) for b in range(k)])
        yvec = e @ x  # node-major: coordinate c*k + r is Y[r][c]
        y = encode(block, params63).y
        for r in range(k):
            for c in range(k):
                assert yvec.at(c * k + r, 0) == y.at(r, c)


def test_collect_systematic_fast_path(params63):
    rng = random.Random(39)
    block, parity, by_id = ground_truth(params63, rng)
    got = collect([by_id[1], by_id[2], by_id[3]], params63)
    assert got.x == block.x


def test_collect_parity_only_equals_dual_encode(params63):
    rng = random.Random(40)
    block, parity, by_id = ground_truth(params63, rng)
    got = collect([by_id[4], by_id[5], by_id[6]], params63)
    assert got.x == block.x
    assert got.x == dual_encode(parity, params63).x


def test_collect_all_subsets(params63):
    rng = random.Random(41)
    block, _, by_id = ground_truth(params63, rng)
    for subset in combinations(range(1, 7), 3):
        got = collect([by_id[i] for i in subset], params63)
        assert got.x == block.x, f"subset {subset}"


def test_collect_duplicate_nodes(params63):
    rng = random.Random(42)
    _, _, by_id = ground_truth(params63, rng)
    with pytest.raises(DuplicateNodes):
        collect([by_id[1], by_id[1], by_id[2]], params63)
    with pytest.raises(ValueError):
        collect([by_id[1], by_id[2]], params63)


def test_collection_matrix_is_square_nonsingular(params63):
    for subset in combinations(range(1, 7), 3):
        m = collection_system(subset, params63)
        assert m.shape == (9, 9)
        assert m.det().value != 0


def _assert_decoder_is_the_inverse(ids, params):
    # The decoder's rows are the system inverse's rows of the coordinates no node holds.
    k = params.k
    missing, rows = collection_matrix(ids, params)
    assert missing == tuple((j - 1) * k + l for j in range(1, k + 1) if j not in ids
                            for l in range(k)), ids
    inverse = collection_system(ids, params).invert().int_rows()
    assert [list(r) for r in rows] == [inverse[t] for t in missing], ids


@pytest.mark.parametrize("degree", [8, 16])
@pytest.mark.parametrize("random_v", [False, True], ids=["identity-v", "random-v"])
def test_decoder_rows_equal_the_system_inverse(degree, random_v):
    for k in (2, 3, 4):
        params = generate(k, FieldSpec(degree), seed=50 + k, random_v=random_v)
        for ids in combinations(range(1, 2 * k + 1), k):
            _assert_decoder_is_the_inverse(ids, params)


@pytest.mark.parametrize("random_v", [False, True], ids=["identity-v", "random-v"])
def test_decoder_rows_equal_the_system_inverse_k8(random_v):
    params = generate(8, FieldSpec(8), seed=58, random_v=random_v)
    for ids in [tuple(range(9, 17)), (*range(1, 8), 9), (*range(1, 5), *range(9, 13)),
                (2, 3, 5, 8, 10, 11, 14, 16)]:
        _assert_decoder_is_the_inverse(ids, params)


@pytest.mark.parametrize("degree", [8, 16])
@pytest.mark.parametrize("random_v", [False, True], ids=["identity-v", "random-v"])
@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_parity_only_decoder_is_the_dual_map(k, degree, random_v):
    # Column c*k + r of G is x of the unit parity block Y[r][c] = 1, from the scalar G.
    params = generate(k, FieldSpec(degree), seed=60 + k, random_v=random_v)
    units = [dual_encode(ParityBlock(Matrix(params.field, [[int((i, j) == (r, c)) for j in range(k)]
                                                           for i in range(k)])), params).x
             for c in range(k) for r in range(k)]
    g = tuple(tuple(x.int_at(b, a) for x in units) for a in range(k) for b in range(k))
    assert collection_matrix(tuple(range(k + 1, 2 * k + 1)), params) == (tuple(range(k * k)), g)


def test_repeated_node_set_reuses_the_decoder(params_k4, monkeypatch):
    # collect and decode_nodes share one cached decoder: a set seen before solves nothing.
    data = random.Random(45).randbytes(500)
    c = Cluster.ingest(data, params_k4, keep_oracle=False)
    block, _, by_id = ground_truth(params_k4, random.Random(45))
    ids = (2, 5, 6, 8)
    assert c.extract(ids) == data
    calls = []
    for name in ("solve", "invert"):
        method = getattr(Matrix, name)
        monkeypatch.setattr(Matrix, name, lambda *a, f=method, n=name: calls.append(n) or f(*a))
    assert c.extract(ids) == data
    assert collect([by_id[i] for i in ids], params_k4).x == block.x
    assert calls == []


def test_matrix_caches_are_bounded(params_k5):
    assert collection_matrix.cache_info().maxsize is not None
    assert encode_matrix.cache_info().maxsize is not None
    data = random.Random(44).randbytes(300)
    c = Cluster.ingest(data, params_k5, keep_oracle=False)
    assert c.extract({1, 2, 3, 4, 6}) == data
    others = [ids for ids in combinations(range(1, 11), 5) if ids != (1, 2, 3, 4, 6)]
    try:
        for ids in others[:collection_matrix.cache_info().maxsize]:
            collection_matrix(ids, params_k5)  # evicts the node set extracted from
        misses = collection_matrix.cache_info().misses
        assert c.extract({1, 2, 3, 4, 6}) == data
        assert collection_matrix.cache_info().misses == misses + 1  # rebuilt, same bytes
    finally:
        collection_matrix.cache_clear()
        encode_matrix.cache_clear()
