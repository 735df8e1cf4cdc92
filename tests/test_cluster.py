import hashlib
import json
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import block_content, collection_system, from_planes, to_planes
from mscr import cluster as cluster_mod
from mscr.cluster import (AlreadyFailed, Cluster, NotEnoughLiveNodes,
                          Scenario, TooManyFailures, VerificationFailure,
                          block_count, decode_nodes, run_scenario, shard_bytes)
from mscr.codec import encode, encode_matrix
from mscr.galois import _GATHER_WORDS, FieldSpec
from mscr.params import generate
from mscr.repair import (FailurePattern, apply_repair, phase1_messages,
                         plan_repair, probe_vector)


def _data(n, seed=1):
    return random.Random(seed).randbytes(n)


@pytest.fixture(scope="module")
def params_k4_gf16():
    return generate(4, FieldSpec(16), seed=11)


@pytest.mark.parametrize("degree", [8, 16])
def test_kernel_through_the_byte_edge(degree):
    # Symbols from a strided view and a 2-D array (blocks x coordinates), to bit planes,
    # through scale_array and back, against products of mul_int.
    f = FieldSpec(degree)
    dtype = np.uint8 if degree == 8 else np.dtype("<u2")
    rng = random.Random(degree)
    grid = np.array([[rng.randrange(f.order) for _ in range(7)] for _ in range(70)], dtype=dtype)
    rows = [[rng.randrange(f.order) for _ in range(7)] for _ in range(3)]
    out = from_planes(f.scale_array(f.plan(rows), to_planes(grid.T, degree)), degree, 70)
    expected = [[0] * 70 for _ in range(3)]
    for t, block in enumerate(grid):
        for i, row in enumerate(rows):
            for c, v in zip(row, block):
                expected[i][t] ^= f.mul_int(c, int(v))
    assert out == expected
    c = rng.randrange(2, f.order)
    for column in (grid.reshape(-1)[::2], grid[:, 3]):
        out = from_planes(f.scale_array(f.plan([[c]]), to_planes([column], degree)), degree,
                          column.size)
        assert out == [[f.mul_int(c, int(v)) for v in column]]


# SHA-256 of all 2k v4 shards in node order, pinned so that no change of the
# in-memory layout can change the bytes a shard holds.
PINNED_SHARDS = {
    ("k3-gf8", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("k3-gf8", 1): "e4e66cb79a577eed48c252d5eda7cca7e02a39a274d9b3bc32d9f6dc5c0a006a",
    ("k3-gf8", 63): "5ed1cc1761a8d94a5f6cd9baa3aa33ab2c4b0df1f36a23a0fa93213c32ba6a29",
    ("k3-gf8", 64): "3950b80b7c47dac99e232d33f490c83d59d7cff9e5c1a5b8a7a6f1d4b93a381d",
    ("k3-gf8", 65): "dcbcf2806a2a9c40aaa3c22d7d306bbbb74b5d46a5a2e2d4e32c91cb020b4e99",
    ("k4-gf16", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("k4-gf16", 1): "d776c0848b01d516ccdb69e57be7f826817f9788949de13d0e3691240f0dc610",
    ("k4-gf16", 63): "bb06d015c0d4aea8fa4c04ceeba2740a60f52162246f27353582bbcf73b13d2e",
    ("k4-gf16", 64): "a038aef6956c3b593c6f02ce1ff91d2229b227e911e06bbf435de16cabd86995",
    ("k4-gf16", 65): "b350bd94074ce756c27c758f4ac6a1a91293dbc5ae8cfeb9d92e0c29ce7c3e0d",
}


@pytest.mark.parametrize("case", sorted(PINNED_SHARDS), ids=lambda c: f"{c[0]}-{c[1]}blocks")
def test_padding_boundaries(params63, params_k4_gf16, case):
    name, blocks = case
    params = params63 if name == "k3-gf8" else params_k4_gf16
    k, n = params.k, params.n
    data = random.Random(blocks).randbytes(blocks * params.block_size * params.field.symbol_bytes)
    c = Cluster.ingest(data, params)
    shards = [c.node_symbols_bytes(nid) for nid in range(1, n + 1)]
    assert hashlib.sha256(b"".join(shards)).hexdigest() == PINNED_SHARDS[case]
    for ids in (range(1, k + 1), [1, 2] + list(range(k + 1, 2 * k - 1)), range(k + 1, n + 1)):
        assert c.extract(ids) == data
    for failed in ({2}, {k + 1}, {1, 2}, {k + 1, k + 2}, {1, n}):
        c.fail(failed)
        c.run_repair(FailurePattern.classify(failed, k))
        assert [c.node_symbols_bytes(nid) for nid in range(1, n + 1)] == shards


def test_ingest_empty_stream(params63):
    c = Cluster.ingest(b"", params63)
    assert c.nblocks == 0
    assert c.extract({1, 2, 3}) == b""
    assert c.extract({4, 5, 6}) == b""


def test_ingest_single_block(params63):
    c = Cluster.ingest(_data(9), params63)
    assert c.nblocks == 1
    # k*m bit planes of one 64-block word each.
    assert all(c.planes(nid).shape == (3 * 8, 1) and c.planes(nid).dtype == np.uint64
               for nid in range(1, 7))
    # Pad blocks 1..63 share the word, but only block 0 exists.
    for block in (1, -1):
        with pytest.raises(IndexError):
            block_content(c, 1, block)


def test_ingest_pads_to_whole_blocks(params63):
    data = _data(10)
    c = Cluster.ingest(data, params63)
    assert c.nblocks == 2
    assert c.extract({1, 2, 3}) == data


@pytest.mark.parametrize("wide", [False, True], ids=["k3-gf8", "k4-gf16"])
def test_extract_any_subset(params63, params_k4_gf16, wide):
    # Neither length fills whole blocks (9 bytes at k=3 GF(2^8), 32 at k=4 GF(2^16)).
    params = params_k4_gf16 if wide else params63
    data = _data(1001 if wide else 500, seed=2)
    c = Cluster.ingest(data, params)
    for subset in combinations(range(1, params.n + 1), params.k):
        assert c.extract(subset) == data


def test_extract_validates_nodes(params63):
    c = Cluster.ingest(_data(9), params63)
    with pytest.raises(NotEnoughLiveNodes):
        c.extract({1, 2})
    with pytest.raises(NotEnoughLiveNodes):
        c.extract({1, 2, 3, 4})
    for nid in (0, 7):
        with pytest.raises(NotEnoughLiveNodes, match=f"^node {nid} is not live$"):
            c.extract({1, 2, nid})
        with pytest.raises(NotEnoughLiveNodes, match=f"^node {nid} is not live$"):
            c.node_symbols_bytes(nid)  # not another node's rows, nor none
    c.fail({2})
    with pytest.raises(NotEnoughLiveNodes):
        c.extract({1, 2, 3})
    with pytest.raises(NotEnoughLiveNodes, match="^node 2 is not live$"):
        c.node_symbols_bytes(2)


def test_parity_columns_satisfy_encode_relation(params63):
    data = _data(45, seed=3)
    c = Cluster.ingest(data, params63)
    for block in range(c.nblocks):
        contents = [block_content(c, nid, block) for nid in range(1, 7)]
        from mscr.codec import SourceBlock
        from mscr.linalg import Matrix
        x = Matrix.from_rows([[contents[j].vector[r] for j in range(3)]
                              for r in range(3)])
        y = encode(SourceBlock(x), params63).y
        expected = [x.col(j) for j in range(3)] + [y.col(j) for j in range(3)]
        for got, want in zip(contents, expected):
            assert got.vector == want


def test_fail_rules(params63):
    c = Cluster.ingest(_data(9), params63)
    assert c.fail(set()) is c
    c.fail({1, 4})
    with pytest.raises(AlreadyFailed):
        c.fail({4})
    with pytest.raises(TooManyFailures):
        c.fail({2, 3})
    with pytest.raises(ValueError):
        c.fail({7})


def test_repair_every_pair(params63):
    data = _data(300, seed=4)
    for pair in combinations(range(1, 7), 2):
        c = Cluster.ingest(data, params63)
        c.fail(set(pair))
        _, report = c.run_repair(FailurePattern.classify(set(pair), 3))
        assert report.is_optimal
        assert [r.gamma for r in report.rows] == [5, 5]
        assert not c.failed
        assert c.extract({1, 2, 3}) == data


def test_repair_single_failures(params63):
    data = _data(100, seed=5)
    for nid in range(1, 7):
        c = Cluster.ingest(data, params63)
        c.fail({nid})
        _, report = c.run_repair(FailurePattern.classify({nid}, 3))
        assert [r.gamma for r in report.rows] == [5]
        assert c.extract({4, 5, 6}) == data


def test_repair_pattern_must_match(params63):
    c = Cluster.ingest(_data(18), params63)
    c.fail({1})
    with pytest.raises(ValueError):
        c.run_repair(FailurePattern.classify({2}, 3))


@pytest.mark.parametrize("wide, failed", [
    (False, {1, 3}), (False, {4, 5}), (False, {2, 5}),
    (True, {1, 2, 4}), (True, {6, 8}), (True, {3, 7}),
], ids=["k3-gf8-systematic", "k3-gf8-parity", "k3-gf8-mixed",
        "k4-gf16-systematic", "k4-gf16-parity", "k4-gf16-mixed"])
def test_bulk_repair_matches_scalar_protocol(params63, params_k4_gf16, wide, failed):
    # The vectorized multi-block path must be symbol-identical to running
    # the per-block protocol in a loop.
    params = params_k4_gf16 if wide else params63
    c = Cluster.ingest(_data(7 * params.block_size * params.field.symbol_bytes, seed=6),
                       params)
    before = [[block_content(c, nid, bk) for nid in range(1, params.n + 1)]
              for bk in range(c.nblocks)]
    c.fail(failed)
    pattern = FailurePattern.classify(failed, params.k)
    c.run_repair(pattern)
    plan = plan_repair(pattern, params)
    for bk, contents in enumerate(before):
        by_id = {ct.node_id: ct for ct in contents}
        msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params)
        scalar_out, _, _ = apply_repair(plan, msgs, params)
        for ct in scalar_out:
            assert block_content(c, ct.node_id, bk).vector == ct.vector


def test_repair_verifies_against_oracle(params63):
    c = Cluster.ingest(_data(27, seed=7), params63)
    c.fail({4})
    # Corrupt a helper after the oracle snapshot: the repaired node can no
    # longer match its original content and the simulator must fail loudly.
    c.planes(1)[0, 0] ^= 1
    with pytest.raises(VerificationFailure):
        c.run_repair(FailurePattern.classify({4}, 3))


def test_production_mode_drops_oracle(params63):
    data = _data(90, seed=8)
    c = Cluster.ingest(data, params63, keep_oracle=False)
    assert c.oracle is None
    store = c.store
    c.fail({1, 6})
    c.run_repair(FailurePattern.classify({1, 6}, 3))
    # A repair writes its newcomers in place, and every node's planes, the repaired
    # systematic node 1 and parity node 6 too, are a view of its own k*m rows of the store.
    assert c.store is store
    for nid in range(1, 7):
        d = c.planes(nid)
        assert d.base is c.store and np.shares_memory(d, c.store)
        assert d.ctypes.data == c.store[(nid - 1) * 3 * 8].ctypes.data and d.shape == (24, 1)
    assert c.extract({1, 2, 3}) == data
    assert c.extract({4, 5, 6}) == data


@pytest.mark.parametrize("store", [
    np.zeros((9 * 8, 1), np.uint64),  # the stream only: 72 rows still split into 6 nodes
    np.zeros((2 * 9 * 8 + 6, 1), np.uint64), np.zeros((2 * 9 * 8, 2), np.uint64),
    np.zeros((2 * 9 * 8, 0), np.uint64), np.zeros((2 * 9 * 8, 1), np.uint32),
    np.zeros((2 * 9 * 8, 1), ">u8"), np.zeros((2 * 9 * 8, 1)), [[0]] * (2 * 9 * 8)],
    ids=["half", "rows+6", "words+1", "no-words", "uint32", "big-endian", "float", "list"])
def test_constructor_refuses_a_store_that_does_not_fit(params63, store):
    # 90 bytes at k=3 GF(2^8) are 10 blocks: one word a plane, 2*k*k*m = 144 planes.
    with pytest.raises(ValueError, match=r"node store must be a \(144, 1\) array of '<u8'"):
        Cluster(params63, store, 90, None)
    assert Cluster(params63, np.zeros((144, 1), "<u8"), 90, None).extract({4, 5, 6}) == bytes(90)
    assert Cluster(params63, np.zeros((144, 0), "<u8"), 0, None).extract({1, 2, 3}) == b""


def _kernel_calls(monkeypatch):
    """Record the rows of every plan built, and (its plan's rows, the address of its input
    planes, its output planes) of every kernel call."""
    plans, calls, compile_, kernel = {}, [], FieldSpec.plan, FieldSpec.scale_array

    def plan(self, rows):
        compiled = compile_(self, rows)
        plans[compiled] = np.asarray(rows).tolist()
        return compiled

    def spy(self, compiled, planes, **kw):
        out = kernel(self, compiled, planes, **kw)
        calls.append((plans[compiled], planes.ctypes.data, np.array(list(out))))
        return out
    monkeypatch.setattr(FieldSpec, "plan", plan)
    monkeypatch.setattr(FieldSpec, "scale_array", spy)
    return plans, calls


@pytest.mark.parametrize("words", [2, _GATHER_WORDS + 1])
def test_ingest_encodes_all_parity_nodes_in_one_call(params63, params_k4_gf16, words,
                                                     monkeypatch):
    for params in (params63, params_k4_gf16):
        k, spec = params.k, params.field
        data = _data(64 * words * params.block_size * spec.symbol_bytes - 5, seed=words)
        plans, calls = _kernel_calls(monkeypatch)
        c = Cluster.ingest(data, params)
        assert len(plans) == len(calls) == 1
        monkeypatch.undo()
        x = np.concatenate([c.planes(nid) for nid in range(1, k + 1)])  # X[b][a] at a*k + b
        enc = encode_matrix(params).int_rows()
        for j in range(k):  # equal to one apply per parity node: its row block of E
            rows = enc[j * k:(j + 1) * k]
            assert np.array_equal(c.planes(k + j + 1), spec.scale_array(spec.plan(rows), x))


@pytest.mark.parametrize("failed", [{1}, {4}, {1, 2}, {4, 5, 6}, {1, 4}])
@pytest.mark.parametrize("words", [2, _GATHER_WORDS + 1])
def test_phase1_is_one_call_per_helper(params63, failed, words, monkeypatch):
    m = params63.field.degree
    c = Cluster.ingest(_data(64 * words * params63.block_size - 7, seed=words), params63)
    c.fail(failed)
    live = {nid: c.planes(nid) for nid in set(range(1, 7)) - failed}
    plans, calls = _kernel_calls(monkeypatch)
    c.run_repair(FailurePattern.classify(failed, 3))  # checked against the oracle
    monkeypatch.undo()
    phase1 = [(nid, rows, out) for rows, p, out in calls
              for nid, d in live.items() if p == d.ctypes.data]
    plan = plan_repair(FailurePattern.classify(failed, 3), params63)
    assert [h for h, _, _ in phase1] == list(plan.helpers)
    assert len(calls) == len(phase1) + 1  # and one phase-2 call for all newcomers
    assert len(plans) == 2  # the probes, shared by every helper, and the phase-2 map
    for helper, rows, out in phase1:
        assert rows == [[e.value for e in probe_vector(params63, nc)] for nc in plan.newcomers]
        for t, probe in enumerate(rows):  # equal to one apply per edge
            edge = params63.field.scale_array(params63.field.plan([probe]),
                                              c.planes(helper, c.oracle))
            assert np.array_equal(out[t * m:(t + 1) * m], edge)


def test_stream_wider_than_the_kernel_switch(params63):
    # 64 blocks per word: every node array is wider than _GATHER_WORDS, so each
    # kernel call of ingest, extract and repair takes the XOR-table path.
    data = _data((64 * (_GATHER_WORDS + 1) + 1) * params63.block_size - 4, seed=13)
    c = Cluster.ingest(data, params63)
    assert c.planes(1).shape[1] > _GATHER_WORDS
    for ids in ({1, 2, 3}, {1, 2, 4}, {4, 5, 6}):
        assert c.extract(ids) == data
    for failed in ({1}, {4}, {1, 2}, {4, 5}, {4, 5, 6}, {1, 4}):
        c.fail(failed)
        c.run_repair(FailurePattern.classify(failed, 3))  # checked against the oracle
    assert c.extract({4, 5, 6}) == data


# (_WINDOW_WORDS, words a plane): 1, 2 and 3 windows, a short last window, one window and one
# word more, and no words.  The last case's windows are wider than _GATHER_WORDS, so its
# kernel calls take the XOR-table path (k=3 only: at k=4 GF(2^16) it would be 17 MiB a copy).
WINDOW_CASES = {"1-window": (4, 4, [4]), "2-windows": (4, 8, [4, 4]),
                "3-windows-short-last": (4, 11, [4, 4, 3]), "window+1-word": (4, 5, [3, 2]),
                "length-0": (4, 0, [0]), "3-table-windows": (4096, 8194, [2732, 2732, 2730])}


def _window_cases():
    for name, case in WINDOW_CASES.items():
        yield pytest.param(False, *case, id=f"k3-gf8-{name}")
        if case[0] <= _GATHER_WORDS:
            yield pytest.param(True, *case, id=f"k4-gf16-{name}")


def _failure_patterns(k):
    """One failure pattern of each kind and size: single, group and mixed pair."""
    n = 2 * k
    return [{1}, {n}, {1, 2}, {k + 1, k + 2}, set(range(k + 1, n + 1)), {2, n}]


@pytest.mark.parametrize("wide, window, words, widths", list(_window_cases()))
def test_windows_decode_every_class_and_repair_every_kind(params63, params_k4_gf16, wide,
                                                          window, words, widths, monkeypatch):
    # Every node-set class decodes and every pattern kind repairs equal to the oracle, and at
    # each window's first and last block equal to the scalar protocol.
    monkeypatch.setattr(cluster_mod, "_WINDOW_WORDS", window)
    windows = cluster_mod._windows(words)
    assert [w.stop - w.start for w in windows] == widths
    params = params_k4_gf16 if wide else params63
    k, row = params.k, params.block_size * params.field.symbol_bytes
    blocks = max(0, 64 * words - 59)  # the last word holds 5 blocks
    data = _data(max(0, blocks * row - 3), seed=words)
    c = Cluster.ingest(data, params)  # keeps the oracle, which run_repair checks against
    assert c.nblocks == blocks and c.store.shape[1] == words
    for ids in _node_sets(k):
        assert c.extract(ids) == data, ids
    edges = sorted({b for w in windows for b in (64 * w.start, min(64 * w.stop, blocks) - 1)
                    if 0 <= b < blocks})
    for failed in _failure_patterns(k):
        before = {bk: {nid: block_content(c, nid, bk) for nid in range(1, params.n + 1)}
                  for bk in edges}
        c.fail(failed)
        pattern = FailurePattern.classify(failed, k)
        c.run_repair(pattern)
        plan = plan_repair(pattern, params)
        for bk, by_id in before.items():
            msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params)
            for ct in apply_repair(plan, msgs, params)[0]:
                assert block_content(c, ct.node_id, bk).vector == ct.vector
    assert c.extract(range(k + 1, params.n + 1)) == data


@pytest.mark.parametrize("wide, window", [(False, 4), (True, 4), (False, _GATHER_WORDS + 1)],
                         ids=["k3-gf8", "k4-gf16", "k3-gf8-table-windows"])
def test_repairs_and_decodes_never_read_a_lost_node(params63, params_k4_gf16, wide, window,
                                                    monkeypatch):
    # A lost node's rows of the store keep their bytes until a repair writes its newcomer
    # over them, so a repair or decode that read them would still match the oracle.  Poison
    # them with all ones: on a stream two windows wide, every set of k live nodes decodes,
    # each repair of every pattern kind matches the oracle, and then every class decodes.
    monkeypatch.setattr(cluster_mod, "_WINDOW_WORDS", window)
    params = params_k4_gf16 if wide else params63
    k, m, row = params.k, params.field.degree, params.block_size * params.field.symbol_bytes
    data = _data(64 * 2 * window * row - 5, seed=window + k)
    c = Cluster.ingest(data, params)  # keeps the oracle, which run_repair checks against
    assert len(cluster_mod._windows(c.store.shape[1])) == 2
    for failed in [*_failure_patterns(k), set(range(1, k + 1))]:
        c.fail(failed)
        for nid in failed:
            c.store[(nid - 1) * k * m:nid * k * m] = ~np.uint64(0)
        for ids in combinations(sorted(set(range(1, params.n + 1)) - failed), k):
            assert c.extract(ids) == data, (failed, ids)
        c.run_repair(FailurePattern.classify(failed, k))
        for ids in _node_sets(k):
            assert c.extract(ids) == data, (failed, ids)


@pytest.mark.parametrize("wide", [False, True], ids=["k3-gf8", "k4-gf16"])
def test_each_operation_builds_each_plan_once_and_calls_the_kernel_once_a_window(
        params63, params_k4_gf16, wide, monkeypatch):
    monkeypatch.setattr(cluster_mod, "_WINDOW_WORDS", 4)
    params = params_k4_gf16 if wide else params63
    k, windows = params.k, 3  # 11 words a plane: windows of 4, 4 and 3 words
    data = _data((64 * 10 + 7) * params.block_size * params.field.symbol_bytes, seed=k)
    plans, calls = _kernel_calls(monkeypatch)
    c = Cluster.ingest(data, params, keep_oracle=False)
    assert len(plans) == 1 and len(calls) == windows
    for ids in _node_sets(k):
        plans.clear()
        calls.clear()
        assert c.extract(ids) == data
        solves = ids != tuple(range(1, k + 1))  # a systematic-only set solves nothing
        assert (len(plans), len(calls)) == ((1, windows) if solves else (0, 0))
    for failed in _failure_patterns(k):
        plans.clear()
        calls.clear()
        c.fail(failed)
        plan = plan_repair(FailurePattern.classify(failed, k), params)
        c.run_repair(FailurePattern.classify(failed, k))
        # The probes and the phase-2 map; per window, one call per helper and one for phase 2.
        assert len(plans) == 2 and len(calls) == windows * (len(plan.helpers) + 1)
    assert c.extract(range(k + 1, params.n + 1)) == data


def _node_sets(k):
    """One node set of each class: systematic-only, mixed (two kinds), parity-only."""
    return [tuple(range(1, k + 1)), (1, 2) + tuple(range(k + 1, 2 * k - 1)),
            tuple(range(2, k + 1)) + (2 * k,), tuple(range(k + 1, 2 * k + 1))]


@pytest.mark.parametrize("wide", [False, True], ids=["k3-gf8", "k4-gf16"])
@pytest.mark.parametrize("blocks", [0, 1, 63, 64, 65, "chunk"])
def test_decode_every_node_set_class(params63, params_k4_gf16, wide, blocks):
    params = params_k4_gf16 if wide else params63
    row = params.block_size * params.field.symbol_bytes
    if blocks == "chunk":  # 5 words a plane, the last one short
        blocks = 5 * 64 - 7
    data = _data(blocks * row - (blocks > 1), seed=blocks)
    c = Cluster.ingest(data, params)
    for ids in _node_sets(params.k):
        out = c.extract(ids)
        assert isinstance(out, bytearray) and out == data
        assert hashlib.sha256(out).digest() == hashlib.sha256(data).digest()


@pytest.mark.parametrize("wide", [False, True], ids=["k3-gf8", "k4-gf16"])
def test_unit_decoder_rows_bypass_the_kernel(params63, params_k4_gf16, wide, monkeypatch):
    params = params_k4_gf16 if wide else params63
    k = params.k
    data = _data(200 * params.block_size * params.field.symbol_bytes, seed=k)
    c = Cluster.ingest(data, params)
    plans, calls = _kernel_calls(monkeypatch)
    assert c.extract(range(1, k + 1)) == data
    assert calls == [] and plans == {}  # a systematic-only set makes no kernel call
    for ids in _node_sets(k)[1:]:
        plans.clear()
        calls.clear()
        assert c.extract(ids) == data
        # One plan and one call, over exactly the rows of coordinates no node in the set
        # holds (coordinates (j - 1)*k + l of every missing systematic node j), as they are.
        missing = sorted((j - 1) * k + l for j in set(range(1, k + 1)) - set(ids) for l in range(k))
        decoder = collection_system(ids, params).invert().int_rows()
        assert len(plans) == len(calls) == 1
        assert calls[0][0] == [decoder[t] for t in missing]


# 0, 1 and 9 bytes; one word in each of the k^2*m runs (8 k^2 m bytes, 64 blocks) -1, +0
# and +1 byte; and 8 MiB + 5.
LAYOUT_LENGTHS = {"0": 0, "1": 1, "9": 9, "word-1": -1, "word": 0, "word+1": 1,
                  "8MiB+5": (8 << 20) + 5}


@pytest.mark.parametrize("wide", [False, True], ids=["k3-gf8", "k4-gf16"])
@pytest.mark.parametrize("length", sorted(LAYOUT_LENGTHS))
def test_systematic_shards_are_the_padded_stream_and_every_class_extracts(
        params63, params_k4_gf16, wide, length):
    params = params_k4_gf16 if wide else params63
    k, m = params.k, params.field.degree
    n = LAYOUT_LENGTHS[length] + (8 * k * k * m if length.startswith("word") else 0)
    data = _data(n, seed=n)
    c = Cluster.ingest(data, params, keep_oracle=False)
    assert c.nblocks == -(-n // (params.block_size * params.field.symbol_bytes))
    stream = b"".join(c.node_symbols_bytes(nid) for nid in range(1, k + 1))
    assert len(stream) == 8 * k * k * m * -(-c.nblocks // 64)
    assert stream == data.ljust(len(stream), b"\0")
    # The layout's one home agrees with the store: its block count, a shard's bytes, and a
    # decode's whole words, k shards of the padded stream.
    assert block_count(n, params) == c.nblocks
    assert shard_bytes(n, params) == len(c.node_symbols_bytes(1))
    for ids in _node_sets(k):
        out = c.extract(ids)
        assert isinstance(out, bytearray) and out == data, ids
        whole = decode_nodes(ids, lambda nid, o: np.copyto(o, c.planes(nid).reshape(o.shape)),
                             params, n)
        assert len(whole) == k * shard_bytes(n, params) and whole == stream, ids


def _peak(f, *args, **kwargs):
    """f's result and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = f(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _decode_peak(cluster, ids):
    def fill(nid, out):
        out[...] = cluster.planes(nid).reshape(out.shape)
    out, peak = _peak(decode_nodes, ids, fill, cluster.params, cluster.original_length)
    return out[:cluster.original_length], peak  # the stream: the tail is the pad blocks


@pytest.mark.parametrize("wide", [False, True], ids=["k3-gf8", "k4-gf16"])
def test_decode_holds_no_second_copy_of_the_stream(params63, params_k4_gf16, wide,
                                                   monkeypatch):
    # Deterministic and untimed: the tracemalloc peak of one decode of an S-byte stream,
    # for every node-set class.  The decode holds the stream it returns (S), which the
    # nodes' planes are read into, and per word window the missing coordinates (for a set
    # with f of its k nodes parity, f times the window's share of S) and the kernel's XOR
    # table or, up to _GATHER_WORDS words (k=4 GF(2^16) here), the planes one output plane
    # picks: at most one window of input.  In one window that stays within (1 + f)*S plus
    # the kernel's buffers; in three, within S plus (1 + f) windows.  (A v1-v3 extract's
    # bound is in tests/test_cli.py.)
    params = params_k4_gf16 if wide else params63
    data = _data(5 << 19, seed=5)
    size, buffers = len(data), (1 << 20) + (64 << 10)
    c = Cluster.ingest(data, params, keep_oracle=False)
    k, words = params.k, c.store.shape[1]
    gathered = size if words <= _GATHER_WORDS else 0
    assert gathered == (size if wide else 0) and len(cluster_mod._windows(words)) == 1
    for ids in _node_sets(k):
        f = sum(nid > k for nid in ids) / k
        out, peak = _decode_peak(c, ids)
        extra = min(size, f * size + (gathered if f else 0))
        assert out == data and peak <= size + extra + buffers, ids
    monkeypatch.setattr(cluster_mod, "_WINDOW_WORDS", -(-words // 3))
    window = c.store[:, cluster_mod._windows(words)[0]].nbytes // 2  # the stream's k^2*m planes
    for ids in _node_sets(k):
        f = sum(nid > k for nid in ids) / k
        out, peak = _decode_peak(c, ids)
        assert out == data and peak <= size + (1 + f) * window + (64 << 10), ids


def test_repair_holds_no_full_size_phase1_buffer(params63):
    # Deterministic and untimed: the tracemalloc peak of a repair of each kind on a stream
    # three windows wide.  It writes every newcomer into its rows of the node store and
    # holds one window of the r*d*m phase-1 planes, the kernel's XOR table (16 planes of a
    # window) and small objects, mostly the compiled plans: a phase-1 buffer over all the
    # words would be three windows, and one newcomer's array a whole node.
    k, m, words = 3, params63.field.degree, 2 * cluster_mod._WINDOW_WORDS + 1
    data = _data(64 * words * params63.block_size - 7, seed=14)
    c = Cluster.ingest(data, params63, keep_oracle=False)
    width = cluster_mod._windows(words)[0].stop
    for failed in _failure_patterns(k):
        c.fail(failed)
        pattern = FailurePattern.classify(failed, k)
        plan = plan_repair(pattern, params63)
        edges = len(plan.newcomers) * len(plan.helpers)
        _, peak = _peak(c.run_repair, pattern)
        assert peak <= (edges * m + 16) * width * 8 + (256 << 10), failed
    assert c.extract(range(k + 1, 2 * k + 1)) == data


@pytest.mark.parametrize("wide", [False, True], ids=["k3-gf8", "k4-gf16"])
def test_put_holds_no_full_size_temporary(params63, params_k4_gf16, wide):
    # Ingest holds the node store, 2S for an S-byte stream (the padded stream and the parity
    # planes), and at most the kernel's buffers more: its XOR table or gathered planes,
    # 0.6-0.9 MiB here.  Keeping the oracle adds one copy of the store.
    params = params_k4_gf16 if wide else params63
    data, buffers = _data(5 << 19, seed=6), (1 << 20) + (64 << 10)  # kernel, small objects
    for keep_oracle in (False, True):
        c, peak = _peak(Cluster.ingest, data, params, keep_oracle=keep_oracle)
        assert peak <= (1 + keep_oracle) * c.store.nbytes + buffers


def test_wide_symbol_field_end_to_end():
    # GF(2^16): two bytes per symbol, odd-length input exercises byte padding.
    params = generate(3, FieldSpec(16), seed=7)
    data = _data(1001, seed=12)
    c = Cluster.ingest(data, params)
    c.fail({1, 5})
    _, report = c.run_repair(FailurePattern.classify({1, 5}, 3))
    assert report.is_optimal
    assert c.extract({2, 4, 6}) == data
    assert c.extract({1, 2, 3}) == data


@pytest.mark.parametrize("degree", [4, 12])
def test_ingest_rejects_fields_that_do_not_fill_whole_bytes(degree):
    params = generate(3, FieldSpec(degree), seed=7)
    with pytest.raises(ValueError, match="degree 8 or 16"):
        Cluster.ingest(bytes(range(32)), params)


def test_scenario_runs_and_is_deterministic(params63):
    doc = {
        "k": 3,
        "seed": 7,
        "data": {"random": {"bytes": 200, "seed": 9}},
        "steps": [{"fail": [1]}, {"fail": [4, 5]}, {"fail": [2, 6]}],
        "verify": "mds_also",
    }
    first = run_scenario(Scenario.from_document(doc))
    second = run_scenario(Scenario.from_document(doc))
    assert first.ok and first.extracted_ok
    assert first.to_document() == second.to_document()
    assert all(step.exact and step.optimal for step in first.steps)


def test_scenario_records_unsupported_pattern():
    doc = {
        "k": 3,
        "seed": 7,
        "data": {"random": {"bytes": 50, "seed": 10}},
        "steps": [{"fail": [1, 2, 4]}, {"fail": [3]}],
    }
    result = run_scenario(Scenario.from_document(doc))
    assert not result.ok
    assert result.steps[0].error is not None
    assert "UnsupportedPattern" in result.steps[0].error
    # Execution stops at the failed step.
    assert len(result.steps) == 1


def test_scenario_from_files(tmp_path, params63):
    from mscr.params import save
    save(params63, tmp_path / "p.json")
    payload = _data(64, seed=11)
    (tmp_path / "data.bin").write_bytes(payload)
    doc = {
        "params": "p.json",
        "data": {"path": "data.bin"},
        "steps": [{"fail": [3, 4]}],
    }
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    from mscr.cluster import load_scenario
    sc = load_scenario(tmp_path / "scenario.json")
    assert sc.params == params63
    assert sc.data == payload
    result = run_scenario(sc)
    assert result.ok
