import json
import random
from itertools import combinations

import pytest

from mscr.cluster import (AlreadyFailed, Cluster, NotEnoughLiveNodes,
                          Scenario, TooManyFailures, VerificationFailure,
                          run_scenario)
from mscr.codec import encode, node_contents
from mscr.galois import FieldSpec
from mscr.params import generate
from mscr.repair import (FailurePattern, apply_repair, phase1_messages,
                         plan_repair)


def _data(n, seed=1):
    return random.Random(seed).randbytes(n)


@pytest.fixture(scope="module")
def params_k4_gf16():
    return generate(4, FieldSpec(16), seed=11)


def test_ingest_empty_stream(params63):
    c = Cluster.ingest(b"", params63)
    assert c.nblocks == 0
    assert c.extract({1, 2, 3}) == b""
    assert c.extract({4, 5, 6}) == b""


def test_ingest_single_block(params63):
    c = Cluster.ingest(_data(9), params63)
    assert c.nblocks == 1
    assert all(c.node_data[i].shape == (3, 1) for i in range(6))


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
    c.fail({2})
    with pytest.raises(NotEnoughLiveNodes):
        c.extract({1, 2, 3})


def test_parity_columns_satisfy_encode_relation(params63):
    data = _data(45, seed=3)
    c = Cluster.ingest(data, params63)
    for block in range(c.nblocks):
        contents = [c.block_content(nid, block) for nid in range(1, 7)]
        from mscr.codec import SourceBlock
        from mscr.linalg import Matrix
        x = Matrix.from_rows([[contents[j].vector[r] for j in range(3)]
                              for r in range(3)])
        expected = node_contents(SourceBlock(x), encode(SourceBlock(x), params63),
                                 params63)
        for got, want in zip(contents, expected):
            assert got.vector == want.vector


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
    before = [[c.block_content(nid, bk) for nid in range(1, params.n + 1)]
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
            assert c.block_content(ct.node_id, bk).vector == ct.vector


def test_repair_verifies_against_oracle(params63):
    c = Cluster.ingest(_data(27, seed=7), params63)
    c.fail({4})
    # Corrupt a helper after the oracle snapshot: the repaired node can no
    # longer match its original content and the simulator must fail loudly.
    c.node_data[0][0, 0] ^= 1
    with pytest.raises(VerificationFailure):
        c.run_repair(FailurePattern.classify({4}, 3))


def test_production_mode_drops_oracle(params63):
    data = _data(90, seed=8)
    c = Cluster.ingest(data, params63, keep_oracle=False)
    assert c.oracle is None
    c.fail({1, 6})
    c.run_repair(FailurePattern.classify({1, 6}, 3))
    # Stored nodes own their memory: a view would pin a whole ingest or repair output.
    assert all(d.base is None for d in c.node_data)
    assert c.extract({1, 2, 3}) == data
    assert c.extract({4, 5, 6}) == data


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
