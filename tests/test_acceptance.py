"""Acceptance gate: one test per criterion, exact equality throughout.

Arithmetic is exact over GF(2^m), so every comparison is bit-exact; there
are no tolerances anywhere.  Each test prints one PASS line on success
(visible with `pytest -s` or `-rP`).
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import ground_truth, random_block
from mscr.cli import main
from mscr.codec import collect, dual_encode, encode
from mscr.linalg import CauchySpec, cauchy, cauchy_inverse
from mscr.params import generate, validate
from mscr.repair import (FailurePattern, UnsupportedPattern, apply_repair,
                         optimal_bandwidth, phase1_messages, plan_repair)
from paper_proof import check_mixed_matrix, sherman_morrison_check


def _passed(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def _repair(failed, params, by_id):
    pattern = FailurePattern.classify(failed, params.k)
    plan = plan_repair(pattern, params)
    msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params)
    return apply_repair(plan, msgs, params)


def test_criterion_01_roundtrip_identity(gf256):
    for k in (3, 4, 5):
        params = generate(k, gf256, seed=k)
        rng = random.Random(100 + k)
        for _ in range(100):
            block = random_block(params, rng)
            assert dual_encode(encode(block, params), params).x == block.x
    _passed(1, "dual_encode(encode(X)) = X for k in {3,4,5}, 100 blocks each")


def test_criterion_02_mds_all_subsets(gf256, params63, params_k4, params_k5):
    rng = random.Random(200)
    block, _, by_id = ground_truth(params63, rng)
    for subset in combinations(range(1, 7), 3):
        assert collect([by_id[i] for i in subset], params63).x == block.x
    block4, _, by4 = ground_truth(params_k4, rng)
    subsets4 = list(combinations(range(1, 9), 4))
    assert len(subsets4) == 70
    for subset in subsets4:
        assert collect([by4[i] for i in subset], params_k4).x == block4.x
    block5, _, by5 = ground_truth(params_k5, rng)
    all5 = list(combinations(range(1, 11), 5))
    for subset in rng.sample(all5, 50):
        assert collect([by5[i] for i in subset], params_k5).x == block5.x
    _passed(2, "MDS collection: 20/20 subsets (6,3), 70/70 (8,4), 50 random (10,5)")


def test_criterion_03_single_node_repair(params63):
    rng = random.Random(300)
    _, _, by_id = ground_truth(params63, rng)
    assert optimal_bandwidth(9, 3, 5, 1) == Fraction(5)
    for nid in range(1, 7):
        contents, _, report = _repair({nid}, params63, by_id)
        assert contents[0].vector == by_id[nid].vector
        assert report.rows[0].gamma == 5
        assert report.optimal_gamma == Fraction(5)
        assert report.is_optimal
    _passed(3, "single-node repair of all 6 nodes, gamma = 5 each")


def test_criterion_04_all_double_failures(params63):
    rng = random.Random(400)
    _, _, by_id = ground_truth(params63, rng)
    assert optimal_bandwidth(9, 3, 4, 2) == Fraction(5)
    pairs = list(combinations(range(1, 7), 2))
    assert len(pairs) == 15
    for pair in pairs:
        contents, _, report = _repair(set(pair), params63, by_id)
        for c in contents:
            assert c.vector == by_id[c.node_id].vector, pair
        assert all(r.gamma == 5 for r in report.rows), pair
        assert report.is_optimal, pair
    _passed(4, "all 15 double failures repaired exactly, gamma = 5 per newcomer")


def test_criterion_05_group_repair_every_r(gf256):
    for k in (3, 4, 5):
        params = generate(k, gf256, seed=50 + k)
        rng = random.Random(500 + k)
        _, _, by_id = ground_truth(params, rng)
        for r in range(1, k + 1):
            assert optimal_bandwidth(k * k, k, 2 * k - r, r) == 2 * k - 1
            for failed in ({i for i in range(1, r + 1)},
                           {k + i for i in range(1, r + 1)}):
                contents, _, report = _repair(failed, params, by_id)
                for c in contents:
                    assert c.vector == by_id[c.node_id].vector, (k, r, failed)
                assert all(row.gamma == 2 * k - 1 for row in report.rows)
                assert report.is_optimal
    _passed(5, "group repair for every r in 1..k, k in {3,4,5}, gamma = 2k-1")


def test_criterion_06_mixed_matrix_nonsingular(gf256):
    for k in (3, 4, 5):
        for seed in range(20):
            params = generate(k, gf256, seed=600 + 20 * k + seed,
                              random_v=bool(seed % 2))
            for a in range(1, k + 1):
                for b in range(1, k + 1):
                    direct = check_mixed_matrix(params, a, b)
                    factored = sherman_morrison_check(params, a, b)
                    assert direct is True
                    assert factored is True
                    assert direct == factored
    _passed(6, "mixed-repair matrix nonsingular for all pairs; "
               "determinant and rank-one routes agree (20 sets x k in {3,4,5})")


def test_criterion_07_cauchy_inverse_closed_form(gf256):
    rng = random.Random(700)
    for trial in range(50):
        k = 2 + trial % 5
        vals = rng.sample(range(256), 2 * k)
        cs = CauchySpec(tuple(gf256.element(v) for v in vals[:k]),
                        tuple(gf256.element(v) for v in vals[k:]))
        assert cauchy_inverse(cs) == cauchy(cs).invert()
    _passed(7, "closed-form Cauchy inverse equals Gauss-Jordan on 50 specs, k in 2..6")


def test_criterion_08_parameter_existence(gf256):
    for k in range(2, 9):
        for seed in range(20):
            params = generate(k, gf256, seed=800 + seed, max_retries=1000)
            assert validate(params) == []
    _passed(8, "generation succeeds within 1000 retries for k in 2..8, 20 seeds each")


def test_criterion_09_unsupported_patterns_guarded(params63):
    mixed_triples = [s for s in combinations(range(1, 7), 3)
                     if any(i <= 3 for i in s) and any(i > 3 for i in s)]
    assert len(mixed_triples) == 18
    for triple in mixed_triples:
        with pytest.raises(UnsupportedPattern):
            FailurePattern.classify(set(triple), 3)
    _passed(9, "all 18 mixed triple failures rejected, never silently repaired")


def test_criterion_10_end_to_end_cli(tmp_path):
    payload = random.Random(1000).randbytes(1 << 20)
    src = tmp_path / "input.bin"
    src.write_bytes(payload)
    params_file = tmp_path / "params.json"
    assert main(["gen-params", "--k", "3", "--seed", "7",
                 "--out", str(params_file)]) == 0
    shard_dir = tmp_path / "shards"
    assert main(["encode", "--params", str(params_file), "--in", str(src),
                 "--out-dir", str(shard_dir)]) == 0

    scenario = {
        "params": "params.json",
        "data": {"path": "input.bin"},
        "steps": [{"fail": [1]}, {"fail": [4, 5]}, {"fail": [2, 6]},
                  {"fail": [1, 2, 3]}],
        "verify": "exact",
    }
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps(scenario))
    report_file = tmp_path / "report.json"
    assert main(["simulate", "--scenario", str(sc_file),
                 "--report", str(report_file)]) == 0
    report = json.loads(report_file.read_text())
    assert report["ok"] is True
    assert report["extracted_ok"] is True
    assert len(report["steps"]) == 4
    for step in report["steps"]:
        assert step["exact"] and step["optimal"]
        for row in step["rows"]:
            assert row["gamma"] == 5

    for nodes in ("1,2,3", "4,5,6", "3,4,5"):
        out = tmp_path / f"out_{nodes.replace(',', '_')}.bin"
        assert main(["extract", "--params", str(params_file),
                     "--in-dir", str(shard_dir), "--nodes", nodes,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == payload
    _passed(10, "CLI encode/simulate/extract on 1 MiB is byte-exact, "
                "all report rows optimal")
