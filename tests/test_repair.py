import dataclasses
import inspect
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import mscr.repair as repair_mod
from conftest import ground_truth, make_params
from list_oracle import dot
from mscr.cluster import Cluster
from mscr.codec import NodeContent
from mscr.galois import FieldSpec
from mscr.linalg import CauchySpec, DimensionMismatch, Matrix, SingularMatrix
from mscr.params import generate, validate
from mscr.repair import (FailurePattern, InvalidRegime, Message, MissingMessage,
                         MixedPair, NonsingularityFailure, ParityGroup, SystematicGroup,
                         UnsupportedPattern, apply_repair, linear_map, optimal_bandwidth,
                         phase1_messages, phase1_symbol, plan_repair, probe_vector)
from paper_proof import (check_mixed_matrix, mixed_repair_matrix, sherman_morrison_check,
                         sherman_morrison_scalar)


def _run(pattern_ids, params, by_id):
    pattern = FailurePattern.classify(pattern_ids, params.k)
    plan = plan_repair(pattern, params)
    msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params)
    return plan, msgs, apply_repair(plan, msgs, params)


# -- classification and planning ----------------------------------------------------


def test_classify_kinds():
    assert FailurePattern.classify({1, 2}, 3).kind == SystematicGroup
    assert FailurePattern.classify({4, 5, 6}, 3).kind == ParityGroup
    assert FailurePattern.classify({2, 6}, 3).kind == MixedPair
    assert FailurePattern.classify({2, 6}, 3).mixed_pair == (2, 3)


def test_classify_rejects_unsupported():
    with pytest.raises(UnsupportedPattern):
        FailurePattern.classify({1, 2, 4}, 3)
    with pytest.raises(UnsupportedPattern):
        FailurePattern.classify({1, 4, 5}, 3)
    with pytest.raises(ValueError):
        FailurePattern.classify({0, 1}, 3)
    with pytest.raises(ValueError):
        FailurePattern.classify(set(), 3)


def test_plan_parity_pair(params63):
    plan = plan_repair(FailurePattern.classify({4, 5}, 3), params63)
    assert plan.newcomers == (4, 5)
    assert plan.helpers == (1, 2, 3, 6)
    assert len(plan.helpers) == 4
    # Four phase-1 symbols per newcomer, all taken with its probe u_1.
    to_four = [e for e in plan.phase1_edges if e[1] == 4]
    assert to_four == [(1, 4), (2, 4), (3, 4), (6, 4)]
    assert probe_vector(params63, 4) == params63.u.col(0)
    assert sorted(plan.phase2_edges) == [(4, 5), (5, 4)]


def test_plan_single_failure(params63):
    plan = plan_repair(FailurePattern.classify({1}, 3), params63)
    assert len(plan.helpers) == 5
    assert plan.phase2_edges == ()
    assert plan.phase1_edges == ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1))
    assert probe_vector(params63, 1) == params63.v.col(0)


def test_plan_rejects_patterns_and_ids_outside_the_code(params63):
    with pytest.raises(ValueError, match="^pattern kind is systematic_group, not mixed_pair$"):
        FailurePattern.classify({1, 2}, 3).mixed_pair
    with pytest.raises(ValueError, match="^pattern is for k=4, params have k=3$"):
        plan_repair(FailurePattern.classify({1}, 4), params63)
    for node_id in (0, 7):
        with pytest.raises(ValueError, match=rf"^node id {node_id} outside 1\.\.6$"):
            probe_vector(params63, node_id)


# -- phase 1 -----------------------------------------------------------------------


def test_phase1_symbol_raw_product(params63):
    rng = random.Random(50)
    block, _, by_id = ground_truth(params63, rng)
    for j in range(1, 4):
        for i in range(1, 4):
            sym = phase1_symbol(by_id[j], 3 + i, params63)
            assert sym == dot(params63.u.col(i - 1), block.x.col(j - 1))


def test_phase1_symbol_zero_helper(params63):
    zero = NodeContent(1, tuple(params63.field.zero for _ in range(3)))
    assert phase1_symbol(zero, 4, params63) == params63.field.zero


@pytest.mark.parametrize("length", [0, 2, 4])
def test_phase1_symbol_refuses_a_vector_of_the_wrong_length(params63, length):
    helper = NodeContent(1, tuple(params63.field.one for _ in range(length)))
    with pytest.raises(DimensionMismatch):
        phase1_symbol(helper, 4, params63)


def test_phase1_parity_helper_decomposes(params63):
    # u_i . y_j = delta (u_j . z_i) + epsilon (u_i . z_j), checked against
    # ground truth for every (i, j).
    rng = random.Random(51)
    block, parity, by_id = ground_truth(params63, rng)
    p = params63
    for i in range(1, 4):
        u_i = p.u.col(i - 1)
        z_i = (block.x @ p.p).col(i - 1)
        for j in range(1, 4):
            u_j = p.u.col(j - 1)
            z_j = (block.x @ p.p).col(j - 1)
            got = phase1_symbol(by_id[3 + j], 3 + i, p)
            assert got == dot(u_i, parity.y.col(j - 1))
            assert got == p.delta * dot(u_j, z_i) + p.epsilon * dot(u_i, z_j)


def test_phase1_messages_requires_all_helpers(params63):
    rng = random.Random(52)
    _, _, by_id = ground_truth(params63, rng)
    plan = plan_repair(FailurePattern.classify({4}, 3), params63)
    helpers = {h: by_id[h] for h in plan.helpers}
    del helpers[1]
    with pytest.raises(MissingMessage):
        phase1_messages(plan, helpers, params63)


# -- group repair -------------------------------------------------------------------


def test_parity_pair_exact_with_expected_exchange(params63):
    rng = random.Random(53)
    block, _, by_id = ground_truth(params63, rng)
    plan, msgs, (contents, phase2, report) = _run({4, 5}, params63, by_id)
    for c in contents:
        assert c.vector == by_id[c.node_id].vector
    # Newcomer 4 (probe u_1) hands newcomer 5 the product u_1 . z_2.
    z_2 = (block.x @ params63.p).col(1)
    sent = {(m.sender, m.receiver): m.symbol for m in phase2}
    assert sent[(4, 5)] == dot(params63.u.col(0), z_2)
    expect = params63.field.zero
    for l in range(1, 4):
        expect = expect + params63.p.at(l - 1, 1) * phase1_symbol(
            by_id[l], 4, params63)
    assert sent[(4, 5)] == expect
    assert report.is_optimal
    assert [r.gamma for r in report.rows] == [5, 5]
    assert [r.downloaded for r in report.rows] == [4, 4]
    assert [r.exchanged for r in report.rows] == [1, 1]


def test_single_parity_repair_no_exchange(params63):
    rng = random.Random(54)
    _, _, by_id = ground_truth(params63, rng)
    for nid in (4, 5, 6):
        _, _, (contents, phase2, report) = _run({nid}, params63, by_id)
        assert contents[0].vector == by_id[nid].vector
        assert phase2 == []
        assert report.rows[0].gamma == 5


def test_single_systematic_repair(params63):
    rng = random.Random(55)
    _, _, by_id = ground_truth(params63, rng)
    for nid in (1, 2, 3):
        _, _, (contents, phase2, report) = _run({nid}, params63, by_id)
        assert contents[0].vector == by_id[nid].vector
        assert report.rows[0].gamma == 5
        assert report.optimal_gamma == Fraction(5)


def test_systematic_pair_exact(params63):
    rng = random.Random(56)
    _, _, by_id = ground_truth(params63, rng)
    _, _, (contents, _, report) = _run({1, 2}, params63, by_id)
    for c in contents:
        assert c.vector == by_id[c.node_id].vector
    assert [r.downloaded for r in report.rows] == [4, 4]
    assert [r.exchanged for r in report.rows] == [1, 1]
    assert report.optimal_gamma == Fraction(9 * 5, 3 * 3)


def test_group_repair_every_r(params63, params_k4, params_k5):
    rng = random.Random(57)
    for params in (params63, params_k4, params_k5):
        k = params.k
        _, _, by_id = ground_truth(params, rng)
        for r in range(1, k + 1):
            for failed in ({i for i in range(1, r + 1)},
                           {k + i for i in range(1, r + 1)}):
                _, _, (contents, _, report) = _run(failed, params, by_id)
                for c in contents:
                    assert c.vector == by_id[c.node_id].vector
                assert report.is_optimal
                assert all(row.gamma == 2 * k - 1 for row in report.rows)


def test_group_repair_arbitrary_sets(params_k4):
    rng = random.Random(58)
    _, _, by_id = ground_truth(params_k4, rng)
    for failed in ({2, 4}, {1, 3, 4}, {5, 7}, {6, 7, 8}):
        _, _, (contents, _, report) = _run(failed, params_k4, by_id)
        for c in contents:
            assert c.vector == by_id[c.node_id].vector
        assert report.is_optimal


def test_full_parity_group_equals_dual_view(params63):
    rng = random.Random(59)
    block, parity, by_id = ground_truth(params63, rng)
    _, _, (contents, _, _) = _run({4, 5, 6}, params63, by_id)
    for idx, c in enumerate(contents):
        assert c.vector == parity.y.col(idx)


def test_missing_message_detected(params63):
    rng = random.Random(60)
    _, _, by_id = ground_truth(params63, rng)
    pattern = FailurePattern.classify({4, 5}, 3)
    plan = plan_repair(pattern, params63)
    msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params63)
    with pytest.raises(MissingMessage):
        apply_repair(plan, msgs[:-1], params63)


# -- mixed pair ---------------------------------------------------------------------


def test_mixed_pair_exchange_identity_primal(gf256):
    # What newcomer k+b sends equals
    # delta (v_a . z_b) + (epsilon - (epsilon+delta) p_ab q_ba) (u_b . x_a).
    rng = random.Random(62)
    for pseed in range(4):
        p = generate(3, gf256, seed=70 + pseed, random_v=bool(pseed % 2))
        for trial in range(25):
            block, parity, by_id = ground_truth(p, rng)
            # First trial pins the classic failed {1, 5} case (a=1, b=2).
            a, b = (1, 2) if trial == 0 else (rng.randrange(1, 4), rng.randrange(1, 4))
            plan = plan_repair(FailurePattern.classify({a, 3 + b}, 3), p)
            msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, p)
            _, phase2, _ = apply_repair(plan, msgs, p)
            sent = {(m.sender, m.receiver): m.symbol for m in phase2}
            z_b = (block.x @ p.p).col(b - 1)
            c0 = (p.epsilon
                  - (p.epsilon + p.delta) * p.p.at(a - 1, b - 1) * p.q.at(b - 1, a - 1))
            expect = (p.delta * dot(p.v.col(a - 1), z_b)
                      + c0 * dot(p.u.col(b - 1), block.x.col(a - 1)))
            assert sent[(3 + b, a)] == expect


def test_mixed_pair_exchange_identity_dual(gf256):
    # The mirror-image combination newcomer a sends equals
    # delta' (u_b . z'_a) + (epsilon' - (epsilon'+delta') q_ba p_ab) (v_a . y_b).
    rng = random.Random(63)
    for pseed in range(4):
        p = generate(3, gf256, seed=80 + pseed, random_v=bool(pseed % 2))
        for trial in range(25):
            block, parity, by_id = ground_truth(p, rng)
            a, b = (1, 2) if trial == 0 else (rng.randrange(1, 4), rng.randrange(1, 4))
            plan = plan_repair(FailurePattern.classify({a, 3 + b}, 3), p)
            msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, p)
            _, phase2, _ = apply_repair(plan, msgs, p)
            sent = {(m.sender, m.receiver): m.symbol for m in phase2}
            zp_a = (parity.y @ p.q).col(a - 1)
            c0p = (p.epsilon_prime
                   - (p.epsilon_prime + p.delta_prime)
                   * p.q.at(b - 1, a - 1) * p.p.at(a - 1, b - 1))
            expect = (p.delta_prime * dot(p.u.col(b - 1), zp_a)
                      + c0p * dot(p.v.col(a - 1), parity.y.col(b - 1)))
            assert sent[(a, 3 + b)] == expect


@pytest.mark.parametrize("k", [4, 5])
def test_mixed_pair_exchange_identity_primal_wider_k(gf256, k):
    # The k = 3 identity above, for every (a, b) at larger k.
    rng = random.Random(160 + k)
    for pseed in range(2):
        p = generate(k, gf256, seed=170 + pseed, random_v=bool(pseed % 2))
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                block, parity, by_id = ground_truth(p, rng)
                plan = plan_repair(FailurePattern.classify({a, k + b}, k), p)
                msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, p)
                _, phase2, _ = apply_repair(plan, msgs, p)
                sent = {(m.sender, m.receiver): m.symbol for m in phase2}
                z_b = (block.x @ p.p).col(b - 1)
                c0 = (p.epsilon - (p.epsilon + p.delta)
                      * p.p.at(a - 1, b - 1) * p.q.at(b - 1, a - 1))
                expect = (p.delta * dot(p.v.col(a - 1), z_b)
                          + c0 * dot(p.u.col(b - 1), block.x.col(a - 1)))
                assert sent[(k + b, a)] == expect, (a, b)


@pytest.mark.parametrize("k", [4, 5])
def test_mixed_pair_exchange_identity_dual_wider_k(gf256, k):
    # The k = 3 mirror-image identity above, for every (a, b) at larger k.
    rng = random.Random(180 + k)
    for pseed in range(2):
        p = generate(k, gf256, seed=190 + pseed, random_v=bool(pseed % 2))
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                block, parity, by_id = ground_truth(p, rng)
                plan = plan_repair(FailurePattern.classify({a, k + b}, k), p)
                msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, p)
                _, phase2, _ = apply_repair(plan, msgs, p)
                sent = {(m.sender, m.receiver): m.symbol for m in phase2}
                zp_a = (parity.y @ p.q).col(a - 1)
                c0p = (p.epsilon_prime - (p.epsilon_prime + p.delta_prime)
                       * p.q.at(b - 1, a - 1) * p.p.at(a - 1, b - 1))
                expect = (p.delta_prime * dot(p.u.col(b - 1), zp_a)
                          + c0p * dot(p.v.col(a - 1), parity.y.col(b - 1)))
                assert sent[(a, k + b)] == expect, (a, b)


def test_mixed_pair_all_combinations(params63, params_k4):
    rng = random.Random(64)
    for params in (params63, params_k4):
        k = params.k
        _, _, by_id = ground_truth(params, rng)
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                _, _, ((got_a, got_b), _, report) = _run({a, k + b}, params, by_id)
                assert got_a.vector == by_id[a].vector, (a, b)
                assert got_b.vector == by_id[k + b].vector, (a, b)
                assert report.is_optimal
                assert all(r.gamma == 2 * k - 1 for r in report.rows)


def test_mixed_pair_with_random_v(gf256):
    params = generate(3, gf256, seed=99, random_v=True)
    rng = random.Random(65)
    _, _, by_id = ground_truth(params, rng)
    for a in range(1, 4):
        for b in range(1, 4):
            _, _, (pair, _, report) = _run({a, 3 + b}, params, by_id)
            for c in pair:
                assert c.vector == by_id[c.node_id].vector
            assert report.is_optimal


# -- mixed-repair matrix ---------------------------------------------------------------


def test_check_mixed_matrix_all_pairs(params63):
    for a in range(1, 4):
        for b in range(1, 4):
            assert check_mixed_matrix(params63, a, b)
            assert sherman_morrison_check(params63, a, b)


def _mixed_params():
    """Params of k=3 GF(2^8), k=4 GF(2^16) and k=8 GF(2^8), for the mixed systems."""
    return [generate(k, FieldSpec(degree), seed=seed)
            for k, degree, seed in ((3, 8, 7), (4, 16, 3), (8, 8, 5))]


def _rows(m):
    return [m.transpose().col(r) for r in range(m.shape[0])]


def test_mixed_matrix_rows():
    # Newcomer a's system against x_a, in the paper's order: row 0 is
    # (epsilon - (epsilon+delta) p_ab q_ba) u_b + delta p_ab v_a, then
    # delta u_j + epsilon p_aj v_a for every j != b.
    for p in _mixed_params():
        for a, b in product(range(1, p.k + 1), repeat=2):
            p_ab, q_ba, v_a = p.p.at(a - 1, b - 1), p.q.at(b - 1, a - 1), p.v.col(a - 1)
            c0 = p.epsilon - (p.epsilon + p.delta) * p_ab * q_ba
            expect = [tuple(c0 * u + p.delta * p_ab * v for u, v in zip(p.u.col(b - 1), v_a))]
            expect += [tuple(p.delta * u + p.epsilon * p.p.at(a - 1, j - 1) * v
                             for u, v in zip(p.u.col(j - 1), v_a))
                       for j in range(1, p.k + 1) if j != b]
            assert _rows(mixed_repair_matrix(p, a, b)) == expect, (p.k, a, b)


def test_mixed_matrix_rows_dual():
    # Newcomer k+b's system against y_b: row 0 is c0' v_a + delta' q_ba u_b,
    # then delta' v_i + epsilon' q_bi u_b for every i != a.
    for p in _mixed_params():
        for a, b in product(range(1, p.k + 1), repeat=2):
            p_ab, q_ba, u_b = p.p.at(a - 1, b - 1), p.q.at(b - 1, a - 1), p.u.col(b - 1)
            c0p = p.epsilon_prime - (p.epsilon_prime + p.delta_prime) * q_ba * p_ab
            expect = [tuple(c0p * v + p.delta_prime * q_ba * u
                            for v, u in zip(p.v.col(a - 1), u_b))]
            expect += [tuple(p.delta_prime * v + p.epsilon_prime * p.q.at(b - 1, i - 1) * u
                             for v, u in zip(p.v.col(i - 1), u_b))
                       for i in range(1, p.k + 1) if i != a]
            m = repair_mod._mixed_matrix(p, p.systematic_side, b, a)
            assert _rows(m) == expect, (p.k, a, b)


def test_determinant_and_rank_one_routes_agree(gf256):
    rng = random.Random(66)
    count = 0
    seed = 0
    while count < 50:
        seed += 1
        k = 2 + seed % 4
        params = generate(k, gf256, seed=1000 + seed, random_v=bool(seed % 2))
        a = rng.randrange(1, k + 1)
        b = rng.randrange(1, k + 1)
        assert check_mixed_matrix(params, a, b) == sherman_morrison_check(params, a, b)
        count += 1


def test_sherman_morrison_scalar_matches_closed_form(params63):
    # The raw scalar 1 + h A^-1 g times delta equals the fully simplified
    # expression epsilon (epsilon+delta) (1 - p_ab q_ba)^2 / c0.
    p = params63
    one = p.field.one
    for a in range(1, 4):
        for b in range(1, 4):
            t = p.p.at(a - 1, b - 1) * p.q.at(b - 1, a - 1)
            c0 = p.epsilon - (p.epsilon + p.delta) * t
            closed = (p.epsilon * (p.epsilon + p.delta) * (one - t) * (one - t)) / c0
            raw = sherman_morrison_scalar(p, a, b)
            assert raw * p.delta == closed


def _cauchy_params_with_product_one(field, k, rng):
    """Honest Cauchy params (V = I) with some p_ab q_ba == 1."""
    for _ in range(25):
        vals = rng.sample(range(field.order), 2 * k)
        cs = CauchySpec(tuple(field.element(x) for x in vals[:k]),
                        tuple(field.element(x) for x in vals[k:]))
        params = make_params(cs, Matrix.identity(field, k), 2, 3)
        if validate(params):
            return params
    raise AssertionError("no product_one hit in the search budget")


def test_sherman_morrison_scalar_zero_when_product_is_one(gf256):
    bad = _cauchy_params_with_product_one(gf256, 3, random.Random(3))
    violations = validate(bad)
    assert [v.condition for v in violations] == ["product_one"]
    a, b = violations[0].indices
    t = bad.p.at(a - 1, b - 1) * bad.q.at(b - 1, a - 1)
    assert t == bad.field.one
    # Case split lands in the scalar branch (c0 = delta != 0) and the
    # simplified expression carries the factor (1 - p_ab q_ba)^2 = 0.
    one = bad.field.one
    c0 = bad.epsilon - (bad.epsilon + bad.delta) * t
    assert c0 == bad.delta
    closed = (bad.epsilon * (bad.epsilon + bad.delta) * (one - t) * (one - t)) / c0
    assert closed == bad.field.zero
    assert sherman_morrison_scalar(bad, a, b) == bad.field.zero
    assert not sherman_morrison_check(bad, a, b)
    # The direct determinant agrees.
    assert not check_mixed_matrix(bad, a, b)


def _zero_messages(plan, params):
    return [Message(h, nc, params.field.zero) for h, nc in plan.phase1_edges]


def test_mixed_pair_with_product_one_raises_nonsingularity_failure(gf256):
    bad = _cauchy_params_with_product_one(gf256, 3, random.Random(3))
    (a, b), = [v.indices for v in validate(bad)]
    pattern = FailurePattern.classify({a, 3 + b}, 3)
    plan = plan_repair(pattern, bad)
    with pytest.raises(NonsingularityFailure):
        linear_map(plan, bad)
    with pytest.raises(NonsingularityFailure):
        apply_repair(plan, _zero_messages(plan, bad), bad)
    with pytest.raises(ValueError, match=rf"invalid params: product_one at \({a}, {b}\)"):
        Cluster.ingest(random.Random(4).randbytes(90), bad)
    # A cluster made by hand under these params still refuses the repair and writes nothing.
    store = np.arange(2 * 9 * 8, dtype=np.uint64).reshape(-1, 1)
    cluster = Cluster(bad, store.copy(), 90, None)
    cluster.fail(pattern.failed)
    with pytest.raises(NonsingularityFailure):
        cluster.run_repair(pattern)
    assert cluster.failed == pattern.failed  # no newcomer was written
    assert np.array_equal(cluster.store, store)


@pytest.mark.parametrize("failed", [{1}, {1, 2}, {4}, {4, 5}, {1, 4}])
def test_singular_v_raises_before_any_repair_solve(failed):
    # V and U = VP are singular together, so the side the repair reads fails to
    # invert Vt or Ut, before a group's probe solve or a mixed pair's system.
    rows = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]  # row 2 is twice row 1 in GF(2^8)
    base = generate(3)
    bad = dataclasses.replace(base, v=Matrix(base.field, rows))
    assert not bad.v.det()
    plan = plan_repair(FailurePattern.classify(failed, 3), bad)
    with pytest.raises(SingularMatrix):
        linear_map(plan, bad)
    with pytest.raises(SingularMatrix):
        apply_repair(plan, _zero_messages(plan, bad), bad)


# -- bandwidth bound ---------------------------------------------------------------


def test_optimal_bandwidth_known_values():
    assert optimal_bandwidth(9, 3, 4, 2) == Fraction(5)
    assert optimal_bandwidth(9, 3, 5, 1) == Fraction(5)


def test_optimal_bandwidth_group_identity():
    # With B = k^2 and d = 2k - r the bound collapses to 2k - 1.
    for k in range(2, 9):
        for r in range(1, k + 1):
            assert optimal_bandwidth(k * k, k, 2 * k - r, r) == 2 * k - 1


def test_optimal_bandwidth_invalid_regime():
    with pytest.raises(InvalidRegime, match=r"^bound undefined for d \+ r = 3 <= k = 3$"):
        optimal_bandwidth(9, 3, 2, 1)
    # d = 0 would reach InvalidRegime too (d + r = 2 <= k), so the message tells them apart.
    for args in [(9, 3, 0, 2), (0, 3, 4, 2)]:
        with pytest.raises(ValueError, match="^all bound parameters must be positive$"):
            optimal_bandwidth(*args)


# -- access discipline ---------------------------------------------------------------


def test_reconstruction_interface_is_message_only():
    # Newcomer logic sees (plan, messages, params); nothing else is even a
    # parameter, and the repair module has no handle on the simulator.
    assert list(inspect.signature(apply_repair).parameters) == ["plan", "phase1", "params"]
    imported = {getattr(v, "__name__", "") for v in vars(repair_mod).values()}
    assert "mscr.cluster" not in imported
    assert "cluster" not in imported


# -- the bulk map: one run of the cores on coefficient rows --------------------------


def _probing_map(plan, params):
    """Reference: one scalar run per phase-1 edge, with a unit message on that edge."""
    spec, edges = params.field, plan.phase1_edges
    cols, report = [], None
    for m in range(len(edges)):
        msgs = [Message(h, nc, spec.one if t == m else spec.zero)
                for t, (h, nc) in enumerate(edges)]
        contents, _, report = apply_repair(plan, msgs, params)
        cols.append([sym.value for c in contents for sym in c.vector])
    return [list(row) for row in zip(*cols)], report


def _patterns(k):
    for r in range(1, k + 1):
        for nodes in combinations(range(1, k + 1), r):
            yield set(nodes)
            yield {k + j for j in nodes}
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            yield {a, k + b}


def _check_map(failed, params, rng):
    plan = plan_repair(FailurePattern.classify(failed, params.k), params)
    rows, report = linear_map(plan, params)
    assert (rows.array.tolist(), report) == _probing_map(plan, params)
    # Applied to the phase-1 symbols of a block, the map rebuilds the lost nodes.
    _, _, by_id = ground_truth(params, rng)
    msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params)
    rebuilt = rows @ Matrix(params.field, [[m.symbol.value] for m in msgs])
    assert list(rebuilt.col(0)) == [s for nc in plan.newcomers for s in by_id[nc].vector]


@pytest.mark.parametrize("degree", [8, 16])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_linear_map_equals_probing_every_pattern(k, degree):
    params = generate(k, FieldSpec(degree), seed=20 + k, random_v=degree == 16)
    rng = random.Random(k * degree)
    for failed in _patterns(k):
        _check_map(failed, params, rng)


def test_linear_map_equals_probing_k8_sample(gf256):
    params = generate(8, gf256, seed=5)
    rng = random.Random(8)
    for failed in (set(range(9, 17)), set(range(1, 9)), {1}, {12}, {2, 6}, {10, 11, 15},
                   {1, 9}, {8, 11}):
        _check_map(failed, params, rng)


def test_bulk_repair_runs_no_scalar_protocol(params63, monkeypatch):
    def refuse(*args):
        raise AssertionError("the bulk repair ran the scalar protocol")
    monkeypatch.setattr(repair_mod, "apply_repair", refuse)
    data = random.Random(9).randbytes(500)
    cluster = Cluster.ingest(data, params63)
    for failed in ({1, 3}, {4, 5, 6}, {2, 6}):
        cluster.fail(failed)
        cluster.run_repair(FailurePattern.classify(failed, 3))  # checked against the oracle
    assert cluster.extract({4, 5, 6}) == data


# -- bandwidth report of the scalar path ----------------------------------------------


def test_conflicting_duplicate_message_rejected(params63):
    _, _, by_id = ground_truth(params63, random.Random(67))
    plan = plan_repair(FailurePattern.classify({4, 5}, 3), params63)
    msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params63)
    first = msgs[0]
    other = Message(first.sender, first.receiver, first.symbol + params63.field.one)
    with pytest.raises(MissingMessage, match="conflicting"):
        apply_repair(plan, msgs + [other], params63)


@pytest.mark.parametrize("failed", [{1, 2}, {4, 5}, {2, 6}])
def test_identical_duplicate_counts_against_optimality(params63, failed):
    _, _, by_id = ground_truth(params63, random.Random(68))
    plan = plan_repair(FailurePattern.classify(failed, 3), params63)
    msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params63)
    contents, _, report = apply_repair(plan, msgs + [msgs[0]], params63)
    assert [c.vector for c in contents] == [by_id[nc].vector for nc in plan.newcomers]
    assert not report.is_optimal
    extra = [r.downloaded - len(plan.helpers) for r in report.rows]
    assert extra == [int(nc == msgs[0].receiver) for nc in plan.newcomers]


@pytest.mark.parametrize("failed", [{1}, {6}, {1, 2, 3}, {4, 6}, {3, 4}])
def test_linear_map_report_equals_scalar_report(params63, failed):
    _, _, by_id = ground_truth(params63, random.Random(69))
    plan = plan_repair(FailurePattern.classify(failed, 3), params63)
    msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params63)
    _, _, scalar = apply_repair(plan, msgs, params63)
    assert linear_map(plan, params63)[1] == scalar and scalar.is_optimal
