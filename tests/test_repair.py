import dataclasses
import inspect
import random
from fractions import Fraction

import pytest

import mscr.repair as repair_mod
from conftest import ground_truth
from mscr.codec import NodeContent, z_column
from mscr.linalg import Matrix, dot
from mscr.params import generate
from mscr.repair import (FailurePattern, InvalidRegime, MissingMessage,
                         MixedPair, ParityGroup, SystematicGroup,
                         UnsupportedPattern, apply_repair, check_mixed_matrix,
                         mixed_repair_matrix, optimal_bandwidth,
                         phase1_messages, phase1_symbol, plan_repair,
                         repair_mixed_pair, repair_parity_group,
                         repair_systematic_group, sherman_morrison_check,
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
    assert plan.d == 4
    # Four phase-1 symbols per newcomer, one probe id each.
    to_four = [e for e in plan.phase1_edges if e[1] == 4]
    assert len(to_four) == 4
    assert {e[2] for e in to_four} == {"u1"}
    assert sorted(plan.phase2_edges) == [(4, 5), (5, 4)]


def test_plan_single_failure(params63):
    plan = plan_repair(FailurePattern.classify({1}, 3), params63)
    assert plan.d == 5
    assert plan.phase2_edges == ()
    assert {e[2] for e in plan.phase1_edges} == {"v1"}


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


def test_phase1_parity_helper_decomposes(params63):
    # u_i . y_j = delta (u_j . z_i) + epsilon (u_i . z_j), checked against
    # ground truth for every (i, j).
    rng = random.Random(51)
    block, parity, by_id = ground_truth(params63, rng)
    p = params63
    for i in range(1, 4):
        u_i = p.u.col(i - 1)
        z_i = z_column(block.x, p.p, i)
        for j in range(1, 4):
            u_j = p.u.col(j - 1)
            z_j = z_column(block.x, p.p, j)
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
    z_2 = z_column(block.x, params63.p, 2)
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
        repair_parity_group(plan, msgs[:-1], params63)


def test_group_kind_guard(params63):
    rng = random.Random(61)
    _, _, by_id = ground_truth(params63, rng)
    pattern = FailurePattern.classify({4, 5}, 3)
    plan = plan_repair(pattern, params63)
    msgs = phase1_messages(plan, {h: by_id[h] for h in plan.helpers}, params63)
    with pytest.raises(ValueError):
        repair_systematic_group(plan, msgs, params63)


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
            _, phase2, _ = repair_mixed_pair(plan, msgs, p)
            sent = {(m.sender, m.receiver): m.symbol for m in phase2}
            z_b = z_column(block.x, p.p, b)
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
            _, phase2, _ = repair_mixed_pair(plan, msgs, p)
            sent = {(m.sender, m.receiver): m.symbol for m in phase2}
            zp_a = z_column(parity.y, p.q, a)
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
                _, phase2, _ = repair_mixed_pair(plan, msgs, p)
                sent = {(m.sender, m.receiver): m.symbol for m in phase2}
                z_b = z_column(block.x, p.p, b)
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
                _, phase2, _ = repair_mixed_pair(plan, msgs, p)
                sent = {(m.sender, m.receiver): m.symbol for m in phase2}
                zp_a = z_column(parity.y, p.q, a)
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


def test_mixed_matrix_rows(params63):
    p = params63
    a, b = 1, 2
    m = mixed_repair_matrix(p, a, b)
    c0 = p.epsilon - (p.epsilon + p.delta) * p.p.at(0, 1) * p.q.at(1, 0)
    u_b, v_a = p.u.col(1), p.v.col(0)
    expect_row0 = tuple(c0 * u_b[t] + p.delta * p.p.at(0, 1) * v_a[t]
                        for t in range(3))
    assert m.row(0) == expect_row0


def test_mixed_matrix_rows_dual(params63, params_k4):
    # Newcomer k+b's system against y_b: row 0 is c0' v_a + delta' q_ba u_b,
    # then delta' v_i + epsilon' q_bi u_b for every i != a.
    for p in (params63, params_k4):
        k = p.k
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                m = repair_mod._mixed_matrix(p, repair_mod._systematic_side(p), b, a)
                p_ab, q_ba = p.p.at(a - 1, b - 1), p.q.at(b - 1, a - 1)
                c0p = p.epsilon_prime - (p.epsilon_prime + p.delta_prime) * q_ba * p_ab
                u_b, v_a = p.u.col(b - 1), p.v.col(a - 1)
                expect = [tuple(c0p * v_a[t] + p.delta_prime * q_ba * u_b[t]
                                for t in range(k))]
                for i in range(1, k + 1):
                    if i == a:
                        continue
                    v_i, q_bi = p.v.col(i - 1), p.q.at(b - 1, i - 1)
                    expect.append(tuple(p.delta_prime * v_i[t]
                                        + p.epsilon_prime * q_bi * u_b[t]
                                        for t in range(k)))
                assert [m.row(r) for r in range(k)] == expect, (a, b)


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


def _corrupt_product_to_one(params, a, b):
    """Force p_ab q_ba = 1 while preserving sum_l p_al q_la = 1."""
    field = params.field
    k = params.k
    grid = params.p.int_rows()
    q = params.q
    old = field.element(grid[a - 1][b - 1])
    forced = q.at(b - 1, a - 1).inverse()
    grid[a - 1][b - 1] = forced.value
    c = next(j for j in range(1, k + 1) if j != b)
    fix = (old + forced) * q.at(b - 1, a - 1) / q.at(c - 1, a - 1)
    adjusted = field.element(grid[a - 1][c - 1]) + fix
    grid[a - 1][c - 1] = adjusted.value
    return dataclasses.replace(params, p=Matrix(field, grid))


def test_sherman_morrison_scalar_zero_when_product_is_one(params63):
    a, b = 1, 2
    bad = _corrupt_product_to_one(params63, a, b)
    t = bad.p.at(a - 1, b - 1) * bad.q.at(b - 1, a - 1)
    assert t == bad.field.one
    # Orthogonality of row a against column a was preserved by the fixup.
    acc = bad.field.zero
    for l in range(3):
        acc = acc + bad.p.at(a - 1, l) * bad.q.at(l, a - 1)
    assert acc == bad.field.one
    # Case split lands in the scalar branch (c0 = delta != 0) and the
    # simplified expression carries the factor (1 - p_ab q_ba)^2 = 0.
    one = bad.field.one
    c0 = bad.epsilon - (bad.epsilon + bad.delta) * t
    assert c0 == bad.delta
    closed = (bad.epsilon * (bad.epsilon + bad.delta) * (one - t) * (one - t)) / c0
    assert closed == bad.field.zero
    assert sherman_morrison_scalar(bad, a, b) == bad.field.zero
    assert not sherman_morrison_check(bad, a, b)
    # The direct determinant agrees: the factorization still applies because
    # the corruption left V = U Q intact.
    assert not check_mixed_matrix(bad, a, b)


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
    with pytest.raises(InvalidRegime):
        optimal_bandwidth(9, 3, 2, 1)
    with pytest.raises(ValueError):
        optimal_bandwidth(9, 3, 0, 2)


# -- access discipline ---------------------------------------------------------------


def test_reconstruction_interface_is_message_only():
    # Newcomer logic sees (plan, messages, params); nothing else is even a
    # parameter, and the repair module has no handle on the simulator.
    for fn in (repair_parity_group, repair_systematic_group, repair_mixed_pair):
        names = list(inspect.signature(fn).parameters)
        assert names == ["plan", "phase1", "params"]
    imported = {getattr(v, "__name__", "") for v in vars(repair_mod).values()}
    assert "mscr.cluster" not in imported
    assert "cluster" not in imported
