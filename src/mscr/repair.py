"""Two-phase cooperative repair of failed nodes.

Supported failure patterns: any r systematic nodes (1 <= r <= k), any r
parity nodes, or one systematic plus one parity node.  Mixed sets of three
or more are rejected; they are not repairable by this construction.

Phase 1: every surviving node sends each newcomer one inner product of its
stored vector with the newcomer's probe vector (v_i for systematic newcomer
i, u_i for parity newcomer k+i), so beta_1 = 1 symbol per helper edge.
Phase 2: each ordered pair of newcomers exchanges one derived symbol
(beta_2 = 1).  Every newcomer then solves a small linear system built from
its received symbols only; reconstruction is exact and the measured
bandwidth gamma = d*beta_1 + (r-1)*beta_2 meets the cooperative lower bound
B(d+r-1) / (k(d+r-k)) with d = n - r helpers.

Reconstruction functions consume (plan, messages, params) and nothing else;
they never see survivor state or ground truth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .codec import NodeContent
from .galois import FieldElement
from .linalg import Matrix, SingularMatrix, dot, solve_vector
from .params import CodeParams

__all__ = [
    "BandwidthReport",
    "FailurePattern",
    "InvalidRegime",
    "MixedPair",
    "MissingMessage",
    "NewcomerBandwidth",
    "NonsingularityFailure",
    "ParityGroup",
    "Phase1Message",
    "Phase2Message",
    "RepairPlan",
    "SolveFailure",
    "SystematicGroup",
    "UnsupportedPattern",
    "apply_repair",
    "check_mixed_matrix",
    "mixed_repair_matrix",
    "optimal_bandwidth",
    "phase1_messages",
    "phase1_symbol",
    "plan_repair",
    "probe_vector",
    "repair_mixed_pair",
    "repair_parity_group",
    "repair_systematic_group",
    "sherman_morrison_check",
    "sherman_morrison_scalar",
]


class UnsupportedPattern(ValueError):
    """A failure set this construction cannot repair."""


class MissingMessage(ValueError):
    """A planned repair edge has no message."""


class SolveFailure(RuntimeError):
    """A newcomer's linear system was singular; the params are invalid."""


class NonsingularityFailure(RuntimeError):
    """A mixed-pair reconstruction matrix was singular; the params are invalid."""


class InvalidRegime(ValueError):
    """Bandwidth bound requested outside its regime (d + r <= k)."""


SystematicGroup = "systematic_group"
ParityGroup = "parity_group"
MixedPair = "mixed_pair"


@dataclass(frozen=True)
class FailurePattern:
    """A classified set of simultaneously failed node ids (1-based)."""

    failed: frozenset[int]
    kind: str
    k: int

    @staticmethod
    def classify(failed, k: int) -> "FailurePattern":
        failed = frozenset(failed)
        if not failed:
            raise ValueError("empty failure set")
        if any(not 1 <= i <= 2 * k for i in failed):
            raise ValueError(f"node ids {sorted(failed)} outside 1..{2 * k}")
        systematic = {i for i in failed if i <= k}
        parity = failed - systematic
        if not parity:
            kind = SystematicGroup
        elif not systematic:
            kind = ParityGroup
        elif len(failed) == 2:
            kind = MixedPair
        else:
            raise UnsupportedPattern(
                f"mixed failure set {sorted(failed)} of size {len(failed)} is not repairable")
        return FailurePattern(failed, kind, k)

    @property
    def mixed_pair(self) -> tuple[int, int]:
        """(a, b) for a mixed pattern: systematic node a and parity node k+b."""
        if self.kind != MixedPair:
            raise ValueError(f"pattern kind is {self.kind}, not {MixedPair}")
        a = min(self.failed)
        b = max(self.failed) - self.k
        return a, b


@dataclass(frozen=True)
class RepairPlan:
    """Who talks to whom: d = n - r helpers, one symbol per edge."""

    pattern: FailurePattern
    newcomers: tuple[int, ...]
    helpers: tuple[int, ...]
    phase1_edges: tuple[tuple[int, int, str], ...]  # (helper, newcomer, probe id)
    phase2_edges: tuple[tuple[int, int], ...]       # (sender, receiver)

    @property
    def d(self) -> int:
        return len(self.helpers)


@dataclass(frozen=True)
class Phase1Message:
    sender: int
    receiver: int
    symbol: FieldElement


@dataclass(frozen=True)
class Phase2Message:
    sender: int
    receiver: int
    symbol: FieldElement


@dataclass(frozen=True)
class NewcomerBandwidth:
    """Symbols one newcomer actually received, by phase."""

    node_id: int
    downloaded: int
    exchanged: int

    @property
    def gamma(self) -> int:
        return self.downloaded + self.exchanged


@dataclass(frozen=True)
class BandwidthReport:
    rows: tuple[NewcomerBandwidth, ...]
    optimal_gamma: Fraction
    is_optimal: bool

    def to_document(self) -> dict:
        return {
            "rows": [{"newcomer": r.node_id, "downloaded": r.downloaded,
                      "exchanged": r.exchanged, "gamma": r.gamma}
                     for r in self.rows],
            "optimal_gamma": str(self.optimal_gamma),
            "is_optimal": self.is_optimal,
        }


def optimal_bandwidth(block_size: int, k: int, d: int, r: int) -> Fraction:
    """Cooperative-repair lower bound per newcomer: B(d+r-1) / (k(d+r-k))."""
    if min(block_size, k, d, r) <= 0:
        raise ValueError("all bound parameters must be positive")
    if d + r <= k:
        raise InvalidRegime(f"bound undefined for d + r = {d + r} <= k = {k}")
    return Fraction(block_size * (d + r - 1), k * (d + r - k))


def _probe_id(node_id: int, k: int) -> str:
    return f"v{node_id}" if node_id <= k else f"u{node_id - k}"


def probe_vector(params: CodeParams, node_id: int) -> tuple[FieldElement, ...]:
    """The inner-product vector helpers use for this newcomer."""
    if not 1 <= node_id <= params.n:
        raise ValueError(f"node id {node_id} outside 1..{params.n}")
    if node_id <= params.k:
        return params.v.col(node_id - 1)
    return params.u.col(node_id - params.k - 1)


def plan_repair(pattern: FailurePattern, params: CodeParams) -> RepairPlan:
    """Lay out all phase-1 and phase-2 edges for a classified failure."""
    if pattern.k != params.k:
        raise ValueError(f"pattern is for k={pattern.k}, params have k={params.k}")
    newcomers = tuple(sorted(pattern.failed))
    helpers = tuple(i for i in range(1, params.n + 1) if i not in pattern.failed)
    phase1 = tuple((h, nc, _probe_id(nc, params.k))
                   for nc in newcomers for h in helpers)
    phase2 = tuple((s, r) for s in newcomers for r in newcomers if s != r)
    return RepairPlan(pattern, newcomers, helpers, phase1, phase2)


def phase1_symbol(helper: NodeContent, newcomer_id: int,
                  params: CodeParams) -> FieldElement:
    """One phase-1 symbol: probe of the newcomer dotted with the helper vector."""
    return dot(probe_vector(params, newcomer_id), helper.vector)


def phase1_messages(plan: RepairPlan, helpers: Mapping[int, NodeContent],
                    params: CodeParams) -> list[Phase1Message]:
    """Helper-side driver: compute the symbol for every planned edge."""
    out = []
    for h, nc, _ in plan.phase1_edges:
        if h not in helpers:
            raise MissingMessage(f"no content supplied for helper {h}")
        out.append(Phase1Message(h, nc, phase1_symbol(helpers[h], nc, params)))
    return out


def _index_messages(plan: RepairPlan,
                    phase1: Sequence[Phase1Message]) -> dict[tuple[int, int], FieldElement]:
    seen: dict[tuple[int, int], FieldElement] = {}
    for m in phase1:
        key = (m.sender, m.receiver)
        if key in seen and seen[key] != m.symbol:
            raise MissingMessage(f"conflicting duplicate message on edge {key}")
        seen[key] = m.symbol
    for h, nc, _ in plan.phase1_edges:
        if (h, nc) not in seen:
            raise MissingMessage(f"phase-1 edge {h} -> {nc} has no message")
    return seen
def _tally(plan: RepairPlan, phase1: Sequence[Phase1Message],
           phase2: Sequence[Phase2Message], params: CodeParams) -> BandwidthReport:
    downloaded = Counter(m.receiver for m in phase1)
    exchanged = Counter(m.receiver for m in phase2)
    rows = tuple(NewcomerBandwidth(nc, downloaded[nc], exchanged[nc])
                 for nc in plan.newcomers)
    optimal = optimal_bandwidth(params.block_size, params.k,
                                len(plan.helpers), len(plan.newcomers))
    return BandwidthReport(rows, optimal, all(r.gamma == optimal for r in rows))


@dataclass(frozen=True)
class _GroupSide:
    """One orientation of the code's primal/dual symmetry.

    Parity-node repair runs on (U, P, V_hat, delta, epsilon) with raw
    inner products coming from the systematic side; systematic-node repair
    is the mirror image on (V, Q, U_hat, delta', epsilon') with raw inner
    products coming from the parity side.  Mixed-pair repair also needs the
    other side's basis (dual) and the inverse of the mixing matrix (unmix).
    """

    probes: Matrix
    mix: Matrix
    hat: Matrix
    dual: Matrix
    unmix: Matrix
    delta: FieldElement
    epsilon: FieldElement
    raw_node: Callable[[int], int]    # 1-based basis index -> node id
    coded_node: Callable[[int], int]  # 1-based basis index -> node id
    index_of: Callable[[int], int]    # newcomer node id -> 1-based basis index


def _parity_side(params: CodeParams) -> _GroupSide:
    k = params.k
    return _GroupSide(params.u, params.p, params.v_hat, params.v, params.q,
                      params.delta, params.epsilon,
                      raw_node=lambda l: l,
                      coded_node=lambda j: k + j,
                      index_of=lambda nid: nid - k)


def _systematic_side(params: CodeParams) -> _GroupSide:
    k = params.k
    return _GroupSide(params.v, params.q, params.u_hat, params.u, params.p,
                      params.delta_prime, params.epsilon_prime,
                      raw_node=lambda l: k + l,
                      coded_node=lambda j: j,
                      index_of=lambda nid: nid)


def _repair_group(plan: RepairPlan, phase1: Sequence[Phase1Message],
                  params: CodeParams, side: _GroupSide):
    """Shared core of one-sided group repair.

    For newcomer with basis index i, writing s_l for the raw-side phase-1
    symbols and t_j for the coded-side ones:

        w_i          = sum_l mix[l][i] * s_l
        w_j (helper) = (t_j - epsilon * sum_l mix[l][j] * s_l) / delta
        w_j (failed) = received in phase 2 from the newcomer of index j,
                       who computes it as sum_l mix[l][i'] * s_l of its own

    then probes^t z = w is solved and the content is
    delta * (hat @ s) + epsilon * z.
    """
    k, spec = params.k, params.field
    msgs = _index_messages(plan, phase1)
    failed_idx = {side.index_of(nc) for nc in plan.newcomers}

    def raw_symbols(nc: int) -> list[FieldElement]:
        return [msgs[(side.raw_node(l), nc)] for l in range(1, k + 1)]

    def mix_combo(col: int, s: Sequence[FieldElement]) -> FieldElement:
        acc = 0
        for l in range(k):
            acc ^= spec.mul_int(side.mix.int_at(l, col), s[l].value)
        return FieldElement(acc, spec)

    phase2 = []
    for sender, receiver in plan.phase2_edges:
        s = raw_symbols(sender)
        phase2.append(Phase2Message(sender, receiver,
                                    mix_combo(side.index_of(receiver) - 1, s)))
    exchanged = {(m.sender, m.receiver): m.symbol for m in phase2}

    probe_t = side.probes.transpose()
    results = []
    for nc in plan.newcomers:
        i = side.index_of(nc)
        s = raw_symbols(nc)
        w: list[FieldElement] = [spec.zero] * k
        w[i - 1] = mix_combo(i - 1, s)
        for j in range(1, k + 1):
            if j == i:
                continue
            if j in failed_idx:
                w[j - 1] = exchanged[(side.coded_node(j), nc)]
            else:
                t_j = msgs[(side.coded_node(j), nc)]
                w[j - 1] = (t_j - side.epsilon * mix_combo(j - 1, s)) / side.delta
        try:
            z = solve_vector(probe_t, w)
        except SingularMatrix as exc:
            raise SolveFailure("probe vectors are not independent") from exc
        aligned = side.hat @ Matrix.column(s)
        content = tuple(side.delta * aligned.at(t, 0) + side.epsilon * z[t]
                        for t in range(k))
        results.append(NodeContent(nc, content))
    return results, phase2, _tally(plan, phase1, phase2, params)


def repair_parity_group(plan: RepairPlan, phase1: Sequence[Phase1Message],
                        params: CodeParams):
    """Repair r failed parity nodes; returns (contents, phase-2 msgs, report)."""
    if plan.pattern.kind != ParityGroup:
        raise ValueError(f"plan is for {plan.pattern.kind}, not {ParityGroup}")
    return _repair_group(plan, phase1, params, _parity_side(params))


def repair_systematic_group(plan: RepairPlan, phase1: Sequence[Phase1Message],
                            params: CodeParams):
    """Repair r failed systematic nodes; mirror image of the parity case."""
    if plan.pattern.kind != SystematicGroup:
        raise ValueError(f"plan is for {plan.pattern.kind}, not {SystematicGroup}")
    return _repair_group(plan, phase1, params, _systematic_side(params))


# -- mixed systematic + parity pair ------------------------------------------------


def _leading_coeff(side: _GroupSide, s: int, t: int) -> FieldElement:
    """epsilon - (epsilon + delta) * mix_st * unmix_ts."""
    return (side.epsilon - (side.epsilon + side.delta)
            * side.mix.at(s - 1, t - 1) * side.unmix.at(t - 1, s - 1))


def _mixed_matrix(params: CodeParams, side: _GroupSide, s: int, t: int) -> Matrix:
    """The k x k system newcomer raw_node(s) solves when coded_node(t) also failed.

    Row 1 is c0 probe_t^t + delta mix_st dual_s^t, the remaining rows are
    delta probe_j^t + epsilon mix_sj dual_s^t for j != t.
    """
    k = params.k
    c0 = _leading_coeff(side, s, t)
    probe_t = side.probes.col(t - 1)
    dual_s = side.dual.col(s - 1)
    m_st = side.mix.at(s - 1, t - 1)
    rows = [[c0 * probe_t[x] + side.delta * m_st * dual_s[x] for x in range(k)]]
    for j in range(1, k + 1):
        if j == t:
            continue
        probe_j = side.probes.col(j - 1)
        m_sj = side.mix.at(s - 1, j - 1)
        rows.append([side.delta * probe_j[x] + side.epsilon * m_sj * dual_s[x]
                     for x in range(k)])
    return Matrix.from_rows(rows)


def mixed_repair_matrix(params: CodeParams, a: int, b: int) -> Matrix:
    """The k x k system newcomer a solves against x_a.

    Row 1 is (epsilon - (epsilon+delta) p_ab q_ba) u_b^t + delta p_ab v_a^t,
    the remaining rows are delta u_j^t + epsilon p_aj v_a^t for j != b.
    """
    return _mixed_matrix(params, _parity_side(params), a, b)


def check_mixed_matrix(params: CodeParams, a: int, b: int) -> bool:
    """Direct determinant test of the mixed-repair system for (a, b)."""
    return mixed_repair_matrix(params, a, b).det().value != 0


def sherman_morrison_scalar(params: CodeParams, a: int, b: int) -> FieldElement:
    """The rank-one-update decision scalar 1 + h^t A^-1 g.

    The mixed-repair matrix factors through C = A + g h^t with
    A = diag(c0, delta, ..., delta), g = (delta p_ab; epsilon p_a,l!=b) and
    h = (q_ba; q_l!=b,a); C is nonsingular iff this scalar is nonzero.
    Requires the leading diagonal c0 to be nonzero (the other branch of the
    case split is handled by :func:`sherman_morrison_check`).
    """
    k = params.k
    c0 = _leading_coeff(_parity_side(params), a, b)
    if not c0:
        raise ValueError("leading diagonal entry is zero; scalar branch inapplicable")
    p_ab = params.p.at(a - 1, b - 1)
    q_ba = params.q.at(b - 1, a - 1)
    acc = params.field.one + q_ba * (params.delta * p_ab / c0)
    inv_delta = params.delta.inverse()
    for l in range(1, k + 1):
        if l == b:
            continue
        q_la = params.q.at(l - 1, a - 1)
        p_al = params.p.at(a - 1, l - 1)
        acc = acc + q_la * (params.epsilon * p_al * inv_delta)
    return acc


def sherman_morrison_check(params: CodeParams, a: int, b: int) -> bool:
    """Nonsingularity of the mixed-repair system via the factored form.

    Writing the matrix as C @ (permuted U^t): when the leading diagonal of
    the rank-one decomposition vanishes, C row-reduces to delta * p_ab * v_a^t
    stacked over delta * u_j^t (j != b), which is tested directly; otherwise
    the Sherman-Morrison scalar decides.
    """
    c0 = _leading_coeff(_parity_side(params), a, b)
    if not c0:
        if not params.delta or not params.p.at(a - 1, b - 1):
            return False
        k = params.k
        rows = [list(params.v.col(a - 1))]
        rows += [list(params.u.col(j - 1)) for j in range(1, k + 1) if j != b]
        return Matrix.from_rows(rows).det().value != 0
    return bool(sherman_morrison_scalar(params, a, b))


def repair_mixed_pair(plan: RepairPlan, phase1: Sequence[Phase1Message],
                      params: CodeParams):
    """Repair systematic node a and parity node k+b together.

    Phase 2 carries one combination each way.  Newcomer k+b sends

        sum_{j!=b} q_ja (u_b^t y_j) + (delta+epsilon) q_ba sum_{i!=a} p_ib (u_b^t x_i)
          = delta v_a^t z_b + (epsilon - (epsilon+delta) p_ab q_ba) u_b^t x_a

    and newcomer a sends the mirror combination

        sum_{j!=a} p_jb (v_a^t x_j) + (delta'+epsilon') p_ab sum_{i!=b} q_ia (v_a^t y_i)
          = delta' u_b^t z'_a + (epsilon' - (epsilon'+delta') q_ba p_ab) v_a^t y_b.

    Each newcomer subtracts its known phase-1 terms and solves its k x k
    mixed-repair system.  The two halves are one computation in the two
    orientations of :class:`_GroupSide`: newcomer a solves on the parity
    side with (s, t) = (a, b), newcomer k+b on the systematic side with
    (s, t) = (b, a).
    """
    if plan.pattern.kind != MixedPair:
        raise ValueError(f"plan is for {plan.pattern.kind}, not {MixedPair}")
    k = params.k
    a, b = plan.pattern.mixed_pair
    msgs = _index_messages(plan, phase1)
    phase2, pair = [], []
    for side, s, t in ((_parity_side(params), a, b), (_systematic_side(params), b, a)):
        solver, sender = side.raw_node(s), side.coded_node(t)
        raw = [l for l in range(1, k + 1) if l != s]
        coded = [j for j in range(1, k + 1) if j != t]
        mix_col = {j: [side.mix.at(l - 1, j - 1) for l in raw] for j in range(1, k + 1)}

        # The sender combines its own phase-1 symbols only.
        sent_raw = [msgs[(side.raw_node(l), sender)] for l in raw]
        sent_coded = [msgs[(side.coded_node(j), sender)] for j in coded]
        lead = (side.delta + side.epsilon) * side.unmix.at(t - 1, s - 1)
        symbol = (dot([side.unmix.at(j - 1, s - 1) for j in coded], sent_coded)
                  + lead * dot(mix_col[t], sent_raw))
        phase2.append(Phase2Message(sender, solver, symbol))

        # The solver peels the known raw-side terms off and inverts its system.
        own_raw = [msgs[(side.raw_node(l), solver)] for l in raw]
        own_coded = [msgs[(side.coded_node(j), solver)] for j in coded]
        rhs = [symbol - side.delta * dot(mix_col[t], own_raw)]
        rhs += [y - side.epsilon * dot(mix_col[j], own_raw)
                for j, y in zip(coded, own_coded)]
        try:
            solved = solve_vector(_mixed_matrix(params, side, s, t), rhs)
        except SingularMatrix as exc:
            raise NonsingularityFailure(
                f"mixed system of newcomer {solver} for (a={a}, b={b}) singular") from exc
        pair.append(NodeContent(solver, tuple(solved)))
    return tuple(pair), phase2, _tally(plan, phase1, phase2, params)


def apply_repair(plan: RepairPlan, phase1: Sequence[Phase1Message],
                 params: CodeParams):
    """Dispatch on the plan's pattern kind; contents come back in id order."""
    kind = plan.pattern.kind
    if kind == ParityGroup:
        return repair_parity_group(plan, phase1, params)
    if kind == SystematicGroup:
        return repair_systematic_group(plan, phase1, params)
    pair, phase2, report = repair_mixed_pair(plan, phase1, params)
    return list(pair), phase2, report
