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
they never see survivor state or ground truth.  Their cores run on messages
that are rows of E coefficients: the scalar API is E = 1, the reference, and
`linear_map` is one run on the E unit rows, the bulk map of every block.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .codec import NodeContent
from .galois import FieldElement
from .linalg import Matrix, SingularMatrix, dot
from .params import CodeParams

Rows = Mapping[tuple[int, int], Sequence[int]]  # (sender, receiver) -> E coefficients

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
    "linear_map",
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


def _tally(plan: RepairPlan, downloaded: Counter, exchanged: Counter,
           params: CodeParams) -> BandwidthReport:
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


def _received(plan: RepairPlan, rows: Rows, params: CodeParams, side: _GroupSide,
              receiver: int) -> tuple[Matrix, Matrix]:
    """k x E raw-side and coded-side phase-1 rows of receiver: row l - 1 from node(l), or 0."""
    zero = [0] * len(rows[(plan.helpers[0], receiver)])
    return tuple(Matrix(params.field, [rows[node(l), receiver] if node(l) in plan.helpers else zero
                                       for l in range(1, params.k + 1)])
                 for node in (side.raw_node, side.coded_node))


def _group_rows(plan: RepairPlan, rows: Rows, params: CodeParams):
    """Shared core of one-sided group repair, on rows of E coefficients.

    For the newcomer with basis index i, S (k x E) holds its raw-side rows
    s_l, T its coded-side rows t_j (zero from newcomers), and C = mix^t S
    holds sum_l mix[l][j] s_l in row j.  The rows w_j of W are

        w_i          = C_i
        w_j (helper) = (t_j - epsilon * C_j) / delta
        w_j (failed) = received in phase 2 from the newcomer of index j,
                       who sends row i of its own C

    then probes^t Z = W is solved and the content is
    delta * (hat @ S) + epsilon * Z.
    """
    side = _parity_side(params) if plan.pattern.kind == ParityGroup else _systematic_side(params)
    spec, mix_t = params.field, side.mix.transpose()
    inbox = {nc: _received(plan, rows, params, side, nc) for nc in plan.newcomers}
    combos = {nc: mix_t @ s for nc, (s, _) in inbox.items()}
    phase2 = {(a, b): combos[a].int_rows()[side.index_of(b) - 1] for a, b in plan.phase2_edges}
    probes_t, inv_delta = side.probes.transpose(), side.delta.inverse()
    contents = []
    for nc in plan.newcomers:
        (s, t), c, i = inbox[nc], combos[nc], side.index_of(nc)
        w = (t + c.scalar_mul(side.epsilon)).scalar_mul(inv_delta).int_rows()
        w[i - 1] = c.int_rows()[i - 1]
        for a in plan.newcomers:
            if a != nc:
                w[side.index_of(a) - 1] = phase2[(a, nc)]
        try:
            z = probes_t.solve(Matrix(spec, w))
        except SingularMatrix as exc:
            raise SolveFailure("probe vectors are not independent") from exc
        contents.append((side.hat @ s).scalar_mul(side.delta) + z.scalar_mul(side.epsilon))
    return contents, phase2


def repair_parity_group(plan: RepairPlan, phase1: Sequence[Phase1Message],
                        params: CodeParams):
    """Repair r failed parity nodes; returns (contents, phase-2 msgs, report)."""
    return _repair_scalar(plan, phase1, params, ParityGroup)


def repair_systematic_group(plan: RepairPlan, phase1: Sequence[Phase1Message],
                            params: CodeParams):
    """Repair r failed systematic nodes; mirror image of the parity case."""
    return _repair_scalar(plan, phase1, params, SystematicGroup)


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


def _mixed_rows(plan: RepairPlan, rows: Rows, params: CodeParams):
    """Core of mixed-pair repair (see repair_mixed_pair) on rows of E coefficients.

    Rows from the two newcomers are zero, so sums over all of X or Y skip them.
    """
    a, b = plan.pattern.mixed_pair
    phase2, contents = {}, []
    for side, s, t in ((_parity_side(params), a, b), (_systematic_side(params), b, a)):
        solver, sender = side.raw_node(s), side.coded_node(t)

        # The sender combines its own phase-1 rows only.
        x, y = _received(plan, rows, params, side, sender)
        lead = (side.delta + side.epsilon) * side.unmix.at(t - 1, s - 1)
        sent = (Matrix.from_rows([side.unmix.col(s - 1)]) @ y
                + (Matrix.from_rows([side.mix.col(t - 1)]) @ x).scalar_mul(lead))
        phase2[(sender, solver)] = sent.int_rows()[0]

        # The solver peels the known raw-side terms off and inverts its system.
        x, y = _received(plan, rows, params, side, solver)
        c = side.mix.transpose() @ x
        rest = (y + c.scalar_mul(side.epsilon)).int_rows()
        first = sent + Matrix.from_rows([c.row(t - 1)]).scalar_mul(side.delta)
        try:
            contents.append(_mixed_matrix(params, side, s, t).solve(
                Matrix(params.field, first.int_rows() + rest[:t - 1] + rest[t:])))
        except SingularMatrix as exc:
            raise NonsingularityFailure(
                f"mixed system of newcomer {solver} for (a={a}, b={b}) singular") from exc
    return contents, phase2


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
    contents, phase2, report = _repair_scalar(plan, phase1, params, MixedPair)
    return tuple(contents), phase2, report


def _run(plan: RepairPlan, rows: Rows, params: CodeParams, downloaded: Counter):
    """The plan's core on rows: (k x E contents in newcomer order, phase-2 rows, report)."""
    core = _mixed_rows if plan.pattern.kind == MixedPair else _group_rows
    contents, sent = core(plan, rows, params)
    return contents, sent, _tally(plan, downloaded, Counter(b for _, b in sent), params)


def _repair_scalar(plan: RepairPlan, phase1: Sequence[Phase1Message], params: CodeParams,
                   kind: str):
    """The reference protocol: the core with E = 1, each message's symbol its row."""
    if plan.pattern.kind != kind:
        raise ValueError(f"plan is for {plan.pattern.kind}, not {kind}")
    rows = {edge: [sym.value] for edge, sym in _index_messages(plan, phase1).items()}
    contents, sent, report = _run(plan, rows, params, Counter(m.receiver for m in phase1))
    phase2 = [Phase2Message(a, b, FieldElement(row[0], params.field))
              for (a, b), row in sent.items()]
    return [NodeContent(nc, c.col(0)) for nc, c in zip(plan.newcomers, contents)], phase2, report


def linear_map(plan: RepairPlan, params: CodeParams):
    """The repair as one linear map of the phase-1 symbols: (rows, report).

    Entry [x][e] of rows weighs the symbol on edge plan.phase1_edges[e] in
    coordinate x % k of newcomer plan.newcomers[x // k].  One run of the
    core with the message on edge e the e-th unit row; the report is the
    per-block tally of one message per planned edge.
    """
    edges = plan.phase1_edges
    unit = {(h, nc): [int(e == f) for f in range(len(edges))]
            for e, (h, nc, _) in enumerate(edges)}
    contents, _, report = _run(plan, unit, params, Counter(nc for _, nc, _ in edges))
    return [row for c in contents for row in c.int_rows()], report


def apply_repair(plan: RepairPlan, phase1: Sequence[Phase1Message],
                 params: CodeParams):
    """Dispatch on the plan's pattern kind; contents come back in id order."""
    return _repair_scalar(plan, phase1, params, plan.pattern.kind)
