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
that are rows of E coefficients: `apply_repair` is E = 1, the reference, and
`linear_map` is one run on the E unit rows, the bulk map of every block.
The proof that the mixed-pair system is nonsingular is checked in `tests/paper_proof.py`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .codec import NodeContent
from .galois import FieldElement
from .linalg import Matrix, SingularMatrix, dot
from .params import CodeParams, Side

Rows = Mapping[tuple[int, int], Sequence[int]]  # (sender, receiver) -> E coefficients

__all__ = [
    "BandwidthReport",
    "FailurePattern",
    "InvalidRegime",
    "MixedPair",
    "Message",
    "MissingMessage",
    "NewcomerBandwidth",
    "NonsingularityFailure",
    "ParityGroup",
    "RepairPlan",
    "SystematicGroup",
    "UnsupportedPattern",
    "apply_repair",
    "linear_map",
    "optimal_bandwidth",
    "phase1_messages",
    "phase1_symbol",
    "plan_repair",
    "probe_vector",
]


class UnsupportedPattern(ValueError):
    """A failure set this construction cannot repair."""


class MissingMessage(ValueError):
    """A planned repair edge has no message."""


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
    phase1_edges: tuple[tuple[int, int], ...]  # (helper, newcomer)
    phase2_edges: tuple[tuple[int, int], ...]  # (sender, receiver)


@dataclass(frozen=True)
class Message:
    """One symbol on one repair edge, in either phase."""

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


def probe_vector(params: CodeParams, node_id: int) -> tuple[FieldElement, ...]:
    """The inner-product vector helpers use for this newcomer."""
    if not 1 <= node_id <= params.n:
        raise ValueError(f"node id {node_id} outside 1..{params.n}")
    side = params.parity_side if node_id > params.k else params.systematic_side
    return side.probes.col(node_id - side.base - 1)


def plan_repair(pattern: FailurePattern, params: CodeParams) -> RepairPlan:
    """Lay out all phase-1 and phase-2 edges for a classified failure."""
    if pattern.k != params.k:
        raise ValueError(f"pattern is for k={pattern.k}, params have k={params.k}")
    newcomers = tuple(sorted(pattern.failed))
    helpers = tuple(i for i in range(1, params.n + 1) if i not in pattern.failed)
    phase1 = tuple((h, nc) for nc in newcomers for h in helpers)
    phase2 = tuple((s, r) for s in newcomers for r in newcomers if s != r)
    return RepairPlan(pattern, newcomers, helpers, phase1, phase2)


def phase1_symbol(helper: NodeContent, newcomer_id: int,
                  params: CodeParams) -> FieldElement:
    """One phase-1 symbol: probe of the newcomer dotted with the helper vector."""
    return dot(probe_vector(params, newcomer_id), helper.vector)


def phase1_messages(plan: RepairPlan, helpers: Mapping[int, NodeContent],
                    params: CodeParams) -> list[Message]:
    """Helper-side driver: compute the symbol for every planned edge."""
    out = []
    for h, nc in plan.phase1_edges:
        if h not in helpers:
            raise MissingMessage(f"no content supplied for helper {h}")
        out.append(Message(h, nc, phase1_symbol(helpers[h], nc, params)))
    return out


def _index_messages(plan: RepairPlan,
                    phase1: Sequence[Message]) -> dict[tuple[int, int], FieldElement]:
    seen: dict[tuple[int, int], FieldElement] = {}
    for m in phase1:
        key = (m.sender, m.receiver)
        if key in seen and seen[key] != m.symbol:
            raise MissingMessage(f"conflicting duplicate message on edge {key}")
        seen[key] = m.symbol
    for h, nc in plan.phase1_edges:
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


def _received(plan: RepairPlan, rows: Rows, params: CodeParams, side: Side,
              receiver: int) -> tuple[Matrix, Matrix]:
    """k x E raw-side and coded-side phase-1 rows of receiver: row l - 1 from node off + l, or 0."""
    zero = [0] * len(rows[(plan.helpers[0], receiver)])
    return tuple(Matrix(params.field, [rows[off + l, receiver] if off + l in plan.helpers else zero
                                       for l in range(1, params.k + 1)])
                 for off in (params.k - side.base, side.base))


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
    side = params.parity_side if plan.pattern.kind == ParityGroup else params.systematic_side
    spec, mix_t = params.field, side.mix.transpose()
    inbox = {nc: _received(plan, rows, params, side, nc) for nc in plan.newcomers}
    combos = {nc: mix_t @ s for nc, (s, _) in inbox.items()}
    phase2 = {(a, b): combos[a].int_rows()[b - side.base - 1] for a, b in plan.phase2_edges}
    probes_t, inv_delta = side.probes.transpose(), side.delta.inverse()
    contents = []
    for nc in plan.newcomers:
        (s, t), c, i = inbox[nc], combos[nc], nc - side.base
        w = (t + c.scalar_mul(side.epsilon)).scalar_mul(inv_delta).int_rows()
        w[i - 1] = c.int_rows()[i - 1]
        for a in plan.newcomers:
            if a != nc:
                w[a - side.base - 1] = phase2[(a, nc)]
        # V and U = VP (P Cauchy) are singular together, and then building the side
        # already raised SingularMatrix inverting Vt or Ut: this solve cannot fail.
        z = probes_t.solve(Matrix(spec, w))
        contents.append((side.hat @ s).scalar_mul(side.delta) + z.scalar_mul(side.epsilon))
    return contents, phase2


# -- mixed systematic + parity pair ------------------------------------------------


def _leading_coeff(side: Side, s: int, t: int) -> FieldElement:
    """epsilon - (epsilon + delta) * mix_st * unmix_ts."""
    return (side.epsilon - (side.epsilon + side.delta)
            * side.mix.at(s - 1, t - 1) * side.unmix.at(t - 1, s - 1))


def _mixed_matrix(params: CodeParams, side: Side, s: int, t: int) -> Matrix:
    """The k x k system raw node k - base + s solves when coded node base + t also failed.

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


def _mixed_rows(plan: RepairPlan, rows: Rows, params: CodeParams):
    """Repair systematic node a and parity node k+b together, on rows of E coefficients.

    Phase 2 carries one combination each way.  Newcomer k+b sends

        sum_{j!=b} q_ja (u_b^t y_j) + (delta+epsilon) q_ba sum_{i!=a} p_ib (u_b^t x_i)
          = delta v_a^t z_b + (epsilon - (epsilon+delta) p_ab q_ba) u_b^t x_a

    and newcomer a sends the mirror combination

        sum_{j!=a} p_jb (v_a^t x_j) + (delta'+epsilon') p_ab sum_{i!=b} q_ia (v_a^t y_i)
          = delta' u_b^t z'_a + (epsilon' - (epsilon'+delta') q_ba p_ab) v_a^t y_b.

    Each newcomer subtracts its known phase-1 terms and solves its k x k
    mixed-repair system.  The two halves are one computation on the two
    sides of the code: newcomer a solves on the parity side with
    (s, t) = (a, b), newcomer k+b on the systematic side with (s, t) = (b, a).
    Rows from the two newcomers are zero, so sums over all of X or Y skip them.
    """
    a, b = plan.pattern.mixed_pair
    phase2, contents = {}, []
    for side, s, t in ((params.parity_side, a, b), (params.systematic_side, b, a)):
        solver, sender = params.k - side.base + s, side.base + t

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


def _run(plan: RepairPlan, rows: Rows, params: CodeParams, downloaded: Counter):
    """The plan's core on rows: (k x E contents in newcomer order, phase-2 rows, report)."""
    core = _mixed_rows if plan.pattern.kind == MixedPair else _group_rows
    contents, sent = core(plan, rows, params)
    return contents, sent, _tally(plan, downloaded, Counter(b for _, b in sent), params)


def linear_map(plan: RepairPlan, params: CodeParams):
    """The repair as one linear map of the phase-1 symbols: (rows, report).

    Entry [x][e] of rows weighs the symbol on edge plan.phase1_edges[e] in
    coordinate x % k of newcomer plan.newcomers[x // k].  One run of the
    core with the message on edge e the e-th unit row; the report is the
    per-block tally of one message per planned edge.
    """
    edges = plan.phase1_edges
    unit = {edge: [int(e == f) for f in range(len(edges))] for e, edge in enumerate(edges)}
    contents, _, report = _run(plan, unit, params, Counter(nc for _, nc in edges))
    return [row for c in contents for row in c.int_rows()], report


def apply_repair(plan: RepairPlan, phase1: Sequence[Message], params: CodeParams):
    """The reference protocol: (contents in id order, phase-2 messages, report).

    It runs the plan's core with E = 1, so each message's symbol is its row.
    """
    rows = {edge: [sym.value] for edge, sym in _index_messages(plan, phase1).items()}
    contents, sent, report = _run(plan, rows, params, Counter(m.receiver for m in phase1))
    phase2 = [Message(a, b, FieldElement(row[0], params.field)) for (a, b), row in sent.items()]
    return [NodeContent(nc, c.col(0)) for nc, c in zip(plan.newcomers, contents)], phase2, report
