"""Deterministic in-memory storage cluster simulator.

A stream of n bytes is ceil(n / (B*w)) blocks of B = k^2 symbols of w bytes,
each encoded independently.  Node j keeps its share bit-sliced: a (k*m, words)
uint64 array whose plane l*m + b holds bit b of coordinate l, block 64q + t at
bit t of word q.  The zero-padded stream is the systematic nodes' planes in
order, as little-endian words: ingest slices them from one copy of it, a decode
reads the nodes into the bytes it returns, and a v4 shard is a node's words.
`bytes_to_planes` and `planes_to_bytes` convert the block-major bytes of v1-v3
(block p is bytes p*B*w onwards) for the CLI's reading of such directories.

Every operation is a fixed linear map, planned once (:meth:`FieldSpec.plan`) and
applied by the one kernel, :meth:`FieldSpec.scale_array`, to one word window of at
most _WINDOW_WORDS words at a time: the encode matrix, the decoder rows of the
columns a node set misses (`codec.collection_matrix`), and the repair probes and
map (`repair.linear_map`).  Results are bit-identical to the per-block functions.

The oracle (a copy of the original node contents) exists for verification
only; repair logic never sees it, and a production-mode cluster drops it.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from . import codec, params as params_mod, repair
from .galois import FieldSpec
from .params import CodeParams, json_int

__all__ = [
    "AlreadyFailed",
    "Cluster",
    "NotEnoughLiveNodes",
    "Scenario",
    "ScenarioResult",
    "StepReport",
    "TooManyFailures",
    "VerificationFailure",
    "decode_nodes",
    "load_scenario",
    "run_scenario",
]


class NotEnoughLiveNodes(ValueError):
    """Extraction asked for nodes that are failed, duplicated or too few."""


class AlreadyFailed(ValueError):
    """A node in the failure request is already failed."""


class TooManyFailures(ValueError):
    """More than k nodes would be failed; data would be unrecoverable."""


class VerificationFailure(RuntimeError):
    """Repaired contents differ from the oracle: an implementation bug."""


# -- block-major bytes <-> bit planes (v1-v3 directories) ------------------------------

_CHUNK_BYTES = 1 << 19  # bytes a pass: buffers stay small; 128 KiB made 8 MiB ~25% slower


def _swap8(x: np.ndarray, t: np.ndarray) -> None:
    """In place with scratch t (half of x): bit j of row i of x's 8 rows becomes bit i of row j."""
    for shift, mask in (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333), (1, 0x5555555555555555):
        # HD 7-3 across arrays: rows i and i + shift swap off-diagonal blocks, half the data each
        a, b = x.reshape(8 // (2 * shift), 2, -1).swapaxes(0, 1)
        d = t[:a.size].reshape(a.shape)
        np.bitwise_and(np.bitwise_xor(np.right_shift(a, shift, out=d), b, out=d), mask, out=d)
        b ^= d
        a ^= np.left_shift(d, shift, out=d)


def _passes(row: int, words: int):
    """(q, n, s, swap) per pass of at most _CHUNK_BYTES; s is the slab of words q..q+n.

    s[i, c, g] is byte c of block 8g + i; after swap() (`_swap8`), s[b, c, g] is
    byte g of plane 8c + b.  Rows are 8 bytes longer than s: a power-of-two stride
    made the transposing copies ~2x slower."""
    step = max(1, min(words, _CHUNK_BYTES // (64 * row)))
    slab, scratch = (np.empty(size * row * (step + 1), dtype=np.uint64) for size in (8, 4))
    for q in range(0, words, step):
        n = min(step, words - q)
        x = slab[:8 * row * (n + 1)]
        yield q, n, x.view(np.uint8).reshape(8, row, -1)[..., :8 * n], partial(_swap8, x, scratch)


def bytes_to_planes(data: bytes, spec: FieldSpec, symbols: int) -> np.ndarray:
    """Block-major bytes, `symbols` symbols a block, to zero-padded (symbols*m, words) planes."""
    if spec.degree != 8 * spec.symbol_bytes:  # some byte patterns would be no symbol
        raise ValueError(f"byte data needs field degree 8 or 16, not {spec.degree}")
    row = symbols * spec.symbol_bytes
    words = -(-len(data) // (64 * row))
    out = np.empty((8 * row, words), dtype=np.uint64)
    dst, src = out.view(np.uint8).reshape(row, 8, 8 * words), np.frombuffer(data, dtype=np.uint8)
    tile = max(1, (1 << 15) // (8 * row))  # groups a copy: 32 KiB of source stays in L1
    for q, n, s, swap in _passes(row, words):
        part = src[64 * row * q:64 * row * (q + n)]
        full = part.size // (8 * row)  # whole groups of 8 blocks
        groups, head = part[:8 * row * full].reshape(full, 8, row), s[..., :full]
        for g in range(0, full, tile):  # the one transposing copy
            head[..., g:g + tile] = groups[g:g + tile].transpose(1, 2, 0)
        if full < 8 * n:  # a short last pass: a partial group, then pad blocks
            tail, s[..., full + 1:] = part[8 * row * full:], 0
            s[..., full] = np.pad(tail, (0, 8 * row - tail.size)).reshape(8, row)
        swap()
        dst[..., 8 * q:8 * (q + n)] = s.transpose(1, 0, 2)  # [byte c, bit b, group g]
    return out


def planes_to_bytes(planes: np.ndarray, nbytes: int) -> bytearray:
    """The first `nbytes` block-major bytes (a bytearray) of planes; column c is planes 8c..8c+7."""
    row, words = planes.shape[0] // 8, planes.shape[1]
    src = np.ascontiguousarray(planes).view(np.uint8).reshape(row, 8, 8 * words)  # [c, bit, g]
    buf = bytearray(64 * words * row)
    out = np.frombuffer(buf, dtype=np.uint8).reshape(8 * words, 8, row)  # [group, block, byte]
    for q, n, s, swap in _passes(row, words):
        s[:] = src[..., 8 * q:8 * (q + n)].swapaxes(0, 1)  # each column's 8 planes, contiguous rows
        swap()
        out[8 * q:8 * (q + n)] = s.transpose(2, 0, 1)  # the one transposing copy
    del out, buf[nbytes:]  # trimmed in place: the tail is the pad blocks
    return buf


_WINDOW_WORDS = 8192  # most words a kernel call covers: the best of 2304-16384 in a sweep


def _windows(words: int) -> list[slice]:
    """ceil(words / _WINDOW_WORDS) word windows of one width, the last one shorter (no words:
    one empty window)."""
    step = -(-words // max(1, -(-words // _WINDOW_WORDS))) or 1
    return [slice(q, min(q + step, words)) for q in range(0, max(words, 1), step)]


def decode_nodes(ids, fill, params: CodeParams, original_length: int,
                 node_major: bool = True) -> bytearray:
    """Rebuild the byte stream (a bytes-like bytearray) from exactly k nodes `ids`.

    fill(nid, out) writes node nid's planes into `out`, a (k, m, words) slot of the stream (for
    v1-v3, of vec(X)-ordered planes for `planes_to_bytes`): a systematic node's own, a parity
    node's a missing one's.  Per word window, one kernel call reads the slots in place and its
    missing coordinates (`codec.collection_matrix`) are copied over the parity planes.  Any k
    nodes decode without error: callers check outside bytes first.
    """
    ids = tuple(sorted(ids))
    if len(ids) != params.k:
        raise NotEnoughLiveNodes(f"need exactly k={params.k} nodes, got {len(ids)}")
    k, m, spec = params.k, params.field.degree, params.field
    words = -(-original_length // (64 * params.block_size * spec.symbol_bytes))
    missing, rows = codec.collection_matrix(ids, params)
    buf = bytearray(8 * k * k * m * words)
    flat = np.frombuffer(buf, "<u8").reshape(k * k * m, words)  # stream or vec(X) order
    coord = flat.reshape(k, k, m, words).swapaxes(0, 1 - node_major)  # [j, l]: X[l][j]
    slots = [j for j in range(k) if j + 1 in ids] + [j for j in range(k) if j + 1 not in ids]
    for nid, j in zip(ids, slots):  # ids in order: the systematic ones, then the parity ones
        fill(nid, coord[j])
    if rows:  # columns in buffer order: the set's coordinate p*k + l is at[slots[p], l]
        at = np.arange(k * k).reshape(k, k).swapaxes(0, 1 - node_major)  # row blocks, as coord
        plan = spec.plan(np.array(rows)[:, np.argsort(at[slots].ravel())])
        js, ls = [t % k for t in missing], [t // k for t in missing]  # t is X[t // k][t % k]
        for w in _windows(words):  # a window's rows, fresh, then over the parity planes
            coord[js, ls, :, w] = spec.scale_array(plan, flat[:, w]).reshape(len(rows), m, -1)
    if not node_major:
        return planes_to_bytes(flat, original_length)
    del flat, coord, buf[original_length:]  # trimmed in place: the tail is the pad blocks
    return buf


class Cluster:
    """2k nodes, many blocks, scripted failures, verified repairs."""

    def __init__(self, params: CodeParams, stream: np.ndarray, parity: list[np.ndarray],
                 nblocks: int, original_length: int, oracle: list[np.ndarray] | None):
        self.params = params
        self.stream = stream  # the padded stream: its rows j*k*m.. are systematic node j+1
        self.node_data: list[np.ndarray | None] = [*np.split(stream, params.k), *parity]
        self.nblocks = nblocks
        self.original_length = original_length
        self.oracle = oracle

    # -- construction -----------------------------------------------------------

    @classmethod
    def ingest(cls, data: bytes, params: CodeParams,
               keep_oracle: bool = True) -> "Cluster":
        """Place a stream on 2k nodes (m = 8 or 16): one padded copy, sliced, and one encode."""
        violations = params_mod.validate(params)  # else a fault shows only when a repair fails
        if violations:
            raise ValueError("invalid params: " + "; ".join(map(str, violations)))
        k, spec = params.k, params.field
        if spec.degree != 8 * spec.symbol_bytes:  # the planes would hold fewer bytes than blocks
            raise ValueError(f"byte data needs field degree 8 or 16, not {spec.degree}")
        nblocks = -(-len(data) // (params.block_size * spec.symbol_bytes))
        rows, words = k * spec.degree, -(-nblocks // 64)
        parity = [np.empty((rows, words), dtype=np.uint64) for _ in range(k)]
        stream = np.empty((k * rows, words), dtype="<u8")  # the systematic nodes' planes
        flat = stream.reshape(-1).view(np.uint8)
        flat[:len(data)], flat[len(data):] = np.frombuffer(data, dtype=np.uint8), 0
        # vec(Y) = E vec(X); E[r*k + c][b*k + a] maps X[b][a] to Y[r][c], coordinate r of
        # node k+c+1 from coordinate b of node a+1: rows and columns taken node-major.
        enc = np.array(codec.encode_matrix(params).int_rows(), dtype=np.uint32)
        plan = spec.plan(enc.reshape((k,) * 4).transpose(1, 0, 3, 2).reshape(k * k, k * k))
        for w in _windows(words):
            spec.scale_array(plan, stream[:, w], out=[p[w] for d in parity for p in d])
        oracle = [*np.split(stream.copy(), k), *map(np.copy, parity)] if keep_oracle else None
        return cls(params, stream, parity, nblocks, len(data), oracle)

    # -- queries ---------------------------------------------------------------

    @property
    def failed(self) -> set[int]:
        """Ids of the nodes whose data is gone."""
        return {i + 1 for i, d in enumerate(self.node_data) if d is None}

    @property
    def live_nodes(self) -> list[int]:
        return [i + 1 for i, d in enumerate(self.node_data) if d is not None]

    def node_symbols_bytes(self, node_id: int) -> bytes:
        """The node's v4 shard payload (a copy): its planes as little-endian uint64 words."""
        data = self.node_data[node_id - 1]
        if data is None:
            raise NotEnoughLiveNodes(f"node {node_id} is failed")
        return data.astype("<u8", copy=False).tobytes()

    # -- operations --------------------------------------------------------------

    def extract(self, from_nodes) -> bytearray:
        """Rebuild the ingested stream (a bytearray) from any k live nodes."""
        ids = sorted(set(from_nodes))
        for nid in ids:
            if not 1 <= nid <= self.params.n or self.node_data[nid - 1] is None:
                raise NotEnoughLiveNodes(f"node {nid} is not live")
        return decode_nodes(ids, lambda nid, out: np.copyto(
            out, self.node_data[nid - 1].reshape(out.shape)), self.params, self.original_length)

    def fail(self, nodes) -> "Cluster":
        """Erase the given live nodes' contents; the oracle is untouched."""
        nodes, failed = set(nodes), self.failed
        if not nodes:
            return self
        for nid in nodes:
            if not 1 <= nid <= self.params.n:
                raise ValueError(f"node id {nid} outside 1..{self.params.n}")
            if nid in failed:
                raise AlreadyFailed(f"node {nid} is already failed")
        if len(failed | nodes) > self.params.k:
            raise TooManyFailures(
                f"{len(failed | nodes)} failures exceed the tolerance k={self.params.k}")
        for nid in nodes:
            self.node_data[nid - 1] = None
        return self

    def run_repair(self, pattern: repair.FailurePattern):
        """Run the two-phase protocol across all blocks; verify against the oracle.

        Returns (self, per-block BandwidthReport).  Per word window, phase 1 is
        one kernel call per helper (its newcomers' probes on its planes) into a
        window's buffer, and phase 2 one call for all newcomers from it:
        `repair.linear_map`, one run of the protocol on coefficient rows.
        """
        if pattern.failed != self.failed:
            raise ValueError(
                f"pattern {sorted(pattern.failed)} does not match failed set {sorted(self.failed)}")
        k, spec, plan = self.params.k, self.params.field, repair.plan_repair(pattern, self.params)
        r, d, m, words = len(plan.newcomers), len(plan.helpers), spec.degree, -(-self.nblocks // 64)
        # Arrays that outlive the call come before its temporaries, so that freeing those leaves
        # no holes and does not trim the heap; a systematic newcomer's are its stream rows.
        repaired = [np.empty((k * m, words), dtype=np.uint64) if nc > k
                    else self.stream[(nc - 1) * k * m:nc * k * m] for nc in plan.newcomers]
        windows = _windows(words)
        phase1 = np.empty((r, d, m, windows[0].stop), dtype=np.uint64)  # newcomer-major edges
        probes = spec.plan([[e.value for e in repair.probe_vector(self.params, nc)]
                            for nc in plan.newcomers])
        rows, report = repair.linear_map(plan, self.params)
        mix, dst = spec.plan(rows), [p for a in repaired for p in a]
        for w in windows:
            edges = phase1[..., :w.stop - w.start]
            for i, helper in enumerate(plan.helpers):
                spec.scale_array(probes, self.node_data[helper - 1][:, w],
                                 out=[p for edge in edges[:, i] for p in edge])
            spec.scale_array(mix, edges.reshape(r * d * m, -1), out=[p[w] for p in dst])
        for nc, a in zip(plan.newcomers, repaired):
            self.node_data[nc - 1] = a

        if self.oracle is not None:
            for nc in plan.newcomers:
                if not np.array_equal(self.node_data[nc - 1], self.oracle[nc - 1]):
                    raise VerificationFailure(
                        f"repaired node {nc} differs from its original content")
        return self, report


# -- scenarios ---------------------------------------------------------------------


@dataclass
class Scenario:
    """A scripted simulation: parameters, data source, failure steps."""

    params: CodeParams
    data: bytes
    steps: list[frozenset[int]]
    verify_mode: str = "exact"

    @staticmethod
    def from_document(doc: dict, base_dir: str | Path = ".") -> "Scenario":
        """Build a scenario from its JSON form; a malformed one raises ValueError."""
        base = Path(base_dir)
        try:
            if "params" in doc:
                ref = doc["params"]
                if isinstance(ref, str):
                    code_params = params_mod.load(base / ref)
                else:
                    code_params = params_mod.from_document(ref)
            elif "k" in doc:
                degree = json_int(doc.get("field", {}).get("degree", 8), "field.degree")
                poly_text = doc.get("field", {}).get("reduction_poly")
                spec = FieldSpec(degree, int(poly_text, 16) if poly_text else None)
                code_params = params_mod.generate(json_int(doc["k"], "k"), spec,
                                                  seed=json_int(doc.get("seed", 0), "seed"))
            else:
                raise ValueError("scenario names neither 'k' nor 'params'")
            data_doc = doc["data"]
            if "path" in data_doc:
                data = (base / data_doc["path"]).read_bytes()
            else:
                rnd = data_doc["random"]
                seed = json_int(rnd.get("seed", 0), "data.random.seed")
                data = random.Random(seed).randbytes(json_int(rnd["bytes"], "data.random.bytes"))
            fails = [step["fail"] for step in doc.get("steps", [])]
            if any(type(fail) is not list for fail in fails):
                raise TypeError("each step's fail must be a list of node ids")
            steps = [frozenset(json_int(nid, "fail id") for nid in fail) for fail in fails]
            verify = doc.get("verify", "exact")
            if verify not in ("exact", "mds_also"):
                raise ValueError(f"unknown verify mode {verify!r}")
        except (LookupError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed scenario: {type(exc).__name__}: {exc}") from None
        return Scenario(code_params, data, steps, verify)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return Scenario.from_document(json.loads(path.read_text()), path.parent)


@dataclass
class StepReport:
    failed: tuple[int, ...]
    kind: str | None
    rows: list[dict]
    optimal_gamma: str
    blocks: int
    exact: bool
    optimal: bool
    error: str | None = None


@dataclass
class ScenarioResult:
    steps: list[StepReport]
    extracted_ok: bool
    ok: bool

    def to_document(self) -> dict:
        return asdict(self)


def _conservation_holds(cluster: Cluster, data: bytes) -> bool:
    """Extraction from every k-subset of live nodes reproduces the stream."""
    k_sets = combinations(cluster.live_nodes, cluster.params.k)
    return all(cluster.extract(s) == data for s in k_sets)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Fail and repair per script; verify per the scenario's mode."""
    cluster = Cluster.ingest(scenario.data, scenario.params, keep_oracle=True)
    steps: list[StepReport] = []
    ok = True
    for failed in scenario.steps:
        entry = StepReport(tuple(sorted(failed)), None, [], "", cluster.nblocks,
                           exact=False, optimal=False)
        steps.append(entry)
        try:
            cluster.fail(failed)
            pattern = repair.FailurePattern.classify(failed, scenario.params.k)
            entry.kind = pattern.kind
            _, report = cluster.run_repair(pattern)
        except (repair.UnsupportedPattern, VerificationFailure, AlreadyFailed,
                TooManyFailures) as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
            ok = False
            break
        entry.exact = True  # run_repair verified against the oracle
        entry.optimal = report.is_optimal
        entry.optimal_gamma = str(report.optimal_gamma)
        entry.rows = report.to_document()["rows"]
        if not report.is_optimal:
            ok = False
        if scenario.verify_mode == "mds_also" and not _conservation_holds(
                cluster, scenario.data):
            entry.exact = False
            entry.error = "conservation check failed"
            ok = False
            break
    extracted_ok = (not cluster.failed
                    and cluster.extract(range(1, scenario.params.k + 1)) == scenario.data)
    return ScenarioResult(steps, extracted_ok, ok and extracted_ok)
