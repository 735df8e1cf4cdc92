"""Deterministic in-memory storage cluster simulator.

A stream of n bytes is ceil(n / (B*w)) blocks of B = k^2 symbols of w bytes, each encoded
independently.  Node j keeps its share bit-sliced: k*m rows of uint64 words, plane l*m + b
holding bit b of coordinate l, block 64q + t at bit t of word q.  The 2k nodes are row blocks
of one (2*k*k*m, words) array of little-endian words, the node store: its first half is the
zero-padded stream (the systematic nodes' planes in order), its second the parity planes.
Ingest copies the stream in and encodes in place, a decode reads the nodes into the bytes it
returns, a node's words are its shard, and a repair writes its newcomers over their rows.

Every operation is a fixed linear map, planned once (:meth:`FieldSpec.plan`) and
applied by the one kernel, :meth:`FieldSpec.scale_array`, to one word window of at
most _WINDOW_WORDS words at a time, in the codec's node-major order: the encode matrix,
the decoder rows of the coordinates a node set lacks (`codec.collection_matrix`), and the
repair probes and map (`repair.linear_map`).  Results are bit-identical to the per-block functions.

The oracle (a copy of the original node store) exists for verification
only; repair logic never sees it, and a production-mode cluster drops it.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
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


_WINDOW_WORDS = 8192  # most words a kernel call covers: the best of 2304-16384 in a sweep


def _windows(words: int) -> list[slice]:
    """ceil(words / _WINDOW_WORDS) word windows of one width, the last one shorter (no words:
    one empty window)."""
    step = -(-words // max(1, -(-words // _WINDOW_WORDS))) or 1
    return [slice(q, min(q + step, words)) for q in range(0, max(words, 1), step)]


def decode_nodes(ids, fill, params: CodeParams, original_length: int) -> bytearray:
    """Rebuild the byte stream (a bytes-like bytearray) from exactly k nodes `ids`.

    fill(nid, out) writes node nid's planes into `out`, its (k, m, words) block of z in the
    stream (`codec.slots`): a systematic node's own, a parity node's a missing one's.  Per
    word window, one kernel call reads z in place and its missing coordinates
    (`codec.collection_matrix`) are copied over the parity planes.  Any k nodes decode
    without error: callers check outside bytes first.
    """
    ids = tuple(sorted(ids))
    if len(ids) != params.k:
        raise NotEnoughLiveNodes(f"need exactly k={params.k} nodes, got {len(ids)}")
    k, m, spec = params.k, params.field.degree, params.field
    words = -(-original_length // (64 * params.block_size * spec.symbol_bytes))
    missing, rows = codec.collection_matrix(ids, params)
    buf = bytearray(8 * k * k * m * words)
    flat = np.frombuffer(buf, "<u8").reshape(k * k * m, words)
    coord = flat.reshape(k * k, m, words)  # [a*k + b]: X[b][a], coordinate b of node a+1
    for b, nid in enumerate(codec.slots(ids, k)):
        fill(nid, coord[b * k:(b + 1) * k])
    if rows:
        plan = spec.plan(rows)
        for w in _windows(words):  # a window's rows, fresh, then over the parity planes
            coord[missing, :, w] = spec.scale_array(plan, flat[:, w]).reshape(len(rows), m, -1)
    del flat, coord, buf[original_length:]  # trimmed in place: the tail is the pad blocks
    return buf


class Cluster:
    """2k nodes, many blocks, scripted failures, verified repairs."""

    def __init__(self, params: CodeParams, store: np.ndarray, original_length: int,
                 oracle: list[np.ndarray] | None):
        self.params, self.original_length, self.oracle = params, original_length, oracle
        shape = (2 * params.block_size * params.field.degree, -(-self.nblocks // 64))
        if not isinstance(store, np.ndarray) or store.dtype != "<u8" or store.shape != shape:
            raise ValueError(f"node store must be a {shape} array of '<u8' words")
        self.store = store  # rows j*k*m.. are node j+1's: the padded stream, then the parity
        self.node_data: list[np.ndarray | None] = np.split(store, params.n)

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
        rows, words = k * spec.degree, -(-len(data) // (64 * params.block_size * spec.symbol_bytes))
        store = np.empty((2 * k * rows, words), dtype="<u8")  # one block, reused put to put
        stream, parity = store[:k * rows], store[k * rows:]  # a node per k*m rows of each half
        flat = stream.reshape(-1).view(np.uint8)
        flat[:len(data)], flat[len(data):] = np.frombuffer(data, dtype=np.uint8), 0
        plan = spec.plan(codec.encode_matrix(params).int_rows())  # y = E x, node-major
        for w in _windows(words):
            spec.scale_array(plan, stream[:, w], out=list(parity[:, w]))
        oracle = np.split(store.copy(), 2 * k) if keep_oracle else None
        return cls(params, store, len(data), oracle)

    # -- queries ---------------------------------------------------------------

    @property
    def nblocks(self) -> int:  # blocks of B symbols, the last one zero-padded
        return -(-self.original_length // (self.params.block_size * self.params.field.symbol_bytes))

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
        return data.tobytes()

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
        """Mark the given live nodes lost; the oracle is untouched.  Their rows keep their bytes,
        but no extract or repair reads them: a repair writes its newcomers over them."""
        nodes, failed = set(nodes), self.failed
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
        r, d, m, words = len(plan.newcomers), len(plan.helpers), spec.degree, self.store.shape[1]
        repaired = [self.store[(nc - 1) * k * m:nc * k * m] for nc in plan.newcomers]
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
        ok = ok and report.is_optimal
        if scenario.verify_mode == "mds_also" and not all(  # every k live nodes extract it
                cluster.extract(ids) == scenario.data
                for ids in combinations(cluster.live_nodes, scenario.params.k)):
            entry.exact = False
            entry.error = "conservation check failed"
            ok = False
            break
    extracted_ok = (not cluster.failed
                    and cluster.extract(range(1, scenario.params.k + 1)) == scenario.data)
    return ScenarioResult(steps, extracted_ok, ok and extracted_ok)
