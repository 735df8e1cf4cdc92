"""Deterministic in-memory storage cluster simulator.

A stream of n bytes is ceil(n / (B*w)) blocks of B = k^2 symbols of w bytes, each encoded
independently.  Node j keeps its share bit-sliced: k*m rows of uint64 words, plane l*m + b
holding bit b of coordinate l, block 64q + t at bit t of word q.  The 2k nodes are row blocks
of one (2*k*k*m, words) array of little-endian words, the node store: its first half is the
zero-padded stream (the systematic nodes' planes in order), its second the parity planes.
The store is the only node state: `Cluster.planes` is a node's rows, a failed node keeps
its rows but joins `Cluster.failed`, and a repair writes its newcomers over their rows.
Ingest copies the stream in and encodes in place, a decode reads the nodes into the bytes it
returns, and a node's words are its shard.  `block_count`, `plane_words` and `shard_bytes`
are the one home of this layout, for the store and for the CLI's v4 shards.

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
    "block_count",
    "decode_nodes",
    "load_scenario",
    "plane_words",
    "run_scenario",
    "shard_bytes",
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
_RANDBYTES_MAX = (1 << 28) - 1  # randbytes(n) draws 8n bits as one C int; past it, in chunks


def _windows(words: int) -> list[slice]:
    """ceil(words / _WINDOW_WORDS) word windows of one width, the last one shorter (no words:
    one empty window)."""
    step = -(-words // max(1, -(-words // _WINDOW_WORDS))) or 1
    return [slice(q, min(q + step, words)) for q in range(0, max(words, 1), step)]


def block_count(length: int, params: CodeParams) -> int:
    """Blocks of B symbols in a `length`-byte stream, the last one zero-padded."""
    return -(-length // (params.block_size * params.field.symbol_bytes))


def plane_words(length: int, params: CodeParams) -> int:
    """Words in each bit plane of a `length`-byte stream, a word per 64 blocks (m = 8 or 16)."""
    spec = params.field
    if spec.degree != 8 * spec.symbol_bytes:  # the planes would hold fewer bytes than blocks
        raise ValueError(f"byte data needs field degree 8 or 16, not {spec.degree}")
    return -(-block_count(length, params) // 64)


def shard_bytes(length: int, params: CodeParams) -> int:
    """Bytes of a node's k*m planes, its v4 shard, for a `length`-byte stream."""
    return 8 * params.k * params.field.degree * plane_words(length, params)


def decode_nodes(ids, fill, params: CodeParams, original_length: int) -> bytearray:
    """Rebuild the byte stream from exactly k nodes `ids`: a bytearray of k shards' bytes
    (`shard_bytes`), whole words, whose first `original_length` bytes are the stream.

    fill(nid, out) writes node nid's planes into `out`, its (k, m, words) block of z in the
    stream (`codec.slots`): a systematic node's own, a parity node's a missing one's.  Per
    word window, one kernel call reads z in place and its missing coordinates
    (`codec.collection_matrix`) are copied over the parity planes.  Any k nodes decode
    without error: callers check outside bytes.  fill returns None or a check, which raises
    if the bytes it filled are bad; every check is called after the first window's kernel
    call and before any decoded window is written over a filled slot (or before returning,
    when none is), in slot order, so a check may still be reading its slot until then.
    """
    ids = tuple(sorted(ids))
    if len(ids) != params.k:
        raise NotEnoughLiveNodes(f"need exactly k={params.k} nodes, got {len(ids)}")
    k, m, spec = params.k, params.field.degree, params.field
    missing, rows = codec.collection_matrix(ids, params)
    buf = bytearray(k * shard_bytes(original_length, params))
    flat = np.frombuffer(buf, "<u8").reshape(k * k * m, -1)
    coord = flat.reshape(k * k, m, -1)  # [a*k + b]: X[b][a], coordinate b of node a+1
    checks = [fill(nid, coord[b * k:(b + 1) * k]) for b, nid in enumerate(codec.slots(ids, k))]
    if missing:
        plan = spec.plan(rows.array)
        for w in _windows(flat.shape[1]):  # a window's rows, fresh, then over the parity planes
            fresh = spec.scale_array(plan, flat[:, w]).reshape(len(missing), m, -1)
            _settle(checks)  # after the first window's kernel call, before any write
            coord[missing, :, w] = fresh
            del fresh  # before the next window's call: one window of output at a time
    _settle(checks)
    return buf


def _settle(checks: list) -> None:
    """Call each check a fill returned (None: nothing to check), then empty the list."""
    for check in checks:
        if check is not None:
            check()
    checks.clear()


class Cluster:
    """2k nodes, many blocks, scripted failures, verified repairs."""

    def __init__(self, params: CodeParams, store: np.ndarray, original_length: int,
                 oracle: np.ndarray | None):
        self.params, self.original_length, self.oracle = params, original_length, oracle
        shape = (2 * params.block_size * params.field.degree,
                 plane_words(original_length, params))
        if not isinstance(store, np.ndarray) or store.dtype != "<u8" or store.shape != shape:
            raise ValueError(f"node store must be a {shape} array of '<u8' words")
        self.store = store  # rows j*k*m.. are node j+1's: the padded stream, then the parity
        self.failed: set[int] = set()  # ids of the nodes whose data is gone

    # -- construction -----------------------------------------------------------

    @classmethod
    def ingest(cls, data: bytes, params: CodeParams,
               keep_oracle: bool = True) -> "Cluster":
        """Place a stream on 2k nodes (m = 8 or 16): one padded copy, sliced, and one encode."""
        violations = params_mod.validate(params)  # else a fault shows only when a repair fails
        if violations:
            raise ValueError("invalid params: " + "; ".join(map(str, violations)))
        k, spec = params.k, params.field
        rows, words = k * spec.degree, plane_words(len(data), params)
        store = np.empty((2 * k * rows, words), dtype="<u8")  # one block, reused put to put
        stream, parity = store[:k * rows], store[k * rows:]  # a node per k*m rows of each half
        flat = stream.reshape(-1).view(np.uint8)
        flat[:len(data)], flat[len(data):] = np.frombuffer(data, dtype=np.uint8), 0
        plan = spec.plan(codec.encode_matrix(params).array)  # y = E x, node-major
        for w in _windows(words):
            spec.scale_array(plan, stream[:, w], out=list(parity[:, w]))
        oracle = store.copy() if keep_oracle else None
        return cls(params, store, len(data), oracle)

    # -- queries ---------------------------------------------------------------

    @property
    def nblocks(self) -> int:
        return block_count(self.original_length, self.params)

    def planes(self, node_id: int, store: np.ndarray | None = None) -> np.ndarray:
        """Node node_id's k*m planes: a view of its rows of the store (or of `store`)."""
        rows = self.params.k * self.params.field.degree
        return (self.store if store is None else store)[(node_id - 1) * rows:node_id * rows]

    def node_symbols_bytes(self, node_id: int) -> bytes:
        """The node's v4 shard payload (a copy): its planes as little-endian uint64 words."""
        if not 1 <= node_id <= self.params.n or node_id in self.failed:
            raise NotEnoughLiveNodes(f"node {node_id} is not live")
        return self.planes(node_id).tobytes()

    # -- operations --------------------------------------------------------------

    def extract(self, from_nodes) -> bytearray:
        """Rebuild the ingested stream (a bytearray) from any k live nodes."""
        ids = sorted(set(from_nodes))
        for nid in ids:
            if not 1 <= nid <= self.params.n or nid in self.failed:
                raise NotEnoughLiveNodes(f"node {nid} is not live")
        data = decode_nodes(ids, lambda nid, out: np.copyto(
            out, self.planes(nid).reshape(out.shape)), self.params, self.original_length)
        del data[self.original_length:]  # trimmed in place: the tail is the pad blocks
        return data

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
        self.failed |= nodes
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
        spec, plan = self.params.field, repair.plan_repair(pattern, self.params)
        r, d, m, words = len(plan.newcomers), len(plan.helpers), spec.degree, self.store.shape[1]
        windows = _windows(words)
        phase1 = np.empty((r, d, m, windows[0].stop), dtype=np.uint64)  # newcomer-major edges
        probes = spec.plan([[e.value for e in repair.probe_vector(self.params, nc)]
                            for nc in plan.newcomers])
        rows, report = repair.linear_map(plan, self.params)
        mix, dst = spec.plan(rows.array), [p for nc in plan.newcomers for p in self.planes(nc)]
        for w in windows:
            edges = phase1[..., :w.stop - w.start]
            for i, helper in enumerate(plan.helpers):
                spec.scale_array(probes, self.planes(helper)[:, w],
                                 out=[p for edge in edges[:, i] for p in edge])
            spec.scale_array(mix, edges.reshape(r * d * m, -1), out=[p[w] for p in dst])
        self.failed.clear()  # the newcomers' rows are written
        if self.oracle is not None:
            for nc in plan.newcomers:
                if not np.array_equal(self.planes(nc), self.planes(nc, self.oracle)):
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
                rng = random.Random(json_int(rnd.get("seed", 0), "data.random.seed"))
                n, step = json_int(rnd["bytes"], "data.random.bytes"), _RANDBYTES_MAX
                if n < 0:  # randbytes refuses it too, but with OverflowError below -2^28
                    raise ValueError(f"malformed scenario: data.random.bytes {n} is negative")
                data = b"".join(rng.randbytes(min(step, n - i)) for i in range(0, max(n, 1), step))
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
        if scenario.verify_mode == "mds_also" and not all(  # every k nodes, repaired, extract it
                cluster.extract(ids) == scenario.data
                for ids in combinations(range(1, scenario.params.n + 1), scenario.params.k)):
            entry.exact = False
            entry.error = "conservation check failed"
            ok = False
            break
    extracted_ok = (not cluster.failed
                    and cluster.extract(range(1, scenario.params.k + 1)) == scenario.data)
    return ScenarioResult(steps, extracted_ok, ok and extracted_ok)
