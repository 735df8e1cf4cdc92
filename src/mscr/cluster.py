"""Deterministic in-memory storage cluster simulator.

A byte stream is zero-padded to whole chunks of k^2 symbols, each chunk is
encoded independently, and node j's share of every chunk is kept as one
numpy array of shape (blocks, k).  Multi-block operations reuse one plan
or decoder across all blocks: the per-block protocol is linear in the
symbols on the wire, so the simulator probes the scalar implementation
with unit inputs once and then applies the resulting matrix to every block
at once.  Results are bit-identical to running the per-block functions in
a loop, which the test suite checks.

The oracle (a copy of the original node contents) exists for verification
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
from .params import CodeParams

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


# -- symbol <-> byte plumbing -------------------------------------------------------


def bytes_to_symbols(data: bytes, spec: FieldSpec) -> np.ndarray:
    width = spec.symbol_bytes
    if len(data) % width:
        data = data + b"\x00" * (width - len(data) % width)
    return np.frombuffer(data, dtype=spec.dtype).copy()


def symbols_to_bytes(arr: np.ndarray, spec: FieldSpec) -> bytes:
    return arr.astype(spec.dtype).tobytes()


def _apply_rows(spec: FieldSpec, rows: list[list[int]],
                inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Apply a fixed matrix of field constants to per-block symbol arrays.

    inputs[j] holds one symbol per block; output i is
    xor_j rows[i][j] * inputs[j], vectorized over blocks.
    """
    nblocks = inputs[0].shape[0] if inputs else 0
    out = []
    for row in rows:
        acc = np.zeros(nblocks, dtype=spec.dtype)
        for c, arr in zip(row, inputs):
            if c:
                acc ^= spec.scale_array(c, arr)
        out.append(acc)
    return out


def decode_nodes(arrays: dict[int, np.ndarray], params: CodeParams,
                 original_length: int) -> bytes:
    """Rebuild the byte stream from exactly k per-node symbol arrays.

    Each array has shape (blocks, k).  The reconstruction is re-encoded and
    compared against the inputs, mirroring the per-block residual check.
    """
    k, spec = params.k, params.field
    ids = tuple(sorted(arrays))
    if len(ids) != k:
        raise NotEnoughLiveNodes(f"need exactly k={k} nodes, got {len(ids)}")
    nblocks = arrays[ids[0]].shape[0]

    if ids == tuple(range(1, k + 1)):
        xb = np.stack([arrays[c + 1] for c in range(k)], axis=2)  # (blocks, k, k)
    else:
        decoder = codec.collection_matrix(ids, params).invert()
        inputs = [arrays[nid][:, coord] for nid in ids for coord in range(k)]
        vec = _apply_rows(spec, decoder.int_rows(), inputs)
        xb = np.empty((nblocks, k, k), dtype=spec.dtype)
        for r in range(k):
            for c in range(k):
                xb[:, r, c] = vec[r * k + c]
        # Residual check: re-encoding must reproduce every provided vector.
        enc = codec.encode_matrix(params).int_rows()
        xin = [xb[:, r, c] for r in range(k) for c in range(k)]
        yvec = _apply_rows(spec, enc, xin)
        for nid in ids:
            for coord in range(k):
                got = (xb[:, coord, nid - 1] if nid <= k
                       else yvec[coord * k + (nid - k - 1)])
                if not np.array_equal(got, arrays[nid][:, coord]):
                    raise codec.InconsistentContents(
                        f"content of node {nid} is outside the code image")

    data = symbols_to_bytes(xb.reshape(nblocks * k * k), spec)
    return data[:original_length]


class Cluster:
    """2k nodes, many blocks, scripted failures, verified repairs."""

    def __init__(self, params: CodeParams, node_data: list[np.ndarray | None],
                 nblocks: int, original_length: int,
                 oracle: list[np.ndarray] | None):
        self.params = params
        self.node_data = node_data
        self.nblocks = nblocks
        self.original_length = original_length
        self.oracle = oracle
        self.failed: set[int] = {i + 1 for i, d in enumerate(node_data) if d is None}

    # -- construction -----------------------------------------------------------

    @classmethod
    def ingest(cls, data: bytes, params: CodeParams,
               keep_oracle: bool = True) -> "Cluster":
        """Chunk, zero-pad, encode and place a byte stream on 2k nodes."""
        k, spec = params.k, params.field
        symbols = bytes_to_symbols(data, spec)
        chunk = params.block_size
        if symbols.size % chunk:
            pad = chunk - symbols.size % chunk
            symbols = np.concatenate([symbols, np.zeros(pad, dtype=spec.dtype)])
        nblocks = symbols.size // chunk
        xb = symbols.reshape(nblocks, k, k)

        node_data: list[np.ndarray | None] = [xb[:, :, j].copy() for j in range(k)]
        enc = codec.encode_matrix(params).int_rows()
        xin = [xb[:, r, c] for r in range(k) for c in range(k)]
        yvec = _apply_rows(spec, enc, xin)
        for c in range(k):
            node_data.append(np.stack([yvec[r * k + c] for r in range(k)], axis=1))

        oracle = [d.copy() for d in node_data] if keep_oracle else None
        return cls(params, node_data, nblocks, len(data), oracle)

    # -- queries ---------------------------------------------------------------

    @property
    def live_nodes(self) -> list[int]:
        return [i for i in range(1, self.params.n + 1) if i not in self.failed]

    def node_symbols_bytes(self, node_id: int) -> bytes:
        """Raw shard payload: the node's symbols, block-major."""
        data = self.node_data[node_id - 1]
        if data is None:
            raise NotEnoughLiveNodes(f"node {node_id} is failed")
        return symbols_to_bytes(data.reshape(-1), self.params.field)

    def block_content(self, node_id: int, block: int) -> codec.NodeContent:
        """Scalar view of one node's share of one block."""
        data = self.node_data[node_id - 1]
        if data is None:
            raise NotEnoughLiveNodes(f"node {node_id} is failed")
        spec = self.params.field
        return codec.NodeContent(
            node_id, tuple(spec.element(int(v)) for v in data[block]))

    # -- operations --------------------------------------------------------------

    def extract(self, from_nodes) -> bytes:
        """Rebuild the ingested stream from any k live nodes."""
        ids = sorted(set(from_nodes))
        if len(ids) != self.params.k:
            raise NotEnoughLiveNodes(
                f"need exactly k={self.params.k} distinct nodes, got {sorted(from_nodes)}")
        for nid in ids:
            if not 1 <= nid <= self.params.n or self.node_data[nid - 1] is None:
                raise NotEnoughLiveNodes(f"node {nid} is not live")
        arrays = {nid: self.node_data[nid - 1] for nid in ids}
        return decode_nodes(arrays, self.params, self.original_length)

    def fail(self, nodes) -> "Cluster":
        """Erase the given live nodes' contents; the oracle is untouched."""
        nodes = set(nodes)
        if not nodes:
            return self
        for nid in nodes:
            if not 1 <= nid <= self.params.n:
                raise ValueError(f"node id {nid} outside 1..{self.params.n}")
            if nid in self.failed:
                raise AlreadyFailed(f"node {nid} is already failed")
        if len(self.failed | nodes) > self.params.k:
            raise TooManyFailures(
                f"{len(self.failed | nodes)} failures exceed the tolerance k={self.params.k}")
        for nid in nodes:
            self.node_data[nid - 1] = None
            self.failed.add(nid)
        return self

    def run_repair(self, pattern: repair.FailurePattern):
        """Run the two-phase protocol across all blocks; verify against the oracle.

        Returns (self, per-block BandwidthReport).  Phase-1 symbols are
        computed per edge for all blocks at once; reconstruction applies the
        plan's linear map (derived from the scalar protocol) to all blocks.
        """
        if pattern.failed != frozenset(self.failed):
            raise ValueError(
                f"pattern {sorted(pattern.failed)} does not match failed set {sorted(self.failed)}")
        spec = self.params.field
        plan = repair.plan_repair(pattern, self.params)

        k = self.params.k
        phase1_arrays = []
        for helper, newcomer, _ in plan.phase1_edges:
            probe = [e.value for e in repair.probe_vector(self.params, newcomer)]
            data = self.node_data[helper - 1]
            phase1_arrays += _apply_rows(spec, [probe], [data[:, l] for l in range(k)])

        rows, report = _linear_repair_map(plan, self.params)
        outs = _apply_rows(spec, rows, phase1_arrays)
        for idx, nc in enumerate(plan.newcomers):
            self.node_data[nc - 1] = np.stack(
                [outs[idx * k + t] for t in range(k)], axis=1)
            self.failed.discard(nc)

        if self.oracle is not None:
            for nc in plan.newcomers:
                if not np.array_equal(self.node_data[nc - 1], self.oracle[nc - 1]):
                    raise VerificationFailure(
                        f"repaired node {nc} differs from its original content")
        return self, report


def _linear_repair_map(plan: repair.RepairPlan, params: CodeParams):
    """Matrix of the map (phase-1 symbols) -> (all newcomer contents).

    Obtained by running the scalar repair on each unit phase-1 vector; the
    protocol is linear in its inputs, so the columns are exactly these
    probe results.  The report of a probe run carries the per-block
    message tallies, identical for every block.
    """
    spec = params.field
    edges = plan.phase1_edges
    report = None
    cols: list[list[int]] = []
    for m in range(len(edges)):
        msgs = [repair.Phase1Message(h, nc, spec.one if t == m else spec.zero)
                for t, (h, nc, _) in enumerate(edges)]
        contents, _, rep = repair.apply_repair(plan, msgs, params)
        cols.append([sym.value for c in contents for sym in c.vector])
        report = rep
    rows = [[cols[j][i] for j in range(len(edges))]
            for i in range(len(plan.newcomers) * params.k)]
    return rows, report


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
        base = Path(base_dir)
        if "params" in doc:
            ref = doc["params"]
            if isinstance(ref, str):
                code_params = params_mod.load(base / ref)
            else:
                code_params = params_mod.from_document(ref)
        elif "k" in doc:
            degree = int(doc.get("field", {}).get("degree", 8))
            poly_text = doc.get("field", {}).get("reduction_poly")
            spec = FieldSpec(degree, int(poly_text, 16) if poly_text else None)
            code_params = params_mod.generate(int(doc["k"]), spec,
                                              seed=int(doc.get("seed", 0)))
        else:
            raise ValueError("scenario names neither 'k' nor 'params'")
        data_doc = doc["data"]
        if "path" in data_doc:
            data = (base / data_doc["path"]).read_bytes()
        else:
            rnd = data_doc["random"]
            data = random.Random(int(rnd.get("seed", 0))).randbytes(int(rnd["bytes"]))
        steps = [frozenset(int(i) for i in step["fail"]) for step in doc.get("steps", [])]
        verify = doc.get("verify", "exact")
        if verify not in ("exact", "mds_also"):
            raise ValueError(f"unknown verify mode {verify!r}")
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
    for subset in combinations(cluster.live_nodes, cluster.params.k):
        if cluster.extract(subset) != data:
            return False
    return True


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
