"""The three benchmark workloads, their operations and their output checks.

Each workload is a closed loop with one client in one thread: the next
operation starts only when the previous one has returned.  A workload runs
"cycles": one object goes through put (ingest or ``encode``), get (extract)
and repair (fail plus ``run_repair``, or ``simulate``).  All inputs come from
the ``--seed`` argument.

Checks run outside the timed region and never abort the run: an exception
or a wrong output marks the operation failed.  Gets are compared with the
bytes that were put; repaired shards with the benchmark's own copy taken
before the failure (clusters are built with ``keep_oracle=False``, so the
production path is the one timed); every bandwidth report row with
B(d+r-1)/(k(d+r-k)), recomputed here from k, d and r.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from mscr import cli
from mscr import params as params_mod
from mscr.cluster import Cluster
from mscr.galois import FieldSpec
from mscr.repair import FailurePattern

MiB = 1 << 20


def derived_seed(*parts) -> int:
    """A 31-bit seed fixed by the run seed and a label."""
    return random.Random(":".join(str(p) for p in parts)).getrandbits(31)


def optimal_gamma(k: int, r: int) -> Fraction:
    """Cooperative repair bound B(d+r-1)/(k(d+r-k)) with B = k^2, d = 2k - r."""
    d = 2 * k - r
    return Fraction(k * k * (d + r - 1), k * (d + r - k))


def nodeset_class(ids, k: int) -> str:
    parity = sum(1 for i in ids if i > k)
    return "systematic" if parity == 0 else "parity" if parity == len(ids) else "mixed"


@dataclass
class Op:
    kind: str                 # setup, put, get or repair
    seconds: float
    nbytes: int = 0           # user bytes put or got; lost shard bytes repaired
    label: str = ""           # node-set class of a get
    shard_bytes: int = 0
    traced: bool = False
    failed: bool = False


@dataclass
class Run:
    """Operations, checks and input statistics of one benchmark process."""

    tracer: object = None
    ops: list[Op] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    cycles: int = 0
    gammas: list[Fraction] = field(default_factory=list)
    gamma_ratios: list[Fraction] = field(default_factory=list)
    nodesets: list[bool] = field(default_factory=list)   # True = seen before
    patterns: list[bool] = field(default_factory=list)
    _seen: set = field(default_factory=set)

    def op(self, kind: str, fn, *args, nbytes: int = 0, label: str = "",
           shard_bytes: int = 0):
        """Time one operation; returns (record, result or None on exception)."""
        rec = Op(kind, 0.0, nbytes, label, shard_bytes, traced=self.tracer is not None)
        scope = self.tracer.op(kind) if self.tracer is not None else contextlib.nullcontext()
        result = None
        with scope:
            start = time.perf_counter()
            try:
                result = fn(*args)
            except (Exception, SystemExit) as exc:
                rec.failed = True
                self.error(f"{kind}: {type(exc).__name__}: {exc}")
            rec.seconds = time.perf_counter() - start
        self.ops.append(rec)
        return rec, result

    def check(self, rec: Op, ok: bool, what: str) -> bool:
        if not ok and not rec.failed:
            rec.failed = True
            self.error(f"{rec.kind}: {what}")
        return ok

    def error(self, text: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(text)

    def note(self, kind: str, params_key, ids) -> None:
        """Record whether this node set or failure pattern repeats on these params."""
        key = (kind, params_key, tuple(sorted(ids)))
        (self.nodesets if kind == "get" else self.patterns).append(key in self._seen)
        self._seen.add(key)

    def check_rows(self, rec: Op, rows, k: int, failed) -> None:
        """Every newcomer's symbol count must equal the recomputed bound."""
        bound = optimal_gamma(k, len(failed))
        got = sorted(int(row["newcomer"]) for row in rows)
        self.check(rec, got == sorted(failed), f"report rows {got} for failed {sorted(failed)}")
        for row in rows:
            gamma = Fraction(row["gamma"])
            self.gammas.append(gamma)
            self.gamma_ratios.append(gamma / bound)
            self.check(rec, gamma == bound,
                       f"newcomer {row['newcomer']} received {gamma} symbols, bound {bound}")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)


def make_params(k: int, degree: int, seed: int):
    """The set-up every workload pays: FieldSpec, generate, validate."""
    params = params_mod.generate(k, FieldSpec(degree), seed=seed)
    violations = params_mod.validate(params)
    if violations:
        raise ValueError(f"generated params violate {violations}")
    return params


class LibraryWorkload:
    """Shared put/get/repair steps on an in-memory :class:`Cluster`."""

    k = 0
    degree = 8

    def put(self, run: Run, data: bytes, params):
        ingest = functools.partial(Cluster.ingest, data, params, keep_oracle=False)
        rec, cluster = run.op("put", ingest, nbytes=len(data))
        return cluster if not rec.failed else None

    def get(self, run: Run, cluster, data: bytes, ids, params_key) -> None:
        run.note("get", params_key, ids)
        rec, out = run.op("get", cluster.extract, ids, nbytes=len(data),
                          label=nodeset_class(ids, self.k))
        if not rec.failed:
            run.check(rec, out == data, f"extract from {sorted(ids)} returned wrong bytes")

    def repair(self, run: Run, cluster, failed, params_key) -> None:
        run.note("repair", params_key, failed)
        before = {nid: cluster.node_symbols_bytes(nid) for nid in failed}
        lost = sum(len(b) for b in before.values())

        def fail_and_repair():
            cluster.fail(failed)
            return cluster.run_repair(FailurePattern.classify(failed, self.k))

        rec, result = run.op("repair", fail_and_repair, nbytes=lost,
                             shard_bytes=lost // len(failed))
        if rec.failed:
            return
        for nid, shard in before.items():
            run.check(rec, cluster.node_symbols_bytes(nid) == shard,
                      f"repaired node {nid} differs from its pre-failure copy")
        run.check_rows(rec, result[1].to_document()["rows"], self.k, failed)

    def setup(self, run: Run, seed: int):
        rec, params = run.op("setup", make_params, self.k, self.degree, seed)
        return params

    def close(self) -> None:
        pass


class CycleLoop:
    """Timed and traced loops for workloads whose unit of work is one cycle."""

    def run_timed(self, run: Run, seconds: float, between) -> None:
        """Whole cycles until `seconds` have passed; `between` runs after each."""
        deadline = time.perf_counter() + seconds
        cycle = 0
        while cycle == 0 or time.perf_counter() < deadline:
            self.cycle(run, derived_seed(self.seed_label, self.seed, cycle))
            between()
            cycle += 1

    def run_pass(self, run: Run, tag: str) -> None:
        self.cycle(run, derived_seed(self.seed_label, self.seed, tag))


class BulkWorkload(CycleLoop, LibraryWorkload):
    """One large random stream: put, get from each node-set class, repair each pattern."""

    name = "bulk-k3-gf8"
    seed_label = "bulk"
    k, degree = 3, 8
    node_sets = ((1, 2, 3), (1, 2, 4), (4, 5, 6))
    patterns = ((1,), (4,), (1, 2), (4, 5), (4, 5, 6), (1, 4))
    full_size = 8 * MiB
    setup_batches = (11, 20)  # batch processes per run, cold set-ups per batch

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.seed = seed
        self.size = 12 * 1024 if smoke else self.full_size
        self.data = random.Random(f"bulk:{seed}").randbytes(self.size)

    def sizes(self) -> dict:
        return {"stream_bytes": self.size, "k": self.k, "field_degree": self.degree,
                "node_sets": [list(s) for s in self.node_sets],
                "patterns": [list(p) for p in self.patterns]}

    def cycle(self, run: Run, params_seed: int) -> None:
        """Fresh params per cycle, so nothing repeats against a warm cache."""
        params = self.setup(run, params_seed)
        if params is None:
            return
        cluster = self.put(run, self.data, params)
        if cluster is None:
            return
        for ids in self.node_sets:
            self.get(run, cluster, self.data, ids, params_seed)
        for failed in self.patterns:
            self.repair(run, cluster, failed, params_seed)
        run.cycles += 1


class ObjectsWorkload(LibraryWorkload):
    """Many small objects on one shared parameter set, skewed gets and repairs."""

    name = "objects-k8-gf8"
    k, degree = 8, 8
    min_objects = 200       # at least 10 samples beyond each p95
    # Kinds per block of 20 objects, shuffled within the block, so every run
    # has the same mix.  "one_parity" is the systematic set with one node
    # swapped for a parity node; "uniform" is a uniform random k-set.  Mixed
    # pairs are 10% rather than 5%: at 5% the repair p95 sits on the edge
    # between the parity-pair and mixed-pair costs and jumps between them.
    get_deck = {"systematic": 8, "one_parity": 8, "uniform": 4}
    repair_deck = {"single": 13, "systematic_pair": 3, "parity_pair": 2, "mixed_pair": 2}
    objects_per_pass = 100  # traced runs: a fixed batch per pass
    setup_batches = (9, 2)

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.seed = seed
        self.low, self.high = (256, 2048) if smoke else (4 * 1024, 64 * 1024)
        if smoke:
            self.min_objects, self.objects_per_pass = 6, 4

    def sizes(self) -> dict:
        return {"object_bytes": [self.low, self.high], "k": self.k,
                "field_degree": self.degree, "min_objects": self.min_objects,
                "objects_per_traced_pass": self.objects_per_pass,
                "get_mix_per_20": self.get_deck, "repair_mix_per_20": self.repair_deck}

    def objects(self):
        """Endless seeded stream of (data, get node set, failure pattern)."""
        rng = random.Random(f"objects:{self.seed}")
        k, n = self.k, 2 * self.k
        systematic = list(range(1, k + 1))
        while True:
            gets = [kind for kind, count in self.get_deck.items() for _ in range(count)]
            repairs = [kind for kind, count in self.repair_deck.items() for _ in range(count)]
            rng.shuffle(gets)
            rng.shuffle(repairs)
            for get, repair in zip(gets, repairs):
                data = rng.randbytes(rng.randint(self.low, self.high))
                if get == "systematic":
                    ids = systematic
                elif get == "one_parity":
                    dropped = rng.randint(1, k)
                    ids = [i for i in systematic if i != dropped] + [rng.randint(k + 1, n)]
                else:
                    ids = rng.sample(range(1, n + 1), k)
                if repair == "single":
                    failed = (rng.randint(1, n),)
                elif repair == "systematic_pair":
                    failed = tuple(rng.sample(range(1, k + 1), 2))
                elif repair == "parity_pair":
                    failed = tuple(rng.sample(range(k + 1, n + 1), 2))
                else:
                    failed = (rng.randint(1, k), rng.randint(k + 1, n))
                yield data, tuple(ids), failed

    def one(self, run: Run, params, params_key, item) -> None:
        data, ids, failed = item
        cluster = self.put(run, data, params)
        if cluster is None:
            return
        self.get(run, cluster, data, ids, params_key)
        self.repair(run, cluster, failed, params_key)
        run.cycles += 1

    def run_timed(self, run: Run, seconds: float, between) -> None:
        """Objects until `seconds` have passed and at least `min_objects` ran."""
        params_seed = derived_seed("objects", self.seed)
        params = self.setup(run, params_seed)
        if params is None:
            return
        deadline = time.perf_counter() + seconds
        for count, item in enumerate(self.objects()):
            if count >= self.min_objects and time.perf_counter() >= deadline:
                break
            self.one(run, params, params_seed, item)
            between()

    def run_pass(self, run: Run, tag: str) -> None:
        """A fixed batch on fresh params, so no pass reuses another's per-parameter work."""
        params_seed = derived_seed("objects", self.seed, tag)
        params = self.setup(run, params_seed)
        if params is None:
            return
        stream = self.objects()
        for _ in range(self.objects_per_pass):
            self.one(run, params, params_seed, next(stream))


class CliWorkload(CycleLoop):
    """The ``mscr`` command line driven in-process on one file in GF(2^16)."""

    name = "cli-k4-gf16"
    seed_label = "cli"
    k, degree = 4, 16
    get_sets = ((1, 2, 5, 6), (5, 6, 7, 8))
    steps = ((1, 2), (5, 6, 7), (3, 8))   # systematic group, parity group, mixed pair
    full_size = 8 * MiB
    setup_batches = (11, 5)

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.seed = seed
        self.size = 12 * 1024 if smoke else self.full_size
        self.dir = work_dir / f"cli-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.data = random.Random(f"cli:{seed}").randbytes(self.size)
        self.input = self.dir / "input.bin"
        self.input.write_bytes(self.data)

    def sizes(self) -> dict:
        return {"file_bytes": self.size, "k": self.k, "field_degree": self.degree,
                "extract_node_sets": [list(s) for s in self.get_sets],
                "simulate_steps": [list(s) for s in self.steps]}

    @staticmethod
    def main(*argv) -> int:
        """Run one command with its console output captured."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main([str(a) for a in argv])

    def gen_params(self, run: Run, out: Path, seed: int) -> bool:
        rec, rc = run.op("setup", self.main, "gen-params", "--k", self.k,
                         "--field-degree", self.degree, "--seed", seed, "--out", out)
        return run.check(rec, rc == 0, f"gen-params exited {rc}")

    def encode(self, run: Run, params: Path, shards: Path) -> int:
        """Returns the shard size in bytes, or 0 if the command failed."""
        rec, rc = run.op("put", self.main, "encode", "--params", params, "--in",
                         self.input, "--out-dir", shards, nbytes=self.size)
        if not run.check(rec, rc == 0, f"encode exited {rc}"):
            return 0
        manifest = json.loads((shards / cli.MANIFEST_NAME).read_text())
        return (shards / manifest["shards"]["1"]).stat().st_size

    def extract(self, run: Run, params: Path, shards: Path, ids, params_key) -> None:
        run.note("get", params_key, ids)
        out = shards.parent / "extracted.bin"
        rec, rc = run.op("get", self.main, "extract", "--params", params, "--in-dir",
                         shards, "--nodes", ",".join(map(str, ids)), "--out", out,
                         nbytes=self.size, label=nodeset_class(ids, self.k))
        if run.check(rec, rc == 0, f"extract from {list(ids)} exited {rc}"):
            run.check(rec, out.read_bytes() == self.data,
                      f"extract from {list(ids)} returned wrong bytes")
        out.unlink(missing_ok=True)

    def simulate(self, run: Run, params: Path, shard_bytes: int, params_key) -> None:
        for failed in self.steps:
            run.note("repair", params_key, failed)
        cycle_dir = params.parent
        scenario = cycle_dir / "scenario.json"
        scenario.write_text(json.dumps({
            "params": params.name,
            "data": {"path": "../" + self.input.name},
            "steps": [{"fail": list(s)} for s in self.steps],
            "verify": "exact"}))
        report = cycle_dir / "report.json"
        lost = shard_bytes * sum(len(s) for s in self.steps)
        rec, rc = run.op("repair", self.main, "simulate", "--scenario", scenario,
                         "--report", report, nbytes=lost, shard_bytes=shard_bytes)
        if not run.check(rec, rc == 0, f"simulate exited {rc}"):
            return
        doc = json.loads(report.read_text())
        run.check(rec, doc.get("ok") is True, "simulate did not report ok")
        steps = doc.get("steps", [])
        run.check(rec, len(steps) == len(self.steps), "simulate report misses steps")
        for step, failed in zip(steps, self.steps):
            run.check(rec, step.get("exact") is True, f"step {list(failed)} not exact")
            run.check_rows(rec, step.get("rows", []), self.k, failed)

    def cycle(self, run: Run, params_seed: int) -> None:
        """Fresh params per cycle; caches warm only within the cycle's commands."""
        cycle_dir = self.dir / f"cycle-{params_seed}"
        cycle_dir.mkdir()
        try:
            params = cycle_dir / "params.json"
            if not self.gen_params(run, params, params_seed):
                return
            shards = cycle_dir / "shards"
            shard_bytes = self.encode(run, params, shards)
            if not shard_bytes:
                return
            for ids in self.get_sets:
                self.extract(run, params, shards, ids, params_seed)
            self.simulate(run, params, shard_bytes, params_seed)
            run.cycles += 1
        finally:
            shutil.rmtree(cycle_dir, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (BulkWorkload, ObjectsWorkload, CliWorkload)}


def setup_once(workload: str, seed: int, work_dir: Path) -> float:
    """One timed set-up as a user pays it; the set-up probe runs this in a fresh process."""
    cls = WORKLOADS[workload]
    if cls is CliWorkload:
        work_dir.mkdir(parents=True, exist_ok=True)
        out = work_dir / f"probe-params-{seed}.json"
        start = time.perf_counter()
        rc = CliWorkload.main("gen-params", "--k", cls.k, "--field-degree", cls.degree,
                              "--seed", seed, "--out", out)
        seconds = time.perf_counter() - start
        out.unlink(missing_ok=True)
        if rc != 0:
            raise RuntimeError(f"gen-params exited {rc}")
        return seconds
    start = time.perf_counter()
    make_params(cls.k, cls.degree, seed)
    return time.perf_counter() - start
