"""Command-line entry points: gen-params, encode, extract, simulate, validate-params.

Exit codes: 0 success, 1 verification or validation failure, 2 usage error.
Exit 2 comes from argparse: a bad option, and the ``parser.error`` calls of
``gen-params`` (arguments ``generate`` refuses) and ``extract`` (``--nodes``).
Each command lets OSError, ValueError, MemoryError and ``params.GenerationExhausted`` propagate,
and ``main`` alone turns them into one ``error:`` line and exit 1: a bad manifest, shard, params
or scenario, an input too large for memory, or an output that cannot be written.
``encode`` writes, and ``extract`` reads, manifest version 4 alone: a shard is the node's
bit planes (``Cluster.planes``) as little-endian uint64 words, node-major, so the systematic
shards in order are the zero-padded input; ``mscr.cluster`` alone sizes shards and blocks.
The manifest names each shard by a plain file name in its directory and holds the SHA-256 of
the params, of each shard and of the input; ``extract`` refuses one of another version or
without any of them.  Each ``encode`` and ``extract`` hashes shards on one worker thread
that calls only ``hashlib``, while the kernel runs: ``encode`` hashes the input and its
zero-padded runs (the systematic shards) during the ingest, and the parity shards while it
writes them; ``extract`` checks the params' digest before it reads any shard, hashes each
shard once it is read into the decode, which waits for those digests before it writes over
any shard, and checks the input's digest, on the main thread, before it writes the output.
All runs are reproducible from the seeds recorded in the files they read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import cluster as cluster_mod
from . import params as params_mod
from .galois import FieldSpec
from .params import json_int

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 4


def _parse_nodes(text: str) -> list[int]:
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse node list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mscr",
        description="Minimum-storage cooperative regenerating code: "
                    "parameter generation, sharding and repair simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-params", help="generate a parameter file")
    g.set_defaults(run=cmd_gen_params)
    g.add_argument("--k", type=int, required=True, help="systematic node count (2..8)")
    g.add_argument("--field-degree", type=int, default=8, help="symbol bits m (default 8)")
    g.add_argument("--reduction-poly", type=lambda s: int(s, 16), default=None,
                   help="irreducible polynomial as hex (default per degree)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-retries", type=int, default=1000)
    g.add_argument("--random-v", action="store_true",
                   help="use a random nonsingular V instead of the identity")
    g.add_argument("--out", required=True, help="output params file")

    e = sub.add_parser("encode", help="shard a file onto 2k per-node files")
    e.set_defaults(run=cmd_encode)
    e.add_argument("--params", required=True)
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--out-dir", required=True)

    x = sub.add_parser("extract", help="rebuild a file from any k shards")
    x.set_defaults(run=cmd_extract)
    x.add_argument("--params", required=True)
    x.add_argument("--in-dir", required=True, help="directory holding shards and manifest")
    x.add_argument("--nodes", type=_parse_nodes, required=True,
                   help="comma-separated node ids, e.g. 1,4,5")
    x.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="run a failure/repair scenario")
    s.set_defaults(run=cmd_simulate)
    s.add_argument("--scenario", required=True,
                   help="scenario file path or bundled name (e.g. six-node-all-pairs)")
    s.add_argument("--report", default=None, help="write the JSON report here")

    v = sub.add_parser("validate-params", help="check the conditions of a parameter file")
    v.set_defaults(run=cmd_validate_params)
    v.add_argument("--params", required=True)
    return parser


def _check_output(path: str) -> None:
    """Refuse, before any work, an output that is a directory or not in a writable one."""
    folder = Path(path).parent
    if Path(path).is_dir():
        raise OSError(f"cannot write {path}: it is a directory")
    if not folder.is_dir() or not os.access(folder, os.W_OK | os.X_OK):
        raise OSError(f"cannot write {path}: {folder} is not a writable directory")


def cmd_gen_params(args, parser) -> int:
    _check_output(args.out)
    try:
        spec = FieldSpec(args.field_degree, args.reduction_poly)
        code_params = params_mod.generate(args.k, spec, seed=args.seed,
                                          max_retries=args.max_retries,
                                          random_v=args.random_v)
    except ValueError as exc:  # k out of range, bad field, field too small
        parser.error(str(exc))
    params_mod.save(code_params, args.out)
    print(f"wrote {args.out}: k={code_params.k} n={code_params.n} "
          f"B={code_params.k ** 2} field=GF(2^{spec.degree}) seed={args.seed}")
    return 0


def _params_sha256(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _digest_worker():
    """A command's one worker thread, for the SHA-256 digests (`_sha256`) that overlap its
    kernel.  Imported here: concurrent.futures loads logging, 0.5 MiB that only encode and
    extract need."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1)


def _sha256(*parts) -> str:
    """SHA-256 (hex) of the concatenated buffers: the one function the digest worker runs."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def cmd_encode(args, parser) -> int:
    code_params, out_dir = params_mod.load(args.params), Path(args.out_dir)
    data = Path(args.infile).read_bytes()  # first: a bad --in leaves no out_dir behind
    k, n = code_params.k, code_params.n
    size = cluster_mod.shard_bytes(len(data), code_params)  # so does a bad field
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad out_dir fails before the ingest
    runs = [memoryview(data)[i * size:(i + 1) * size] for i in range(k)]
    with _digest_worker() as pool:  # every digest, overlapping the ingest and the writes
        # v4's systematic shards are the input's runs, zero-padded by less than one word column
        futures = [pool.submit(_sha256, data)] + [
            pool.submit(_sha256, run, bytes(size - len(run))) for run in runs]
        c = cluster_mod.Cluster.ingest(data, code_params, keep_oracle=False)
        payloads = [c.planes(nid) for nid in range(1, n + 1)]  # node_symbols_bytes, no copy
        futures += [pool.submit(_sha256, payload) for payload in payloads[k:]]
        shards = {str(nid): f"node_{nid:02d}.shard" for nid in range(1, n + 1)}
        for nid, payload in enumerate(payloads, 1):
            (out_dir / shards[str(nid)]).write_bytes(payload)
        data_digest, *digests = (future.result() for future in futures)
    doc = params_mod.to_document(code_params)
    manifest = {
        "version": MANIFEST_VERSION,
        "k": code_params.k,
        "field": doc["field"],
        "original_length": len(data),
        "block_count": c.nblocks,
        "symbols_per_node": c.nblocks * code_params.k,
        "shards": shards,
        "sha256": dict(zip(shards, digests)),
        "params_sha256": _params_sha256(doc),
        "data_sha256": data_digest,
    }
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"encoded {len(data)} bytes into {c.nblocks} blocks "
          f"across {code_params.n} shards in {out_dir}")
    return 0


def _read_shards(in_dir: Path, nodes: list[int], code_params, pool):
    """Check the manifest and the size of each shard; return fill(nid, out), the original
    length and the manifest's data_sha256.

    fill reads node nid's shard into `out`, submits its digest to `pool` and returns the
    check `decode_nodes` waits for, which raises ValueError naming the shard if the digest
    does not match the manifest's sha256."""
    path, doc = in_dir / MANIFEST_NAME, params_mod.to_document(code_params)
    try:
        m = json.loads(path.read_text())
        # the other keys are read only from v4, so an older manifest is refused by its version
        if (version := json_int(m["version"], "version")) == MANIFEST_VERSION:
            same = (json_int(m["k"], "k") == doc["k"] and m["field"] == doc["field"]
                    and json_int(m["field"]["degree"], "field.degree") == doc["field"]["degree"]
                    and m["params_sha256"] == _params_sha256(doc))
            for name in (m["shards"][str(nid)] for nid in nodes):  # only a file in in_dir
                if name in ("", ".", "..") or os.path.basename(name) != name:
                    raise ValueError(f"shard name {name!r} is not a plain file name")
            files = {nid: (in_dir / m["shards"][str(nid)], m["sha256"][str(nid)]) for nid in nodes}
            nblocks, length = (json_int(m[key], key) for key in ("block_count", "original_length"))
            data_digest = m["data_sha256"]
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed manifest ({exc})") from None
    if version != MANIFEST_VERSION:
        raise ValueError(f"{path}: manifest version {version}, but extract reads only version "
                         f"{MANIFEST_VERSION}: the directory must be encoded again")
    if not same:
        raise ValueError(f"params differ from the ones the shards in {in_dir} were encoded with")
    size = cluster_mod.shard_bytes(length, code_params)
    if length < 0 or nblocks != cluster_mod.block_count(length, code_params):
        raise ValueError(f"{path}: original_length {length} does not fit block_count {nblocks}")
    for nid, (shard, _) in files.items():  # before the decode allocates what the manifest claims
        if (got := os.stat(shard).st_size) != size:
            raise ValueError(f"shard {shard} (node {nid}) has {got} bytes, not {size}")

    def fill(nid, out):
        shard, digest = files[nid]
        with open(shard, "rb") as fh:
            if fh.readinto(out) != size:
                raise ValueError(f"shard {shard} (node {nid}) has fewer than {size} bytes")
        hashed = pool.submit(_sha256, out)

        def check():
            if hashed.result() != digest:
                raise ValueError(f"shard {shard} (node {nid}) does not match its SHA-256 digest")
        return check
    return fill, length, data_digest


def cmd_extract(args, parser) -> int:
    nodes = sorted(set(args.nodes))
    _check_output(args.out)
    code_params = params_mod.load(args.params)
    if len(nodes) != code_params.k:
        parser.error(f"--nodes must name exactly k={code_params.k} distinct shards")
    if any(not 1 <= nid <= code_params.n for nid in nodes):
        parser.error(f"--nodes must be within 1..{code_params.n}")
    with _digest_worker() as pool:  # the shard digests, overlapping the reads and the decode
        fill, length, data_digest = _read_shards(Path(args.in_dir), nodes, code_params, pool)
        # sliced, not trimmed: a worker may hold a view of the buffer after its digest is done
        data = memoryview(cluster_mod.decode_nodes(nodes, fill, code_params, length))[:length]
        if _sha256(data) != data_digest:
            raise ValueError(f"extracted bytes do not match data_sha256 in "
                             f"{Path(args.in_dir) / MANIFEST_NAME}")
    Path(args.out).write_bytes(data)
    print(f"extracted {len(data)} bytes from nodes {nodes}")
    return 0


def _resolve_scenario(ref: str) -> cluster_mod.Scenario:
    path = Path(ref)
    if path.exists():
        return cluster_mod.load_scenario(path)
    bundled = resources.files("mscr").joinpath("scenarios", ref.replace("-", "_") + ".json")
    if bundled.is_file():
        return cluster_mod.Scenario.from_document(json.loads(bundled.read_text()))
    raise FileNotFoundError(f"no scenario file or bundled scenario named {ref!r}")


def _print_report(result: cluster_mod.ScenarioResult) -> None:
    header = f"{'step':>4}  {'failed':<12} {'newcomer':>8} {'down':>5} {'exch':>5} " \
             f"{'gamma':>6} {'optimal':>8} {'ok':>4}"
    print(header)
    for num, step in enumerate(result.steps, start=1):
        if step.error:
            print(f"{num:>4}  {str(list(step.failed)):<12} {step.error}")
            continue
        for row in step.rows:
            print(f"{num:>4}  {str(list(step.failed)):<12} {row['newcomer']:>8} "
                  f"{row['downloaded']:>5} {row['exchanged']:>5} {row['gamma']:>6} "
                  f"{step.optimal_gamma:>8} {'yes' if step.optimal and step.exact else 'NO':>4}")
    print(f"summary: steps={len(result.steps)} "
          f"extract={'ok' if result.extracted_ok else 'FAILED'} "
          f"result={'ok' if result.ok else 'FAILED'}")


def cmd_simulate(args, parser) -> int:
    if args.report:
        _check_output(args.report)
    result = cluster_mod.run_scenario(_resolve_scenario(args.scenario))
    if args.report:
        Path(args.report).write_text(
            json.dumps(result.to_document(), indent=2, sort_keys=True) + "\n")
    _print_report(result)
    return 0 if result.ok else 1


def cmd_validate_params(args, parser) -> int:
    code_params = params_mod.load(args.params, check=False)
    violations = params_mod.validate(code_params)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print(f"params ok: k={code_params.k} n={code_params.n} "
          f"field=GF(2^{code_params.field.degree})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # the one place a command's input, output or search failure becomes exit 1
        return args.run(args, parser)
    except (OSError, ValueError, MemoryError, params_mod.GenerationExhausted) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # MemoryError() is ""
        return 1


if __name__ == "__main__":
    sys.exit(main())
