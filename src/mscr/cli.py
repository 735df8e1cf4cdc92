"""Command-line entry points: gen-params, encode, extract, simulate, validate-params.

Exit codes: 0 success, 1 verification or validation failure, 2 usage error.
A bad manifest, shard or scenario exits 1 with one ``error:`` line.
Manifest v2 adds to v1 the SHA-256 of each shard and of the params, which
``extract`` checks before decoding, and of the input, which it checks before
writing (v1 has none to check).
All runs are reproducible from the seeds recorded in the files they read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

from . import cluster as cluster_mod
from . import params as params_mod
from .galois import FieldSpec

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2


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

    g = sub.add_parser("gen-params", help="generate and validate a parameter file")
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
    e.add_argument("--params", required=True)
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--out-dir", required=True)

    x = sub.add_parser("extract", help="rebuild a file from any k shards")
    x.add_argument("--params", required=True)
    x.add_argument("--in-dir", required=True, help="directory holding shards and manifest")
    x.add_argument("--nodes", type=_parse_nodes, required=True,
                   help="comma-separated node ids, e.g. 1,4,5")
    x.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="run a failure/repair scenario")
    s.add_argument("--scenario", required=True,
                   help="scenario file path or bundled name (e.g. six-node-all-pairs)")
    s.add_argument("--report", default=None, help="write the JSON report here")

    v = sub.add_parser("validate-params", help="re-derive and check a parameter file")
    v.add_argument("--params", required=True)
    return parser


def cmd_gen_params(args, parser) -> int:
    try:
        spec = FieldSpec(args.field_degree, args.reduction_poly)
        code_params = params_mod.generate(args.k, spec, seed=args.seed,
                                          max_retries=args.max_retries,
                                          random_v=args.random_v)
    except params_mod.GenerationExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # k out of range, bad field, field too small
        parser.error(str(exc))
    params_mod.save(code_params, args.out)
    print(f"wrote {args.out}: k={code_params.k} n={code_params.n} "
          f"B={code_params.block_size} field=GF(2^{spec.degree}) seed={args.seed}")
    return 0


def _params_sha256(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def cmd_encode(args) -> int:
    try:
        code_params = params_mod.load(args.params)
        data = Path(args.infile).read_bytes()
        c = cluster_mod.Cluster.ingest(data, code_params, keep_oracle=False)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = params_mod.to_document(code_params)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shards, digests = {}, {}
    for nid in range(1, code_params.n + 1):
        name, payload = f"node_{nid:02d}.shard", c.node_symbols_bytes(nid)
        (out_dir / name).write_bytes(payload)
        shards[str(nid)] = name
        digests[str(nid)] = hashlib.sha256(payload).hexdigest()
    manifest = {
        "version": MANIFEST_VERSION,
        "k": code_params.k,
        "field": doc["field"],
        "original_length": len(data),
        "block_count": c.nblocks,
        "symbols_per_node": c.nblocks * code_params.k,
        "shards": shards,
        "sha256": digests,
        "params_sha256": _params_sha256(doc),
        "data_sha256": hashlib.sha256(data).hexdigest(),
    }
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"encoded {len(data)} bytes into {c.nblocks} blocks "
          f"across {code_params.n} shards in {out_dir}")
    return 0


def _read_shards(in_dir: Path, nodes: list[int], code_params):
    """Read the shards of `nodes` and check them against the manifest (OSError/ValueError).

    Returns the node arrays, the original length and the manifest's
    data_sha256 (None when the manifest has none).
    """
    path, doc = in_dir / MANIFEST_NAME, params_mod.to_document(code_params)
    fingerprint = _params_sha256(doc)
    try:
        m = json.loads(path.read_text())
        same = (m["k"] == doc["k"] and m["field"] == doc["field"]
                and m.get("params_sha256", fingerprint) == fingerprint)
        files = {nid: (in_dir / m["shards"][str(nid)],
                       m["sha256"][str(nid)] if "sha256" in m else None) for nid in nodes}
        nblocks, length = int(m["block_count"]), int(m["original_length"])
        data_digest = m.get("data_sha256")
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed manifest ({exc})") from None
    if not same:
        raise ValueError(f"params differ from the ones the shards in {in_dir} were encoded with")
    width = code_params.field.symbol_bytes
    if length < 0 or nblocks != -(-length // (code_params.block_size * width)):
        raise ValueError(f"{path}: original_length {length} does not fit block_count {nblocks}")
    size = nblocks * code_params.k * width
    arrays = {}
    for nid, (shard, digest) in files.items():
        raw = shard.read_bytes()
        if len(raw) != size:
            raise ValueError(f"shard {shard} (node {nid}) has {len(raw)} bytes, not {size}")
        if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
            raise ValueError(f"shard {shard} (node {nid}) does not match its SHA-256 digest")
        arrays[nid] = cluster_mod.node_symbols_from_bytes(raw, code_params)
    return arrays, length, data_digest


def cmd_extract(args, parser) -> int:
    nodes = sorted(set(args.nodes))
    try:
        code_params = params_mod.load(args.params)
        if len(nodes) != code_params.k:
            parser.error(f"--nodes must name exactly k={code_params.k} distinct shards")
        if any(not 1 <= nid <= code_params.n for nid in nodes):
            parser.error(f"--nodes must be within 1..{code_params.n}")
        arrays, length, data_digest = _read_shards(Path(args.in_dir), nodes, code_params)
        data = cluster_mod.decode_nodes(arrays, code_params, length)
        if data_digest is not None and hashlib.sha256(data).hexdigest() != data_digest:
            raise ValueError(f"extracted bytes do not match data_sha256 in "
                             f"{Path(args.in_dir) / MANIFEST_NAME}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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


def cmd_simulate(args) -> int:
    try:
        result = cluster_mod.run_scenario(_resolve_scenario(args.scenario))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.report:
        Path(args.report).write_text(
            json.dumps(result.to_document(), indent=2, sort_keys=True) + "\n")
    _print_report(result)
    return 0 if result.ok else 1


def cmd_validate_params(args) -> int:
    try:
        code_params = params_mod.load(args.params, check=False)
    except (ValueError, OSError) as exc:
        print(f"error: cannot load params: {exc}", file=sys.stderr)
        return 1
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
    if args.command == "gen-params":
        return cmd_gen_params(args, parser)
    if args.command == "encode":
        return cmd_encode(args)
    if args.command == "extract":
        return cmd_extract(args, parser)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "validate-params":
        return cmd_validate_params(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
