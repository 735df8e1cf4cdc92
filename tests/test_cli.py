import hashlib
import json
import random
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mscr.cli as cli_mod
import mscr.cluster as cluster_mod
import mscr.params as params_mod
from mscr.cli import _params_sha256, _print_report, bytes_to_planes, main, planes_to_bytes
from mscr.cluster import Cluster, ScenarioResult, StepReport
from mscr.codec import encode_matrix
from mscr.params import load, validate

# v3 directories, each with its params.json, written by `mscr encode` when it wrote v3:
# the input is random.Random(10).randbytes(length), encoded under `gen-params --k 3 --seed 7`
# (the params `_gen` writes) and `gen-params --k 4 --field-degree 16 --seed 3`.
DATA = Path(__file__).resolve().parent / "data"
LEGACY = {"k3-gf8": 1000, "k4-gf16": 3000}


def _gen(tmp_path, *extra):
    out = tmp_path / "params.json"
    rc = main(["gen-params", "--k", "3", "--seed", "7", "--out", str(out), *extra])
    assert rc == 0
    return out


def test_gen_params_roundtrip(tmp_path):
    out = _gen(tmp_path)
    assert validate(load(out)) == []


def test_gen_params_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["gen-params", "--k", "3", "--seed", "5", "--out", str(first)]) == 0
    assert main(["gen-params", "--k", "3", "--seed", "5", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gen_params_reads_the_reduction_poly_as_hex(tmp_path):
    out = tmp_path / "p.json"
    assert main(["gen-params", "--k", "3", "--field-degree", "16", "--reduction-poly", "1100b",
                 "--out", str(out)]) == 0
    assert load(out).field.reduction_poly == 0x1100B


def test_gen_params_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-params", "--k", "1", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen-params", "--k", "3", "--field-degree", "2",
              "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_validate_params_command(tmp_path):
    out = _gen(tmp_path)
    assert main(["validate-params", "--params", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["delta"] = doc["epsilon"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate-params", "--params", str(bad)]) == 1


def test_encode_extract_roundtrip(tmp_path):
    params_file = _gen(tmp_path)
    payload = random.Random(3).randbytes(1000)
    src = tmp_path / "input.bin"
    src.write_bytes(payload)
    shard_dir = tmp_path / "shards"
    assert main(["encode", "--params", str(params_file), "--in", str(src),
                 "--out-dir", str(shard_dir)]) == 0
    assert (shard_dir / "manifest.json").exists()
    assert len(list(shard_dir.glob("*.shard"))) == 6

    for nodes in ("1,2,3", "4,5,6", "2,4,6"):
        out = tmp_path / f"out_{nodes.replace(',', '_')}.bin"
        assert main(["extract", "--params", str(params_file),
                     "--in-dir", str(shard_dir), "--nodes", nodes,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == payload


def test_extract_too_few_shards(tmp_path):
    params_file = _gen(tmp_path)
    src = tmp_path / "input.bin"
    src.write_bytes(b"hello world")
    shard_dir = tmp_path / "shards"
    main(["encode", "--params", str(params_file), "--in", str(src),
          "--out-dir", str(shard_dir)])
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--params", str(params_file), "--in-dir", str(shard_dir),
              "--nodes", "1,2", "--out", str(tmp_path / "o.bin")])
    assert exc.value.code == 2


def test_extract_rejects_tampered_params(tmp_path):
    params_file = _gen(tmp_path)
    src = tmp_path / "input.bin"
    src.write_bytes(b"payload payload")
    shard_dir = tmp_path / "shards"
    main(["encode", "--params", str(params_file), "--in", str(src),
          "--out-dir", str(shard_dir)])
    doc = json.loads(params_file.read_text())
    doc["epsilon_prime"] = "0x0"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    rc = main(["extract", "--params", str(bad), "--in-dir", str(shard_dir),
               "--nodes", "1,2,3", "--out", str(tmp_path / "o.bin")])
    assert rc == 1


def test_simulate_bundled_all_pairs(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    rc = main(["simulate", "--scenario", "six-node-all-pairs",
               "--report", str(report_file)])
    assert rc == 0
    report = json.loads(report_file.read_text())
    assert report["ok"] is True
    assert len(report["steps"]) == 15
    for step in report["steps"]:
        assert step["exact"] and step["optimal"]
        assert step["optimal_gamma"] == "5"
        for row in step["rows"]:
            assert row["gamma"] == 5
    out = capsys.readouterr().out
    assert "result=ok" in out


def test_report_says_yes_only_for_an_exact_and_optimal_step(capsys):
    row = {"newcomer": 1, "downloaded": 4, "exchanged": 1, "gamma": 5}
    steps = [StepReport((1,), "systematic", [row], "5", 1, exact=exact, optimal=optimal)
             for exact, optimal in ((True, True), (True, False), (False, True))]
    _print_report(ScenarioResult(steps, extracted_ok=True, ok=False))
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines[1:4]] == ["yes", "NO", "NO"]


def test_simulate_unsupported_pattern(tmp_path):
    scenario = {
        "k": 3,
        "seed": 7,
        "data": {"random": {"bytes": 64, "seed": 2}},
        "steps": [{"fail": [1, 2, 4]}],
    }
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps(scenario))
    report_file = tmp_path / "report.json"
    rc = main(["simulate", "--scenario", str(sc_file), "--report", str(report_file)])
    assert rc == 1
    report = json.loads(report_file.read_text())
    assert "UnsupportedPattern" in report["steps"][0]["error"]


def test_simulate_empty_steps(tmp_path):
    scenario = {
        "k": 3,
        "seed": 7,
        "data": {"random": {"bytes": 64, "seed": 2}},
        "steps": [],
    }
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps(scenario))
    report_file = tmp_path / "report.json"
    rc = main(["simulate", "--scenario", str(sc_file), "--report", str(report_file)])
    assert rc == 0
    assert json.loads(report_file.read_text())["steps"] == []


def test_simulate_missing_scenario():
    rc = main(["simulate", "--scenario", "no-such-scenario"])
    assert rc == 1


def test_encode_rejects_invalid_params(tmp_path, capsys):
    doc = json.loads(_gen(tmp_path).read_text())
    doc["delta"] = doc["epsilon"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    src = tmp_path / "input.bin"
    src.write_bytes(b"payload")
    rc = main(["encode", "--params", str(bad), "--in", str(src),
               "--out-dir", str(tmp_path / "shards")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "shards").exists()


def test_simulate_scenario_without_k_or_params(tmp_path, capsys):
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps({"data": {"random": {"bytes": 64, "seed": 2}},
                                   "steps": [{"fail": [1]}]}))
    rc = main(["simulate", "--scenario", str(sc_file)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


MALFORMED_PARAMS = {
    "missing key": lambda doc: {key: v for key, v in doc.items() if key != "delta"},
    "JSON list": lambda doc: [doc],
    "int for a hex string": lambda doc: {**doc, "epsilon": 5},
    "singular V": lambda doc: {**doc, "V": [["0x0"] * len(row) for row in doc["V"]]},
    "V entry outside the field": lambda doc: {**doc, "V": [["-0x1"] + row[1:]
                                                            for row in doc["V"]]},
    "k a string": lambda doc: {**doc, "k": str(doc["k"])},
    "seed a float": lambda doc: {**doc, "seed": doc["seed"] + 0.9},
    "field degree a float": lambda doc: {**doc, "field": {**doc["field"], "degree": 8.0}},
    "version a bool": lambda doc: {**doc, "version": True},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PARAMS))
def test_malformed_params_exit_1(tmp_path, capsys, case):
    doc = MALFORMED_PARAMS[case](json.loads(_gen(tmp_path).read_text()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    src = tmp_path / "input.bin"
    src.write_bytes(b"payload")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"params": "bad.json",
                                    "data": {"random": {"bytes": 64, "seed": 2}}}))
    capsys.readouterr()
    for argv in (["encode", "--params", str(bad), "--in", str(src),
                  "--out-dir", str(tmp_path / "shards")],
                 ["extract", "--params", str(bad), "--in-dir", str(tmp_path / "shards"),
                  "--nodes", "1,2,3", "--out", str(tmp_path / "o.bin")],
                 ["simulate", "--scenario", str(scenario)]):
        assert main(argv) == 1, argv
        _one_error_line(capsys)
    assert main(["validate-params", "--params", str(bad)]) == 1
    if case == "singular V":
        # A well-formed document: it loads, and validate names the violation.
        assert capsys.readouterr().out == "violation: v_nonsingular\n"
    else:
        _one_error_line(capsys)


MALFORMED_SCENARIOS = {
    "no data": lambda doc: {key: v for key, v in doc.items() if key != "data"},
    "step without fail": lambda doc: {**doc, "steps": [{}]},
    "random without bytes": lambda doc: {**doc, "data": {"random": {"seed": 2}}},
    "fail not a list": lambda doc: {**doc, "steps": [{"fail": 3}]},
    "field not an object": lambda doc: {**doc, "field": 8},
    "fail a string of digits": lambda doc: {**doc, "steps": [{"fail": "12"}]},
    "fail an object": lambda doc: {**doc, "steps": [{"fail": {}}]},
    "fail id a float": lambda doc: {**doc, "steps": [{"fail": [1.5]}]},
    "fail id a bool": lambda doc: {**doc, "steps": [{"fail": [True]}]},
    "k a string": lambda doc: {**doc, "k": "3"},
    "seed a float": lambda doc: {**doc, "seed": 7.9},
    "field degree a string": lambda doc: {**doc, "field": {"degree": "8"}},
    "random bytes a float": lambda doc: {**doc, "data": {"random": {"bytes": 64.0, "seed": 2}}},
    "random seed a string": lambda doc: {**doc, "data": {"random": {"bytes": 64, "seed": "2"}}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_exits_1(tmp_path, capsys, case):
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps(MALFORMED_SCENARIOS[case](
        {"k": 3, "data": {"random": {"bytes": 64, "seed": 2}}, "steps": [{"fail": [1]}]})))
    assert main(["simulate", "--scenario", str(sc_file)]) == 1
    assert "malformed scenario" in _one_error_line(capsys)


# -- shard integrity and input errors at the extract edge ---------------------------


def _encode(tmp_path, payload, *gen_extra):
    params_file = _gen(tmp_path, *gen_extra)
    src = tmp_path / "input.bin"
    src.write_bytes(payload)
    shard_dir = tmp_path / "shards"
    assert main(["encode", "--params", str(params_file), "--in", str(src),
                 "--out-dir", str(shard_dir)]) == 0
    return params_file, shard_dir


def _extract(params_file, shard_dir, out, nodes="2,4,6"):
    return main(["extract", "--params", str(params_file), "--in-dir", str(shard_dir),
                 "--nodes", nodes, "--out", str(out)])


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize("bad", ["in", "out-dir"])
def test_encode_checks_both_paths_before_it_makes_or_ingests(tmp_path, capsys, monkeypatch, bad):
    params_file, src = _gen(tmp_path), tmp_path / "input.bin"
    src.write_bytes(b"payload")
    out_dir = tmp_path / "new" / "shards"
    if bad == "in":  # a missing input leaves no output directory behind
        src = tmp_path / "missing.bin"
    else:  # an output directory under a file fails before the ingest runs
        out_dir = params_file / "shards"

    def heavy(*args, **kwargs):
        raise AssertionError("the ingest ran before both paths were checked")
    monkeypatch.setattr(Cluster, "ingest", heavy)
    capsys.readouterr()
    assert main(["encode", "--params", str(params_file), "--in", str(src),
                 "--out-dir", str(out_dir)]) == 1
    _one_error_line(capsys)
    assert not (tmp_path / "new").exists()


def test_encode_writes_manifest_v4(tmp_path):
    payload = random.Random(2).randbytes(1000)  # 112 blocks of 9 bytes: 2 words a plane
    params_file, shard_dir = _encode(tmp_path, payload)
    manifest = json.loads((shard_dir / "manifest.json").read_text())
    assert manifest["version"] == 4
    assert manifest["block_count"] == 112 and manifest["symbols_per_node"] == 336
    assert manifest["shards"] == {str(i): f"node_{i:02d}.shard" for i in range(1, 7)}
    cluster = Cluster.ingest(payload, load(params_file))
    shards = [(shard_dir / f"node_{nid:02d}.shard").read_bytes() for nid in range(1, 7)]
    for nid, raw in enumerate(shards, 1):
        assert len(raw) == 3 * 8 * 2 * 8  # k*m planes of ceil(blocks/64) uint64 words
        assert manifest["sha256"][str(nid)] == hashlib.sha256(raw).hexdigest()
        assert raw == cluster.node_data[nid - 1].astype("<u8").tobytes()
        assert raw == cluster.node_symbols_bytes(nid)
    assert b"".join(shards[:3]) == payload.ljust(3 * 3 * 8 * 2 * 8, b"\0")
    params_text = json.dumps(json.loads(params_file.read_text()), sort_keys=True)
    assert manifest["params_sha256"] == hashlib.sha256(params_text.encode()).hexdigest()


@pytest.mark.parametrize("node", [2, 4, 6])
def test_extract_detects_flipped_byte(tmp_path, capsys, node):
    params_file, shard_dir = _encode(tmp_path, random.Random(4).randbytes(500))
    shard = shard_dir / f"node_{node:02d}.shard"
    raw = bytearray(shard.read_bytes())
    raw[len(raw) // 3] ^= 0x01
    shard.write_bytes(bytes(raw))
    capsys.readouterr()
    out = tmp_path / "o.bin"
    assert _extract(params_file, shard_dir, out) == 1
    assert shard.name in _one_error_line(capsys)
    assert not out.exists()


def test_extract_rejects_other_valid_params(tmp_path, capsys):
    params_file, shard_dir = _encode(tmp_path, random.Random(5).randbytes(500))
    other = tmp_path / "other.json"
    assert main(["gen-params", "--k", "3", "--seed", "8", "--out", str(other)]) == 0
    assert validate(load(other)) == []
    capsys.readouterr()
    assert _extract(other, shard_dir, tmp_path / "o.bin") == 1
    assert "params differ" in _one_error_line(capsys)


def _legacy(shard_dir, name="k3-gf8"):
    """Replace shard_dir with a copy of v3 directory `name`; returns its params file and input."""
    shutil.rmtree(shard_dir, ignore_errors=True)
    shutil.copytree(DATA / f"v3-{name}", shard_dir)
    return shard_dir / "params.json", random.Random(10).randbytes(LEGACY[name])


def test_legacy_directories_hold_their_input_and_params(tmp_path):
    for name in LEGACY:
        _, payload = _legacy(tmp_path / name, name)
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["version"] == 3 and len(payload) == manifest["original_length"]
        assert manifest["data_sha256"] == hashlib.sha256(payload).hexdigest()
    assert (tmp_path / "k3-gf8" / "params.json").read_bytes() == _gen(tmp_path).read_bytes()


def _as_v2(shard_dir, name="k3-gf8"):
    """Write the v3 directory `name` (None: shard_dir's own) to shard_dir as v2: block-major
    shards and their digests."""
    if name is not None:
        _legacy(shard_dir, name)
    path = shard_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    k, width = manifest["k"], manifest["field"]["degree"] // 8
    for nid, name in manifest["shards"].items():
        planes = np.frombuffer((shard_dir / name).read_bytes(), "<u8").reshape(8 * k * width, -1)
        raw = bytes(planes_to_bytes(planes, manifest["block_count"] * k * width))
        (shard_dir / name).write_bytes(raw)
        manifest["sha256"][nid] = hashlib.sha256(raw).hexdigest()
    manifest["version"] = 2
    path.write_text(json.dumps(manifest))
    return manifest


def _as_v1(shard_dir, name="k3-gf8"):
    manifest = _as_v2(shard_dir, name)
    del manifest["sha256"], manifest["params_sha256"], manifest["data_sha256"]
    manifest["version"] = 1
    (shard_dir / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def _pre_v4(shard_dir, params_file, payload):
    """Write payload to shard_dir as `encode` did before v4: manifest v3, whose shards are
    bit planes over block-major blocks.  Returns the manifest."""
    code_params, doc = load(params_file), json.loads(Path(params_file).read_text())
    k, m, spec = code_params.k, code_params.field.degree, code_params.field
    x = bytes_to_planes(payload, spec, k * k)  # block-major: X[l][j] is row block l*k + j
    x = x.reshape(k, k, m, -1).swapaxes(0, 1).reshape(k * k * m, -1)  # node-major: j*k + l
    y = spec.scale_array(spec.plan(encode_matrix(code_params).int_rows()), x)  # y = E x
    shard_dir.mkdir()
    shards, digests = {}, {}
    for nid in range(1, 2 * k + 1):  # node j+1 holds column j of X, node k+c+1 column c of Y
        planes = (x if nid <= k else y).reshape(k, k * m, -1)[(nid - 1) % k]
        raw = np.ascontiguousarray(planes, "<u8").tobytes()
        shards[str(nid)] = f"node_{nid:02d}.shard"
        digests[str(nid)] = hashlib.sha256(raw).hexdigest()
        (shard_dir / shards[str(nid)]).write_bytes(raw)
    nblocks = -(-len(payload) // (k * k * spec.symbol_bytes))
    manifest = {"version": 3, "k": k, "field": doc["field"], "original_length": len(payload),
                "block_count": nblocks, "symbols_per_node": nblocks * k, "shards": shards,
                "sha256": digests, "data_sha256": hashlib.sha256(payload).hexdigest(),
                "params_sha256": _params_sha256(doc)}
    (shard_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


@pytest.mark.parametrize("name", sorted(LEGACY))
def test_pre_v4_writer_rebuilds_the_legacy_directories(tmp_path, name):
    params_file, payload = _legacy(tmp_path / "legacy", name)
    manifest = _pre_v4(tmp_path / "rebuilt", params_file, payload)
    assert manifest == json.loads((tmp_path / "legacy" / "manifest.json").read_text())
    for shard in manifest["shards"].values():
        rebuilt, legacy = (tmp_path / d / shard for d in ("rebuilt", "legacy"))
        assert rebuilt.read_bytes() == legacy.read_bytes(), shard


@pytest.mark.parametrize("name", sorted(LEGACY))
def test_legacy_extract_holds_no_second_copy_of_the_stream(tmp_path, name):
    # Deterministic and untimed: the tracemalloc peak of extracting an S-byte stream from a
    # v1, v2 or v3 directory, for a systematic, a mixed and a parity-only set.  The extract
    # holds the padded decode (S), the block-major bytes it writes (S) and the converter's
    # chunk buffers; a v1/v2 shard's bytes and planes are read while only the decode is.
    params_file = _legacy(tmp_path / "params", name)[0]
    payload = random.Random(6).randbytes(5 << 19)
    dirs = {v: tmp_path / f"v{v}" for v in (1, 2, 3)}
    _pre_v4(dirs[3], params_file, payload)
    for version in (1, 2):
        shutil.copytree(dirs[3], dirs[version])
        (_as_v1 if version == 1 else _as_v2)(dirs[version], None)
    k, bound = load(params_file).k, 2 * len(payload) + 2 * cli_mod._CHUNK_BYTES + (64 << 10)
    out = tmp_path / "o.bin"
    for nodes in (range(1, k + 1), [1, 2] + list(range(k + 1, 2 * k - 1)), range(k + 1, 2 * k + 1)):
        for version, shard_dir in dirs.items():
            tracemalloc.start()
            try:
                assert _extract(params_file, shard_dir, out, ",".join(map(str, nodes))) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.read_bytes() == payload and peak <= bound, (version, list(nodes), peak)


def test_extract_reads_v1_manifest(tmp_path):
    shard_dir = tmp_path / "shards"
    params_file, payload = _legacy(shard_dir)
    _as_v1(shard_dir)
    for nodes in ("1,2,3", "4,5,6", "2,4,6", "1,5,6"):
        out = tmp_path / "o.bin"
        assert _extract(params_file, shard_dir, out, nodes) == 0
        assert out.read_bytes() == payload


def _edit_manifest(**changes):
    def edit(shard_dir):
        manifest = _as_v1(shard_dir)
        manifest.update(changes)
        (shard_dir / "manifest.json").write_text(json.dumps(manifest))
    return edit


def _truncate_shard(shard_dir, nbytes=1):
    shard = shard_dir / "node_04.shard"
    shard.write_bytes(shard.read_bytes()[:-nbytes])


def _relabel(version):
    """Change only the manifest's version (None drops it): the shards stay as they are."""
    def edit(shard_dir):
        path = shard_dir / "manifest.json"
        manifest = {**json.loads(path.read_text()), "version": version}
        path.write_text(json.dumps({key: v for key, v in manifest.items() if v is not None}))
    return edit


def _retype(key, convert):
    """Store the manifest's own `key` value as another JSON type (`convert` of it)."""
    def edit(shard_dir):
        path = shard_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, key: convert(manifest[key])}))
    return edit


def _v1_truncate_shard(shard_dir):
    _as_v1(shard_dir)
    _truncate_shard(shard_dir)


BAD_INPUTS = {
    "missing manifest": lambda d: (d / "manifest.json").unlink(),
    "unparsable manifest": lambda d: (d / "manifest.json").write_text("{not json"),
    "manifest not an object": lambda d: (d / "manifest.json").write_text("[1, 2]"),
    "manifest misses a shard entry": lambda d: _edit_manifest(shards={"1": "node_01.shard"})(d),
    "missing shard file": lambda d: (d / "node_04.shard").unlink(),
    "truncated shard": _truncate_shard,
    "v3 shard one word short": lambda d: (_legacy(d), _truncate_shard(d, 8)),
    "v3 manifest relabelled version 2": lambda d: (_legacy(d), _relabel(2)(d)),
    "v4 shard one word short": lambda d: _truncate_shard(d, 8),
    "v4 manifest relabelled version 3": _relabel(3),  # v3 sizes: only data_sha256 fails
    "manifest version not an integer": _relabel("3"),
    "manifest version a float": _relabel(3.0),
    "block count a string": _retype("block_count", str),
    "block count a float": _retype("block_count", float),
    "original length a string": _retype("original_length", str),
    "original length a float": _retype("original_length", float),
    "manifest k a float": _retype("k", float),
    "manifest field degree a float": _retype("field", lambda f: {**f, "degree": 8.0}),
    "manifest without version": _relabel(None),
    "unknown manifest version": _relabel(5),
    "v1 truncated shard": _v1_truncate_shard,
    "v1 manifest k differs": _edit_manifest(k=4),
    "v1 manifest field differs": _edit_manifest(field={"degree": 16,
                                                       "reduction_poly": "0x1100b"}),
    "v1 block count differs": _edit_manifest(block_count=3),
    "original length too short": _edit_manifest(original_length=5),
    "original length negative": _edit_manifest(original_length=-3),
    "original length too long": _edit_manifest(original_length=10**6),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_extract_bad_input_exits_1(tmp_path, capsys, case):
    params_file, shard_dir = _encode(tmp_path, random.Random(7).randbytes(400))
    BAD_INPUTS[case](shard_dir)
    capsys.readouterr()
    assert _extract(params_file, shard_dir, tmp_path / "o.bin") == 1
    _one_error_line(capsys)


# 400 bytes fill 45 blocks of 9 bytes (room for 405), so block_count still fits.
@pytest.mark.parametrize("length", [405, 397])
def test_extract_checks_data_digest_before_writing(tmp_path, capsys, length):
    params_file, shard_dir = _encode(tmp_path, random.Random(7).randbytes(400))
    path = shard_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["original_length"] = length
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "o.bin"
    assert _extract(params_file, shard_dir, out) == 1
    assert "data_sha256" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_extract_reads_manifest_without_data_digest(tmp_path, version):
    shard_dir = tmp_path / "shards"
    if version == 4:
        payload = random.Random(8).randbytes(400)
        params_file, shard_dir = _encode(tmp_path, payload)
    else:  # the v3 directory, as it is or rewritten
        params_file, payload = _legacy(shard_dir)
        if version < 3:
            (_as_v1 if version == 1 else _as_v2)(shard_dir)
    path = shard_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["version"] == version
    manifest.pop("data_sha256", None)
    path.write_text(json.dumps(manifest))
    for nodes in ("1,2,3", "2,4,6", "4,5,6"):
        out = tmp_path / "o.bin"
        assert _extract(params_file, shard_dir, out, nodes) == 0
        assert out.read_bytes() == payload


def test_extract_with_params_of_other_k_exits_1(tmp_path, capsys):
    _, shard_dir = _encode(tmp_path, b"k=3 data")
    params_k4 = tmp_path / "k4.json"
    assert main(["gen-params", "--k", "4", "--seed", "7", "--out", str(params_k4)]) == 0
    _as_v1(shard_dir)
    capsys.readouterr()
    assert _extract(params_k4, shard_dir, tmp_path / "o.bin", "1,2,3,4") == 1
    assert "params differ" in _one_error_line(capsys)


def test_encode_rejects_field_that_does_not_fill_whole_bytes(tmp_path, capsys):
    params_file = _gen(tmp_path, "--field-degree", "4")
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(256)))
    capsys.readouterr()
    assert main(["encode", "--params", str(params_file), "--in", str(src),
                 "--out-dir", str(tmp_path / "shards")]) == 1
    assert "degree 8 or 16" in _one_error_line(capsys)


def test_simulate_rejects_field_that_does_not_fill_whole_bytes(tmp_path, capsys):
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps({"k": 3, "field": {"degree": 4},
                                   "data": {"random": {"bytes": 64, "seed": 2}},
                                   "steps": [{"fail": [1]}]}))
    assert main(["simulate", "--scenario", str(sc_file)]) == 1
    assert "degree 8 or 16" in _one_error_line(capsys)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_extract_refuses_field_that_does_not_fill_whole_bytes(tmp_path, capsys, version):
    # encode refuses such params, so the directory is made by hand: one block,
    # each shard zero bytes of the size its version reads.
    params_file = _gen(tmp_path, "--field-degree", "4")
    shard_dir, size = tmp_path / "shards", 3 * 4 * 8 if version >= 3 else 3
    shard_dir.mkdir()
    shards = {str(nid): f"node_{nid:02d}.shard" for nid in range(1, 7)}
    for name in shards.values():
        (shard_dir / name).write_bytes(bytes(size))
    (shard_dir / "manifest.json").write_text(json.dumps({
        "version": version, "k": 3, "field": json.loads(params_file.read_text())["field"],
        "original_length": 4, "block_count": 1, "shards": shards}))
    capsys.readouterr()
    assert _extract(params_file, shard_dir, tmp_path / "o.bin") == 1
    assert "field degree 8 or 16, not 4" in _one_error_line(capsys)


@pytest.fixture(scope="module")
def encoded_k3(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("encoded")
    payload = random.Random(9).randbytes(300)
    params_file, shard_dir = _encode(tmp_path, payload)
    return params_file, shard_dir, payload


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_extract_never_returns_wrong_bytes(encoded_k3, tmp_path_factory, data):
    params_file, shard_dir, payload = encoded_k3
    nodes = data.draw(st.lists(st.integers(1, 6), min_size=3, max_size=3, unique=True))
    shard = shard_dir / f"node_{data.draw(st.sampled_from(nodes)):02d}.shard"
    original = shard.read_bytes()
    if data.draw(st.booleans()):
        raw = bytearray(original)
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        damaged = bytes(raw)
    else:
        damaged = original[:data.draw(st.integers(0, len(original) - 1))]
    out = tmp_path_factory.mktemp("out") / "o.bin"
    shard.write_bytes(damaged)
    try:
        rc = _extract(params_file, shard_dir, out, ",".join(map(str, nodes)))
    finally:
        shard.write_bytes(original)
    assert rc == 1 and not out.exists()


@pytest.mark.parametrize("name", sorted(LEGACY))
def test_manifest_versions_extract_the_same_bytes(tmp_path, name):
    # v1-v3 from the v3 directory, v4 encoded now from its input and params.  Neither
    # length fills whole 64-block words, so v3 and v4 shards are longer than v2 ones.
    dirs = {v: tmp_path / f"v{v}" for v in (1, 2, 3, 4)}
    _as_v1(dirs[1], name)
    _as_v2(dirs[2], name)
    params_file, payload = _legacy(dirs[3], name)
    src = tmp_path / "input.bin"
    src.write_bytes(payload)
    assert main(["encode", "--params", str(params_file), "--in", str(src),
                 "--out-dir", str(dirs[4])]) == 0
    sizes = {v: (d / "node_01.shard").stat().st_size for v, d in dirs.items()}
    assert sizes[1] == sizes[2] < sizes[3] == sizes[4]
    k = load(params_file).k
    systematic, parity = list(range(1, k + 1)), list(range(k + 1, 2 * k + 1))
    for nodes in (systematic, [1, 2] + parity[:k - 2], systematic[1:] + parity[-1:], parity):
        outs = []
        for version, shard_dir in dirs.items():
            out = tmp_path / f"o{version}.bin"
            assert _extract(params_file, shard_dir, out, ",".join(map(str, nodes))) == 0
            outs.append(out.read_bytes())
        assert outs == [payload] * 4, nodes


def test_v4_encode_and_extract_never_call_the_block_major_converters(tmp_path, monkeypatch):
    calls, swap8 = [], cli_mod._swap8

    def spy(*args):
        calls.append(args)
        return swap8(*args)
    monkeypatch.setattr(cli_mod, "_swap8", spy)
    params_file, shard_dir = _encode(tmp_path, random.Random(11).randbytes(5000))
    for nodes in ("1,2,3", "1,2,4", "2,3,6", "4,5,6"):
        assert _extract(params_file, shard_dir, tmp_path / "o.bin", nodes) == 0
    assert calls == []
    _legacy(shard_dir)  # the spy sees the v3 read path
    assert _extract(params_file, shard_dir, tmp_path / "o.bin", "4,5,6") == 0 and calls


def test_only_v1_and_v2_shards_go_through_the_byte_converter(tmp_path, monkeypatch):
    calls, convert = [], cli_mod.bytes_to_planes

    def spy(*args):
        calls.append(args)
        return convert(*args)
    monkeypatch.setattr(cli_mod, "bytes_to_planes", spy)
    shard_dir, out = tmp_path / "shards", tmp_path / "o.bin"
    params_file, payload = _legacy(shard_dir)
    assert _extract(params_file, shard_dir, out) == 0 and out.read_bytes() == payload
    assert calls == []  # v3
    _as_v2(shard_dir, None)
    assert _extract(params_file, shard_dir, out) == 0 and out.read_bytes() == payload
    assert len(calls) == 3  # v2: one call per shard read


def test_extract_checks_shard_sizes_before_it_allocates_the_claimed_stream(tmp_path, capsys):
    # A manifest claiming 2^50 bytes (a matching block_count, 1000 bytes of shards): the
    # shard sizes refuse it before the decode allocates the stream.
    params_file, shard_dir = _encode(tmp_path, random.Random(12).randbytes(1000))
    path = shard_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest.update(original_length=1 << 50, block_count=-(-(1 << 50) // 9))
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert _extract(params_file, shard_dir, tmp_path / "o.bin") == 1
    assert "bytes, not" in _one_error_line(capsys)


def _unwritable_output(tmp_path):
    params_file, shard_dir = _encode(tmp_path, b"unwritable output")
    missing = tmp_path / "no-such-dir"
    return {
        "gen-params": ["gen-params", "--k", "3", "--out", str(missing / "p.json")],
        "encode": ["encode", "--params", str(params_file), "--in", str(tmp_path / "input.bin"),
                   "--out-dir", str(params_file)],
        "extract": ["extract", "--params", str(params_file), "--in-dir", str(shard_dir),
                    "--nodes", "1,2,3", "--out", str(missing / "o.bin")],
        "simulate": ["simulate", "--scenario", "six-node-all-pairs",
                     "--report", str(missing / "r.json")],
    }


@pytest.mark.parametrize("command", ["gen-params", "encode", "extract", "simulate"])
def test_output_that_cannot_be_written_exits_1(tmp_path, capsys, monkeypatch, command):
    argv = _unwritable_output(tmp_path)[command]

    def heavy(*args, **kwargs):
        raise AssertionError("the output was checked only after the work")

    # Each command checks its output before its heavy step, so none of these may run.
    for owner, name in ((params_mod, "generate"), (cluster_mod, "decode_nodes"),
                        (cluster_mod, "run_scenario"), (Cluster, "ingest")):
        monkeypatch.setattr(owner, name, heavy)
    capsys.readouterr()
    assert main(argv) == 1
    _one_error_line(capsys)


def _library_calls(tmp_path):
    """Per command: the owner and name of one library call it makes, and its argv."""
    params_file, shard_dir = _encode(tmp_path, b"one error boundary")
    return {
        "gen-params": (params_mod, "save",
                       ["gen-params", "--k", "3", "--out", str(tmp_path / "p.json")]),
        "encode": (Cluster, "ingest",
                   ["encode", "--params", str(params_file), "--in", str(tmp_path / "input.bin"),
                    "--out-dir", str(tmp_path / "again")]),
        "extract": (params_mod, "load",
                    ["extract", "--params", str(params_file), "--in-dir", str(shard_dir),
                     "--nodes", "1,2,3", "--out", str(tmp_path / "o.bin")]),
        "simulate": (cluster_mod, "run_scenario",
                     ["simulate", "--scenario", "six-node-all-pairs"]),
        "validate-params": (params_mod, "load",
                            ["validate-params", "--params", str(params_file)]),
    }


@pytest.mark.parametrize("error", [OSError, ValueError], ids=lambda e: e.__name__)
@pytest.mark.parametrize("command",
                         ["gen-params", "encode", "extract", "simulate", "validate-params"])
def test_library_error_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch, command, error):
    owner, name, argv = _library_calls(tmp_path)[command]

    def fail(*args, **kwargs):
        raise error("injected")
    monkeypatch.setattr(owner, name, fail)
    capsys.readouterr()
    assert main(argv) == 1
    assert _one_error_line(capsys) == "error: injected"


def test_gen_params_exit_codes_of_generate_errors(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "p.json")
    assert main(["gen-params", "--k", "3", "--max-retries", "0", "--out", out]) == 1
    assert "within 0 retries" in _one_error_line(capsys)

    def refuse(*args, **kwargs):
        raise ValueError("refused")
    monkeypatch.setattr(params_mod, "generate", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["gen-params", "--k", "3", "--out", out])
    assert exc.value.code == 2
    assert not (tmp_path / "p.json").exists()
