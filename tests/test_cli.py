import hashlib
import json
import random
import shutil
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mscr.cli as cli_mod
import mscr.cluster as cluster_mod
import mscr.params as params_mod
from mscr.cli import _params_sha256, _print_report, main
from mscr.cluster import Cluster, ScenarioResult, StepReport
from mscr.params import load, validate

# v3 directories, each with its params.json, written by `mscr encode` when it wrote v3, which
# extract now refuses: the input is random.Random(10).randbytes(length), encoded under
# `gen-params --k 3 --seed 7` (the params `_gen` writes) and
# `gen-params --k 4 --field-degree 16 --seed 3`.
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


def _flip_byte(shard, at):
    raw = bytearray(shard.read_bytes())
    raw[at] ^= 0x01
    shard.write_bytes(bytes(raw))


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
        assert raw == cluster.planes(nid).astype("<u8").tobytes()
        assert raw == cluster.node_symbols_bytes(nid)
    assert b"".join(shards[:3]) == payload.ljust(3 * 3 * 8 * 2 * 8, b"\0")
    params_text = json.dumps(json.loads(params_file.read_text()), sort_keys=True)
    assert manifest["params_sha256"] == hashlib.sha256(params_text.encode()).hexdigest()


# Input lengths at the edges of the v4 layout, in systematic shards of one word column
# (8*k*m bytes): the systematic digests come from the input's runs and zero padding.
LAYOUT_EDGES = {"empty": 0, "one byte": 1, "shard - 1": -1, "shard": 0, "shard + 1": 1,
                "k shards": 0, "k shards + 1": 1}


@pytest.mark.parametrize("edge", list(LAYOUT_EDGES))
@pytest.mark.parametrize("degree", [8, 16])
def test_encode_digests_match_the_shard_files_at_layout_edges(tmp_path, degree, edge):
    k, shard = 3, 8 * 3 * degree
    length = LAYOUT_EDGES[edge] + (k * shard if edge.startswith("k shards")
                                   else shard if edge.startswith("shard") else 0)
    payload = random.Random(length).randbytes(length)
    _, shard_dir = _encode(tmp_path, payload, "--field-degree", str(degree))
    manifest = json.loads((shard_dir / "manifest.json").read_text())
    raws = [(shard_dir / manifest["shards"][str(nid)]).read_bytes() for nid in range(1, 7)]
    words = -(-length // (k * shard))  # a shard is `words` columns of `shard` bytes
    assert {len(raw) for raw in raws} == {words * shard}
    for nid, raw in enumerate(raws, 1):
        assert manifest["sha256"][str(nid)] == hashlib.sha256(raw).hexdigest(), nid
    assert b"".join(raws[:k]) == payload.ljust(k * words * shard, b"\0")
    assert manifest["data_sha256"] == hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("node", [2, 4, 6])
def test_extract_detects_flipped_byte(tmp_path, capsys, node):
    params_file, shard_dir = _encode(tmp_path, random.Random(4).randbytes(500))
    shard = shard_dir / f"node_{node:02d}.shard"
    _flip_byte(shard, shard.stat().st_size // 3)
    capsys.readouterr()
    out = tmp_path / "o.bin"
    assert _extract(params_file, shard_dir, out) == 1
    assert shard.name in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("nodes", ["1,2,5,6", "5,6,7,8"])
def test_decode_waits_for_the_digests_before_it_writes_over_a_shard(tmp_path, capsys,
                                                                     monkeypatch, nodes):
    # The decode writes its missing coordinates over the parity shards' slots, which the
    # worker may not have hashed yet: it waits for every digest first, so late digests
    # neither fail good shards nor let a damaged one through.
    params_file, src, shard_dir = tmp_path / "params.json", tmp_path / "input.bin", tmp_path / "s"
    assert main(["gen-params", "--k", "4", "--seed", "3", "--out", str(params_file)]) == 0
    payload = random.Random(13).randbytes(3000)
    src.write_bytes(payload)
    assert main(["encode", "--params", str(params_file), "--in", str(src),
                 "--out-dir", str(shard_dir)]) == 0
    sha256 = cli_mod._sha256

    def slow(*parts):  # every digest of the CLI's worker starts about 50 ms late
        time.sleep(0.05)
        return sha256(*parts)
    monkeypatch.setattr(cli_mod, "_sha256", slow)
    out = tmp_path / "o.bin"
    assert _extract(params_file, shard_dir, out, nodes) == 0
    assert out.read_bytes() == payload
    out.unlink()
    shard = shard_dir / "node_06.shard"  # its slot is a missing systematic node's: overwritten
    raw = bytearray(shard.read_bytes())
    raw[len(raw) // 2] ^= 0x80
    shard.write_bytes(bytes(raw))
    capsys.readouterr()
    assert _extract(params_file, shard_dir, out, nodes) == 1
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


def _edit_manifest(**changes):
    """Set the manifest's keys to `changes` (None drops the key): the shards stay as they are."""
    def edit(shard_dir):
        path = shard_dir / "manifest.json"
        manifest = {**json.loads(path.read_text()), **changes}
        path.write_text(json.dumps({key: v for key, v in manifest.items() if v is not None}))
    return edit


def _truncate_shard(shard_dir, nbytes=1):
    shard = shard_dir / "node_04.shard"
    shard.write_bytes(shard.read_bytes()[:-nbytes])


def _retype(key, convert):
    """Store the manifest's own `key` value as another JSON type (`convert` of it)."""
    def edit(shard_dir):
        path = shard_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, key: convert(manifest[key])}))
    return edit


def _block_major_size_shard(shard_dir):
    """Cut node 4's shard to the size a block-major (v1, v2) shard had: k bytes a block."""
    manifest = json.loads((shard_dir / "manifest.json").read_text())
    shard = shard_dir / "node_04.shard"
    shard.write_bytes(shard.read_bytes()[:manifest["block_count"] * manifest["k"]])


def _without(*keys):
    """Drop digest `keys` from the manifest and flip a byte of node 4's shard (in --nodes)."""
    def edit(shard_dir):
        _edit_manifest(**dict.fromkeys(keys))(shard_dir)
        _flip_byte(shard_dir / "node_04.shard", 5)
    return edit


def _moved_shard(name):
    """Move node 4's shard (in --nodes) to `name`, a path from the shard directory (`{}` is
    the directory's parent), and name it so in the manifest: extract reads only plain names."""
    def edit(shard_dir):
        target = shard_dir / name.format(shard_dir.parent)
        target.parent.mkdir(exist_ok=True)
        (shard_dir / "node_04.shard").rename(target)
        path = shard_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["shards"]["4"] = name.format(shard_dir.parent)
        path.write_text(json.dumps(manifest))
    return edit


BAD_INPUTS = {
    "missing manifest": lambda d: (d / "manifest.json").unlink(),
    "unparsable manifest": lambda d: (d / "manifest.json").write_text("{not json"),
    "manifest not an object": lambda d: (d / "manifest.json").write_text("[1, 2]"),
    "manifest misses a shard entry": lambda d: _edit_manifest(shards={"1": "node_01.shard"})(d),
    "missing shard file": lambda d: (d / "node_04.shard").unlink(),
    "shard named by an absolute path": _moved_shard("{}/elsewhere/x.shard"),
    "shard named outside the directory": _moved_shard("../elsewhere/x.shard"),
    "shard named in a subdirectory": _moved_shard("sub/x.shard"),
    "truncated shard": _truncate_shard,
    "v3 shard one word short": lambda d: (_legacy(d), _truncate_shard(d, 8)),
    "v3 manifest relabelled version 2": lambda d: (_legacy(d), _edit_manifest(version=2)(d)),
    "v4 shard one word short": lambda d: _truncate_shard(d, 8),
    "v4 manifest relabelled version 3": _edit_manifest(version=3),  # refused by its version
    "manifest version not an integer": _edit_manifest(version="3"),
    "manifest version a float": _edit_manifest(version=3.0),
    "block count a string": _retype("block_count", str),
    "block count a float": _retype("block_count", float),
    "original length a string": _retype("original_length", str),
    "original length a float": _retype("original_length", float),
    "manifest k a float": _retype("k", float),
    "manifest field degree a float": _retype("field", lambda f: {**f, "degree": 8.0}),
    "manifest without version": _edit_manifest(version=None),
    "unknown manifest version": _edit_manifest(version=5),
    # The four "v1 ..." cases keep the names they had when they edited v1 directories; they
    # edit v4 ones, and "v1 truncated shard" cuts a shard to the size a v1 shard had.
    "v1 truncated shard": _block_major_size_shard,
    "v1 manifest k differs": _edit_manifest(k=4),
    "v1 manifest field differs": _edit_manifest(field={"degree": 16, "reduction_poly": "0x1100b"}),
    "v1 block count differs": _edit_manifest(block_count=3),
    "original length too short": _edit_manifest(original_length=5),
    "original length negative": _edit_manifest(original_length=-3),
    "original length too long": _edit_manifest(original_length=10**6),
    "manifest without sha256, flipped shard byte": _without("sha256"),
    "manifest without params_sha256, flipped shard byte": _without("params_sha256"),
    "manifest without data_sha256, flipped shard byte": _without("data_sha256"),
    "manifest without any digest, flipped shard byte": _without("sha256", "params_sha256",
                                                                "data_sha256"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_extract_bad_input_exits_1(tmp_path, capsys, monkeypatch, case):
    params_file, shard_dir = _encode(tmp_path, random.Random(7).randbytes(400))
    BAD_INPUTS[case](shard_dir)
    decodes, decode_nodes = [], cluster_mod.decode_nodes

    def spy(*args):
        decodes.append(args)
        return decode_nodes(*args)
    monkeypatch.setattr(cluster_mod, "decode_nodes", spy)
    capsys.readouterr()
    threads, out = threading.active_count(), tmp_path / "o.bin"
    assert _extract(params_file, shard_dir, out) == 1
    assert threading.active_count() == threads  # the digest worker is gone
    _one_error_line(capsys)
    assert not out.exists()
    assert decodes == []  # refused on the manifest and the shard sizes alone


@pytest.mark.parametrize("case", ["v3-k3-gf8", "v3-k4-gf16", 1, 2, 3])
def test_extract_refuses_manifest_versions_before_4(tmp_path, capsys, case):
    # The v3 directories as they were written, and a v4 directory relabelled 1, 2 or 3.
    if isinstance(case, int):
        version, (params_file, shard_dir) = case, _encode(tmp_path, random.Random(7).randbytes(400))
        _edit_manifest(version=version)(shard_dir)
    else:
        version, shard_dir = 3, tmp_path / "shards"
        params_file = _legacy(shard_dir, case[3:])[0]
    nodes = ",".join(map(str, range(1, load(params_file).k + 1)))
    capsys.readouterr()
    threads, out = threading.active_count(), tmp_path / "o.bin"
    assert _extract(params_file, shard_dir, out, nodes) == 1
    assert threading.active_count() == threads
    line = _one_error_line(capsys)
    assert f"manifest version {version}," in line and "encoded again" in line, line
    assert not out.exists()


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


def test_extract_with_params_of_other_k_exits_1(tmp_path, capsys):
    _, shard_dir = _encode(tmp_path, b"k=3 data")
    params_k4 = tmp_path / "k4.json"
    assert main(["gen-params", "--k", "4", "--seed", "7", "--out", str(params_k4)]) == 0
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
    assert not (tmp_path / "shards").exists()


def test_simulate_rejects_field_that_does_not_fill_whole_bytes(tmp_path, capsys):
    sc_file = tmp_path / "scenario.json"
    sc_file.write_text(json.dumps({"k": 3, "field": {"degree": 4},
                                   "data": {"random": {"bytes": 64, "seed": 2}},
                                   "steps": [{"fail": [1]}]}))
    assert main(["simulate", "--scenario", str(sc_file)]) == 1
    assert "degree 8 or 16" in _one_error_line(capsys)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_extract_refuses_field_that_does_not_fill_whole_bytes(tmp_path, capsys, version):
    # encode refuses such params, so the directory is made by hand: one block, each shard
    # zero bytes of the size a shard has, and every digest in place.  Versions 1-3 are
    # refused by their version before the field is read.
    params_file = _gen(tmp_path, "--field-degree", "4")
    doc, shard_dir, size = json.loads(params_file.read_text()), tmp_path / "shards", 3 * 4 * 8
    shard_dir.mkdir()
    shards = {str(nid): f"node_{nid:02d}.shard" for nid in range(1, 7)}
    for name in shards.values():
        (shard_dir / name).write_bytes(bytes(size))
    (shard_dir / "manifest.json").write_text(json.dumps({
        "version": version, "k": 3, "field": doc["field"], "original_length": 4, "block_count": 1,
        "shards": shards, "sha256": dict.fromkeys(shards, hashlib.sha256(bytes(size)).hexdigest()),
        "params_sha256": _params_sha256(doc), "data_sha256": hashlib.sha256(bytes(4)).hexdigest()}))
    capsys.readouterr()
    assert _extract(params_file, shard_dir, tmp_path / "o.bin") == 1
    line = _one_error_line(capsys)
    if version < 4:
        assert f"manifest version {version}," in line and "encoded again" in line, line
    else:
        assert "field degree 8 or 16, not 4" in line, line
    assert not (tmp_path / "o.bin").exists()


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
def test_every_node_set_class_extracts_the_input(tmp_path, name):
    # The legacy directories' inputs and params, encoded now.  Neither length fills whole
    # 64-block words, so the last word column of every shard holds pad blocks.
    params_file, payload = _legacy(tmp_path / "legacy", name)
    src, shard_dir = tmp_path / "input.bin", tmp_path / "shards"
    src.write_bytes(payload)
    assert main(["encode", "--params", str(params_file), "--in", str(src),
                 "--out-dir", str(shard_dir)]) == 0
    k = load(params_file).k
    systematic, parity = list(range(1, k + 1)), list(range(k + 1, 2 * k + 1))
    for nodes in (systematic, [1, 2] + parity[:k - 2], systematic[1:] + parity[-1:], parity):
        out = tmp_path / "o.bin"
        assert _extract(params_file, shard_dir, out, ",".join(map(str, nodes))) == 0
        assert out.read_bytes() == payload, nodes


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
    threads = threading.active_count()
    assert main(argv) == 1
    assert threading.active_count() == threads  # the digest worker is gone
    assert _one_error_line(capsys) == "error: injected"


def test_every_command_leaves_the_thread_count_as_it_was(tmp_path):
    params_file, shard_dir = _encode(tmp_path, b"one worker a command")
    commands = [
        ["gen-params", "--k", "3", "--out", str(tmp_path / "p.json")],
        ["validate-params", "--params", str(params_file)],
        ["encode", "--params", str(params_file), "--in", str(tmp_path / "input.bin"),
         "--out-dir", str(tmp_path / "again")],
        ["extract", "--params", str(params_file), "--in-dir", str(shard_dir),
         "--nodes", "2,4,6", "--out", str(tmp_path / "o.bin")],
        ["simulate", "--scenario", "six-node-all-pairs"],
    ]
    for argv in commands:
        threads = threading.active_count()
        assert main(argv) == 0
        assert threading.active_count() == threads, argv[0]


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
