import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscr.cli import main
from mscr.params import load, validate


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
                 ["simulate", "--scenario", str(scenario)],
                 ["validate-params", "--params", str(bad)]):
        assert main(argv) == 1, argv
        _one_error_line(capsys)


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


def test_encode_writes_manifest_v2(tmp_path):
    import hashlib
    params_file, shard_dir = _encode(tmp_path, b"manifest payload")
    manifest = json.loads((shard_dir / "manifest.json").read_text())
    assert manifest["version"] == 2
    assert manifest["shards"] == {str(i): f"node_{i:02d}.shard" for i in range(1, 7)}
    for nid, name in manifest["shards"].items():
        digest = hashlib.sha256((shard_dir / name).read_bytes()).hexdigest()
        assert manifest["sha256"][nid] == digest
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


def _as_v1(shard_dir):
    path = shard_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["sha256"], manifest["params_sha256"]
    manifest["version"] = 1
    path.write_text(json.dumps(manifest))
    return manifest


def test_extract_reads_v1_manifest(tmp_path):
    payload = random.Random(6).randbytes(777)
    params_file, shard_dir = _encode(tmp_path, payload)
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


def _truncate_shard(shard_dir):
    shard = shard_dir / "node_04.shard"
    shard.write_bytes(shard.read_bytes()[:-1])


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


@pytest.mark.parametrize("version", [1, 2])
def test_extract_reads_manifest_without_data_digest(tmp_path, version):
    import hashlib
    payload = random.Random(8).randbytes(400)
    params_file, shard_dir = _encode(tmp_path, payload)
    path = shard_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["data_sha256"] == hashlib.sha256(payload).hexdigest()
    if version == 1:
        manifest = _as_v1(shard_dir)
    del manifest["data_sha256"]
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
