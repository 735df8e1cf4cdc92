import json
import random

import pytest

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
