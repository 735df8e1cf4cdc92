"""Tests of the benchmark itself: smoke runs, fault injection, missing sources.

They check that every metric is reported with its unit and that the output
checks can fail; they check no speed.  Run with:

    python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_workloads as bw  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bw.WORKLOADS))
def test_smoke_reports_every_metric_without_failures(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    assert record["fail_frac"] == 0, record["errors"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for key in ("python", "numpy", "nproc", "cpu_model", "git_commit", "seed", "traced",
                "sizes", "repeat_nodeset_share", "repeat_pattern_share"):
        assert key in record
    if trace:
        assert result["metrics"]["repair.gamma_over_bound"]["value"] == 1
        spans = (ROOT / record["trace"]["spans_file"]).read_text().splitlines()
        assert spans[0].split("\t") == ["id", "parent", "op", "name", "start_s", "end_s"]
        assert len(spans) > 1


def test_flipped_parity_byte_fails_degraded_extract(tmp_path):
    """A corrupt parity shard read by a k-node extract must count as a failure.

    The extract itself reports no error (its residual check cannot fire with
    exactly k nodes), so only the benchmark's own comparison catches it.
    """
    workload = bw.CliWorkload(5, True, tmp_path)
    run = bw.Run()
    cycle = tmp_path / "cycle"
    cycle.mkdir()
    params = cycle / "params.json"
    assert workload.gen_params(run, params, 11)
    shards = cycle / "shards"
    assert workload.encode(run, params, shards)
    manifest = json.loads((shards / "manifest.json").read_text())
    parity = shards / manifest["shards"][str(workload.k + 1)]
    raw = bytearray(parity.read_bytes())
    raw[len(raw) // 2] ^= 0x5A
    parity.write_bytes(bytes(raw))

    nodes = (1, 2, workload.k + 1, workload.k + 2)
    assert len(nodes) == workload.k
    workload.extract(run, params, shards, nodes, 11)
    workload.close()
    assert run.failed / run.attempted > 0
    assert run.ops[-1].kind == "get" and run.ops[-1].failed


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(BENCHMARK["workloads"][0]["name"], 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
