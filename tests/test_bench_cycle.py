"""One full-size cycle of the benchmark's bulk workload passes the benchmark's own checks.

The gated bulk-k3-gf8 workload runs on an 8 MiB stream, two word windows wide, which the
tier-1 smoke runs (12 KiB) never reach.  This runs one of its cycles (put, a get from each
node-set class and a repair of each failure pattern) through `perfbench/bench_workloads.py`,
whose checks compare every get and every repaired shard with the benchmark's own copies.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import bench_workloads as bw  # noqa: E402
from mscr import cluster as cluster_mod  # noqa: E402


def test_full_size_bulk_cycle_passes_the_benchmark_checks(tmp_path):
    workload = bw.BulkWorkload(seed=1, smoke=False, work_dir=tmp_path)
    assert workload.size == bw.BulkWorkload.full_size == 8 * bw.MiB
    words = -(-workload.size // (64 * workload.k ** 2))  # a plane: one bit a k^2-byte block
    assert len(cluster_mod._windows(words)) == 2
    run = bw.Run()
    workload.cycle(run, bw.derived_seed(workload.seed_label, workload.seed, 0))
    assert run.cycles == 1 and run.errors == []
    kinds = [op.kind for op in run.ops]
    assert kinds == ["setup", "put"] + ["get"] * 3 + ["repair"] * 6
    assert run.failed / run.attempted == 0  # the run's fail_frac
