"""The benchmark's per-layer metrics still find the functions they trace.

`perfbench/bench_trace.py` wraps functions by name and skips a name that no
longer exists, so a renamed kernel would make the `galois.scale_*` metrics
vanish without an error.  This test fails instead.
"""

import importlib
import random
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import bench_trace  # noqa: E402
from mscr.cluster import Cluster  # noqa: E402
from mscr.repair import FailurePattern  # noqa: E402


def _resolve(name: str):
    layer, *attrs = name.split(".")
    target = importlib.import_module(f"mscr.{layer}")
    for attr in attrs:
        target = getattr(target, attr)
    return target


def test_trace_targets_resolve_and_kernel_calls_carry_bytes(params63):
    scale, run_repair = bench_trace.SCALE, bench_trace.RUN_REPAIR
    assert callable(_resolve(scale)) and callable(_resolve(run_repair))

    tracer = bench_trace.Tracer()
    data = random.Random(3).randbytes(900)
    with tracer.installed_for():
        with tracer.op("put"):
            cluster = Cluster.ingest(data, params63, keep_oracle=False)
        with tracer.op("get"):
            assert cluster.extract([4, 5, 6]) == data
        with tracer.op("repair"):
            cluster.fail({1, 4})
            cluster.run_repair(FailurePattern.classify({1, 4}, params63.k))
    assert {scale, run_repair} <= set(tracer.installed)
    assert tracer.calls[scale] >= 1 and tracer.calls[run_repair] == 1
    nbytes = [note for note, _, _ in tracer.annotations[scale]]
    assert len(nbytes) == tracer.calls[scale] and all(n > 0 for n in nbytes)
    assert cluster.extract([1, 2, 3]) == data


# The other spans `perfbench/run.py` derives per-layer metrics from.
PER_LAYER_NAMES = ("linalg.Matrix.invert", "linalg.first_singular_minor", "params.generate",
                   "params.validate", "codec.encode_matrix", "codec.collection_matrix",
                   "repair.plan_repair", "repair.apply_repair")


def test_per_layer_metric_names_resolve_and_are_traced():
    for name in PER_LAYER_NAMES:
        layer, attr = name.split(".", 1)
        assert callable(_resolve(name)), name
        assert attr in bench_trace.TARGETS[layer], name


# Traced names that no longer exist in the package.  A deletion of a traced name
# must be added here; the next perfbench change drops them from TARGETS.
STALE_TARGETS = {
    "galois.FieldSpec.sample_distinct", "linalg.solve_vector", "linalg.is_super_regular",
    "linalg.random_matrix", "linalg.Matrix.int_rows", "linalg.dot", "codec.z_column",
    "codec.node_contents",
    "repair.repair_parity_group", "repair.repair_systematic_group",
    "repair.repair_mixed_pair", "repair.mixed_repair_matrix", "repair.check_mixed_matrix",
    "repair.sherman_morrison_scalar", "repair.sherman_morrison_check",
    "cluster.bytes_to_symbols", "cluster.symbols_to_bytes",
    "cluster.Cluster.block_content",
}


def test_unresolved_trace_targets_are_the_known_stale_set():
    unresolved = set()
    for layer, names in bench_trace.TARGETS.items():
        for name in names:
            try:
                _resolve(f"{layer}.{name}")
            except AttributeError:
                unresolved.add(f"{layer}.{name}")
    assert unresolved == STALE_TARGETS
