"""Benchmark of the mscr store: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk-k3-gf8 --seed 1 --seconds 45 --trace 0

Workloads: bulk-k3-gf8, objects-k8-gf8, cli-k4-gf16 (see bench_workloads.py
and BENCHMARK.json for why each exists).  A run is one process, one client,
one thread, closed loop.

--trace 0 measures for --seconds and reports the end-to-end metrics of
BENCHMARK.json.  --trace 1 first runs one untimed set-up, so the field tables
(cached per process) are built before any pass, then alternates an untraced
and a traced pass over the same fixed operation list (fresh parameters each
pass, so neither reuses the other's per-parameter work), as many pairs as fit
in --seconds (at least one), and reports the per-layer metrics per pass plus
the tracing overhead.  --smoke shrinks every input to a few KiB.

Outputs: human-readable metric lines, a ``record`` line with the environment
and input description, and as the last line one JSON object with the keys
correct, attempted, failed and metrics.  Spans of a traced run go to
.perfbench_work/ in the repository root.  Exit code 0 means a result was
printed; 2 means the run could not start (for example, no ``src/mscr`` next
to this directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MiB = 1 << 20
SMOKE_SETUP_BATCHES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="inputs of a few KiB; checks the plumbing, not the speed")
    return parser.parse_args(argv)


def import_mscr():
    """Import mscr from this checkout's src/, never from an installed copy."""
    if not (SRC / "mscr" / "__init__.py").is_file():
        raise ImportError(f"no mscr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mscr
    if SRC not in Path(mscr.__file__).resolve().parents:
        raise ImportError(f"mscr was imported from {mscr.__file__}, not {SRC}")
    return mscr


def nearest_rank(values, p: float) -> float:
    """Smallest value with at least a share p of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class SetupProbes:
    """Cold set-ups in batches, one batch process at each of evenly spaced moments.

    Each batch is a fresh process that forks one child per cold set-up, so a
    run takes many samples; spreading the batches samples the machine at
    several moments, so the median follows the whole run rather than the few
    seconds before it.
    """

    def __init__(self, workload, run, params_seed: int, batches: int, per_batch: int,
                 seconds: float):
        self.workload, self.run, self.params_seed = workload, run, params_seed
        self.per_batch = per_batch
        start = time.perf_counter()
        self.due = [start + i * seconds / batches for i in range(batches)]
        self.batches = 0
        self.samples: list[float] = []

    def __call__(self) -> None:
        """Called between cycles: run every batch whose time has come."""
        while self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.batch()

    def finish(self) -> list[float]:
        while self.due:
            self.due.pop(0)
            self.batch()
        return self.samples

    def batch(self) -> None:
        from bench_workloads import Op
        first_seed = self.params_seed + self.batches * self.per_batch
        self.batches += 1
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), self.workload.name,
             str(first_seed), str(self.per_batch), str(WORK)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        try:
            samples = [float(line) for line in proc.stdout.split()]
        except ValueError:
            samples = []
        for seconds in samples:
            self.run.ops.append(Op("setup", seconds))
        self.samples.extend(samples)
        if proc.returncode != 0 or len(samples) != self.per_batch:
            self.run.ops.append(Op("setup", 0.0, failed=True))
            self.run.error(f"setup batch exited {proc.returncode} after {len(samples)} "
                           f"of {self.per_batch} set-ups: {proc.stderr[-300:]}")


def end_to_end(run, setup: list[float]) -> dict:
    ops = [o for o in run.ops if not o.failed]
    by_kind = {kind: [o for o in ops if o.kind == kind] for kind in ("put", "get", "repair")}
    metrics = {"peak_rss_MiB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MiB")}
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    busy = sum(o.seconds for kind in by_kind.values() for o in kind)
    if busy:
        metrics["objects_per_s"] = (run.cycles / busy, "1/s")
    for kind, name in (("put", "ingest"), ("get", "extract"), ("repair", "repair")):
        records = by_kind[kind]
        seconds = sum(o.seconds for o in records)
        if not records or not seconds:
            continue
        metrics[f"{name}_MiBps"] = (sum(o.nbytes for o in records) / seconds / MiB, "MiB/s")
        times = [o.seconds * 1e3 for o in records]
        metrics[f"{kind}_p50_ms"] = (nearest_rank(times, 0.50), "ms")
        metrics[f"{kind}_p95_ms"] = (nearest_rank(times, 0.95), "ms")
    return metrics


def per_layer(tracer, run, passes: int) -> dict:
    """Per-pass totals from the traced passes; rates and shares as measured."""
    from bench_trace import RUN_REPAIR, SCALE
    traced = [o for o in run.ops if o.traced]
    untraced = [o for o in run.ops if not o.traced]
    calls, inclusive, installed = tracer.calls, tracer.inclusive, set(tracer.installed)
    busy = sum(o.seconds for o in traced)
    m: dict = {}

    def total(key: str, name: str, unit: str, source: dict) -> None:
        if name in installed:
            m[key] = (source[name] / passes, unit)

    if SCALE in installed:
        n, seconds = calls[SCALE], inclusive[SCALE]
        nbytes = sum(note for note, _, _ in tracer.annotations[SCALE])
        m["galois.scale_calls"] = (n / passes, "count")
        m["galois.scale_s"] = (seconds / passes, "s")
        m["galois.scale_share"] = (seconds / busy, "frac")
        if n and seconds:
            m["galois.scale_MiBps"] = (nbytes / seconds / MiB, "MiB/s")
            m["galois.us_per_call"] = (seconds / n * 1e6, "us")
    total("linalg.invert_calls", "linalg.Matrix.invert", "count", calls)
    total("linalg.invert_s", "linalg.Matrix.invert", "s", inclusive)
    total("linalg.minor_enum_s", "linalg.first_singular_minor", "s", inclusive)
    total("params.generate_s", "params.generate", "s", inclusive)
    total("params.validate_s", "params.validate", "s", inclusive)
    total("params.validate_calls", "params.validate", "count", calls)
    total("codec.encode_matrix_s", "codec.encode_matrix", "s", inclusive)
    total("codec.collection_matrix_calls", "codec.collection_matrix", "count", calls)
    if tracer.cache_calls.get("codec.collection_matrix"):
        m["codec.collection_matrix_hit_ratio"] = (
            tracer.cache_hits["codec.collection_matrix"]
            / tracer.cache_calls["codec.collection_matrix"], "ratio")
    total("repair.plan_s", "repair.plan_repair", "s", inclusive)
    total("repair.apply_calls", "repair.apply_repair", "count", calls)
    total("repair.apply_s", "repair.apply_repair", "s", inclusive)
    if run.gammas:
        m["repair.symbols_per_newcomer"] = (float(max(run.gammas)), "count")
        m["repair.gamma_over_bound"] = (float(max(run.gamma_ratios)), "ratio")

    for layer in ("galois", "linalg", "params", "codec", "repair", "cluster"):
        m[f"{layer}.self_s"] = (sum(v for (lay, kind), v in tracer.self_time.items()
                                    if lay == layer and kind != "none") / passes, "s")
    for kind, name in (("put", "ingest"), ("get", "extract"), ("repair", "repair")):
        m[f"cluster.{name}_self_s"] = (tracer.self_time[("cluster", kind)] / passes, "s")

    # The i-th traced operation is the tracer's op id i.
    for label in ("systematic", "mixed", "parity"):
        nbytes = seconds = 0.0
        for op_id, o in enumerate(traced):
            if o.kind == "get" and o.label == label and not o.failed:
                nbytes += o.nbytes
                seconds += tracer.layer_time[(op_id, "cluster")]
        m[f"cluster.extract_{label}_MiBps"] = (nbytes / seconds / MiB if seconds else 0.0,
                                               "MiB/s")
    if RUN_REPAIR in installed:
        for kind in ("systematic_group", "parity_group", "mixed_pair"):
            nbytes = seconds = 0.0
            for (pattern_kind, r), duration, op_id in tracer.annotations[RUN_REPAIR]:
                if pattern_kind == kind and op_id >= 0:
                    nbytes += r * traced[op_id].shard_bytes
                    seconds += duration
            m[f"cluster.repair_{kind}_MiBps"] = (
                nbytes / seconds / MiB if seconds else 0.0, "MiB/s")

    for kind, name in (("put", "encode"), ("get", "extract")):
        seconds = sum(o.seconds for o in traced if o.kind == kind)
        m[f"cli.{name}_self_frac"] = (
            tracer.self_time[("cli", kind)] / seconds if seconds else 0.0, "frac")
    m["cli.bytes_written"] = (tracer.io_bytes["written"] / passes, "bytes")
    m["cli.bytes_read"] = (tracer.io_bytes["read"] / passes, "bytes")

    m["workload.repeat_nodeset_share"] = (share(run.nodesets), "frac")
    m["workload.repeat_pattern_share"] = (share(run.patterns), "frac")
    m["trace.overhead_frac"] = (busy / sum(o.seconds for o in untraced) - 1, "frac")
    return m


def share(flags) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def environment(args, workload) -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=20)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "sizes": workload.sizes(),
    }


def warm_up(run, workload, seed: int) -> None:
    """One untimed set-up, so that neither side of the first pair builds the field tables."""
    from bench_workloads import Op, derived_seed, make_params
    try:
        make_params(workload.k, workload.degree, derived_seed(workload.name, seed, "warm-up"))
    except Exception as exc:
        run.ops.append(Op("setup", 0.0, failed=True))
        run.error(f"warm-up setup: {type(exc).__name__}: {exc}")


def run_benchmark(args) -> dict:
    from bench_workloads import WORKLOADS, Run, derived_seed
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, WORK)
    record = environment(args, workload)
    run = Run()
    try:
        if args.trace:
            from bench_trace import Tracer
            warm_up(run, workload, args.seed)
            tracer = Tracer()
            start = time.perf_counter()
            passes = 0
            # Whole untraced+traced pairs, as many as fit in --seconds (at least one).
            while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes \
                    <= args.seconds:
                # Alternate which side goes first, so warm-up favours neither.
                for side in ("U", "T") if passes % 2 == 0 else ("T", "U"):
                    if side == "T":
                        run.tracer = tracer
                        with tracer.installed_for():
                            workload.run_pass(run, f"T{passes}")
                        run.tracer = None
                    else:
                        workload.run_pass(run, f"U{passes}")
                passes += 1
            metrics = per_layer(tracer, run, passes)
            spans = WORK / "spans" / f"{workload.name}-seed{args.seed}.tsv"
            tracer.write_spans(spans)
            record["trace"] = {"passes_per_side": passes, "spans": tracer.spans_seen,
                               "spans_written": len(tracer.span_start),
                               "spans_dropped": tracer.spans_dropped,
                               "targets_wrapped": len(tracer.installed),
                               "spans_file": str(spans.relative_to(ROOT))}
        else:
            batches, per_batch = ((SMOKE_SETUP_BATCHES, SMOKE_SETUP_BATCHES) if args.smoke
                                  else workload.setup_batches)
            probes = SetupProbes(workload, run,
                                 derived_seed(workload.name, args.seed, "setup"), batches,
                                 per_batch, args.seconds)
            workload.run_timed(run, args.seconds, probes)
            setup = probes.finish()
            record["setup_samples_s"] = setup
            metrics = end_to_end(run, setup)
    finally:
        workload.close()
    record.update({
        "cycles": run.cycles,
        "ops": {kind: sum(o.kind == kind for o in run.ops)
                for kind in ("setup", "put", "get", "repair")},
        "repeat_nodeset_share": share(run.nodesets),
        "repeat_pattern_share": share(run.patterns),
        "fail_frac": run.failed / run.attempted if run.attempted else 1.0,
        "errors": run.errors,
    })
    return {"record": record, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_mscr()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcome = run_benchmark(args)
    record, metrics = outcome["record"], outcome["metrics"]
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"workload {record['workload']} seed {args.seed} trace {args.trace} "
          f"cycles {record['cycles']} ops {record['ops']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:<14.6g} {unit}")
    print(f"  {'fail_frac':<40} {record['fail_frac']:<14.6g} frac "
          f"({failed} of {attempted} operations)")
    for error in record["errors"]:
        print(f"  failure: {error}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
