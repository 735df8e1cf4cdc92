"""Spans around the public functions of each mscr layer, recorded from outside.

A :class:`Tracer` replaces each public function and method of the seven
layers (the modules ``galois``, ``linalg``, ``params``, ``codec``,
``repair``, ``cluster`` and ``cli``) with a timing wrapper, at every place a
caller looks the name up: module globals in every mscr module that hold the
function (so ``params.first_singular_minor`` is patched as well as
``linalg.first_singular_minor``) and class attributes for methods.  Nothing
in ``src/`` is edited; :meth:`Tracer.uninstall` puts the originals back.

Scalar per-symbol arithmetic (``FieldElement`` operators, ``FieldSpec.*_int``)
and matrix entry accessors are not wrapped: their cost lands in the caller's
self time.  A target name that no longer exists is skipped, so the metrics
derived from it go missing instead of the run failing.

Every span records a name, start, end, parent span and operation id.  Spans
are kept in memory (up to ``MAX_SPANS``; later ones are only aggregated) and
written out by :meth:`Tracer.write_spans` once the run ends.  Self time,
per-name call counts and inclusive times are accumulated online, so the
aggregates stay exact when spans are dropped.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("galois", "linalg", "params", "codec", "repair", "cluster", "cli")

#: Public functions and methods wrapped per layer ("Class.method" or "function").
TARGETS = {
    "galois": ["FieldSpec.__init__", "FieldSpec.scale_array",
               "FieldSpec.sample_distinct"],
    "linalg": ["Matrix.invert", "Matrix.solve", "Matrix.det", "Matrix.__matmul__",
               "Matrix.__add__", "Matrix.transpose", "Matrix.scalar_mul",
               "Matrix.int_rows", "dot", "solve_vector", "cauchy", "cauchy_inverse",
               "first_singular_minor", "is_super_regular", "random_matrix",
               "random_nonsingular"],
    "params": ["generate", "validate", "solve_dual_constants", "to_document",
               "from_document", "load", "save"],
    "codec": ["encode", "dual_encode", "z_column", "node_contents",
              "encode_matrix", "collection_matrix", "collect"],
    "repair": ["FailurePattern.classify", "optimal_bandwidth", "probe_vector",
               "plan_repair", "phase1_symbol", "phase1_messages",
               "repair_parity_group", "repair_systematic_group",
               "mixed_repair_matrix", "check_mixed_matrix",
               "sherman_morrison_scalar", "sherman_morrison_check",
               "repair_mixed_pair", "apply_repair"],
    "cluster": ["bytes_to_symbols", "symbols_to_bytes", "decode_nodes",
                "Cluster.ingest", "Cluster.node_symbols_bytes",
                "Cluster.block_content", "Cluster.extract", "Cluster.fail",
                "Cluster.run_repair", "Scenario.from_document", "load_scenario",
                "run_scenario"],
    "cli": ["build_parser", "cmd_gen_params", "cmd_encode", "cmd_extract",
            "cmd_simulate", "cmd_validate_params", "main"],
}

MAX_SPANS = 200_000

SCALE = "galois.FieldSpec.scale_array"
RUN_REPAIR = "cluster.Cluster.run_repair"

# File I/O seen while a CLI command runs is counted through these methods.
_PATH_IO = (("read_bytes", "read"), ("read_text", "read"),
            ("write_bytes", "written"), ("write_text", "written"))


def _scale_bytes(args):
    return args[2].nbytes


def _repair_pattern(args):
    pattern = args[1]
    return pattern.kind, len(pattern.failed)


# Per-span facts read from the call's arguments; a failing reader records nothing.
_ANNOTATE = {SCALE: _scale_bytes, RUN_REPAIR: _repair_pattern}


class Tracer:
    """In-memory span recorder with online per-layer aggregation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_seen = 0
        # Open spans, innermost last: [span index, layer, start, child seconds].
        self._stack: list[list] = []
        self._layer_depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.cache_calls: dict[str, int] = defaultdict(int)
        self.cache_hits: dict[str, int] = defaultdict(int)
        #: (layer, op kind) -> self seconds.
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        #: (op id, layer) -> seconds inside the outermost spans of that layer.
        self.layer_time: dict[tuple[int, str], float] = defaultdict(float)
        #: name -> list of (annotation, seconds, op id).
        self.annotations: dict[str, list] = defaultdict(list)
        self.io_bytes = {"read": 0, "written": 0}
        self.op_id = -1  # -1 outside benchmark operations
        self.op_kind = "none"
        self.ops = 0
        self.installed: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int, layer: str) -> list:
        stack = self._stack
        index = -1
        if len(self.span_start) < MAX_SPANS:
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_end.append(0.0)
        self.spans_seen += 1
        self._layer_depth[layer] += 1
        frame = [index, layer, 0.0, 0.0]
        stack.append(frame)
        frame[2] = start = time.perf_counter()
        if index >= 0:
            self.span_start.append(start)
        return frame

    def _exit(self, frame: list, name: str) -> float:
        end = time.perf_counter()
        index, layer, start, child = frame
        self._stack.pop()
        self._layer_depth[layer] -= 1
        if index >= 0:
            self.span_end[index] = end
        duration = end - start
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.self_time[(layer, self.op_kind)] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            if parent[1] != layer:
                self.layer_time[(self.op_id, layer)] += duration
        else:
            self.layer_time[(self.op_id, layer)] += duration
        return duration

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; its spans share an op id."""
        self.op_id, self.op_kind = self.ops, kind
        self.ops += 1
        frame = self._enter(self._name_id(f"bench.op.{kind}"), "bench")
        try:
            yield self.op_id
        finally:
            self._exit(frame, f"bench.op.{kind}")
            self.op_id, self.op_kind = -1, "none"

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]
        name_id = self._name_id(name)
        annotate = _ANNOTATE.get(name)
        cached = callable(getattr(fn, "cache_info", None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = fn.cache_info().hits if cached else 0
            frame = tracer._enter(name_id, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame, name)
                if cached:
                    tracer.cache_calls[name] += 1
                    tracer.cache_hits[name] += fn.cache_info().hits - hits
                if annotate is not None:
                    try:
                        note = annotate(args)
                    except (AttributeError, IndexError, TypeError):
                        note = None
                    if note is not None:
                        tracer.annotations[name].append((note, duration, tracer.op_id))

        return traced

    def _wrap_io(self, fn, direction: str):
        tracer = self

        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            if tracer._layer_depth["cli"]:
                data = result if direction == "read" else args[0] if args else b""
                tracer.io_bytes[direction] += len(
                    data.encode() if isinstance(data, str) else data)
            return result

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target that exists; record which ones were found."""
        self.installed = []
        modules = {layer: sys.modules.get(f"mscr.{layer}") for layer in LAYERS}
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mscr" or name.startswith("mscr."))]
        for layer, targets in TARGETS.items():
            module = modules[layer]
            if module is None:
                continue
            for target in targets:
                name = f"{layer}.{target}"
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = getattr(cls, "__dict__", {}).get(attr)
                    if raw is None:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._patch(cls, attr, wrapped)
                else:
                    fn = module.__dict__.get(target)
                    if fn is None:
                        continue
                    wrapped = self._wrap(name, fn)
                    for mod in package:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, key, wrapped)
                self.installed.append(name)
        for attr, direction in _PATH_IO:
            original = pathlib.Path.__dict__.get(attr)
            if original is not None:
                self._patch(pathlib.Path, attr, self._wrap_io(original, direction))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed_for(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------------------

    @property
    def spans_dropped(self) -> int:
        return self.spans_seen - len(self.span_start)

    def write_spans(self, path: pathlib.Path) -> None:
        """Tab-separated spans: id, parent (-1 for none), op id, name, start, end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        with path.open("w") as out:
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                          f"{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i] - origin:.9f}\t"
                          f"{self.span_end[i] - origin:.9f}\n")
