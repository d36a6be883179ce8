"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: around the public
calls the benchmark makes into each layer, and around public functions of
the hashing and sketch layers, which `Tracer.wrap_library` swaps for timing
wrappers while a single-process replay runs (and restores afterwards).
A layer's busy time is the self time of its spans: duration minus the part
covered by child spans, so busy times of nested layers add up without
double counting.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
import time
from collections import defaultdict

#: the sketch kinds whose public methods are timed
SKETCH_KINDS = ("block", "hll", "cms", "kll", "taffy_block")
#: sketch method -> (layer, how to count its work)
SKETCH_METHODS = {
    "update": ("sketch.insert", "keys"),
    "find_hashes": ("sketch.find", "keys"),
    "merge": ("sketch.merge", "calls"),
    "to_bytes": ("sketch.serde", "bytes_out"),
    "from_bytes": ("sketch.serde", "bytes_in"),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Record one span; yields its count dict for the caller to fill."""
        parent = self._stack[-1]["id"] if self._stack else None
        sp = {"id": len(self.spans), "name": name, "parent": parent,
              "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp["counts"]
        finally:
            sp["end"] = time.perf_counter()
            self._stack.pop()

    def _active(self, name: str) -> bool:
        return any(sp["name"] == name for sp in self._stack)

    def layers(self, root_ids=None) -> dict:
        """{layer: {"busy_s": self time, <count>: total}} over the spans
        under `root_ids` (all spans when None)."""
        children = defaultdict(float)
        for sp in self.spans:
            if sp["parent"] is not None:
                children[sp["parent"]] += sp["end"] - sp["start"]
        keep = None
        if root_ids is not None:
            keep = set(root_ids)
            for sp in self.spans:  # parents precede children
                if sp["parent"] in keep:
                    keep.add(sp["id"])
        out: dict = defaultdict(lambda: defaultdict(float))
        for sp in self.spans:
            if keep is not None and sp["id"] not in keep:
                continue
            agg = out[sp["name"]]
            agg["busy_s"] += sp["end"] - sp["start"] - children[sp["id"]]
            agg["spans"] += 1
            for k, v in sp["counts"].items():
                agg[k] += v
        return out

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, **extra}, f)

    # -- library wrappers --------------------------------------------------
    @contextlib.contextmanager
    def wrap_library(self):
        """Time the hashing and sketch layers' public functions while the
        block is active. Re-entrant calls (a chunked array hashed chunk by
        chunk, a growable filter inserting into its levels) stay inside the
        outer span and are not counted twice."""
        from libfilter_ray.sketch import hashing, registry

        undo = []
        orig_hash = hashing.hash_arrow_array
        wrapped_hash = self._wrap_hash(orig_hash)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("libfilter_ray")
                    and getattr(mod, "hash_arrow_array", None) is orig_hash):
                undo.append((mod, "hash_arrow_array", orig_hash))
                mod.hash_arrow_array = wrapped_hash
        for kind in SKETCH_KINDS:
            cls = registry.get(kind)
            for meth, (layer, how) in SKETCH_METHODS.items():
                if meth in cls.__dict__:
                    raw = cls.__dict__[meth]
                    undo.append((cls, meth, raw))
                    setattr(cls, meth, self._wrap_method(raw, layer, how))
        try:
            yield
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def _wrap_hash(self, fn):
        import pyarrow as pa

        def hash_arrow_array(arr, *args, **kwargs):
            if self._active("hashing"):
                return fn(arr, *args, **kwargs)
            key_bytes = scanned = 0
            chunks = arr.chunks if isinstance(arr, pa.ChunkedArray) else [arr]
            for c in chunks:
                if pa.types.is_integer(c.type):
                    key_bytes += 8 * len(c)
                    scanned += 8 * len(c)
                    continue
                bufs = c.buffers()
                off = 8 if pa.types.is_large_string(c.type) \
                    or pa.types.is_large_binary(c.type) else 4
                if len(c):
                    first = int.from_bytes(
                        bufs[1][off * c.offset:off * (c.offset + 1)],
                        "little", signed=True)
                    last = int.from_bytes(
                        bufs[1][off * (c.offset + len(c)):
                                off * (c.offset + len(c) + 1)],
                        "little", signed=True)
                    key_bytes += last - first
                scanned += bufs[2].size if bufs[2] is not None else 0
            with self.span("hashing", keys=len(arr), key_bytes=key_bytes,
                           scanned_bytes=scanned):
                return fn(arr, *args, **kwargs)

        return hash_arrow_array

    def _wrap_method(self, raw, layer: str, how: str):
        tracer = self
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw

        def wrapper(first, *args, **kwargs):
            if tracer._active(layer):
                return fn(first, *args, **kwargs)
            with tracer.span(layer) as counts:
                out = fn(first, *args, **kwargs)
                if how == "keys":
                    counts["keys"] = len(args[0])
                elif how == "calls":
                    counts["merges"] = 1
                elif how == "bytes_in":
                    counts["bytes"] = len(args[0])
                else:  # bytes_out
                    counts["bytes"] = len(out)
                return out

        return classmethod(wrapper) if is_cm else wrapper


class RayStats:
    """Ray Data's per-operator stats of every execution that finishes while
    `capture()` is active, taken from the executor's final stats when it
    shuts down."""

    _OP = re.compile(r"(\d+) tasks executed, (\d+) blocks produced")

    def __init__(self):
        #: (operator name, tasks, blocks) in execution order
        self.operators: list[tuple[str, int, int]] = []
        self._seen: set = set()

    def _add(self, summary) -> None:
        """Add the operators of `summary` and of its parents (the stats
        chain of one execution), each operator once."""
        for parent in summary.parents:
            self._add(parent)
        for op in summary.operators_stats:
            # a materialized input reappears as a parent of its consumers
            key = (op.operator_name, op.earliest_start_time)
            found = self._OP.search(op.block_execution_summary_str or "")
            if found and key not in self._seen:
                self._seen.add(key)
                self.operators.append((op.operator_name, int(found[1]),
                                       int(found[2])))

    @contextlib.contextmanager
    def capture(self):
        from ray.data._internal.execution.streaming_executor import \
            StreamingExecutor

        original = StreamingExecutor.shutdown

        def shutdown(executor, *args, **kwargs):
            done = executor._final_stats is not None
            out = original(executor, *args, **kwargs)
            if not done and executor._final_stats is not None:
                self._add(executor._final_stats.to_summary())
            return out

        StreamingExecutor.shutdown = shutdown
        try:
            yield self
        finally:
            StreamingExecutor.shutdown = original

    def totals(self) -> tuple[int, int]:
        return (sum(t for _, t, _ in self.operators),
                sum(b for _, _, b in self.operators))
