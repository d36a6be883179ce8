"""Wall time of the keyed merge's two paths, and the one-task path's worker
memory, over synthetic partial sets of a given size — the measurement
behind `stages/sketch_build.ONE_TASK_BYTES`.

    python3 tools/keyed_merge_crossover.py [MB ...]   # default: 1 8 64

For each size it builds per-block partial rows of 16 KB BlockBloom
payloads over 50 keys (the grouped builder's output columns), then times
`merge_keyed` with the budget raised (one task) and zeroed (the sharded
path: key-hash split tasks, then one fold task per shard; printed as
"exchange"), best of two each, on one Ray session with one CPU. It also
runs the one-task fold in a fresh worker and reports that worker's peak
RSS, and checks both paths give the same bytes.
"""

from __future__ import annotations

import os
import resource
import sys
import time

import numpy as np
import pyarrow as pa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAYLOAD_BYTES = 16384
NUM_KEYS = 50


def _partials(mb: int, rng) -> list:
    from libfilter_ray.sketch import registry

    def payload():
        f = registry.make("block", bytes_=PAYLOAD_BYTES)
        f.update(rng.integers(0, 2**63, 200, dtype=np.uint64))
        return f.to_bytes()

    pool = [payload() for _ in range(64)]
    nrows = mb * (1 << 20) // PAYLOAD_BYTES
    nblocks = max(1, min(128, nrows // 20))
    per = nrows // nblocks
    return [pa.table({
        "k": pa.array([f"k{(b * per + i) % NUM_KEYS}" for i in range(per)]),
        "rows": pa.array(np.ones(per, dtype=np.int64)),
        "payload_b": pa.array([pool[(b + i) % len(pool)]
                               for i in range(per)], type=pa.large_binary()),
        "fmt_b": pa.array(["sketch"] * per)}) for b in range(nblocks)]


def main() -> int:
    sizes = [int(a) for a in sys.argv[1:]] or [1, 8, 64]
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = ROOT  # Ray workers unpickle the fold

    import ray
    import ray.data

    from libfilter_ray.context import apply_scale_defaults
    from libfilter_ray.stages import sketch_build as sb

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    apply_scale_defaults()
    ray.data.DataContext.get_current().enable_progress_bars = False

    @ray.remote(max_calls=1)
    def one_task_peak_mb(fold, *blocks):
        sb._fold_parts(fold, *blocks)
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    specs = [("b", "block", {"bytes_": PAYLOAD_BYTES}, "v")]
    rng = np.random.default_rng(1)
    try:
        for mb in sizes:
            ds = ray.data.from_arrow(_partials(mb, rng)).materialize()
            wall, outs = {}, {}
            for path, budget in [("one_task", 1 << 62), ("exchange", 0)] * 2:
                sb.ONE_TASK_BYTES = budget
                t = time.perf_counter()
                out = sb.merge_keyed(ds, "k", specs, finalize=True)
                wall.setdefault(path, []).append(time.perf_counter() - t)
                outs[path] = out.sort_by("k")["payload_b"].to_pylist()
            peak = ray.get(one_task_peak_mb.remote(
                sb._keyed_fold(specs, "k", True), *ds.to_arrow_refs()))
            print(f"{ds.size_bytes() / 2**20:7.1f} MB partials: "
                  f"one_task {min(wall['one_task']):.2f} s, "
                  f"exchange {min(wall['exchange']):.2f} s, "
                  f"one-task worker peak RSS {peak:.0f} MB, "
                  f"same bytes {outs['one_task'] == outs['exchange']}",
                  flush=True)
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
