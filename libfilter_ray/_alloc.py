"""Allocator tuning for slow-first-touch environments.

On this sandbox (Firecracker microVM) faulting in fresh mmap'd pages runs at
~10-50 MB/s while warm pages run at ~5 GB/s. glibc satisfies every numpy
temporary >128 KB with a fresh mmap/munmap pair, so each map_batches batch
pays the fault cost again — a 30-60x slowdown on vectorized kernels.

Fix: raise the malloc mmap threshold so large numpy temporaries come from the
(reused, already-faulted) heap, and disable trim so the heap is never given
back. Applied in-process via mallopt(3) and exported via MALLOC_* env vars so
Ray worker processes inherit it. No-op on platforms without glibc.

Arrow's buffers do not come from glibc: Arrow's default pool (jemalloc)
hands large freed buffers back to the OS, so every map of a block over
fresh buffers faults its pages in again (~50k minor faults per lang
build job over 2 blocks of 8 MiB, ~0.6k under the system pool). In a
Ray worker process, which runs the maps, `tune_allocator` therefore
makes Arrow's system pool (glibc malloc, tuned as above, so its pages
stay faulted) the default. The worker is known by its entry script,
`ray/_private/workers/default_worker.py`, so the check needs no
`import ray`. An environment variable (`ARROW_DEFAULT_MEMORY_POOL`)
would not do: a driver that calls `ray.init` before it imports this
package starts workers that never see it. The driver and any other
process keep Arrow's default pool: with the system pool in every
process, the benchmark's lang driver peaked 7-11 MB higher (265-268 MB
against 257-258 MB, two runs each).

The same worker-only branch pins polars (the page-body codec,
`sources/webpages.replace_many`) to one thread, by `POLARS_MAX_THREADS`
set before anything imports polars: left alone, polars sizes its pool
from the worker's CPU affinity (on a 4-CPU affinity, a Ray worker's
first codec call took it from 25 to 38 threads, and to 31 pinned), so N
workers on an N-core host would start N threads each while Ray already
runs one task per CPU.
"""

from __future__ import annotations

import ctypes
import os
import sys

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_MMAP_MAX = -4

_RAY_WORKER = "ray/_private/workers/default_worker.py"

_done = False


def _is_ray_worker() -> bool:
    return bool(sys.argv) and \
        sys.argv[0].replace(os.sep, "/").endswith(_RAY_WORKER)


def tune_allocator() -> bool:
    global _done
    if _done:
        return True
    # children (ray workers) read these at startup
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(1 << 30))
    os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(1 << 30))
    os.environ.setdefault("MALLOC_MMAP_MAX_", "0")
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(_M_MMAP_THRESHOLD, (1 << 31) - 1)
        libc.mallopt(_M_TRIM_THRESHOLD, (1 << 31) - 1)
        libc.mallopt(_M_MMAP_MAX, 0)
    except Exception:  # pragma: no cover — non-glibc platform
        return False
    if _is_ray_worker():
        # one polars thread per worker: Ray runs one task per CPU already,
        # and polars would size its pool from the worker's CPU affinity
        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        import pyarrow as pa

        pa.set_memory_pool(pa.system_memory_pool())
    _done = True
    return True
