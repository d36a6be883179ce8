"""Entry-point context posture (libfilter_ray/context.py): push-based
sort exchange and the read block floor pinned; and the Arrow pool that
`import libfilter_ray` sets in Ray workers (libfilter_ray/_alloc.py)."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _strategy():
    from ray.data import DataContext

    return DataContext.get_current().shuffle_strategy


def test_default_is_push_based():
    from ray.data.context import ShuffleStrategy

    from libfilter_ray.context import apply_scale_defaults

    apply_scale_defaults()
    assert _strategy() == ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED


def test_posture_sets_min_block_size():
    from ray.data import DataContext

    from libfilter_ray.context import MIN_BLOCK_BYTES, apply_scale_defaults

    apply_scale_defaults()
    assert DataContext.get_current().target_min_block_size == \
        MIN_BLOCK_BYTES == 8 << 20


def _read_blocks(path) -> int:
    import ray.data

    return ray.data.read_parquet(str(path)).materialize().num_blocks()


def _two_per_cpu() -> int:
    import ray

    return 2 * int(ray.cluster_resources()["CPU"])


def test_read_blocks_at_posture(ray_session, tmp_path, rng):
    """A read of ~12 MB in memory gives the floor of 2 blocks per CPU,
    not the ~12 blocks of 1 MiB that Ray's default minimum cuts."""
    path = tmp_path / "wide.parquet"
    pq.write_table(pa.table({"v": rng.random(1_500_000)}), path)
    assert _read_blocks(path) == _two_per_cpu()


def test_tiny_read_keeps_two_blocks_per_cpu(ray_session, tmp_path, rng):
    path = tmp_path / "tiny.parquet"
    pq.write_table(pa.table({"v": np.arange(1000)}), path)
    assert _read_blocks(path) >= _two_per_cpu()


def _pool_in_fresh_python(code: str = "") -> str:
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, "-c", code + "import pyarrow as pa; "
         "print(pa.default_memory_pool().backend_name)"],
        capture_output=True, text=True, check=True).stdout.strip()


def test_ray_workers_use_arrow_system_pool(ray_session):
    """`import libfilter_ray` makes Arrow's system pool the default in a
    Ray worker (its pages stay faulted) and leaves any other process's
    pool as it was: the test driver's, and a plain python's."""
    import ray

    import libfilter_ray  # noqa: F401

    @ray.remote
    def worker_pool():
        import pyarrow as pa

        import libfilter_ray  # noqa: F401

        return pa.default_memory_pool().backend_name

    assert ray.get(worker_pool.remote()) == "system"
    default = _pool_in_fresh_python()
    assert pa.default_memory_pool().backend_name == default
    assert _pool_in_fresh_python("import libfilter_ray; ") == default


def _polars_threads_in_fresh_python(code: str = "") -> int:
    import subprocess
    import sys

    return int(subprocess.run(
        [sys.executable, "-c", code + "import polars as pl; "
         "print(pl.thread_pool_size())"],
        capture_output=True, text=True, check=True).stdout)


def test_ray_workers_pin_polars_to_one_thread(ray_session):
    """`import libfilter_ray` pins polars (the page-body codec) to one
    thread in a Ray worker, where Ray already runs one task per CPU, and
    leaves the pool of any other process as polars sizes it."""
    import ray

    import libfilter_ray  # noqa: F401

    @ray.remote
    def worker_threads():
        import libfilter_ray  # noqa: F401
        import polars as pl

        return pl.thread_pool_size()

    assert ray.get(worker_threads.remote()) == 1
    default = _polars_threads_in_fresh_python()
    assert _polars_threads_in_fresh_python("import libfilter_ray; ") == default
    import polars as pl

    assert pl.thread_pool_size() == default
