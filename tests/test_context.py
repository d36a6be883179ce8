"""Entry-point context posture (libfilter_ray/context.py): push-based
sort exchange and the read block floor pinned."""
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
