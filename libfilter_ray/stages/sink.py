"""Resumable partitioned-parquet output.

The scale posture (SURVEY §4.2): never one giant file — write hive-partitioned
parquet (one directory per key / shard) so a failed run resumes by skipping
finished partitions, and downstream reads prune by partition.

`write_partitioned` wraps `Dataset.write_parquet(partition_cols=...)` with a
run-marker protocol: a `_SUCCESS` file is written only after the dataset
write completes, so `is_complete(out_dir)` distinguishes a finished run from
a crashed one; `write_partitioned(..., resume=True)` no-ops when complete.
(Finer-grained partition-level resume for sketch builds lives in
`state/checkpoint.py` — this sink is for row-level pipeline OUTPUT.)
"""

from __future__ import annotations

import os
import shutil

SUCCESS = "_SUCCESS"


def is_complete(out_dir: str) -> bool:
    return os.path.exists(os.path.join(out_dir, SUCCESS))


def write_partitioned(ds, out_dir: str, *, partition_cols: list[str],
                      resume: bool = True) -> bool:
    """Write `ds` as hive-partitioned parquet under `out_dir`.

    Returns True if a write happened, False if a completed output was
    reused (resume). An incomplete previous attempt (no _SUCCESS) is
    removed and rewritten — partial output is never silently kept.
    """
    if resume and is_complete(out_dir):
        return False
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)  # crashed attempt: rewrite from scratch
    ds.write_parquet(out_dir, partition_cols=partition_cols)
    with open(os.path.join(out_dir, SUCCESS), "w") as f:
        f.write("")
    return True


def read_partitioned(path: str, **kwargs):
    import ray.data

    return ray.data.read_parquet(path, **kwargs)

