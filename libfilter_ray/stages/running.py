"""Grouped ordered window transforms: running sum, lag, row_number.

For each row, aggregates over the rows BEFORE it in its group under an
explicit total order — SQL's

    sum(v)  OVER (PARTITION BY key ORDER BY ord ROWS UNBOUNDED PRECEDING)
    lag(v, 1, default) OVER (...)
    row_number() OVER (...)

Distributed shape is the engine's shard-scan pattern
(pipelines/queries.py:q_user_sessions): shard rows by KEY-HASH (a key
never splits across shards; at 10^8 keys per-group map_groups would
pay Python overhead per tiny group), sort each shard once by
(key, *order), then ONE vectorized pass per shard. Per-task state is a
shard of rows — shard count scales with the cluster; a single hot key
bounds below by that key's row count (the inherent window-function
floor: a running sum is a sequential dependency within the key).

Bit-exactness: the running sum uses pandas' grouped cumsum —
sequential in-order accumulation, the same IEEE addition chain a SQL
engine's cumulative frame evaluates, provided the caller's order
columns give a TOTAL order (pass a unique tiebreaker).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def grouped_running(ds, key: str, order_cols: list[str], value: str, *,
                    id_cols: list[str], lag_default: float = 0.0,
                    num_shards: int = 32):
    """Dataset of (*id_cols, key, rn, run_sum, prev_value): 1-based row
    number, cumulative sum, and previous row's value (lag 1,
    `lag_default` at group starts) of `value` within each `key` group
    ordered by `order_cols` (must include a unique tiebreaker for a
    deterministic result). Null `value` rows are excluded first."""

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..sketch.hashing import shard_of_values

        t = t.filter(pc.is_valid(t[value]))
        return t.append_column("shard", pa.array(
            shard_of_values(t[key], num_shards, seed=0x3A9),
            type=pa.int64()))

    def scan_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, *order_cols], kind="stable")
        g = df.groupby(key, sort=False)
        out = df[[*id_cols, key]].copy()
        out["rn"] = g.cumcount().to_numpy(dtype=np.int64) + 1
        out["run_sum"] = g[value].cumsum().to_numpy(dtype=np.float64)
        out["prev_value"] = g[value].shift(1) \
            .fillna(lag_default).to_numpy(dtype=np.float64)
        return out

    return ds.map_batches(tag, batch_format="pyarrow") \
        .groupby("shard").map_groups(scan_shard, batch_format="pandas")
