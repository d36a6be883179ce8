"""Deterministic global shuffle into training shards.

The last step of every LLM-curation pipeline: after dedup/filter/mix,
the corpus must be globally shuffled before it is sharded for training —
adjacent documents in crawl order are highly correlated (same site, same
day), and a training loader reads shards sequentially. The reference
engine leaves ordering to the caller (its filters take pre-hashed keys,
``/root/reference/c/include/filter/block.h:43-46``); this engine owns the
shuffle as a first-class stage.

Shape: shuffling by a pinned hash is a DETERMINISTIC global shuffle —
``h = splitmix64(doc_id, seed)`` is a bijection on u64, so ordering by
``h`` is a pseudorandom permutation of the corpus that any re-run (or a
resumed run, or the SQL oracle) reproduces bit-for-bit, with no global
RNG state to coordinate across nodes.

    shard = top log2(S) bits of h     (hash-range sharding)
    order within shard = ascending h

Both are functions of the key alone, so the whole operator is one
``map_batches`` (assign) + one ``groupby(shard).map_groups`` (sort the
shard, write its file, emit a one-row report). Each shard materializes
in exactly one task — that is the operator's CONTRACT, not an accident:
a training shard must fit a loader's memory anyway, so ``nshards`` is
chosen so corpus/S is file-sized (at 100 TB and 512 MB shards, S = 2^18;
the groupby shuffle is the one unavoidable all-to-all). The report pins
membership AND order per shard: a positional digest
``sum(rank * h) mod 2^64`` changes if any document moves, enters, or
leaves — reproduced exactly by a SQL window function.

Resumability: each shard file is written once under its own final name
(tmp + rename); a re-run with the same seed reassigns identical shards,
so finished files can be skipped.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..sketch.hashing import splitmix64

# Pinned shuffle seed: the SQL oracle replays the derivation with the
# add-constant _SM_ADD_SHUF (pipelines/queries.py).
SHUFFLE_SEED = 0x5A5F

_M63 = np.uint64(1) << np.uint64(63)


def ordered_digest(h_sorted: np.ndarray) -> int:
    """Positional digest of an ordered u64 sequence:
    sum((1-based rank) * h) mod 2^64, reported mod 2^63 (the house
    BIGINT-safe digest convention, cf. SQL_SHUFFLE_SHARDS)."""
    rn = np.arange(1, len(h_sorted) + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return int((rn * h_sorted).sum(dtype=np.uint64) % _M63)


def shuffle_shards(ds, id_column: str, *, nshards_log2: int = 4,
                   seed: int = SHUFFLE_SEED, out_dir: str | None = None,
                   payload_columns: tuple[str, ...] = ()):
    """Deterministically shuffle `ds` by splitmix64(id_column, seed) into
    2**nshards_log2 hash-range shards.

    Returns a report DataFrame (shard, n_docs, sum_doc_id, ord_digest)
    sorted by shard — one row per non-empty shard. With `out_dir`, each
    shard additionally writes `shard_{i:05d}.parquet` holding
    (id_column, *payload_columns) in shuffled (ascending-h) order, and
    the report gains a `path` column; already-written shard files are
    skipped (deterministic assignment makes re-runs pure resumes).

    `id_column` must hold unique integers (splitmix64 is a bijection, so
    hashes — and therefore the within-shard order — are tie-free).
    """
    b = int(nshards_log2)
    if not 0 <= b <= 24:
        raise ValueError(f"nshards_log2 must be in [0, 24], got {b}")
    shift = np.uint64(64 - b) if b else None
    cols = [id_column, *payload_columns]

    def assign(t: pa.Table) -> pa.Table:
        ids = t.column(id_column).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        h = splitmix64(np.ascontiguousarray(ids, dtype=np.int64)
                       .astype(np.uint64), seed=seed)
        shard = (h >> shift).astype(np.int64) if b else \
            np.zeros(len(h), dtype=np.int64)
        out = {"shard": pa.array(shard, type=pa.int64()),
               "h": pa.array(h, type=pa.uint64())}
        for c in cols:
            out[c] = t.column(c)
        return pa.table(out)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        h = g["h"].to_numpy().astype(np.uint64)
        order = np.argsort(h)
        hs = h[order]
        shard = int(g["shard"].iloc[0])
        row = {"shard": shard,
               "n_docs": len(hs),
               "sum_doc_id": int(g[id_column].to_numpy(dtype=np.int64)
                                 .astype(np.uint64)
                                 .sum(dtype=np.uint64) % _M63),
               "ord_digest": ordered_digest(hs)}
        if out_dir:
            path = os.path.join(out_dir, f"shard_{shard:05d}.parquet")
            if not os.path.exists(path):
                tbl = pa.Table.from_pandas(
                    g.iloc[order][cols].reset_index(drop=True),
                    preserve_index=False)
                pq.write_table(tbl, path + ".tmp")
                os.replace(path + ".tmp", path)
            row["path"] = path
        return pd.DataFrame([row])

    report = ds.map_batches(assign, batch_format="pyarrow") \
        .groupby("shard").map_groups(per_shard, batch_format="pandas") \
        .to_pandas()  # O(nshards) rows
    for c in ("shard", "n_docs", "sum_doc_id", "ord_digest"):
        report[c] = report[c].astype("int64")
    return report.sort_values("shard").reset_index(drop=True)
