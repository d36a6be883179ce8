"""Distributed deduplication over Ray Data: exact document dedup and
C4-style line dedup.

Engine additions beyond the reference (training-data family). Shapes:

- **exact_dedup**: hash-partition + per-group first. The shuffle key is the
  64-bit content hash of the dedup column, NOT the full payload — only
  (hash, id) rows move through the groupby; survivors then filter the full
  table via the broadcast-Bloom semi-join pattern (SURVEY.md §2.5), so the
  wide columns (html!) never shuffle. At 100 TB the all-to-all moves 16
  bytes/row. Driver/broadcast state is O(#duplicated hash groups), NOT
  O(distinct rows): singleton groups (the overwhelming majority of a real
  corpus) never leave the cluster — a row survives by *missing* the
  broadcast dup-group Bloom.
- **line_dedup**: the same exact dedup over the exploded (line, packed
  line id) table; documents never shuffle, their text is rebuilt per
  batch against the drop set.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sketch.hashing import hash_arrow_array
from .broadcast import cached_broadcast


def _str(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup_keys(ds, column: str, id_column: str):
    """Dataset of surviving ids: one (min id) per distinct content hash.

    map_batches(project to (content_hash, id)) -> groupby(hash) -> min(id).
    Only 16-byte rows shuffle. NB the result is keyed on the 64-bit hash —
    `exact_dedup` adds the exact confirmation pass that makes the overall
    dedup collision-proof."""
    from ray.data.aggregate import Count, Min

    def project(t: pa.Table) -> pa.Table:
        # int64 bit-view of the u64 hash: Ray group keys round-trip through
        # Python ints, and >2^63 values overflow the native conversion
        return pa.table({
            "content_hash": pa.array(
                hash_arrow_array(t[column]).view(np.int64), type=pa.int64()),
            id_column: t[id_column],
        })

    proj = ds.map_batches(project, batch_format="pyarrow")
    return proj.groupby("content_hash").aggregate(
        Min(id_column, alias_name="keep_id"),
        Count(alias_name="n_members"))


#: drop sets up to this many ids broadcast as one sorted array through
#: plasma (8 B/id — 32 MB at the default); beyond it they spill to a
#: range-partitioned DropIdStore so driver/plasma memory stays BOUNDED no
#: matter how duplicated the corpus is (the round-2 scale risk).
DROP_BROADCAST_LIMIT = 1 << 22


def exact_dedup(ds, column: str, id_column: str, *, num_shards: int = 64,
                broadcast_limit: int = DROP_BROADCAST_LIMIT,
                store_dir: str | None = None,
                keep_score: str | None = None):
    """Full exact dedup: keep exactly one row of every DISTINCT payload
    — the min-id row, or with `keep_score` the highest-score member
    (ties min id) — with driver/broadcast memory BOUNDED (independent of
    the duplicate count).

    Shape: `exact_dedup_drop_ds` (the shared core) yields the Dataset of
    ids to REMOVE, then one streaming filter pass drops them. Small drop
    sets (<= broadcast_limit ids) broadcast as one sorted array; larger
    ones never touch the driver — they spill to a range-partitioned,
    bloom-fronted DropIdStore on shared storage (`store_dir`, default a
    fresh /tmp dir; point it at the job's shared checkpoint volume on a
    real cluster) and the filter confirms per batch against only the
    overlapped ranges (stages/dropstore.py).
    """
    drop_ds = exact_dedup_drop_ds(ds, column, id_column,
                                  num_shards=num_shards,
                                  keep_score=keep_score).materialize()
    source = drop_source_of(drop_ds, broadcast_limit=broadcast_limit,
                            store_dir=store_dir)
    if source is None:
        return ds  # every payload unique — nothing to drop
    return ds.map_batches(drop_id_filter(source, id_column),
                          batch_format="pyarrow")


def drop_source_of(drop_ds, *, broadcast_limit: int = DROP_BROADCAST_LIMIT,
                   store_dir: str | None = None):
    """Pick the drop-set carrier for a (materialized) drop-id Dataset:
    None when empty, a plasma ObjectRef of the sorted int64 array when it
    fits `broadcast_limit`, else a DropIdStore written to `store_dir`.
    The returned value is accepted by `drop_id_filter`, `line_rebuild_fn`
    and `_drop_mask`."""
    import tempfile

    import ray

    from .dropstore import DropIdStore

    n = drop_ds.count()
    if n == 0:
        return None
    if n <= broadcast_limit:
        drop = np.sort(drop_ds.to_pandas()["drop_id"].to_numpy()
                       .astype(np.int64))
        return ray.put(drop)
    return DropIdStore.write(
        drop_ds, store_dir or tempfile.mkdtemp(prefix="lfr-drop-",
                                               dir="/tmp"))


def _drop_mask(source, ids: np.ndarray) -> np.ndarray:
    """Vectorized membership of int64 `ids` in a drop set carried as a
    sorted ndarray, an ObjectRef to one (zero-copy plasma read), or a
    DropIdStore (bloom + range-partition confirm) — the ONE lookup shared
    by every drop-filter and rebuild stage."""
    import ray

    from .dropstore import DropIdStore

    if isinstance(source, DropIdStore):
        return source.contains(ids)
    if isinstance(source, ray.ObjectRef):
        source = ray.get(source)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if not len(source):
        return np.zeros(len(ids), dtype=bool)
    idx = np.searchsorted(source, ids)
    return (idx < len(source)) & (
        source[np.minimum(idx, len(source) - 1)] == ids)


def drop_id_filter(drop_source, id_column: str):
    """map_batches fn keeping rows whose id misses the drop set
    (sorted ndarray, ObjectRef, or DropIdStore — see `_drop_mask`)."""

    def keep_filter(t: pa.Table) -> pa.Table:
        ids = _str(t[id_column]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return t.filter(pa.array(~_drop_mask(drop_source, ids)))

    return keep_filter


def exact_dedup_drop_ds(ds, column: str, id_column: str, *,
                        num_shards: int = 64,
                        multi_limit: int = DROP_BROADCAST_LIMIT,
                        keep_score: str | None = None):
    """Dataset (one int64 `drop_id` column) of the rows exact dedup REMOVES
    (every multi-group row except its group's survivor: the min id, or
    with `keep_score` the max-score member — ties min id — the "keep the
    best copy, not the first crawled" curation policy). Nothing
    O(duplicate rows) ever lands on the driver — the result stays a
    Dataset; collect it with `exact_dedup_drop_ids` only when small.

    1. groupby(content_hash) -> the hashes with >1 member.
    2. Prune each batch to rows in duplicated hash groups. Up to
       `multi_limit` dup-group hashes the prune is a broadcast BlockBloom
       PLUS the exact sorted hash array (zero false positives); beyond it
       only the distributed-built bloom broadcasts — false positives
       (singleton rows) ride the confirm shuffle and survive as their own
       group's min, so the result is identical, just fpp x corpus extra
       shuffle volume. Driver memory stays bounded either way.
    3. Distributed confirm over ONLY the pruned rows: (hash, id, payload)
       sharded by hash, per-shard vectorized min-id-per-(hash, payload)
       via sort + drop_duplicates, emitting the DROPPED ids.
       Collision-proof: two distinct payloads sharing a 64-bit hash each
       keep their own min id. Shuffle volume = duplicate payloads only.
    """
    import ray

    from ..sketch import sizing
    from ..sketch.block_bloom import BlockBloom

    multi_ref = None
    agg = exact_dedup_keys(ds, column, id_column) \
        .filter(expr="n_members > 1") \
        .select_columns(["content_hash"]).materialize()
    n_multi = agg.count()
    if n_multi == 0:
        return _empty_drop_ds()  # every payload unique
    if n_multi <= multi_limit:
        multi_hashes = np.sort(agg.to_pandas()["content_hash"]
                               .to_numpy().astype(np.int64))
        bloom = BlockBloom(sizing.block_bytes_needed(n_multi, 0.001))
        bloom.add_hashes(multi_hashes.view(np.uint64))
        multi_ref = ray.put(multi_hashes)
    else:
        from .sketch_build import build_sketch

        bloom = build_sketch(
            agg, "content_hash", "block",
            {"bytes_": sizing.block_bytes_needed(n_multi, 0.001)},
            pre_hashed=True)  # the column IS the 64-bit content hash
    bloom_ref = ray.put(bloom.to_bytes())

    def pick_multi(t: pa.Table) -> pa.Table:
        """Select rows in duplicated hash groups (bloom prune -> exact
        confirm when available), tagged with a hash-shard for the confirm
        groupby."""
        bloom = cached_broadcast(bloom_ref, BlockBloom.from_bytes)
        h = hash_arrow_array(t[column]).view(np.int64)
        maybe = bloom.find_hashes(h.view(np.uint64))
        cols = [id_column, column] + ([keep_score] if keep_score else [])
        t2 = t.select(cols).filter(pa.array(maybe))
        h2 = h[maybe]
        if multi_ref is not None:
            multi = ray.get(multi_ref)
            idx = np.searchsorted(multi, h2)
            hit = (idx < len(multi)) & (
                multi[np.minimum(idx, len(multi) - 1)] == h2)
            t2 = t2.filter(pa.array(hit))
            h2 = h2[hit]
        shard = (h2.view(np.uint64) % np.uint64(num_shards)) \
            .astype(np.int64)
        return t2.append_column(
            "content_hash", pa.array(h2, type=pa.int64())) \
            .append_column("shard", pa.array(shard, type=pa.int64()))

    def confirm_drop(df: pd.DataFrame) -> pd.DataFrame:
        # the survivor per (hash, exact payload) sorts first: min id, or
        # max keep_score with min-id tie-break; emit the rest
        if keep_score:
            df = df.sort_values(
                ["content_hash", column, keep_score, id_column],
                ascending=[True, True, False, True], kind="stable")
        else:
            df = df.sort_values(["content_hash", column, id_column],
                                kind="stable")
        dropped = df[df.duplicated(subset=["content_hash", column])]
        return pd.DataFrame({
            "drop_id": dropped[id_column].to_numpy().astype(np.int64)})

    return ds.map_batches(pick_multi, batch_format="pyarrow") \
        .groupby("shard").map_groups(confirm_drop, batch_format="pandas")


def _empty_drop_ds():
    import ray.data

    return ray.data.from_arrow(
        pa.table({"drop_id": pa.array([], type=pa.int64())}))


def exact_dedup_drop_ids(ds, column: str, id_column: str, *,
                         num_shards: int = 64,
                         keep_score: str | None = None) -> np.ndarray:
    """Sorted int64 collect of `exact_dedup_drop_ds` — O(duplicate rows)
    driver memory, for callers that broadcast the set themselves (bounded
    corpora). Large-scale callers should keep the Dataset
    (`exact_dedup_drop_ds` + `drop_source_of`) instead."""
    drop = exact_dedup_drop_ds(ds, column, id_column,
                               num_shards=num_shards,
                               keep_score=keep_score).to_pandas()
    if not len(drop) or "drop_id" not in drop.columns:
        # all pruned rows survived (hash collisions between distinct
        # payloads): Ray drops the 0-row group outputs -> column-less frame
        return np.empty(0, dtype=np.int64)
    return np.sort(drop["drop_id"].to_numpy().astype(np.int64))


# ---------------------------------------------------------------------------
# line-level dedup (C4/Gopher-style boilerplate removal)
# ---------------------------------------------------------------------------

#: ord fits in 20 bits -> packed line_id = doc_id * 2^20 + ord stays exact
#: for doc_id < 2^43 and <= 2^20 - 1 lines per document.
LINE_ORD_BASE = 1 << 20


def _packed_lines(t: pa.Table, column: str, id_column: str, sep: str):
    """Shared line-explosion core: split `column` on `sep` and pack each
    line's global id as ``id * LINE_ORD_BASE + 1-based ordinal``. Returns
    (col, lens, flat_lines, line_id, row_of) — the ONE place the packing
    scheme lives, used by both explode_lines and line_dedup's rebuild so
    the two can never drift. Null text yields zero lines (matches SQL
    UNNEST(string_split(NULL)))."""
    import pyarrow.compute as pc

    col = _str(t[column])
    lists = pc.split_pattern(col, sep)
    lens = np.asarray(pc.fill_null(pc.list_value_length(lists), 0),
                      dtype=np.int64)
    if lens.max(initial=0) >= LINE_ORD_BASE:
        raise ValueError(
            f"document with >= {LINE_ORD_BASE} lines: packed line ids "
            "would collide — raise LINE_ORD_BASE")
    flat = pc.list_flatten(lists)
    ids = _str(t[id_column]).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    if len(ids) and np.abs(ids).max() >= (1 << 62) // LINE_ORD_BASE:
        raise ValueError("id too large to pack with line ordinal")
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    total = int(lens.sum())
    ord1 = np.arange(total, dtype=np.int64) - np.repeat(starts, lens) + 1
    line_id = np.repeat(ids, lens) * LINE_ORD_BASE + ord1
    row_of = np.repeat(np.arange(len(lens)), lens)
    return col, lens, flat, line_id, row_of


def explode_lines(column: str, id_column: str, *, sep: str = "\n",
                  keep: tuple[str, ...] = ()):
    """map_batches fn factory: one output row per line of `column` —
    (line, line_id = id * LINE_ORD_BASE + 1-based ordinal, *keep columns).
    Fully vectorized (split_pattern -> list_flatten + arange arithmetic)."""

    def fn(t: pa.Table) -> pa.Table:
        _, _, flat, line_id, row_of = _packed_lines(t, column, id_column,
                                                    sep)
        cols = {"line": flat,
                "line_id": pa.array(line_id, type=pa.int64())}
        row_idx = pa.array(row_of)
        for k in keep:
            cols[k] = _str(t[k]).take(row_idx)
        return pa.table(cols)

    return fn


def line_dedup_drop_ds(ds, column: str, id_column: str, *,
                       sep: str = "\n"):
    """Dataset of the packed line_ids of every duplicated line occurrence
    EXCEPT the global first (min (id, ordinal) survives) — exact dedup
    over the exploded line table: 16 B/line shuffle, payload confirm only
    on duplicated-hash groups (collision-proof). The standard C4-style
    corpus-level boilerplate-line removal; the duplicate set never touches
    the driver (carry it with `drop_source_of`)."""
    lines = ds.map_batches(explode_lines(column, id_column, sep=sep),
                           batch_format="pyarrow")
    return exact_dedup_drop_ds(lines, "line", "line_id")


def line_rebuild_fn(drop_source, column: str, id_column: str,
                    sep: str = "\n"):
    """map_batches fn factory: rebuild `column` with the lines whose packed
    ids appear in the drop set removed (pc.binary_join of the kept lines —
    no per-row Python). `drop_source` is anything `_drop_mask` accepts: a
    sorted int64 ndarray (pickled into the closure, O(duplicate lines)),
    an ObjectRef to one (zero-copy plasma read per task), or a DropIdStore
    (bounded memory at any duplicate rate — packed line ids are
    doc-clustered, so a batch overlaps few store ranges)."""
    import pyarrow.compute as pc

    def rebuild(t: pa.Table) -> pa.Table:
        col, lens, flat, line_id, row_of = _packed_lines(t, column,
                                                         id_column, sep)
        dropped = _drop_mask(drop_source, line_id)
        kept = flat.filter(pa.array(~dropped))
        kept_per_row = np.bincount(row_of[~dropped], minlength=len(lens)) \
            .astype(np.int64)
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(kept_per_row, out=offsets[1:])
        rebuilt = pc.binary_join(
            pa.LargeListArray.from_arrays(pa.array(offsets),
                                          kept.combine_chunks()
                                          if isinstance(kept,
                                                        pa.ChunkedArray)
                                          else kept), sep)
        # null text exploded to zero rows; keep it null, not ""
        if col.null_count:
            rebuilt = pc.if_else(pc.is_null(col), col, rebuilt)
        return t.set_column(t.schema.get_field_index(column), column,
                            rebuilt)

    return rebuild


def line_dedup(ds, column: str, id_column: str, *, sep: str = "\n",
               broadcast_limit: int = DROP_BROADCAST_LIMIT,
               store_dir: str | None = None):
    """The corpus with duplicated lines removed (first occurrence kept),
    text rebuilt in place. Documents never shuffle: the rebuild is a
    per-batch explode -> mask against the drop set -> pc.binary_join, so
    only the 16 B/line dedup pass moves data. The drop set broadcasts when
    it fits `broadcast_limit`, else spills to a range-partitioned
    DropIdStore (`store_dir`) — driver memory stays bounded at any
    duplicate-line rate."""
    drop_ds = line_dedup_drop_ds(ds, column, id_column,
                                 sep=sep).materialize()
    source = drop_source_of(drop_ds, broadcast_limit=broadcast_limit,
                            store_dir=store_dir)
    if source is None:
        return ds
    return ds.map_batches(
        line_rebuild_fn(source, column, id_column, sep),
        batch_format="pyarrow")
