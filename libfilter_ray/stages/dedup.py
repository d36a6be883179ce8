"""Distributed deduplication over Ray Data: exact, MinHash+LSH, SimHash,
and embedding-cosine near-dup.

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
- **minhash_lsh / simhash near-dup**: vectorized signatures in map_batches ->
  (band_key, id) bucket rows -> DISTRIBUTED candidate pairing: shard by
  hash(band_key) (a bucket never splits across shards), per-shard vectorized
  sorted-run scan inside groupby(shard).map_groups — only the (rare) PAIR
  rows ever reach the driver -> exact verification (true Jaccard / Hamming)
  on the candidates only -> union-find clustering of the (tiny) confirmed
  pair list -> keep min id per cluster.
  Partitioning assumption: bucket sizes are small (hash-random); a
  pathological bucket (all-identical corpus) degrades to one group —
  cap `max_bucket` and sample within it.
- **embedding near-dup**: random-hyperplane LSH bucket key per row -> the
  same sharded candidate pairing over the NARROW (bucket, id) table ->
  embeddings gathered only for candidate ids (broadcast id set) -> exact
  cosine verification on the candidate pairs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.shingles import (hamming64, jaccard_pairwise, lsh_band_keys,
                                  minhash_signatures, simhash64)
from ..sketch.hashing import hash_arrow_array
from .broadcast import cached_broadcast

U64 = np.uint64


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
# candidate-pair machinery shared by minhash / simhash / embedding paths
# ---------------------------------------------------------------------------

def _union_find(pairs: np.ndarray, ids: np.ndarray) -> dict[int, int]:
    """Cluster confirmed duplicate pairs; returns id -> cluster-min-id.
    Driver-side on the (rare) confirmed pairs only."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {int(i): find(int(i)) for i in ids}


def _scan_pairs_df(df: pd.DataFrame, key: str, id_column: str,
                   extra_cols: list[str], max_bucket: int) -> pd.DataFrame:
    """Vectorized sorted-run scan over a (bucket_key, id, extras...) frame:
    unordered id pairs within each bucket (capped at `max_bucket` rows per
    bucket against pathological all-identical corpora). Pure function —
    runs identically per shard (distributed) or over a whole table."""
    df = df.sort_values([key, id_column], kind="stable")
    kv = df[key].to_numpy()
    ids = df[id_column].to_numpy()
    run_starts = np.flatnonzero(np.r_[True, kv[1:] != kv[:-1]])
    run_ends = np.r_[run_starts[1:], len(kv)]
    out_a, out_b = [], []
    out_extra_a: dict[str, list] = {c: [] for c in extra_cols}
    out_extra_b: dict[str, list] = {c: [] for c in extra_cols}
    extras = {c: df[c].to_numpy() for c in extra_cols}
    for s, e in zip(run_starts, run_ends):
        n = e - s
        if n < 2:
            continue
        n = min(n, max_bucket)
        uniq_ids = np.unique(ids[s:s + n])
        if len(uniq_ids) < 2:
            continue
        a, b = np.triu_indices(len(uniq_ids), k=1)
        out_a.append(uniq_ids[a])
        out_b.append(uniq_ids[b])
        if extras:
            # map each unique id back to its first extra value in the run
            first_idx = s + np.searchsorted(ids[s:s + n], uniq_ids)
            for c in extras:
                out_extra_a[c].append(extras[c][first_idx][a])
                out_extra_b[c].append(extras[c][first_idx][b])
    names = _extra_names(extra_cols)
    if not out_a:
        res = pd.DataFrame({"id_a": np.array([], dtype=np.int64),
                            "id_b": np.array([], dtype=np.int64)})
        for c in extra_cols:
            res[names[c][0]] = np.array([], dtype=np.int64)
            res[names[c][1]] = np.array([], dtype=np.int64)
        return res
    res = pd.DataFrame({"id_a": np.concatenate(out_a),
                        "id_b": np.concatenate(out_b)})
    for c in extra_cols:
        res[names[c][0]] = np.concatenate(out_extra_a[c])
        res[names[c][1]] = np.concatenate(out_extra_b[c])
    return res.drop_duplicates(subset=["id_a", "id_b"]).reset_index(drop=True)


def _extra_names(extra_cols: list[str]) -> dict[str, tuple[str, str]]:
    """Output column names for carried extras: the single-column case keeps
    the historical ("sim_a", "sim_b"); multiple columns get per-column
    ("<col>_a", "<col>_b") so values never interleave."""
    if len(extra_cols) == 1:
        return {extra_cols[0]: ("sim_a", "sim_b")}
    return {c: (f"{c}_a", f"{c}_b") for c in extra_cols}


def candidate_pairs_ds(buckets, key: str, id_column: str, *,
                       extra_cols: list[str] | None = None,
                       max_bucket: int = 64,
                       num_shards: int = 64):
    """DISTRIBUTED candidate pairing: shard the bucket table by
    hash(bucket_key) — a bucket never splits across shards — then run the
    vectorized sorted-run scan per shard inside groupby(shard).map_groups.
    The result STAYS a Dataset (the O(rows x bands) bucket table never
    materializes anywhere but the shuffle, and at crawl-scale duplicate
    rates the pair table itself is too big for the driver).

    Sharding by key-hash RANGE (not one group per bucket) amortizes the
    per-group Python overhead over millions of tiny buckets — the same fix
    shape as the grouped sketch merge's exchange path (SURVEY.md §2.6). The same
    (id_a, id_b) pair can surface from several bands/tables — dedupe with
    `dedup_pairs_ds` before anything that pays per pair (the verify
    stages do it themselves)."""
    from ..sketch.hashing import shard_of_values

    extra = list(extra_cols or [])
    cols = [key, id_column] + extra

    def add_shard(t: pa.Table) -> pa.Table:
        # the shared type-agnostic shard tagger (hashing.shard_of_values),
        # same scheme as joins / samplers / sharded merges
        return t.select(cols).append_column(
            "shard", pa.array(
                shard_of_values(t[key], num_shards, seed=0xD15C),
                type=pa.int64()))

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        return _scan_pairs_df(df, key, id_column, extra, max_bucket)

    return buckets.map_batches(add_shard, batch_format="pyarrow") \
        .groupby("shard").map_groups(scan, batch_format="pandas")


#: pair tables up to this many rows dedupe in one driver pass (bounded:
#: ~16 B/pair -> 16 MB at the limit); larger ones pay the pair-sharded
#: dedup shuffle instead — the auto-switch keeps test-scale runs at one
#: fewer all-to-all without giving up the crawl-scale bound
PAIR_DRIVER_LIMIT = 1 << 20


def dedup_pairs_ds(pairs_ds, extra_cols: list[str] | None = None, *,
                   num_shards: int = 64,
                   driver_limit: int = PAIR_DRIVER_LIMIT):
    """MATERIALIZED pair Dataset with duplicate (id_a, id_b) rows removed.
    Small tables (<= driver_limit rows) collect, dedupe and re-ship in one
    bounded driver pass; larger ones dedupe distributed — pair-hash
    sharding co-locates equal pairs, so the within-group drop_duplicates
    is globally exact and the driver never sees a row."""
    import ray.data

    names = _extra_names(list(extra_cols or []))
    out_cols = ["id_a", "id_b"] + [n for c in (extra_cols or [])
                                   for n in names[c]]
    mat = pairs_ds.materialize()
    n = mat.count()
    if n == 0:
        return mat
    if n <= driver_limit:
        df = mat.to_pandas().drop_duplicates(subset=["id_a", "id_b"])
        tbl = pa.Table.from_pandas(df[out_cols], preserve_index=False)
        # re-ship as MANY blocks (~512 pairs each, bounded count) so the
        # downstream attach/verify stages parallelize instead of running
        # the whole pair table in one task
        step = max(512, -(-len(df) // 128))
        slices = [tbl.slice(i, step)
                  for i in range(0, max(tbl.num_rows, 1), step)]
        return ray.data.from_arrow(slices).materialize()

    def add_pair_shard(t: pa.Table) -> pa.Table:
        a = np.asarray(t["id_a"], dtype=np.int64)
        b = np.asarray(t["id_b"], dtype=np.int64)
        # mixed-multiply pair key; collisions only co-shard extra pairs
        pk = (a.view(U64) * U64(0x9E3779B97F4A7C15)) ^ b.view(U64)
        return t.select(out_cols).append_column(
            "pshard", pa.array((pk % U64(num_shards)).astype(np.int64)))

    def drop_dup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["id_a", "id_b"])[out_cols]

    return mat.map_batches(add_pair_shard, batch_format="pyarrow") \
        .groupby("pshard").map_groups(drop_dup, batch_format="pandas") \
        .materialize()


def _empty_pairs_df(extra_cols: list[str],
                    values: dict[str, np.dtype] | None = None
                    ) -> pd.DataFrame:
    out = pd.DataFrame({"id_a": np.array([], dtype=np.int64),
                        "id_b": np.array([], dtype=np.int64)})
    names = _extra_names(extra_cols)
    for c in extra_cols:
        out[names[c][0]] = np.array([], dtype=np.int64)
        out[names[c][1]] = np.array([], dtype=np.int64)
    for c, dt in (values or {}).items():
        out[c] = np.array([], dtype=dt)
    return out


def _collect_pairs(pairs_ds, extra_cols: list[str] | None = None,
                   values: dict[str, np.dtype] | None = None
                   ) -> pd.DataFrame:
    """Driver collect of a (small, confirmed) pair Dataset, normalized to
    the historical sorted DataFrame form. Zero-row grouped outputs come
    back COLUMN-LESS from Ray — return the typed empty frame callers
    expect instead of KeyError'ing on id_a."""
    pairs = pairs_ds.to_pandas()
    if not len(pairs) or "id_a" not in pairs.columns:
        return _empty_pairs_df(list(extra_cols or []), values)
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _candidate_pairs(buckets, key: str, id_column: str, *,
                     extra_cols: list[str] | None = None,
                     max_bucket: int = 64,
                     num_shards: int = 64) -> pd.DataFrame:
    """Collected form of `candidate_pairs_ds` (tests / bounded corpora):
    unique (id_a, id_b) pairs as a sorted DataFrame."""
    extra = list(extra_cols or [])
    return _collect_pairs(
        dedup_pairs_ds(
            candidate_pairs_ds(buckets, key, id_column, extra_cols=extra,
                               max_bucket=max_bucket,
                               num_shards=num_shards),
            extra_cols=extra),
        extra)


def minhash_near_dup_pairs(ds, column: str, id_column: str, *, k: int = 5,
                           num_perm: int = 128, bands: int = 16,
                           threshold: float = 0.7,
                           batch_size: int = 512) -> pd.DataFrame:
    """Confirmed near-duplicate pairs (exact Jaccard >= threshold) found via
    MinHash+LSH banding. Returns (id_a, id_b, jaccard) pandas.

    Stage 1 (map_batches): per-row signatures -> (band_key, id) rows.
    batch_size defaults small (512): the num_perm-pass signature kernel is
    the pipeline's dominant compute, and oversized batches collapse its
    task-parallelism on small corpora (one 512-doc batch still hashes
    ~10^5 shingles per permutation pass, so vectorization stays amortized).
    Stage 2 (groupby band_key): candidate pairs from multi-member buckets.
    Stage 3 (verify): exact k-shingle Jaccard on candidate texts only —
    texts fetched via a broadcast dict of the candidate ids (tiny set).
    """
    buckets = minhash_bucket_ds(ds, column, id_column, k=k,
                                num_perm=num_perm, bands=bands,
                                batch_size=batch_size)
    cand = candidate_pairs_ds(buckets, "band_key", id_column)
    return _collect_pairs(
        verify_jaccard_pairs_ds(cand, ds, column, id_column, k, threshold),
        values={"jaccard": np.float64})


def minhash_bucket_ds(ds, column: str, id_column: str, *, k: int = 5,
                      num_perm: int = 128, bands: int = 16,
                      batch_size: int = 512):
    """Stage 1 of the minhash pipeline as a Dataset: per-row signatures
    exploded to (band_key, id) bucket rows."""

    def sig_stage(t: pa.Table) -> pa.Table:
        sig = minhash_signatures(t[column], k=k, num_perm=num_perm)
        keys = lsh_band_keys(sig, bands=bands)
        ids = _str(t[id_column]).to_numpy(zero_copy_only=False)
        return pa.table({
            "band_key": pa.array(keys.ravel().view(np.int64),
                                 type=pa.int64()),
            id_column: pa.array(np.repeat(ids, bands)),
        })

    return ds.map_batches(sig_stage, batch_format="pyarrow",
                          batch_size=batch_size)


def minhash_near_dup_pairs_ds(ds, column: str, id_column: str, *,
                              k: int = 5, num_perm: int = 128,
                              bands: int = 16, threshold: float = 0.7,
                              batch_size: int = 512,
                              max_bucket: int = 4096):
    """Dataset form of `minhash_near_dup_pairs` — the crawl-scale path:
    confirmed (id_a, id_b, jaccard) pairs stay a Dataset end to end
    (bucketing, sharded pairing, pruned-join verification), so nothing
    O(pairs) ever lands on the driver. Feed straight to
    `near_dup_dedup` or a parquet sink."""
    buckets = minhash_bucket_ds(ds, column, id_column, k=k,
                                num_perm=num_perm, bands=bands,
                                batch_size=batch_size)
    cand = candidate_pairs_ds(buckets, "band_key", id_column,
                              max_bucket=max_bucket)
    return verify_jaccard_pairs_ds(cand, ds, column, id_column, k,
                                   threshold)


# ---------------------------------------------------------------------------
# distributed candidate verification (the round-3 tail fix: candidate
# texts/embeddings are attached to pairs with hash-partitioned joins —
# NOTHING O(pairs x payload) ever lands on the driver)
# ---------------------------------------------------------------------------

def _candidate_rows(ds, id_column: str, pairs_mat, columns: dict[str, str],
                    *, prune_limit: int = DROP_BROADCAST_LIMIT):
    """Dataset of `ds` rows (id + renamed projection `columns`
    {src: dst}) whose id appears in the materialized pair Dataset
    `pairs_mat` — the semi-join prune that keeps only candidate payloads
    flowing into the verify joins. Up to `prune_limit` candidate ids the
    membership test is an exact broadcast sorted array; beyond it a
    distributed-built BlockBloom (false positives just ride the joins and
    drop on the inner match)."""
    import ray

    from ..sketch import sizing
    from ..sketch.block_bloom import BlockBloom

    def pair_ids(t: pa.Table) -> pa.Table:
        a = np.asarray(t["id_a"], dtype=np.int64)
        b = np.asarray(t["id_b"], dtype=np.int64)
        return pa.table({"cid": pa.array(np.concatenate([a, b]))})

    ids_ds = pairs_mat.map_batches(pair_ids, batch_format="pyarrow")
    n_pairs = pairs_mat.count()
    exact_ref = bloom_ref = None
    if 2 * n_pairs <= prune_limit:
        need = np.unique(ids_ds.to_pandas()["cid"].to_numpy()
                         .astype(np.int64))
        exact_ref = ray.put(need)
    else:
        from .sketch_build import build_sketch

        bloom = build_sketch(
            ids_ds, "cid", "block",
            {"bytes_": sizing.block_bytes_needed(2 * n_pairs, 0.001)})
        bloom_ref = ray.put(bloom.to_bytes())

    src_cols = list(columns)

    def pick(t: pa.Table) -> pa.Table:
        rid = _str(t[id_column]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if exact_ref is not None:
            want = ray.get(exact_ref)  # zero-copy plasma read per task
            pos = np.searchsorted(want, rid)
            hit = (pos < len(want)) & (
                want[np.minimum(pos, len(want) - 1)] == rid)
        else:
            bloom = cached_broadcast(bloom_ref, BlockBloom.from_bytes)
            hit = bloom.find_hashes(hash_arrow_array(
                pa.array(rid, type=pa.int64())))
        t2 = t.select([id_column] + src_cols).filter(pa.array(hit))
        return t2.rename_columns([id_column] + [columns[c]
                                                for c in src_cols])

    return ds.map_batches(pick, batch_format="pyarrow")


#: candidate payload tables up to this many rows (and CAND_BROADCAST_BYTES)
#: attach map-side: one plasma broadcast + one map_batches over the pairs,
#: zero shuffles. Above either bound the two hash-partitioned equi-joins
#: take over — candidate payloads then never pass through the driver.
CAND_BROADCAST_LIMIT = 1 << 16
CAND_BROADCAST_BYTES = 256 << 20


def _attach_pair_payloads(pairs_mat, cand, id_column: str,
                          payload: str, num_shards: int, *,
                          broadcast_limit: int = CAND_BROADCAST_LIMIT,
                          broadcast_bytes: int = CAND_BROADCAST_BYTES,
                          carry_cols: list[str] | None = None):
    """Join the candidate-row Dataset `cand` (id + one `payload` column,
    MATERIALIZED) onto both endpoints of the pair Dataset: (id_a, id_b,
    *carry_cols, <payload>_a, <payload>_b). `carry_cols` are extra pair
    columns preserved through BOTH carrier paths (the broadcast attach
    keeps every input column for free; the hash joins must be told).

    Small candidate tables (the common case even on heavily-duplicated
    corpora once pairs are bucket-sharded) broadcast ONCE via plasma and
    attach map-side in a single pass over the pairs; larger ones pay two
    hash-partitioned equi-joins (stages/joins.py) — shuffle volume is
    pairs + candidate payloads, fully distributed, driver untouched."""
    import ray

    from .joins import hash_equi_join

    n_cand = cand.count()
    if n_cand <= broadcast_limit and cand.size_bytes() <= broadcast_bytes:
        ctab = pa.concat_tables(
            ray.get(cand.to_arrow_refs()), promote_options="default")
        ids = np.asarray(ctab[id_column], dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        lookup_ref = ray.put((ids[order],
                              ctab[payload].combine_chunks().take(
                                  pa.array(order))))

        def attach(t: pa.Table) -> pa.Table:
            sids, vals = ray.get(lookup_ref)  # zero-copy plasma read
            out = t
            for side in ("a", "b"):
                pid = np.asarray(t[f"id_{side}"], dtype=np.int64)
                idx = np.searchsorted(sids, pid)
                # every pair id came from cand's own prune — present by
                # construction; guard anyway so a miss fails loudly
                if len(pid) and (
                        len(sids) == 0 or (idx >= len(sids)).any()
                        or (sids[np.minimum(idx, len(sids) - 1)]
                            != pid).any()):
                    raise RuntimeError(
                        "pair endpoint id missing from candidate table")
                idx = np.minimum(idx, max(len(sids) - 1, 0))
                out = out.append_column(f"{payload}_{side}",
                                        vals.take(pa.array(idx)))
            return out

        return pairs_mat.map_batches(attach, batch_format="pyarrow")

    def rename_to(suffix):
        def f(t: pa.Table) -> pa.Table:
            return t.rename_columns([id_column, f"{payload}{suffix}"])
        return f

    carry = list(carry_cols or [])
    cand_a = cand.map_batches(rename_to("_a"), batch_format="pyarrow")
    cand_b = cand.map_batches(rename_to("_b"), batch_format="pyarrow")
    j1 = hash_equi_join(pairs_mat, cand_a, left_on="id_a",
                        right_on=id_column, left_cols=["id_b"] + carry,
                        right_cols=[f"{payload}_a"], num_shards=num_shards)
    return hash_equi_join(j1, cand_b, left_on="id_b", right_on=id_column,
                          left_cols=["id_a", f"{payload}_a"] + carry,
                          right_cols=[f"{payload}_b"],
                          num_shards=num_shards)


def verify_jaccard_pairs_ds(pairs_ds, ds, column: str, id_column: str,
                            k: int, threshold: float, *,
                            num_shards: int = 32):
    """Distributed exact k-shingle Jaccard verification: Dataset
    (id_a, id_b, jaccard) of the candidate pairs whose texts really match.
    Candidate texts are pruned once from `ds` (broadcast id set / bloom),
    attached to the pairs via two hash-partitioned joins, and verified
    per batch with the vectorized shingle kernel — the driver never sees
    a text. The shared verify tail of the minhash and blocked-ngram
    paths. Multi-band duplicate candidates are dropped first so each
    pair pays the shingle kernel exactly once."""
    pairs_mat = dedup_pairs_ds(pairs_ds)
    if pairs_mat.count() == 0:
        import ray.data

        return ray.data.from_arrow(pa.table({
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "jaccard": pa.array([], type=pa.float64())}))
    cand = _candidate_rows(ds, id_column, pairs_mat,
                           {column: "__txt"}).materialize()
    joined = _attach_pair_payloads(pairs_mat, cand, id_column, "__txt",
                                   num_shards)

    def verify(t: pa.Table) -> pa.Table:
        jac = jaccard_pairwise(_str(t["__txt_a"]), _str(t["__txt_b"]), k=k)
        keep = jac >= threshold
        out = t.select(["id_a", "id_b"]).filter(pa.array(keep))
        return out.append_column("jaccard",
                                 pa.array(jac[keep], type=pa.float64()))

    return joined.map_batches(verify, batch_format="pyarrow")


def ngram_jaccard_pairs_ds(ds, column: str, id_column: str, *, k: int = 5,
                           prefix: int = 32, threshold: float = 0.5,
                           min_len: int = 32, max_bucket: int = 4096,
                           batch_size: int = 4096):
    """Blocked exact n-gram Jaccard near-dup: block rows by their first
    `prefix` characters, exact distinct-k-shingle Jaccard on every
    within-block pair, keep jaccard >= threshold. Returns the confirmed
    (id_a, id_b, jaccard) pair DATASET.

    The deterministic (ANSI-SQL-oracleable) complement to
    `minhash_near_dup_pairs`: candidate generation is a pure function of the
    data (no hash permutations), so the full pipeline — blocking, pairing,
    and the Jaccard values themselves — can be verified against a DuckDB
    oracle. Same distributed shape as the LSH paths: narrow (bucket, id)
    rows -> sharded pair scan -> pruned-join candidate verification.

    Rows shorter than `min_len` are excluded (shorter than a meaningful
    block key). Shingles are byte k-grams; for ASCII corpora this matches
    SQL `substr` character shingles exactly.
    """
    import pyarrow.compute as pc

    def bucket_stage(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(pc.utf8_length(t[column]),
                                pa.scalar(min_len))
        t2 = t.filter(keep)
        pref = pc.utf8_slice_codeunits(t2[column], 0, prefix)
        bucket = hash_arrow_array(pref).view(np.int64)
        return pa.table({
            "bucket": pa.array(bucket, type=pa.int64()),
            id_column: t2[id_column],
        })

    buckets = ds.map_batches(bucket_stage, batch_format="pyarrow",
                             batch_size=batch_size)
    cand = candidate_pairs_ds(buckets, "bucket", id_column,
                              max_bucket=max_bucket)
    return verify_jaccard_pairs_ds(cand, ds, column, id_column, k,
                                   threshold)


def ngram_jaccard_pairs(ds, column: str, id_column: str,
                        **kwargs) -> pd.DataFrame:
    """Collected form of `ngram_jaccard_pairs_ds` (tests / bounded
    corpora). At crawl scale feed the Dataset form straight to
    `near_dup_dedup` — confirmed pairs never land on the driver."""
    return _collect_pairs(
        ngram_jaccard_pairs_ds(ds, column, id_column, **kwargs),
        values={"jaccard": np.float64})


def simhash_near_dup_pairs(ds, column: str, id_column: str, *, k: int = 5,
                           max_hamming: int = 3,
                           batch_size: int = 512) -> pd.DataFrame:
    """Confirmed near-dup pairs by SimHash: 4x16-bit band buckets guarantee
    recall for Hamming distance <= 3 (pigeonhole over 4 bands); verification
    is exact Hamming on the candidate pairs. Returns (id_a, id_b, hamming)."""

    def sig_stage(t: pa.Table) -> pa.Table:
        sh = simhash64(t[column], k=k)
        ids = _str(t[id_column]).to_numpy(zero_copy_only=False)
        bands = np.empty((len(sh), 4), dtype=U64)
        for b in range(4):
            bands[:, b] = ((sh >> U64(16 * b)) & U64(0xFFFF)) | (U64(b) << U64(16))
        return pa.table({
            "band_key": pa.array(bands.ravel().view(np.int64),
                                 type=pa.int64()),
            id_column: pa.array(np.repeat(ids, 4)),
            "simhash": pa.array(np.repeat(sh, 4).view(np.int64),
                                type=pa.int64()),
        })

    buckets = ds.map_batches(sig_stage, batch_format="pyarrow",
                             batch_size=batch_size)

    cand = dedup_pairs_ds(
        candidate_pairs_ds(buckets, "band_key", id_column,
                           extra_cols=["simhash"]),
        extra_cols=["simhash"])

    def verify(t: pa.Table) -> pa.Table:
        # the signatures rode the bucket table — verification is a
        # per-batch vectorized Hamming, no payload gather at all
        hd = hamming64(np.asarray(t["sim_a"], dtype=np.int64).view(U64),
                       np.asarray(t["sim_b"], dtype=np.int64).view(U64))
        keep = hd <= max_hamming
        out = t.select(["id_a", "id_b"]).filter(pa.array(keep))
        return out.append_column(
            "hamming", pa.array(hd[keep].astype(np.int64)))

    return _collect_pairs(cand.map_batches(verify, batch_format="pyarrow"),
                          values={"hamming": np.int64})


def near_dup_dedup(ds, pairs, id_column: str, *,
                   broadcast_limit: int = DROP_BROADCAST_LIMIT,
                   store_dir: str | None = None):
    """Drop every near-duplicate except the min-id representative of each
    cluster. `pairs` may be a confirmed-pair DataFrame (the bounded-corpus
    path: driver union-find over rows the caller already holds) or a pair
    DATASET (the 100 TB path: distributed min-label-propagation connected
    components, stages/cluster.py — pairs never land on the driver). The
    drop set is then applied with the same bounded carrier as exact dedup
    (broadcast array vs range-partitioned DropIdStore)."""
    import ray

    if isinstance(pairs, pd.DataFrame):
        if not len(pairs):
            return ds
        ids = np.unique(np.concatenate([pairs["id_a"], pairs["id_b"]]))
        cl = _union_find(pairs[["id_a", "id_b"]].to_numpy(), ids)
        drop = np.sort(np.array([i for i, root in cl.items() if i != root],
                                dtype=np.int64))
        if not len(drop):
            return ds
        source = ray.put(drop)
    else:
        from .cluster import cluster_drop_ds

        drop_ds = cluster_drop_ds(pairs).materialize()
        source = drop_source_of(drop_ds, broadcast_limit=broadcast_limit,
                                store_dir=store_dir)
        if source is None:
            return ds
    return ds.map_batches(drop_id_filter(source, id_column),
                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------

def _embedding_matrix(t: pa.Table, column: str) -> np.ndarray:
    col = t[column]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = np.asarray(col.values, dtype=np.float32)
    return flat.reshape(len(col), -1)


def _pack_f32(X: np.ndarray) -> pa.Array:
    """float32 matrix -> VARIABLE-length binary rows (all dim*4 bytes):
    Acero hash joins reject list<float> payloads, so candidate embeddings
    ride the verify joins as opaque blobs. Variable (not fixed-size)
    binary so a 0-row batch emits the SAME type as every other batch —
    mixed fixed/list block schemas in one Dataset trip Ray's schema
    unification (and any strict consumer) on mostly-empty prunes."""
    n, dim = X.shape
    offsets = (np.arange(n + 1, dtype=np.int32) * np.int32(dim * 4))
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(offsets.tobytes()),
         pa.py_buffer(np.ascontiguousarray(X, dtype=np.float32)
                      .tobytes())])


def _empty_packed_f32() -> pa.Array:
    return pa.array([], type=pa.binary())


def _unpack_f32(col) -> np.ndarray:
    """packed binary column (fixed or variable, all rows equal width) ->
    (n, dim) float32 view."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float32)
    if pa.types.is_fixed_size_binary(col.type):
        dim = col.type.byte_width // 4
        buf = col.buffers()[1]
        flat = np.frombuffer(buf, dtype=np.float32,
                             count=(col.offset + n) * dim)
        return flat[col.offset * dim:].reshape(n, dim)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32,
                         count=col.offset + n + 1)[col.offset:]
    width = int(offs[1] - offs[0])
    dim = width // 4
    flat = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    return flat[offs[0]:offs[0] + n * width].view(np.float32) \
        .reshape(n, dim)


def verify_cosine_pairs_ds(pairs_ds, ds, column: str, id_column: str,
                           threshold: float, *, num_shards: int = 32):
    """Distributed exact-cosine verification: Dataset (id_a, id_b, cosine)
    of the candidate pairs with cosine >= threshold. Candidate embeddings
    are pruned from `ds` once, L2-normalized and PACKED to fixed-size
    binary in the prune stage, attached via the shared pair joins, and
    verified per batch with one einsum — the driver never sees a vector.
    Multi-bucket duplicate candidates are dropped first."""
    pairs_mat = dedup_pairs_ds(pairs_ds)
    if pairs_mat.count() == 0:
        import ray.data

        return ray.data.from_arrow(pa.table({
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "cosine": pa.array([], type=pa.float64())}))

    def pack_stage(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # typed empty — same schema as packed blocks
            return t.set_column(t.schema.get_field_index("__emb"),
                                "__emb", _empty_packed_f32())
        X = _embedding_matrix(t, "__emb")
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True),
                            1e-12)
        return t.set_column(t.schema.get_field_index("__emb"), "__emb",
                            _pack_f32(Xn))

    cand = _candidate_rows(ds, id_column, pairs_mat, {column: "__emb"}) \
        .map_batches(pack_stage, batch_format="pyarrow").materialize()
    joined = _attach_pair_payloads(pairs_mat, cand, id_column, "__emb",
                                   num_shards)

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id_a": pa.array([], type=pa.int64()),
                             "id_b": pa.array([], type=pa.int64()),
                             "cosine": pa.array([], type=pa.float64())})
        Xa = _unpack_f32(t["__emb_a"])
        Xb = _unpack_f32(t["__emb_b"])
        cos = np.einsum("ij,ij->i", Xa, Xb)
        keep = cos >= threshold
        out = t.select(["id_a", "id_b"]).filter(pa.array(keep))
        return out.append_column(
            "cosine", pa.array(cos[keep].astype(np.float64)))

    return joined.map_batches(verify, batch_format="pyarrow")


def embedding_near_dup_pairs(ds, column: str, id_column: str, *,
                             dim: int, threshold: float = 0.95,
                             num_planes: int = 12, seed: int = 7,
                             batch_size: int = 4096) -> pd.DataFrame:
    """Near-dup pairs by cosine >= threshold via random-hyperplane LSH:
    bucket key = sign bits against `num_planes` fixed hyperplanes (seeded,
    identical in every task); exact cosine verification on candidate pairs.
    Recall is probabilistic (collision prob = (1 - theta/pi)^planes);
    for exact-recall small data use brute force in stages/ann.py.

    Scale shape: the bucket table is the NARROW (bucket, id) projection —
    16 B/row — pair-scanned by the sharded distributed `_candidate_pairs`;
    embeddings are then gathered ONLY for the candidate ids (broadcast id
    set, O(candidates) driver memory — never the corpus)."""
    if not 1 <= num_planes <= 64:
        raise ValueError(  # key is one packed u64 of sign bits
            f"num_planes must be in [1, 64], got {num_planes}")
    planes = np.random.default_rng(seed).standard_normal(
        (dim, num_planes)).astype(np.float32)

    def bucket_stage(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # reshape(0, -1) rejects empty flats
            return pa.table({
                "bucket": pa.array([], type=pa.int64()),
                id_column: pa.array([], type=t[id_column].type),
            })
        X = _embedding_matrix(t, column)
        Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        bits = (Xn @ planes) > 0
        key = np.packbits(bits, axis=1, bitorder="little")
        key = np.pad(key, ((0, 0), (0, 8 - key.shape[1])))[:, :8] \
            .copy().view(np.uint64).ravel()
        ids = _str(t[id_column]).to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(key.view(np.int64), type=pa.int64()),
            id_column: pa.array(ids),
        })

    buckets = ds.map_batches(bucket_stage, batch_format="pyarrow",
                             batch_size=batch_size)
    cand = candidate_pairs_ds(buckets, "bucket", id_column, max_bucket=256)
    return _collect_pairs(
        verify_cosine_pairs_ds(cand, ds, column, id_column, threshold),
        values={"cosine": np.float64})


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
