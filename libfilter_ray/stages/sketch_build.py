"""Distributed mergeable-sketch builds and probes over Ray Data.

One map, one merge. A stateless per-block `map_batches` stage turns
each block into small keyed partial rows (a pure function of the block,
so Ray task retries are safe); the one keyed merge, `merge_keyed`, folds
them. Every engine result is produced this way:

1. **Sketch builds**: one per-block partial builder,
   `_MultiGroupedPartialBuilder`, emits per-block *per-key* partials for
   any number of specs. Grouped builds (per-lang / per-domain,
   `build_grouped_multi`) key by a column; global builds (`build_sketch`)
   use the one key "" over every row, and `build_sketch_exact` ships each
   block's raw hash list, so the fold inserts the sorted hash multiset
   once. `CheckpointedBuild` (state/checkpoint.py) writes the same
   builder's partials to its files, and its merge folds them the same way.

2. **Grouped probe** (`probe_grouped`): per-block per-key `(n, found)`
   counts against broadcast filters; the fold sums them.

`merge_keyed`: a partial set that fits `ONE_TASK_BYTES` is folded by ONE
remote task; a larger one is cut by key hash in plain split tasks and
folded by one plain task per shard. Both fold each key's payloads in
canonical order (`_fold_payloads`), so every output is independent of
block order. Maps run one partial per BLOCK (no batch_size): a fixed
batch size would coalesce small blocks into few huge tasks; block size
is governed upstream by the read. The entry points' context posture
has reads cut blocks of at least 8 MiB (`context.MIN_BLOCK_BYTES`)
unless that leaves fewer than 2 blocks per CPU, so each block's map
work outweighs its task's fixed cost.

Both map stages, the builder and the grouped probe, split a block by key
one way, `split_by_key`: one dictionary encode, null-key rows dropped in
one place, each hashed column hashed once per block.

The reference's merge ops backing this: BlockBloom bitwise OR (implied by
c/lib/block.c construction), taffy-cuckoo union (c/lib/taffy-cuckoo.c:260-348),
level-wise OR for taffy-block — see SURVEY.md §2.6.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..sketch import registry
from ..sketch.hashing import DEFAULT_SEED, hash_arrow_array, splitmix64


def _column_input(sketch) -> str:
    return getattr(sketch, "input", "hashes")


def _combined(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _column_hashes(col, seed: int, pre_hashed: bool) -> np.ndarray:
    """u64 hashes of an Arrow column. pre_hashed=True: the column already
    holds 64-bit hashes (the reference's own API contract — it only ever
    sees pre-hashed keys, block.h:43-46); nulls are dropped and the int64
    values reinterpreted bit-exact as u64 (never through float64, which
    rounds hashes above 2^53). Otherwise `hash_arrow_array` (nulls hash to
    its sentinel)."""
    if pre_hashed:
        vals = _combined(col).drop_null().to_numpy(zero_copy_only=False)
        return np.ascontiguousarray(vals, dtype=np.int64).view(np.uint64)
    return hash_arrow_array(col, seed=seed)


def _updates_from(batch_col, sketch, seed: int, pre_hashed: bool = False):
    """Feed an Arrow column into a sketch (hash it first if hash-consuming;
    see `_column_hashes` for pre_hashed)."""
    if pre_hashed or _column_input(sketch) == "hashes":
        sketch.update(_column_hashes(batch_col, seed, pre_hashed))
    else:
        vals = batch_col.to_numpy(zero_copy_only=False).astype(np.float64)
        sketch.update(vals[~np.isnan(vals)])
    return sketch


def _build_global(ds, column: str, kind: str, params: dict | None,
                  seed: int, pre_hashed: bool, raw: bool):
    params = params or {}
    spec = [("s", kind, params, column)]
    partials = ds.map_batches(
        _MultiGroupedPartialBuilder(spec, None, seed, raw, pre_hashed),
        batch_format="pyarrow")
    out = merge_keyed(partials, "key", spec, finalize=False)
    if out is None:
        return registry.make(kind, **params).finalize()
    return registry.get(kind).from_bytes(out["payload_s"][0].as_py()) \
        .finalize()


def build_sketch(ds, column: str, kind: str, params: dict | None = None, *,
                 seed: int = DEFAULT_SEED, pre_hashed: bool = False):
    """Build ONE global sketch of `column` over the whole Dataset.

    map_batches(one partial per block, `_MultiGroupedPartialBuilder` over
    the one key "") -> `merge_keyed` -> `.finalize()` on the driver. The
    partials are always sketches, never raw hash lists: for the taffy kinds
    the raw fold and the level merge give different bytes. The fold is
    canonical, so the result does not depend on block order (KLL
    included). Returns the finalized sketch object; an empty Dataset gives
    the empty sketch.

    Known limit: one key cannot spread over shards, so partials above
    `ONE_TASK_BYTES` fold in ONE shard's fold task (as a hot key does in a
    grouped build); that task's memory bounds the build.
    """
    return _build_global(ds, column, kind, params, seed, pre_hashed,
                         raw=False)


def build_sketch_exact(ds, column: str, kind: str = "taffy_block",
                       params: dict | None = None, *,
                       seed: int = DEFAULT_SEED, pre_hashed: bool = False):
    """Partition-INVARIANT exact build for growth-order-sensitive sketches.

    TaffyBlock's distributed level-OR merge is exact only while both sides
    share one level plan (taffy_block.py docstring) — growth under merge
    degrades the fpp plan. This path sidesteps merge entirely: each block's
    partial is its RAW 8-byte hash list (the one partial builder with
    `raw=True`, `_MultiGroupedPartialBuilder`), and the keyed merge's fold
    inserts the sorted multiset of all of them into one fresh sketch
    (`_fold_payloads`). The result is byte-identical to a sequential build
    over the sorted hash stream no matter how the input was partitioned
    (property-tested).

    Scale shape: hashing runs distributed in map_batches; only the 8 B/row
    hash stream reaches the one fold task (never the driver), as in
    `build_sketch`'s known limit. The single writer is inherent: byte-exact
    growable-filter construction is sequential in the reference too
    (c/lib/taffy-block.c:9-32)."""
    return _build_global(ds, column, kind, params, seed, pre_hashed,
                         raw=True)


def split_by_key(table: pa.Table, key: str | None, hashed=(), valued=(),
                 seed: int = DEFAULT_SEED, pre_hashed: bool = False):
    """The one key split behind every per-key stage: group a block's rows by
    `key` with one dictionary encode and one stable sort of the codes.

    Returns (keys, bounds, hashes, values). `keys` are the distinct non-null
    keys in order of first appearance, typed as the key column; key i owns
    rows [bounds[i], bounds[i+1]) of the key-ordered columns. `hashes[c]`
    holds column c's u64 hashes (`_column_hashes`): hashed ONCE over the
    unsorted block, then permuted into key order (the hash is per element,
    so this equals hashing the sorted column, without an Arrow take of a
    string column). `values[c]` is column c taken into key order. The sort
    is stable, so each key keeps its rows' block order (order-sensitive
    value sketches stay byte-identical); per-key cost is O(its rows), linear
    at thousands of keys. Rows with a NULL key are dropped — unlike SQL
    GROUP BY, which groups them; pre-filter nulls (or fill a sentinel) if
    they must count.

    `key=None` is the global split: one key "" over every row, in block
    order (no key at all for an empty block). With `pre_hashed` the hashed
    columns already hold 64-bit hashes, and a row null in one of them is
    dropped first, so the hashes stay aligned with the bounds."""
    import pyarrow.compute as pc

    if pre_hashed:
        for c in hashed:
            if table[c].null_count:
                table = table.filter(pc.is_valid(table[c]))
    if key is None:
        keys = pa.array([""] * min(table.num_rows, 1), type=pa.string())
        codes = np.zeros(table.num_rows, dtype=np.int64)
    else:
        enc = pc.dictionary_encode(_combined(table[key]))
        keys = enc.dictionary
        codes = np.asarray(enc.indices.fill_null(len(keys)))
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(len(keys) + 1))
    order = order[:bounds[-1]]  # null keys sort past the last bound
    hashes = {c: _column_hashes(table[c], seed, pre_hashed)[order]
              for c in hashed}
    values = {c: _combined(table[c]).take(pa.array(order)) for c in valued}
    return keys, bounds, hashes, values


def _takes_hashes(kind: str, pre_hashed: bool) -> bool:
    """Whether a spec of `kind` is fed u64 hashes (every kind is, from a
    pre-hashed column) rather than float64 values (t-digest, KLL)."""
    return pre_hashed or _column_input(registry.get(kind)) == "hashes"


def _spec_inputs(specs, pre_hashed: bool):
    """(hashed, valued): the columns split_by_key hashes for the specs fed
    hashes and the columns whose values it takes for the others."""
    hashed, valued = set(), set()
    for (_name, kind, _params, column) in specs:
        (hashed if _takes_hashes(kind, pre_hashed) else valued).add(column)
    return hashed, valued


#: Key-hash shards of the keyed merge's sharded path (`merge_keyed`).
NUM_SHARDS = 32
#: Range of the partial rows' `salt` column. The merge does not read it;
#: perfbench's replay of the older two-round merge groups by it.
NUM_SALTS = 8


def _block_salt(batch: pa.Table, column: str, key: str | None) -> int:
    """Deterministic per-block salt in [0, NUM_SALTS) (a pure function of
    block content, so retry-safe): a hash of the block's first `column`
    value — of its first key value when the column is not hashable
    (float values) — and row count. 0 for an empty block and for a global
    build (`key` None), whose one key has no salt groups to spread over."""
    if key is None or not batch.num_rows:
        return 0
    try:
        fp = hash_arrow_array(batch[column].slice(0, 1), seed=7)
    except TypeError:
        fp = hash_arrow_array(batch[key].slice(0, 1), seed=7)
    # int() BEFORE the modulo: numpy-u64 % python-int promotes to
    # float64 and rounds away the low bits (salt was always 0)
    return int(splitmix64(np.array([int(fp[0]) ^ batch.num_rows],
                                   dtype=np.uint64))[0]) % NUM_SALTS


def _add_merge_shard(key: str, num_shards: int, with_salt: bool):
    """map_batches callable tagging partial rows with a merge shard: a pure
    hash of (key[, salt]) so one (key, salt) group never splits across
    shards. The sharded path of `merge_keyed` shards by key alone and runs
    ONE fold task per shard over all of its keys, so thousands of keys
    (per-domain builds) cost `num_shards` tasks, not one each. `with_salt`
    is kept for perfbench's replay of the older salted two-round merge
    (tests/test_perfbench_hooks.py)."""

    def add(t: pa.Table) -> pa.Table:
        kh = hash_arrow_array(t[key], seed=0x5AAD)
        if with_salt:
            kh = kh ^ (np.asarray(t["salt"], dtype=np.int64).view(np.uint64)
                       * np.uint64(0x9E3779B97F4A7C15))
        shard = (splitmix64(kh) % np.uint64(num_shards)).astype(np.int64)
        return t.append_column("mshard", pa.array(shard, type=pa.int64()))

    return add


class _MultiGroupedPartialBuilder:
    """The one per-block partial builder: per-key partials of a block for a
    list of (name, kind, params, column) specs. Every build maps through it
    (global, exact, grouped and checkpointed), and at 100 TB one pass is
    the pattern that matters: one read feeds every sketch instead of one
    pipeline each.

    One split_by_key per block: each column is hashed ONCE and reused by
    every spec consuming it. `key=None` builds one partial per block under
    the key "" (a global build). `raw` sets what a partial ships (see
    `_key_payloads`): None decides by size (grouped builds), True always the
    hash list (`build_sketch_exact`), False always a sketch (`build_sketch`
    and the checkpoint). `pre_hashed`: the spec columns already hold 64-bit
    hashes (`_column_hashes`). Output columns: key ("key" when `key` is
    None), salt (see `NUM_SALTS`), rows, then payload_<name> and
    fmt_<name> per spec."""

    def __init__(self, specs, key: str | None, seed: int,
                 raw: bool | None = None, pre_hashed: bool = False):
        self.specs, self.key, self.seed = specs, key, seed
        self.raw, self.pre_hashed = raw, pre_hashed

    def _key_payloads(self, split, kind: str, params: dict, column: str):
        """(payloads, fmts): one serialized partial per key of a
        split_by_key result, for one spec.

        A raw partial is the key's 8-byte hash list ("raw"), which the fold
        inserts; `raw=True` is for hash-consuming kinds only. `raw=None` is
        the shuffle-volume guard (the 100 TB lever): a per-block per-key
        partial of a FIXED-SIZE sketch (e.g. a corpus-sized BlockBloom)
        costs its full size however few rows it holds, and partial count
        scales with blocks x keys, so a hash-consuming spec's key whose hash
        list is under half the sketch's size ships THAT."""
        _keys, bounds, hashes, values = split
        hashing = _takes_hashes(kind, self.pre_hashed)
        budget = 0
        if self.raw is None and hashing:
            probe = registry.make(kind, **params)
            budget = (probe.size_in_bytes() if hasattr(probe, "size_in_bytes")
                      else len(probe.to_bytes())) // 2
        payloads, fmts = [], []
        for b0, b1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if self.raw or (b1 - b0) * 8 < budget:
                payloads.append(hashes[column][b0:b1].tobytes())
                fmts.append("raw")
                continue
            sk = registry.make(kind, **params)
            if hashing:
                sk.update(hashes[column][b0:b1])
            else:
                _updates_from(values[column].slice(b0, b1 - b0), sk, self.seed)
            payloads.append(sk.to_bytes())
            fmts.append("sketch")
        return payloads, fmts

    def partials(self, batch: pa.Table):
        """(keys, columns) of the block's partial rows without the salt:
        `rows`, then payload_<name> and fmt_<name> per spec."""
        split = split_by_key(batch, self.key,
                             *_spec_inputs(self.specs, self.pre_hashed),
                             seed=self.seed, pre_hashed=self.pre_hashed)
        out = {"rows": pa.array(np.diff(split[1]), type=pa.int64())}
        for (name, kind, params, column) in self.specs:
            payloads, fmts = self._key_payloads(split, kind, params, column)
            out[f"payload_{name}"] = pa.array(payloads,
                                              type=pa.large_binary())
            out[f"fmt_{name}"] = pa.array(fmts, type=pa.string())
        return split[0], out

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys, cols = self.partials(batch)
        salt = _block_salt(batch, self.specs[0][3], self.key)
        return pa.table({"key" if self.key is None else self.key: keys,
                         "salt": pa.array(np.full(len(keys), salt),
                                          type=pa.int32()),
                         **cols})


def build_grouped_multi(ds, key: str, specs, *, seed: int = DEFAULT_SEED):
    """Per-key sketches for several (name, kind, params, column) specs in ONE
    pass over the data, then one keyed merge of the tiny per-block per-key
    partial rows (`merge_keyed`: one task for a small partial set, else
    split and fold tasks over `NUM_SHARDS` key-hash shards).
    Returns pandas (key, rows, payload_<name>...) sorted by key."""
    import pandas as pd

    specs = list(specs)
    names = [name for (name, *_r) in specs]
    dups = sorted({n for n in names if names.count(n) > 1})
    if dups:  # specs sharing a name would share one payload column
        raise ValueError(f"duplicate sketch spec names: {dups}")
    partials = ds.map_batches(
        _MultiGroupedPartialBuilder(specs, key, seed),
        batch_format="pyarrow")
    out = merge_keyed(partials, key, specs, finalize=True)
    cols = [key, "rows"] + [f"payload_{name}" for (name, *_r) in specs]
    if out is None:  # no non-null key anywhere: typed empty frame
        return pd.DataFrame({c: [] for c in cols})
    return out.select(cols).to_pandas().sort_values(key) \
        .reset_index(drop=True)


#: Partial bytes (from Ray block metadata, or parquet footers for
#: `PartialFiles`) up to which ONE task folds the whole keyed merge; above
#: it split tasks cut the rows by key hash and one task per shard folds
#: them. The bound is set by the one task's memory, not by time: on one
#: core, with 16 KB Bloom partials (tools/keyed_merge_crossover.py), one
#: task folds 1 / 8 / 64 MB in 0.02 / 0.03 / 0.11 s against 0.16 / 0.77 /
#: 1.55 s on the sharded path, while its worker peaks at ~185 MB plus 3-5x
#: the partial bytes (0.38 GB at 64 MB). No benchmark workload has partials
#: above the bound, so the sharded path's end-to-end cost is unmeasured.
ONE_TASK_BYTES = 64 << 20


def _fold_payloads(kind: str, params: dict, sketches: list, raws: list,
                   finalize: bool) -> bytes:
    """One key's payloads of one spec, folded in canonical order: sketch
    payloads merge in sorted byte order, and the raw hash lists go in as
    ONE sorted multiset with one bulk update. The result depends on the
    multiset of payloads only (for raws, of hashes: a key whose partials
    are all raw gives the same bytes under any partitioning, growable kinds
    included), not on block order or on which path of the merge delivered
    them (order-sensitive sketches like KLL included)."""
    cls = registry.get(kind)
    acc = None
    for p in sorted(sketches):
        sk = cls.from_bytes(p)
        acc = sk if acc is None else acc.merge(sk)
    if raws:
        if acc is None:
            acc = registry.make(kind, **params)
        acc.update(np.sort(np.frombuffer(b"".join(raws), dtype=np.uint64)))
    if finalize:
        acc = acc.finalize()
    return acc.to_bytes()


def _keyed_fold(specs, key: str, finalize: bool):
    """The keyed merge's one fold, used by both of its paths: a function
    from partial rows to one row per distinct key. Each spec's
    payload_<name> column (with its fmt_<name>, "sketch" or "raw"; a spec
    without a fmt column holds sketch payloads only) is folded by
    `_fold_payloads`. The routing column `salt` is dropped, and every
    other column is an int64 count summed per key: `rows` for builds, `n`
    and `found` for the probe."""
    skip = {key, "salt"}
    for (name, *_r) in specs:
        skip |= {f"payload_{name}", f"fmt_{name}"}

    def fold(table: pa.Table) -> pa.Table:
        groups: dict = {}
        for i, k in enumerate(table[key].to_pylist()):
            groups.setdefault(k, []).append(i)
        out = {key: table[key].take([ix[0] for ix in groups.values()])}
        for c in table.column_names:
            if c not in skip:
                vals = table[c].to_pylist()
                out[c] = pa.array([sum(vals[i] for i in ix)
                                   for ix in groups.values()],
                                  type=pa.int64())
        for (name, kind, params, _column) in specs:
            payloads = table[f"payload_{name}"].to_pylist()
            fcol = f"fmt_{name}"
            fmts = (table[fcol].to_pylist() if fcol in table.column_names
                    else ["sketch"] * table.num_rows)
            out[f"payload_{name}"] = pa.array([_fold_payloads(
                kind, params,
                [payloads[i] for i in ix if fmts[i] == "sketch"],
                [payloads[i] for i in ix if fmts[i] == "raw"],
                finalize) for ix in groups.values()],
                type=pa.large_binary())
        return pa.table(out)

    return fold


class PartialFiles:
    """Partial rows (see `_keyed_fold`) stored in parquet files, as the
    checkpoint keeps them; `columns` maps each file column to read to its
    partial-row name."""

    def __init__(self, paths: list[str], columns: dict):
        self.paths, self.columns = list(paths), dict(columns)

    def fits(self, budget: int) -> bool:
        """Whether the read columns' uncompressed bytes, summed from the
        file footers (no payload is read), stay within `budget`. The sum
        stops at the first file past it, so a large set costs the driver
        about `budget` bytes' worth of footer reads, not one per file."""
        size = 0
        for path in self.paths:
            md = pq.read_metadata(path)
            for i in range(md.num_row_groups):
                rg = md.row_group(i)
                size += sum(rg.column(j).total_uncompressed_size
                            for j in range(rg.num_columns)
                            if rg.column(j).path_in_schema in self.columns)
            if size > budget:
                return False
        return True

    def read(self) -> pa.Table:
        t = pq.read_table(self.paths, columns=list(self.columns))
        return t.rename_columns([self.columns[c] for c in t.column_names])


def _rows(parts) -> pa.Table:
    """The partial rows of `parts` (tables, or `PartialFiles` read here)."""
    return pa.concat_tables([p.read() if isinstance(p, PartialFiles) else p
                             for p in parts], promote_options="default")


def _fold_parts(fold, *parts) -> pa.Table | None:
    """One fold task of the keyed merge: every row of `parts` -> one row per
    key, or None when there are no rows."""
    t = _rows(parts)
    return fold(t) if t.num_rows else None


def _split_parts(key: str, *parts) -> tuple:
    """One split task of the keyed merge's sharded path: the rows of
    `parts`, cut into `NUM_SHARDS` tables by the hash of their key
    (`_add_merge_shard`), so every row of a key lands in one shard."""
    t = _rows(parts)
    shard = np.asarray(_add_merge_shard(key, NUM_SHARDS, False)(t)["mshard"])
    return tuple(t.filter(shard == s) for s in range(NUM_SHARDS))


def merge_keyed(partials, key: str, specs, *, finalize: bool):
    """The one keyed merge behind every engine result (global, exact,
    grouped and checkpointed builds, and the grouped probe): partial rows
    (see `_keyed_fold`) -> one pyarrow row per key, or None when there are
    no partial rows.

    `partials` is a Dataset of partial rows or a `PartialFiles`. A Dataset
    is materialized and sized from block metadata, files from their
    footers; no payload reaches the driver, and files are read by the
    tasks themselves, never through a Ray Data read. Up to
    `ONE_TASK_BYTES` ONE remote fold task receives every block (or reads
    every file) and folds every key. Above it, the blocks (or file paths)
    are cut into at most `NUM_SHARDS` consecutive runs; one split task per
    run cuts its rows into `NUM_SHARDS` key-hash shards, and fold task `s`
    takes shard `s` of every run. Either way each key's whole payload
    multiset goes through the same canonical fold in one task, so both
    paths give the same bytes for every sketch kind."""
    import ray

    fold = _keyed_fold(specs, key, finalize)
    fold_task = ray.remote(_fold_parts)
    if isinstance(partials, PartialFiles):
        if partials.fits(ONE_TASK_BYTES):
            return ray.get(fold_task.remote(fold, partials))
        paths = partials.paths
        runs = [[PartialFiles(run.tolist(), partials.columns)] for run in
                np.array_split(paths, min(NUM_SHARDS, len(paths)))]
    else:
        partials = partials.materialize()
        if not partials.count():
            return None
        refs = partials.to_arrow_refs()
        if partials.size_bytes() <= ONE_TASK_BYTES:
            return ray.get(fold_task.remote(fold, *refs))
        runs = np.array_split(refs, min(NUM_SHARDS, len(refs)))
    split = ray.remote(num_returns=NUM_SHARDS)(_split_parts)
    shards = [split.remote(key, *run) for run in runs]
    outs = ray.get([fold_task.remote(fold, *[s[i] for s in shards])
                    for i in range(NUM_SHARDS)])
    outs = [o for o in outs if o is not None]
    return pa.concat_tables(outs, promote_options="default") if outs else None


def build_sketch_actor_pool(ds, column: str, kind: str,
                            params: dict | None = None, *,
                            seed: int = DEFAULT_SEED, concurrency: int = 4,
                            pre_hashed: bool = False):
    """Actor-pool accumulate variant of `build_sketch` (SURVEY.md §7.2):
    each long-lived actor consumes one `streaming_split` iterator and keeps
    ONE accumulator across all its batches, flushing a single partial at end
    — `concurrency` partials total instead of one per block (fewer merges;
    the high-throughput shape for corpus-sized accumulators).

    This is the one stage expressed with raw Ray actors: Dataset.map_batches
    offers no end-of-stream flush hook, so the accumulate-then-flush
    semantics genuinely need `streaming_split` + `@ray.remote` consumers.

    For order-invariant sketches the result is byte-identical to
    `build_sketch` (asserted in tests). Caveat: actor state is lost on actor
    failure — for retry-safe checkpointable builds use the per-block partial
    path or `state/checkpoint.py` (SURVEY.md §4.2).
    """
    import ray

    params = params or {}

    # num_cpus=0.5: the consumers BLOCK on streaming_split iterators that
    # only advance while the producing Dataset's read/map tasks can get
    # CPUs — full-CPU consumers can deadlock the whole job when
    # concurrency (+ any actor pool still tearing down from a previous
    # stage) reaches the session's CPU count (classic Ray
    # consumer-starves-producer deadlock; observed under num_cpus=4 with
    # concurrency=3 and one straggler actor). Half a CPU keeps the
    # accumulate work scheduled while guaranteeing producer headroom.
    @ray.remote(num_cpus=0.5)
    def consume(it, kind: str, params: dict, column: str, seed: int,
                pre_hashed: bool) -> bytes:
        sk = registry.make(kind, **params)
        for batch in it.iter_batches(batch_size=None, batch_format="pyarrow"):
            if batch.num_rows:
                _updates_from(batch[column], sk, seed, pre_hashed)
        return sk.to_bytes()

    its = ds.streaming_split(concurrency, equal=False)
    payloads = ray.get([
        consume.remote(it, kind, params, column, seed, pre_hashed)
        for it in its])
    return registry.get(kind).from_bytes(
        _fold_payloads(kind, params, payloads, [], finalize=False)).finalize()


def grouped_probe_counts(payloads_ref, from_bytes, key: str, column: str, *,
                         seed: int = DEFAULT_SEED):
    """A map_batches FUNCTION emitting per-key membership counts against a
    broadcast dict of per-key serialized filters: one split_by_key per batch
    (the column hashed once), one vectorized find_hashes per present key,
    one tiny (key, n, found) partial row per key per batch, which
    `probe_grouped`'s keyed merge sums.

    `payloads_ref` = ray.put({key: filter_bytes}); filters deserialize ONCE
    per worker process (stages/broadcast.py memo)."""
    from .broadcast import cached_broadcast

    def probe(t: pa.Table) -> pa.Table:
        fs = cached_broadcast(
            payloads_ref,
            lambda pl: {k: from_bytes(v) for k, v in pl.items()})
        keys, bounds, hashes, _ = split_by_key(t, key, [column], seed=seed)
        found = []
        for kv, b0, b1 in zip(keys.to_pylist(), bounds[:-1].tolist(),
                              bounds[1:].tolist()):
            f = fs.get(kv)
            # a key absent from the broadcast filter set (probe corpus
            # wider than the build corpus) has no members
            found.append(0 if f is None else
                         int(f.find_hashes(hashes[column][b0:b1]).sum()))
        return pa.table({key: keys,
                         "n": pa.array(np.diff(bounds), type=pa.int64()),
                         "found": pa.array(found, type=pa.int64())})

    return probe


def probe_grouped(ds, payloads: dict, from_bytes, key: str, column: str, *,
                  seed: int = DEFAULT_SEED):
    """The engine's grouped probe: count, per `key`, the rows of `ds` and
    how many of their `column` values the key's filter finds.

    `payloads` = {key: filter_bytes}, `ray.put` once here and deserialized
    once per worker (`grouped_probe_counts`); the per-block counts are
    summed by `merge_keyed` with no sketch specs. A key missing from
    `payloads` finds nothing; null-key rows are not counted. Returns pandas
    (key, n, found), counts int64, sorted by key."""
    import pandas as pd
    import ray

    partials = ds.map_batches(
        grouped_probe_counts(ray.put(payloads), from_bytes, key, column,
                             seed=seed),
        batch_format="pyarrow")
    out = merge_keyed(partials, key, [], finalize=False)
    if out is None:  # no non-null key anywhere: typed empty frame
        return pd.DataFrame({key: pd.Series(dtype=object),
                             "n": pd.Series(dtype="int64"),
                             "found": pd.Series(dtype="int64")})
    return out.to_pandas().sort_values(key).reset_index(drop=True)


def probe_stage(sketch_bytes_ref, kind: str, column: str, *,
                seed: int = DEFAULT_SEED, out_column: str = "found"):
    """A map_batches callable CLASS probing rows against a broadcast sketch.

    The serialized sketch is `ray.put` once on the driver; each actor
    deserializes it ONCE in __init__ (not per batch).
    """

    class Prober:
        def __init__(self):
            import ray
            cls = registry.get(kind)
            self.sketch = cls.from_bytes(ray.get(sketch_bytes_ref))

        def __call__(self, batch: pa.Table) -> pa.Table:
            hashes = hash_arrow_array(batch[column], seed=seed)
            found = self.sketch.find_hashes(hashes)
            return batch.append_column(out_column, pa.array(found))

    return Prober
