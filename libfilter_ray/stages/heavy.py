"""Exact distributed heavy hitters: Misra-Gries candidate generation +
broadcast exact recount — two streaming passes, bounded state everywhere.

Public algorithms: Misra & Gries (Science of Computer Programming 1982);
the bulk-decrement merge analysis from Agarwal et al., "Mergeable
Summaries" (PODS 2012): adding size-k MG summaries counter-wise and then
subtracting the (k+1)-th largest counter keeps the TOTAL undercount over
any merge tree <= n/(k+1), so every item with true frequency > n/(k+1)
survives into the merged summary — no false negatives.

Why this shape at 100 TB: the naive exact answer is a full groupby over
the item stream (vocab-sized shuffle, unbounded driver result — the
round-3 keyword_topk lesson). Here:

  pass 1  map_batches -> per-block exact counts compressed to a size-k
          MG summary (<= k+1 rows leave each block) -> groupby-Sum over
          summary rows only -> threshold filter INSIDE the Dataset; the
          driver collects <= 1/(phi - 1/(k+1)) candidate rows, a constant
          independent of data size (MG guarantee, see `heavy_hitters`).
  pass 2  broadcast the candidate array (ray.put once) -> map_batches
          exact per-block recount restricted to candidates -> groupby-Sum
          over <= |candidates| rows -> exact counts, exact threshold.

The output is EXACT: {item : count(item) >= ceil(phi * n)} with true
counts — reproduced bit-for-bit by a plain SQL GROUP BY ... HAVING.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sketch.hashing import splitmix64

# Seed for the planted zipf item stream (see zipf_items): the items are a
# pure function of the row id, so the SQL oracle replays the derivation
# exactly.
ZIPF_SEED = 0x21BF


def zipf_items(ids: np.ndarray, seed: int = ZIPF_SEED) -> np.ndarray:
    """Deterministic zipf(2)-distributed item ids from integer row ids:
    h = splitmix64(id, seed); u = (h >> 11) + 1 uniform on [1, 2^53];
    item = 2^53 // u, so P(item = j) = 1/j - 1/(j+1) — a heavy head
    (item 1 carries half the stream) with a power-law tail. Stands in for
    the url/domain/token streams of a real crawl; integer-exact in both
    numpy and DuckDB (HUGEINT division)."""
    h = splitmix64(np.ascontiguousarray(ids, dtype=np.uint64), seed=seed)
    u = (h >> np.uint64(11)) + np.uint64(1)
    return (np.uint64(1 << 53) // u).astype(np.int64)


def mg_compress(vals: np.ndarray, counts: np.ndarray, k: int):
    """Bulk Misra-Gries decrement: if more than k counters, subtract the
    (k+1)-th largest count from all and drop the non-positive — at most k
    survive, and each survivor's counter is an undercount by <= that
    threshold (the classic MG invariant, applied k-at-a-time)."""
    if len(vals) <= k:
        return vals, counts
    thr = np.partition(counts, len(counts) - (k + 1))[len(counts) - (k + 1)]
    dec = counts - thr
    m = dec > 0
    return vals[m], dec[m]


def column_items(column: str, *, drop_null: bool = True):
    """make_items reading a string or integer column directly (the
    heavy-domains / heavy-urls / heavy-tokens shape). NULL rows are not
    items and are dropped by default; the grouped path needs row-aligned
    items, so grouped callers pass drop_null=False after dropping null
    rows at the Dataset level. Strings come out as an object-dtype array
    (never numpy U-dtype — it can't carry NUL and pads to the longest
    value)."""

    def items(t: pa.Table) -> np.ndarray:
        col = t.column(column).combine_chunks()
        if drop_null:
            col = col.drop_null()
        if pa.types.is_integer(col.type):
            return np.asarray(col.to_numpy(zero_copy_only=False),
                              dtype=np.int64)
        return np.asarray(col, dtype=object)

    return items


def heavy_hitters(ds, make_items, *, k: int = 64,
                  phi_num: int = 1, phi_den: int = 50,
                  item_type: pa.DataType = pa.int64(),
                  sentinel=0,
                  batch_size: int | None = 8192):
    """Exact heavy hitters over the item stream `make_items(batch)`.

    Returns (DataFrame[item, n] sorted by n desc / item asc, total):
    exactly the items with count >= ceil(phi * total) where
    phi = phi_num/phi_den, with their EXACT counts.

    Correctness requires phi > 1/(k+1) (checked): the merged MG summary
    undercounts any item by at most total/(k+1) < phi*total, so no
    qualifying item can be missing from the candidate set.

    `sentinel` is the item value carried by the per-block total rows
    (any valid value of item_type — "" for strings); it is segregated by
    the is_total flag and can also appear as a real item.
    """
    import ray
    from ray.data.aggregate import Sum

    if phi_num * (k + 1) <= phi_den:
        raise ValueError(
            f"phi={phi_num}/{phi_den} must exceed 1/(k+1)={1}/{k + 1}: "
            "the MG guarantee cannot cover the threshold")

    def partial(t: pa.Table) -> pa.Table:
        items = make_items(t)
        vals, counts = np.unique(items, return_counts=True)
        total = int(len(items))
        vals, counts = mg_compress(vals, counts.astype(np.int64), k)
        item_arr = pa.array(vals, type=item_type)
        n_arr = pa.array(counts, type=pa.int64())
        flags = pa.array(np.zeros(len(vals), dtype=np.int32),
                         type=pa.int32())
        summary = pa.table({"item": item_arr, "n": n_arr, "is_total": flags})
        total_row = pa.table({
            "item": pa.array([sentinel], type=item_type),
            "n": pa.array([total], type=pa.int64()),
            "is_total": pa.array([1], type=pa.int32()),
        })
        return pa.concat_tables([summary, total_row])

    agg = ds.map_batches(partial, batch_format="pyarrow",
                         batch_size=batch_size) \
        .groupby(["is_total", "item"]) \
        .aggregate(Sum("n", alias_name="n")).materialize()

    total_df = agg.filter(expr="is_total == 1").to_pandas()
    total = int(total_df["n"].sum()) if len(total_df) else 0
    if total == 0:
        import pandas as pd
        return pd.DataFrame({"item": pa.array([], type=item_type).to_pandas(),
                             "n": np.array([], dtype=np.int64)}), 0
    thresh = (phi_num * total + phi_den - 1) // phi_den  # ceil(phi*n)
    undercount = total // (k + 1)
    cutoff = max(1, thresh - undercount)
    # MG guarantee: every item with true count >= thresh has summed
    # summary count >= thresh - undercount; candidate rows <= total/cutoff
    # <= 1/(phi - 1/(k+1)) — a CONSTANT, not O(vocab)
    cand = agg.filter(expr=f"is_total == 0 and n >= {cutoff}").to_pandas()
    cand_items = np.sort(cand["item"].to_numpy())
    if not len(cand_items):
        import pandas as pd
        return pd.DataFrame({"item": pa.array([], type=item_type).to_pandas(),
                             "n": np.array([], dtype=np.int64)}), total
    cand_ref = ray.put(cand_items)

    def recount(t: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        items = make_items(t)
        pos = np.searchsorted(cands, items)
        pos[pos >= len(cands)] = 0
        mask = cands[pos] == items
        vals, counts = np.unique(items[mask], return_counts=True)
        return pa.table({"item": pa.array(vals, type=item_type),
                         "n": pa.array(counts.astype(np.int64),
                                       type=pa.int64())})

    exact = ds.map_batches(recount, batch_format="pyarrow",
                           batch_size=batch_size) \
        .groupby("item").aggregate(Sum("n", alias_name="n")).to_pandas()
    exact["n"] = exact["n"].astype("int64")
    out = exact[exact["n"] * phi_den >= phi_num * total]
    out = out.sort_values(["n", "item"], ascending=[False, True]) \
        .reset_index(drop=True)[["item", "n"]]
    return out, total


def grouped_heavy_hitters(ds, key: str, make_items, *, k: int = 64,
                          phi_num: int = 1, phi_den: int = 50,
                          item_type: pa.DataType = pa.int64(),
                          sentinel=0,
                          batch_size: int | None = 8192):
    """Per-key exact heavy hitters (the Gopher-style "heavy tokens per
    language" shape): for every key, exactly the items with in-key count
    >= ceil(phi * key_total), with exact counts.

    `make_items(batch)` must return an item array ALIGNED with the batch
    rows (one item per row — unlike the global path, items cannot be
    dropped because they pair with the key column).

    Same two bounded passes as `heavy_hitters`, per key: block-level MG
    summaries per (key-in-block) via one argsort + zero-copy slices
    (the sketch_build sort-split idiom), groupby (key, item) over <=
    (k+1) rows per key per block, per-key cutoff applied against the
    broadcast totals, recount restricted to the per-key candidate sets.
    Driver state: O(#keys) totals + O(#keys / (phi - 1/(k+1)))
    candidates — key cardinality is assumed dictionary-sized (langs,
    domains-after-capping); for billions of keys use the global path on
    (key, item) composite items instead.
    """
    import ray
    from ray.data.aggregate import Sum

    if phi_num * (k + 1) <= phi_den:
        raise ValueError(
            f"phi={phi_num}/{phi_den} must exceed 1/(k+1)={1}/{k + 1}: "
            "the MG guarantee cannot cover the threshold")

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        items = make_items(t)
        keycol = t.column(key).combine_chunks()
        if len(items) != len(keycol):
            raise ValueError(
                "grouped make_items must return one item per row "
                f"({len(items)} items for {len(keycol)} rows)")
        dict_arr = pc.dictionary_encode(keycol)
        codes = np.asarray(dict_arr.indices)
        uniq = dict_arr.dictionary
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order], np.arange(len(uniq) + 1))
        items_sorted = items[order]
        keys_out, items_out, counts_out, flags_out = [], [], [], []
        for code in range(len(uniq)):
            b0, b1 = int(bounds[code]), int(bounds[code + 1])
            vals, counts = np.unique(items_sorted[b0:b1],
                                     return_counts=True)
            vals, counts = mg_compress(vals, counts.astype(np.int64), k)
            kv = uniq[code].as_py()
            keys_out.extend([kv] * (len(vals) + 1))
            items_out.extend(vals.tolist())
            counts_out.extend(counts.tolist())
            flags_out.extend([0] * len(vals))
            items_out.append(sentinel)
            counts_out.append(b1 - b0)
            flags_out.append(1)
        return pa.table({
            key: pa.array(keys_out, type=keycol.type),
            "item": pa.array(items_out, type=item_type),
            "n": pa.array(counts_out, type=pa.int64()),
            "is_total": pa.array(flags_out, type=pa.int32()),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow",
                         batch_size=batch_size) \
        .groupby([key, "is_total", "item"]) \
        .aggregate(Sum("n", alias_name="n")).materialize()

    totals = agg.filter(expr="is_total == 1").to_pandas()  # O(#keys)
    import pandas as pd
    if not len(totals):
        empty = pd.DataFrame({
            key: pa.array([], type=pa.string()).to_pandas(),
            "item": pa.array([], type=item_type).to_pandas(),
            "n": np.array([], dtype=np.int64)})
        return empty, {}
    totals_by_key = {r[key]: int(r["n"]) for _, r in totals.iterrows()}
    cutoffs = {kv: max(1, (phi_num * n + phi_den - 1) // phi_den
                       - n // (k + 1))
               for kv, n in totals_by_key.items()}
    cut_ref = ray.put(cutoffs)

    def cand_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        cuts = ray.get(cut_ref)
        flags = np.asarray(t["is_total"])
        ns = np.asarray(t["n"])
        dict_arr = pc.dictionary_encode(t.column(key).combine_chunks())
        codes = np.asarray(dict_arr.indices)
        lut = np.array([cuts.get(kv, 1)
                        for kv in dict_arr.dictionary.to_pylist()],
                       dtype=np.int64)  # O(uniq) Python, not O(rows)
        keep = (flags == 0) & (ns >= lut[codes])
        return t.filter(pa.array(keep))

    cand = agg.map_batches(cand_filter, batch_format="pyarrow").to_pandas()
    if not len(cand):
        empty = pd.DataFrame({key: totals[key].iloc[:0],
                              "item": pa.array([], type=item_type)
                              .to_pandas(),
                              "n": np.array([], dtype=np.int64)})
        return empty, totals_by_key
    cand_sets = {kv: np.sort(g["item"].to_numpy())
                 for kv, g in cand.groupby(key, sort=False)}
    sets_ref = ray.put(cand_sets)

    def recount(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        sets = ray.get(sets_ref)
        items = make_items(t)
        keycol = t.column(key).combine_chunks()
        dict_arr = pc.dictionary_encode(keycol)
        codes = np.asarray(dict_arr.indices)
        uniq = dict_arr.dictionary
        order = np.argsort(codes, kind="stable")
        bounds = np.searchsorted(codes[order], np.arange(len(uniq) + 1))
        items_sorted = items[order]
        keys_out, items_out, counts_out = [], [], []
        for code in range(len(uniq)):
            kv = uniq[code].as_py()
            cands = sets.get(kv)
            if cands is None or not len(cands):
                continue
            seg = items_sorted[int(bounds[code]):int(bounds[code + 1])]
            pos = np.searchsorted(cands, seg)
            pos[pos >= len(cands)] = 0
            seg = seg[cands[pos] == seg]
            vals, counts = np.unique(seg, return_counts=True)
            keys_out.extend([kv] * len(vals))
            items_out.extend(vals.tolist())
            counts_out.extend(counts.astype(np.int64).tolist())
        return pa.table({
            key: pa.array(keys_out, type=keycol.type),
            "item": pa.array(items_out, type=item_type),
            "n": pa.array(counts_out, type=pa.int64()),
        })

    exact = ds.map_batches(recount, batch_format="pyarrow",
                           batch_size=batch_size) \
        .groupby([key, "item"]).aggregate(Sum("n", alias_name="n")) \
        .to_pandas()
    exact["n"] = exact["n"].astype("int64")
    tot = exact[key].map(totals_by_key).astype("int64")
    out = exact[exact["n"] * phi_den >= phi_num * tot]
    out = out.sort_values([key, "n", "item"],
                          ascending=[True, False, True]) \
        .reset_index(drop=True)[[key, "item", "n"]]
    return out, totals_by_key
