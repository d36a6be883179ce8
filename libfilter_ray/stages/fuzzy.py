"""Edit-distance-1 fuzzy matching: FastSS deletion-neighborhood banding.

Typo-variant detection over a corpus vocabulary (spelling-variant
clustering, fuzzy dedup of short keys) needs ALL pairs of strings within
Levenshtein distance 1 without the O(V^2) cross join. FastSS
(Bocek/Hunt/Stiller, "Fast Similarity Search in Large Dictionaries",
U. Zurich TR 2007) observes that ed(a, b) <= 1 implies a and b share an
element of {s} ∪ deletions1(s): a substitution pair shares the variant
with the differing character deleted from both sides, and an
insertion/deletion pair shares the shorter string itself. Banding on
those variants is therefore a COMPLETE candidate generator; sharing a
variant does NOT imply ed <= 1 (e.g. "xy"/"yx" share "x"), so every
candidate pair is re-verified exactly.

Distributed shape (sharded banding):

  band    map_batches: per-batch DISTINCT strings emit (variant-hash
          shard, variant hash, string) rows — O(len+1) variants per
          distinct string, combiner-style (the shuffle moves
          vocab-sized partials, never one row per occurrence)
  pair    groupby(shard).map_groups: a LOCAL groupby(variant hash)
          pairs strings sharing a variant (w1 < w2), unique per shard
  verify  groupby(pair-shard).map_groups: global pair dedupe + the
          vectorized exact ed<=1 check (padded char-matrix compare —
          no per-pair Python)

Driver never sees candidates; the output is a Dataset of verified
pairs. Group sizes are bounded by the shard count, candidate counts by
the banding selectivity.

The reference engine has no fuzzy-match operator; this is an engine
addition for the curation family (typo-dedup of keys/URLs/tokens).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sketch.hashing import hash_arrow_array

#: characters per string above which banding is refused — deletion
#: variants are O(len) per string, and edit distance 1 on kilobyte
#: payloads is not a meaningful similarity anyway.
MAX_LEN = 256


def ed_le1_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized exact Levenshtein<=1 test for aligned string arrays
    (unicode, char-level — matches SQL levenshtein() semantics)."""
    a = np.asarray(a, dtype="U")
    b = np.asarray(b, dtype="U")
    n = len(a)
    if n == 0:
        return np.zeros(0, dtype=bool)
    la = np.char.str_len(a).astype(np.int64)
    lb = np.char.str_len(b).astype(np.int64)
    # orient so the longer string is on the A side
    swap = lb > la
    if swap.any():
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        la, lb = np.where(swap, lb, la), np.where(swap, la, lb)
    out = np.zeros(n, dtype=bool)
    # w >= 1 so the U-dtype views stay 2-D even when every string is
    # empty (U0 views reshape to (n, 0) and crash); padding handles it.
    w = max(int(la.max()), 1)
    A = a.astype(f"U{w}").view("U1").reshape(n, w)
    B = b.astype(f"U{w}").view("U1").reshape(n, w)
    neq = A != B
    eq_len = la == lb
    out[eq_len] = neq[eq_len].sum(axis=1) <= 1
    # len(a) == len(b) + 1: a with ONE char deleted equals b  <=>
    # prefixes match to the first mismatch i and a[i+1:] == b[i:].
    # Padding makes both tails NUL beyond the true lengths, so the
    # suffix-all scan runs safely to the matrix edge.
    one = la == lb + 1
    if one.any():
        i = np.argmax(neq, axis=1)  # first mismatch; la-1 at the latest
        C = A[:, 1:] == B[:, : w - 1] if w > 1 else \
            np.ones((n, 0), dtype=bool)
        suf = np.flip(np.logical_and.accumulate(np.flip(C, 1), 1), 1) \
            if w > 1 else np.ones((n, 1), dtype=bool)
        pad = np.ones((n, 1), dtype=bool)  # i == w-1: empty suffix
        out[one] = np.hstack([suf, pad])[np.arange(n), i][one]
    return out


def _variant_rows(words: np.ndarray, *, seed: int,
                  num_shards: int) -> pa.Table:
    """(shard, vh, word) banding rows: the string itself plus every
    single-char deletion. The per-DISTINCT-word loop is combiner-bounded
    (O(batch vocab x len), like the np.unique word partials); variant
    HASHING is one vectorized pass over the flattened variant array."""
    if len(words) == 0:
        return pa.table({"shard": pa.array([], type=pa.int64()),
                         "vh": pa.array([], type=pa.int64()),
                         "word": pa.array([], type=pa.string())})
    variants: list[str] = []
    owners: list[int] = []
    for j, s in enumerate(words):
        variants.append(s)
        owners.append(j)
        for i in range(len(s)):
            variants.append(s[:i] + s[i + 1:])
            owners.append(j)
    vh = hash_arrow_array(pa.array(variants, type=pa.string()),
                          seed).view(np.int64)
    owners_np = np.asarray(owners, dtype=np.int64)
    return pa.table({
        "shard": pa.array((vh.view(np.uint64) % np.uint64(num_shards))
                          .astype(np.int64)),
        "vh": pa.array(vh),
        "word": pa.array(words[owners_np].astype(str)),
    })


def edit1_pairs(ds, column: str, *, num_shards: int = 64,
                seed: int = 0x1ED17):
    """All unordered pairs (w1 < w2) of DISTINCT values of `column`
    within Levenshtein distance exactly 1 (distinct values, so the
    distance is never 0), as a Dataset with columns (w1, w2). Nulls and
    empty strings are excluded; values longer than MAX_LEN chars raise
    (see the module constant)."""

    def band(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = t.column(column)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        col = col.drop_null()
        col = col.filter(pc.not_equal(col, ""))
        words = np.unique(np.asarray(col))
        if len(words):
            too_long = max(len(s) for s in words)
            if too_long > MAX_LEN:
                raise ValueError(
                    f"edit1_pairs: value of {too_long} chars exceeds "
                    f"MAX_LEN={MAX_LEN} — edit distance 1 is meant for "
                    "short keys (vocabulary words, typo variants)")
        return _variant_rows(words, seed=seed, num_shards=num_shards)

    def pair_shard(df: pd.DataFrame) -> pd.DataFrame:
        # local groupby(vh): words sharing a variant pair up (w1 < w2)
        df = df.drop_duplicates(["vh", "word"]).sort_values(
            ["vh", "word"], kind="stable")
        vh = df["vh"].to_numpy()
        words = df["word"].to_numpy()
        starts = np.flatnonzero(np.r_[True, vh[1:] != vh[:-1]])
        ends = np.r_[starts[1:], len(vh)]
        w1, w2 = [], []
        for s, e in zip(starts, ends):
            g = e - s
            if g < 2:
                continue
            ii, jj = np.triu_indices(g, k=1)
            w1.append(words[s + ii])
            w2.append(words[s + jj])
        if not w1:
            return pd.DataFrame({"w1": pd.Series([], dtype=object),
                                 "w2": pd.Series([], dtype=object),
                                 "pshard": pd.Series([], dtype=np.int64)})
        out = pd.DataFrame({"w1": np.concatenate(w1),
                            "w2": np.concatenate(w2)}) \
            .drop_duplicates(["w1", "w2"])
        ph = hash_arrow_array(
            pa.array((out["w1"] + "\x1f" + out["w2"]).to_numpy(
                dtype=object), type=pa.string()), seed)
        out["pshard"] = (ph % np.uint64(num_shards)).astype(np.int64)
        return out

    def verify_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["w1", "w2"])
        keep = ed_le1_mask(df["w1"].to_numpy(dtype="U"),
                           df["w2"].to_numpy(dtype="U"))
        return df.loc[keep, ["w1", "w2"]]

    return ds.map_batches(band, batch_format="pyarrow") \
        .groupby("shard").map_groups(pair_shard, batch_format="pandas") \
        .groupby("pshard").map_groups(verify_shard, batch_format="pandas")
