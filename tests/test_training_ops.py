"""Training-data operators: text analysis, exact and line dedup, packing."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

SF = "/root/testdata/sf0.01"


# ---------------------------------------------------------------------------
# shingles / fingerprints (pure kernels)
# ---------------------------------------------------------------------------

def test_shingle_hashes_match_direct():
    """Windowed prefix-sum shingle hashes == hashing each shingle substring
    directly through hash_arrow_array-equivalent machinery."""
    from libfilter_ray.functions.shingles import shingle_hashes
    from libfilter_ray.sketch.hashing import _hash_buffer

    texts = ["abcdefg", "xy", "", "hello world"]
    arr = pa.array(texts)
    flat, splits = shingle_hashes(arr, k=3, seed=99)
    # reference: hash every 3-byte substring standalone
    for i, s in enumerate(texts):
        b = s.encode()
        shingles = [b[j:j + 3] for j in range(max(len(b) - 2, 1))] \
            if b else [b""]
        got = flat[splits[i]:splits[i + 1]]
        assert len(got) == len(shingles)
        for j, sh in enumerate(shingles):
            data = np.frombuffer(sh, dtype=np.uint8)
            want = _hash_buffer(data, np.array([0]), np.array([len(sh)]), 99)[0]
            assert got[j] == want, (i, j, sh)


def test_shingle_memory_is_bounded():
    """Shingling a ~4 MB string column keeps the traced peak near its
    output (8 B per shingle): the windows are gathered and hashed one
    bounded run at a time. Whole-buffer power tables and a prefix sum
    peaked at ~100 B per input byte on this column."""
    import tracemalloc

    from libfilter_ray.functions.shingles import shingle_hashes

    gen = np.random.default_rng(12)
    lengths = gen.integers(500, 1500, 4000)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    data = gen.integers(32, 127, int(offsets[-1]), dtype=np.uint8)
    arr = pa.Array.from_buffers(pa.string(), len(lengths),
                                [None, pa.py_buffer(offsets),
                                 pa.py_buffer(data)])
    del data
    assert arr.nbytes > 3_900_000
    tracemalloc.start()
    try:
        flat, _splits = shingle_hashes(arr, k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < flat.nbytes + (8 << 20), peak


def test_winnow_vectorized_matches_per_row_reference(rng):
    """Global flat-array winnowing (one sliding-min + boundary mask +
    per-row XOR-of-unique via lexsort/reduceat) == the straightforward
    per-row implementation, including short/empty rows."""
    from libfilter_ray.functions.shingles import (shingle_hashes,
                                                  winnow_fingerprints)

    def reference(col, k=8, window=4, seed=0x111101):
        flat, splits = shingle_hashes(col, k=k, seed=seed)
        n = len(splits) - 1
        out = np.zeros(n, dtype=np.uint64)
        for i in range(n):
            h = flat[splits[i]:splits[i + 1]]
            if len(h) <= window:
                out[i] = h.min() if len(h) else np.uint64(0)
                continue
            w = np.lib.stride_tricks.sliding_window_view(h, window) \
                .min(axis=1)
            out[i] = np.bitwise_xor.reduce(np.unique(w))
        return out

    texts = ["".join(chr(97 + c) for c in rng.integers(0, 26, int(L)))
             for L in rng.integers(0, 60, 400)]
    texts += ["hello world this is a longer document " * 20, "", "ab",
              "abcdefgh", "abcdefghi"]
    arr = pa.array(texts, type=pa.large_string())
    assert np.array_equal(winnow_fingerprints(arr), reference(arr))


def test_winnow_fingerprint_stability():
    from libfilter_ray.functions.shingles import winnow_fingerprints

    a = "identical document body " * 10
    arr = pa.array([a, a, a + "!"])
    fp = winnow_fingerprints(arr)
    assert fp[0] == fp[1]
    assert fp[0] != 0


# ---------------------------------------------------------------------------
# text stats / language id
# ---------------------------------------------------------------------------

def test_token_counts_and_quality():
    from libfilter_ray.functions.textstats import (quality_stats,
                                                   token_counts)

    arr = pa.array(["one two three", "", "hi!, there: ok."])
    assert token_counts(arr).tolist() == [3, 0, 3]
    st = quality_stats(arr)
    assert st["n_tokens"].tolist() == [3, 0, 3]
    assert st["punct_ratio"][2] > 0
    assert 0.0 <= st["quality_score"].min() <= st["quality_score"].max() <= 1.0


def test_lang_id_on_real_language_snippets():
    """The corpus's lang column is synthetic (same vocab for all langs), so
    accuracy is asserted on genuine-language fixtures instead."""
    from libfilter_ray.functions.textstats import lang_id

    fixtures = {
        "en": "the cat sat on the mat and it was happy with the sun",
        "de": "der Hund ist nicht mit der Katze und das ist ein Problem",
        "es": "el perro es grande y la casa es pequeña en la ciudad",
        "fr": "le chien est dans la maison et le chat est pour un ami",
        "zh": "今天天气很好我们一起去公园散步吧",
    }
    pred = lang_id(pa.array(list(fixtures.values()))).to_pylist()
    assert pred == list(fixtures)
    assert lang_id(pa.array(["zzz qqq xxx"])).to_pylist() == ["und"]


def test_text_stats_stage_over_dataset(ray_session):
    from libfilter_ray.functions.textstats import text_stats_stage

    ds = ray.data.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"])
    out = ds.map_batches(text_stats_stage, batch_format="pyarrow").to_pandas()
    assert {"n_tokens", "quality_score", "lang_pred", "content_hash",
            "winnow_fp", "n_bpe_tokens"} <= set(out.columns)
    assert len(out) == 500
    assert (out["n_bpe_tokens"] >= out["n_tokens"]).all()


# ---------------------------------------------------------------------------
# dedup family
# ---------------------------------------------------------------------------

@pytest.fixture()
def dup_docs(ray_session):
    """documents ++ exact copies (ids +10000) ++ near copies (ids +20000,
    one word appended)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"]).slice(0, 120)
    ids = np.asarray(t["doc_id"]).astype(np.int64)
    texts = t["text"].to_pylist()
    exact = pa.table({"doc_id": pa.array(ids + 10000),
                      "text": pa.array(texts)})
    near = pa.table({"doc_id": pa.array(ids[:40] + 20000),
                     "text": pa.array([s + " appended tail token"
                                       for s in texts[:40]])})
    full = pa.concat_tables([t, exact, near])
    return ray.data.from_arrow(full)


def test_exact_dedup(dup_docs):
    from libfilter_ray.stages.dedup import exact_dedup

    out = exact_dedup(dup_docs, "text", "doc_id").to_pandas()
    assert len(out) == 120 + 40  # exact copies gone, near copies kept
    assert (out["doc_id"] < 10000).sum() == 120  # min-id survivor
    assert set(out.loc[out["doc_id"] >= 10000, "doc_id"] - 20000) == \
        set(range(40))


def test_exact_dedup_keep_best(dup_docs):
    """keep_score keeps the max-score member of every duplicate set
    (ties min id) — matches a local pandas argmax reference, and
    genuinely diverges from the min-id policy."""
    from libfilter_ray.stages.dedup import exact_dedup

    def add_score(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"], dtype=np.int64)
        # clones (+10000) score HIGHER than their originals for even base
        # ids, lower for odd — both directions exercised; ties impossible
        return t.append_column(
            "score", pa.array((ids % 10000) * 2 + (ids // 10000) *
                              np.where(ids % 2 == 0, 1, -1),
                              type=pa.int64()))

    scored = dup_docs.map_batches(add_score, batch_format="pyarrow")
    out = exact_dedup(scored, "text", "doc_id",
                      keep_score="score").to_pandas()
    ref = scored.to_pandas()
    want = ref.sort_values(["score", "doc_id"],
                           ascending=[False, True], kind="stable") \
        .drop_duplicates(subset="text").sort_values("doc_id")
    assert sorted(out["doc_id"]) == want["doc_id"].tolist()
    assert len(out) == 120 + 40
    # even base ids: the +10000 clone won; odd: the original won
    survivors = set(out["doc_id"])
    for i in range(0, 120, 2):
        assert i + 10000 in survivors and i not in survivors
    for i in range(1, 120, 2):
        assert i in survivors and i + 10000 not in survivors


def test_dedup_never_collects_bucket_table(dup_docs, monkeypatch):
    """Scale guard: exact dedup must never materialize its O(rows)
    hash/shard table — or any frame carrying shard or payload columns —
    on the driver. Every Dataset.to_pandas() during the pipeline is spied
    on; only the narrow duplicated-hash and drop-id frames may collect."""
    import ray.data

    from libfilter_ray.stages.dedup import exact_dedup

    collected: list[tuple[list, int]] = []
    orig = ray.data.Dataset.to_pandas

    def spy(self, *a, **k):
        df = orig(self, *a, **k)
        collected.append((list(df.columns), len(df)))
        return df

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    exact_dedup(dup_docs, "text", "doc_id").count()

    assert collected, "spy did not observe any collect"
    banned = {"shard", "text"}
    for cols, rows in collected:
        assert not banned & set(cols), \
            f"shard/payload table collected to driver: {cols} ({rows} rows)"
        # collected frames are O(duplicates): dup_docs holds 120 exact
        # copies, so 120 duplicated hashes and 120 drop ids, of 280 rows
        assert rows <= 120, (cols, rows)


# ---------------------------------------------------------------------------
# null and empty inputs
# ---------------------------------------------------------------------------

def test_text_kernels_handle_nulls_and_empty():
    """Null text counts as empty; empty batches flow through."""
    from libfilter_ray.functions.shingles import winnow_fingerprints
    from libfilter_ray.functions.textstats import text_stats_stage

    t = pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                  "text": pa.array(["hello world", None, ""])})
    out = text_stats_stage(t)
    assert out["n_tokens"].to_pylist() == [2, 0, 0]
    assert out["quality_score"].to_pylist()[1] == out["quality_score"].to_pylist()[2]
    col = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) \
        else t["text"]
    assert len(winnow_fingerprints(col)) == 3
    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "text": pa.array([], type=pa.string())})
    assert text_stats_stage(empty).num_rows == 0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_stratified_sample_partition_invariant(ray_session):
    """Hash-rank stratified sample: same ids under ANY partitioning, at
    most n per key, uniform-deterministic."""
    import pyarrow.parquet as pq

    from libfilter_ray.stages.sample import stratified_sample

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    picks = []
    for blocks in (1, 4, 13):
        ds = ray.data.from_arrow(t).repartition(blocks)
        out = stratified_sample(ds, "lang", "doc_id", 20).to_pandas()
        assert (out.groupby("lang").size() <= 20).all()
        picks.append(set(out["doc_id"].astype(int)))
    assert picks[0] == picks[1] == picks[2]
    # every lang with >= 20 docs contributes exactly 20
    import pandas as pd
    full = t.to_pandas().groupby("lang").size()
    got = pd.Series(sorted(picks[0]))
    sampled = stratified_sample(
        ray.data.from_arrow(t), "lang", "doc_id", 20).to_pandas()
    cnt = sampled.groupby("lang").size()
    for lang, n in full.items():
        assert cnt.get(lang, 0) == min(n, 20)


# ---------------------------------------------------------------------------
# line-level dedup (C4-style boilerplate removal)
# ---------------------------------------------------------------------------

def test_line_dedup_matches_naive_reference(ray_session):
    """line_dedup rebuilds each doc with duplicated lines removed (global
    first occurrence by (doc_id, ordinal) survives) — checked line-for-line
    against a naive single-process reference, including empty and null
    texts."""
    import ray.data

    from libfilter_ray.stages.dedup import line_dedup

    docs = {
        1: "intro\nFOOTER\nbody one",
        2: "other\nFOOTER\nintro",       # FOOTER + intro are repeats
        3: "FOOTER",                      # all lines duplicated -> ""
        4: "",                            # single empty line, first seen
        5: None,                          # null stays null
        6: "\nFOOTER\n",                  # "" dup of doc 4's line
        7: "unique tail",
    }
    t = pa.table({"doc_id": pa.array(list(docs), type=pa.int64()),
                  "text": pa.array(list(docs.values()), type=pa.string())})

    # naive reference
    seen, want = set(), {}
    for d, txt in docs.items():
        if txt is None:
            want[d] = None
            continue
        kept = []
        for line in txt.split("\n"):
            if line not in seen:
                seen.add(line)
                kept.append(line)
        want[d] = "\n".join(kept)

    ds = ray.data.from_arrow(t).repartition(3)
    out = line_dedup(ds, "text", "doc_id").to_pandas() \
        .set_index("doc_id")["text"].to_dict()
    out = {k: (None if pd.isna(v) else v) for k, v in out.items()}
    assert out == want
    assert out[3] == ""       # fully-boilerplate doc collapses to empty
    assert out[5] is None     # null preserved


def test_line_dedup_noop_when_all_unique(ray_session):
    import ray.data

    from libfilter_ray.stages.dedup import line_dedup

    t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                  "text": pa.array(["a\nb", "c\nd"])})
    ds = ray.data.from_arrow(t)
    out = line_dedup(ds, "text", "doc_id").to_pandas()
    assert sorted(out["text"]) == ["a\nb", "c\nd"]


def test_scrub_text_masks_and_preserves_nulls():
    from libfilter_ray.functions.textstats import scrub_match_counts, \
        scrub_text

    a = pa.array(["bob+x@a.example.com wrote", "go to https://x.y/z?q=1",
                  "ip 10.0.3.7 end", "clean", None, ""])
    out = scrub_text(a).to_pylist()
    assert out == ["[EMAIL] wrote", "go to [URL]", "ip [IP] end",
                   "clean", None, ""]
    c = scrub_match_counts(a)
    assert c["emails"].tolist() == [1, 0, 0, 0, 0, 0]
    assert c["urls"].tolist() == [0, 1, 0, 0, 0, 0]
    assert c["ips"].tolist() == [0, 0, 1, 0, 0, 0]


def test_next_fit_pack_matches_naive():
    """Boundary-jump packer == the sequential next-fit definition, across
    random token streams incl. zeros and oversize docs."""
    from libfilter_ray.functions.packing import next_fit_pack, pack_stats

    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(0, 40))
        toks = rng.integers(0, 120, n)
        budget = int(rng.integers(1, 100))
        # naive sequential reference
        want, fill, b = [], None, -1
        for t in toks:
            if fill is None or fill + t > budget:
                b, fill = b + 1, int(t)
            else:
                fill += int(t)
            want.append(b)
        got = next_fit_pack(toks, budget)
        assert got.tolist() == want, (trial, toks.tolist(), budget)
        st = pack_stats(toks, budget)
        assert st["n_docs"] == n and st["total_tokens"] == int(toks.sum())
        if n:
            assert st["n_seqs"] == want[-1] + 1


def test_sharded_packing_bounds(ray_session):
    """(lang, shard) packing: per-(group, id-range-shard) next-fit sums to
    the sequential per-group answer up to the forced-boundary bound —
    n_seqs in [sequential, sequential + shards_touched - 1], docs/tokens
    exact, waste = (n_seqs_sharded * budget - capped fills) >= sequential
    waste. Also: no task group ever exceeds rows_per_shard docs."""
    import pyarrow as pa

    import ray.data
    from libfilter_ray.functions.packing import (pack_stats,
                                                 pack_stats_grouped_ds)

    rng = np.random.default_rng(11)
    n, budget, rps = 600, 256, 64
    ids = np.sort(rng.choice(10_000, size=n, replace=False)).astype(np.int64)
    toks = rng.integers(0, 300, n).astype(np.int64)
    langs = np.array(["en", "de", "zh"])[rng.integers(0, 3, n)]
    ds = ray.data.from_arrow(pa.table({
        "lang": langs, "doc_id": ids, "n_tokens": toks})).repartition(5)
    got = pack_stats_grouped_ds(
        ds, group_col="lang", id_column="doc_id", tokens_col="n_tokens",
        budget=budget, rows_per_shard=rps).to_pandas() \
        .set_index("lang").sort_index()
    for lang in ("en", "de", "zh"):
        m = langs == lang
        order = np.argsort(ids[m], kind="stable")
        seq_st = pack_stats(toks[m][order], budget)
        shards = len(np.unique(ids[m] // rps))
        row = got.loc[lang]
        assert row["n_docs"] == seq_st["n_docs"]
        assert row["total_tokens"] == seq_st["total_tokens"]
        assert seq_st["n_seqs"] <= row["n_seqs"] \
            <= seq_st["n_seqs"] + shards - 1
        assert row["wasted_tokens"] >= seq_st["wasted_tokens"]
        assert row["wasted_tokens"] - seq_st["wasted_tokens"] \
            <= (shards - 1) * budget
        # the row cap that makes the shape 100 TB-safe
        assert max(np.bincount((ids[m] // rps))) <= rps
    # rows_per_shard=None is exactly the sequential per-group packer
    whole = pack_stats_grouped_ds(
        ds, group_col="lang", id_column="doc_id", tokens_col="n_tokens",
        budget=budget, rows_per_shard=None).to_pandas() \
        .set_index("lang").sort_index()
    for lang in ("en", "de", "zh"):
        m = langs == lang
        order = np.argsort(ids[m], kind="stable")
        seq_st = pack_stats(toks[m][order], budget)
        assert dict(whole.loc[lang]) == {k: v for k, v in seq_st.items()
                                         if k != "n_docs"} | \
            {"n_docs": seq_st["n_docs"]}

