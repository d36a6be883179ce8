"""Training-data operators: text analysis, dedup family, ANN."""

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


def test_minhash_jaccard_correlation(rng):
    """MinHash signature agreement estimates Jaccard within ~1/sqrt(perm)."""
    from libfilter_ray.functions.shingles import (jaccard_pairwise,
                                                  minhash_signatures)

    base = "the quick brown fox jumps over the lazy dog " * 8
    variants = [base, base.replace("quick", "slow"),
                base[: len(base) // 2], "completely different text entirely"]
    arr = pa.array(variants)
    sig = minhash_signatures(arr, k=5, num_perm=256)
    for i in range(1, 4):
        est = float((sig[0] == sig[i]).mean())
        true = float(jaccard_pairwise(arr.slice(0, 1),
                                      arr.slice(i, 1), k=5)[0])
        assert abs(est - true) < 3.5 / np.sqrt(256) + 0.02, (i, est, true)


def test_simhash_locality():
    from libfilter_ray.functions.shingles import hamming64, simhash64

    base = "the quick brown fox jumps over the lazy dog " * 8
    arr = pa.array([base, base.replace("dog", "cat", 1),
                    "utterly unrelated content about databases and sketches"])
    sh = simhash64(arr)
    near = hamming64(sh[:1], sh[1:2])[0]
    far = hamming64(sh[:1], sh[2:3])[0]
    assert near < far
    assert near <= 10
    assert far >= 15


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


def test_minhash_lsh_near_dup(dup_docs):
    from libfilter_ray.stages.dedup import (minhash_near_dup_pairs,
                                            near_dup_dedup)

    pairs = minhash_near_dup_pairs(dup_docs, "text", "doc_id",
                                   threshold=0.6)
    found = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    # every planted pair (i, i+10000) and (i, i+20000) i<40 must be found:
    # LSH with 16 bands of 8 rows has ~100% recall at jaccard >= 0.9
    for i in range(40):
        assert (i, i + 10000) in found, f"exact pair {i} missed"
        assert (i, i + 20000) in found, f"near pair {i} missed"
    assert (pairs["jaccard"] >= 0.6).all()
    deduped = near_dup_dedup(dup_docs, pairs, "doc_id").to_pandas()
    # all exact copies and all near copies collapse to the base doc
    assert not set(deduped["doc_id"]) & {i + 20000 for i in range(40)}
    assert len(deduped) <= 120


def test_minhash_near_dup_pairs_ds_matches_collected(dup_docs):
    """The Dataset (crawl-scale) form returns exactly the collected
    form's pairs — same banding, sharded pairing and pruned-join
    verification, no driver collect."""
    from libfilter_ray.stages.dedup import (minhash_near_dup_pairs,
                                            minhash_near_dup_pairs_ds)

    want = minhash_near_dup_pairs(dup_docs, "text", "doc_id",
                                  threshold=0.6)
    got = minhash_near_dup_pairs_ds(dup_docs, "text", "doc_id",
                                    threshold=0.6).to_pandas()
    key = ["id_a", "id_b"]
    got[key] = got[key].astype(np.int64)
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got[key].values.tolist() == want[key].values.tolist()
    np.testing.assert_allclose(got["jaccard"], want["jaccard"])


def test_ngram_jaccard_pairs_match_bruteforce(dup_docs):
    """Blocked exact-Jaccard pairs == a single-process brute force over the
    same blocking rule (identical 32-char prefix, distinct 5-gram Jaccard)."""
    from libfilter_ray.stages.dedup import ngram_jaccard_pairs

    out = ngram_jaccard_pairs(dup_docs, "text", "doc_id", k=5, prefix=32,
                              threshold=0.5, min_len=32)

    df = dup_docs.to_pandas()
    df = df[df["text"].str.len() >= 32]

    def shingles(s):
        return {s[i:i + 5] for i in range(len(s) - 4)}

    want = []
    for _, grp in df.groupby(df["text"].str[:32]):
        rows = grp.sort_values("doc_id")
        ids = rows["doc_id"].to_numpy()
        txt = rows["text"].to_numpy()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                A, B = shingles(txt[i]), shingles(txt[j])
                jac = len(A & B) / len(A | B)
                if jac >= 0.5:
                    want.append((ids[i], ids[j], jac))
    want = pd.DataFrame(want, columns=["id_a", "id_b", "jaccard"]) \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert len(out) == len(want) and len(want) > 0
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True).astype({"id_a": "int64", "id_b": "int64"}),
        want.astype({"id_a": "int64", "id_b": "int64"}),
        check_exact=False, rtol=1e-12)


def test_simhash_near_dup(dup_docs):
    from libfilter_ray.stages.dedup import simhash_near_dup_pairs

    pairs = simhash_near_dup_pairs(dup_docs, "text", "doc_id",
                                   max_hamming=3)
    found = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    for i in range(40):
        assert (i, i + 10000) in found  # identical text => hamming 0
    hits = sum((i, i + 20000) in found for i in range(40))
    assert hits >= 20  # near copies: most within hamming<=3


def test_embedding_near_dup(ray_session):
    from libfilter_ray.stages.dedup import embedding_near_dup_pairs

    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet").slice(0, 200)
    vecs = np.stack([np.asarray(v) for v in t["embedding"].to_pylist()])
    ids = np.asarray(t["vec_id"]).astype(np.int64)
    # plant near-duplicates: rows 0..19 re-appear (ids+5000) with tiny noise
    noisy = vecs[:20] + np.random.default_rng(3).normal(
        0, 0.002, vecs[:20].shape).astype(np.float32)
    allv = np.concatenate([vecs, noisy])
    allid = np.concatenate([ids, ids[:20] + 5000])
    tab = pa.table({
        "vec_id": pa.array(allid),
        "embedding": pa.array([list(map(float, v)) for v in allv],
                              type=pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(tab)
    pairs = embedding_near_dup_pairs(ds, "embedding", "vec_id", dim=64,
                                     threshold=0.98, num_planes=10)
    found = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    hits = sum((int(ids[i]), int(ids[i] + 5000)) in found for i in range(20))
    assert hits >= 16  # probabilistic recall of hyperplane LSH


def test_dedup_never_collects_bucket_table(dup_docs, monkeypatch):
    """Scale guard: the LSH/dedup pipelines must never materialize the
    O(rows x bands) bucket table — or any frame carrying bucket/shard/payload
    columns — on the driver. Every Dataset.to_pandas() during the pipelines
    is spied on; only narrow pair/survivor/candidate frames may collect."""
    import ray.data

    from libfilter_ray.stages.dedup import (exact_dedup,
                                            minhash_near_dup_pairs,
                                            simhash_near_dup_pairs)

    collected: list[tuple[list, int]] = []
    orig = ray.data.Dataset.to_pandas

    def spy(self, *a, **k):
        df = orig(self, *a, **k)
        collected.append((list(df.columns), len(df)))
        return df

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    minhash_near_dup_pairs(dup_docs, "text", "doc_id", threshold=0.6)
    simhash_near_dup_pairs(dup_docs, "text", "doc_id", max_hamming=3)
    exact_dedup(dup_docs, "text", "doc_id").count()

    assert collected, "spy did not observe any collect"
    banned = {"band_key", "bucket", "shard"}
    n_corpus = 280  # 120 + 120 + 40 rows in dup_docs
    for cols, rows in collected:
        assert not banned & set(cols), \
            f"bucket/shard table collected to driver: {cols} ({rows} rows)"
        # collected frames are O(pairs x bands) / O(duplicates) — pair
        # frames may repeat a pair once per matching band (16 bands x ~150
        # candidate pairs here); nothing may approach corpus x bands
        bound = 16 * 160 if "id_a" in cols else 6 * n_corpus
        assert rows <= bound, (cols, rows)


# ---------------------------------------------------------------------------
# ANN
# ---------------------------------------------------------------------------

def test_brute_topk_matches_numpy_exact(ray_session):
    import pyarrow.parquet as pq

    from libfilter_ray.stages.ann import brute_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    X = np.stack([np.asarray(v) for v in t["embedding"].to_pylist()]) \
        .astype(np.float32)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    Q = Xn[:3]
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    out = brute_topk(ds, Q, k=5)
    assert len(out) == 15
    sim = Xn @ Q.T
    for qi in range(3):
        order = np.lexsort((np.arange(len(Xn)), -sim[:, qi]))[:5]
        got = out.loc[out["query_id"] == qi, "neighbor_id"].tolist()
        assert got == [int(t["vec_id"][i].as_py()) for i in order]


def test_brute_topk_distributed_merge_identical(ray_session, monkeypatch):
    """Forcing the above-bound path (candidate merge inside the Dataset)
    returns the identical frame to the driver-side merge, and the driver
    never collects more than queries x k candidate rows."""
    import pyarrow.parquet as pq

    from libfilter_ray.stages import ann
    from libfilter_ray.stages.ann import brute_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    X = np.stack([np.asarray(v) for v in t["embedding"].to_pylist()]) \
        .astype(np.float32)
    Q = (X / np.linalg.norm(X, axis=1, keepdims=True))[:3]
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    want = brute_topk(ds, Q, k=5, batch_size=512)

    monkeypatch.setattr(ann, "DRIVER_MERGE_LIMIT", 0)
    collected = []
    orig = ray.data.Dataset.to_pandas

    def spy(self, *a, **k):
        out = orig(self, *a, **k)
        collected.append(len(out))
        return out

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    got = brute_topk(ds, Q, k=5, batch_size=512)
    assert got.equals(want)
    assert collected and max(collected) <= 3 * 5, collected


def test_ivf_recall_vs_brute(ray_session):
    from libfilter_ray.stages.ann import brute_topk, ivf_topk

    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet")
    X = np.stack([np.asarray(v) for v in t["embedding"].to_pylist()]) \
        .astype(np.float32)
    Q = X[10:20]
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    exact = brute_topk(ds, Q, k=10)
    approx = ivf_topk(ds, Q, k=10, num_centroids=16, nprobe=8)
    recalls = []
    for qi in range(10):
        e = set(exact.loc[exact["query_id"] == qi, "neighbor_id"])
        a = set(approx.loc[approx["query_id"] == qi, "neighbor_id"])
        recalls.append(len(e & a) / len(e))
    # these synthetic embeddings are near-isotropic (worst case for IVF —
    # true neighbors scatter across lists), so the bar is recall >= 0.7 at
    # nprobe/num_centroids = 1/2; structured corpora do far better
    assert np.mean(recalls) >= 0.7, recalls


def test_ivf_exhaustive_probe_equals_brute(ray_session):
    """nprobe = num_centroids probes every list -> the centroid mask is
    all-True and ivf_topk must equal brute_topk exactly (neighbor ids AND
    ranks) — the invariant behind the SQL-gated ann_topk_ivf_exhaustive."""
    import pyarrow.parquet as pq

    from libfilter_ray.stages.ann import brute_topk, ivf_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    X = np.stack([np.asarray(v) for v in t["embedding"].to_pylist()])
    Q = X[7:12]
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet").repartition(4)
    exact = brute_topk(ds, Q, k=8, dtype=np.float64)
    full = ivf_topk(ds, Q, k=8, num_centroids=8, nprobe=8,
                    dtype=np.float64)
    pd.testing.assert_frame_equal(
        full[["query_id", "neighbor_id", "rank"]].reset_index(drop=True),
        exact[["query_id", "neighbor_id", "rank"]].reset_index(drop=True))


def test_pq_exhaustive_rerank_equals_brute(ray_session):
    """rerank*k >= batch_size makes every row a rerank candidate, so the
    exact-cosine rerank IS brute force regardless of codebook quality —
    the invariant behind the SQL-gated ann_topk_pq_exhaustive."""
    import pyarrow.parquet as pq

    from libfilter_ray.stages.ann import brute_topk, pq_topk

    t = pq.read_table(f"{SF}/embeddings.parquet")
    X = np.stack([np.asarray(v) for v in t["embedding"].to_pylist()])
    Q = X[3:6]
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet").repartition(4)
    exact = brute_topk(ds, Q, k=6, dtype=np.float64)
    full = pq_topk(ds, Q, k=6, m=8, ncodes=32, rerank=700,
                   batch_size=4096, rerank_dtype=np.float64)
    pd.testing.assert_frame_equal(
        full[["query_id", "neighbor_id", "rank"]].reset_index(drop=True),
        exact[["query_id", "neighbor_id", "rank"]].reset_index(drop=True))


def test_exact_cosine_pairs_matches_numpy_and_chunk_invariant(ray_session):
    """exact_cosine_pairs == the O(n^2) numpy reference (every pair once,
    id_a < id_b), and the result is identical at any num_chunks — the
    chunking is a memory shape, not a semantics knob."""
    from libfilter_ray.stages.ann import exact_cosine_pairs

    rng = np.random.default_rng(42)
    # 3 clusters + noise so there ARE above-threshold pairs
    centers = rng.normal(size=(3, 16))
    X = np.repeat(centers, 40, axis=0) + rng.normal(scale=0.25,
                                                    size=(120, 16))
    ids = rng.permutation(3000)[:120].astype(np.int64)  # non-contiguous ids
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    S = Xn @ Xn.T
    ref = {(int(min(ids[i], ids[j])), int(max(ids[i], ids[j])))
           for i in range(120) for j in range(i + 1, 120)
           if S[i, j] >= 0.8}
    assert len(ref) > 100  # the fixture actually exercises the operator

    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array([row.tolist() for row in X],
                              type=pa.list_(pa.float64()))})).repartition(5)
    outs = []
    for nc in (1, 3):
        out = exact_cosine_pairs(ds, threshold=0.8, num_chunks=nc,
                                 batch_size=32)
        got = set(zip(out["id_a"].astype(int), out["id_b"].astype(int)))
        assert len(got) == len(out), "duplicate pair emitted"
        assert got == ref, nc
        outs.append(out[["id_a", "id_b"]].reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_exact_cosine_pairs_bounded_broadcast(ray_session, monkeypatch):
    """Scale guard: per chunked pass the operator may collect one
    chunk-sized frame (the broadcast side, ~n/num_chunks rows) and the
    O(matching pairs) result — never the full corpus in one frame."""
    import ray.data

    from libfilter_ray.stages.ann import exact_cosine_pairs

    rng = np.random.default_rng(5)
    n, chunks = 1200, 4
    X = rng.normal(size=(n, 8))
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r.tolist() for r in X],
                              type=pa.list_(pa.float64()))})).repartition(5)

    collected: list[int] = []
    orig = ray.data.Dataset.to_pandas

    def spy(self, *a, **k):
        out = orig(self, *a, **k)
        collected.append(len(out))
        return out

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    exact_cosine_pairs(ds, threshold=0.95, num_chunks=chunks,
                       batch_size=256)
    assert collected, "spy never fired"
    # chunk gathers stay near n/num_chunks (hash-split slack x1.5); pair
    # frames at threshold 0.95 on random gaussians are near-empty
    assert max(collected) <= 1.5 * n / chunks, collected


def test_distributed_kmeans_matches_local_lloyd(ray_session):
    """Full-corpus distributed Lloyd == a single-process Lloyd over the
    same data from the same init (up to float ulps in the summation order:
    assignments must agree; centroids to ~1e-4)."""
    import pyarrow.parquet as pq

    from libfilter_ray.stages.ann import (_normalize,
                                          train_centroids,
                                          train_centroids_distributed)

    t = pq.read_table(f"{SF}/embeddings.parquet")
    X = _normalize(np.stack([np.asarray(v) for v in
                             t["embedding"].to_pylist()]).astype(np.float32))
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet").repartition(5)

    C = train_centroids_distributed(ds, num_centroids=8, iters=4, seed=3)

    # local reference: same init (sample path with iters=0 = the init draw),
    # then full-data Lloyd in float64
    C0 = train_centroids(ds, num_centroids=8, sample_rows=4096, iters=0,
                         seed=3)
    ref = C0.astype(np.float64)
    for _ in range(4):
        assign = np.argmax(X @ ref.T.astype(np.float32), axis=1)
        for c in range(len(ref)):
            m = X[assign == c]
            if len(m):
                ref[c] = m.astype(np.float64).mean(axis=0)
        ref = ref / np.maximum(np.linalg.norm(ref, axis=1, keepdims=True),
                               1e-12)
    assert np.allclose(C, ref.astype(np.float32), atol=1e-4)
    # and the distributed path plugs into IVF
    from libfilter_ray.stages.ann import brute_topk, ivf_topk
    Q = X[:5]
    exact = brute_topk(ds, Q, k=10)
    approx = ivf_topk(ds, Q, k=10, num_centroids=8, nprobe=4,
                      train="distributed")
    recalls = []
    for qi in range(5):
        e = set(exact.loc[exact["query_id"] == qi, "neighbor_id"])
        a = set(approx.loc[approx["query_id"] == qi, "neighbor_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6, recalls


# ---------------------------------------------------------------------------
# null and empty inputs
# ---------------------------------------------------------------------------

def test_text_kernels_handle_nulls_and_empty():
    """Null text counts as empty; empty batches flow through."""
    from libfilter_ray.functions.shingles import (minhash_signatures,
                                                  simhash64,
                                                  winnow_fingerprints)
    from libfilter_ray.functions.textstats import text_stats_stage

    t = pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()),
                  "text": pa.array(["hello world", None, ""])})
    out = text_stats_stage(t)
    assert out["n_tokens"].to_pylist() == [2, 0, 0]
    assert out["quality_score"].to_pylist()[1] == out["quality_score"].to_pylist()[2]
    col = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) \
        else t["text"]
    assert minhash_signatures(col).shape == (3, 128)
    assert len(simhash64(col)) == 3
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


def test_candidate_pairs_sharded_equals_global_scan(ray_session, rng):
    """The distributed (sharded) candidate pairing returns exactly the
    pair set of a single global run scan over the same bucket table."""
    import pandas as pd

    from libfilter_ray.stages.dedup import _candidate_pairs, _scan_pairs_df

    n = 3000
    df = pd.DataFrame({
        "band_key": rng.integers(0, 400, n).astype(np.int64),
        "doc_id": rng.integers(0, 800, n).astype(np.int64),
    }).drop_duplicates()
    ds = ray.data.from_arrow(pa.Table.from_pandas(df)).repartition(7)
    got = _candidate_pairs(ds, "band_key", "doc_id", num_shards=16)
    want = _scan_pairs_df(df, "band_key", "doc_id", [], 64) \
        .drop_duplicates(subset=["id_a", "id_b"]) \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert set(map(tuple, got[["id_a", "id_b"]].to_numpy())) \
        == set(map(tuple, want[["id_a", "id_b"]].to_numpy()))


def test_near_dup_pipelines_handle_no_candidates(ray_session):
    """Regression: a corpus with ZERO near-dup candidates must yield empty
    pair frames (Ray drops 0-row group outputs and to_pandas() comes back
    column-less — the pair scan used to KeyError on id_a)."""
    from libfilter_ray.stages.dedup import (minhash_near_dup_pairs,
                                            ngram_jaccard_pairs,
                                            simhash_near_dup_pairs)

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array([
            "alpha beta gamma delta epsilon zeta eta theta iota kappa",
            "one two three four five six seven eight nine ten eleven",
            "totally different content with no overlap at all here now",
            "fourth document unlike any other in this corpus set today",
        ])})
    ds = ray.data.from_arrow(t)
    for fn in (lambda: minhash_near_dup_pairs(ds, "text", "doc_id",
                                              threshold=0.6),
               lambda: ngram_jaccard_pairs(ds, "text", "doc_id"),
               lambda: simhash_near_dup_pairs(ds, "text", "doc_id",
                                              max_hamming=0)):
        out = fn()
        assert len(out) == 0
        assert {"id_a", "id_b"} <= set(out.columns)


def test_lsh_band_keys_validates_band_divisibility():
    from libfilter_ray.functions.shingles import lsh_band_keys

    sig = np.zeros((3, 8), dtype=np.uint64)
    with pytest.raises(ValueError, match="divide"):
        lsh_band_keys(sig, bands=16)
    with pytest.raises(ValueError, match="divide"):
        lsh_band_keys(sig, bands=3)


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


def test_pq_topk_recall_and_rerank_exactness(ray_session, rng):
    """PQ + exact rerank: recall vs brute stays high on clustered data,
    and every returned cosine is the TRUE cosine (rerank is exact)."""
    import ray.data

    from libfilter_ray.stages.ann import brute_topk, pq_topk

    centers = rng.standard_normal((4, 64)).astype(np.float32) * 3
    X = np.concatenate([
        centers[i % 4] + rng.standard_normal(64).astype(np.float32) * 0.3
        for i in range(400)]).reshape(400, 64)
    df = pd.DataFrame({"vec_id": np.arange(400, dtype=np.int64),
                       "embedding": [list(map(float, r)) for r in X]})
    ds = ray.data.from_pandas(df).repartition(6)
    Q = X[:4] + 0.01
    exact = brute_topk(ds, Q, k=10)
    approx = pq_topk(ds, Q, k=10, m=8, ncodes=32, rerank=8)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    recalls = []
    for qi in range(4):
        e = set(exact[exact["query_id"] == qi]["neighbor_id"])
        a = approx[approx["query_id"] == qi]
        recalls.append(len(e & set(a["neighbor_id"])) / 10)
        # rerank cosines are the true ones
        for _, row in a.iterrows():
            true = float(Xn[int(row["neighbor_id"])] @ Qn[qi])
            assert abs(row["cosine"] - true) < 1e-5
    assert np.mean(recalls) >= 0.8, recalls


def test_pq_encode_compresses_and_is_deterministic(ray_session, rng):
    import ray

    import ray.data

    from libfilter_ray.stages.ann import pq_encode_fn, train_pq_codebooks

    X = rng.standard_normal((200, 64)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(200, dtype=np.int64),
                       "embedding": [list(map(float, r)) for r in X]})
    ds = ray.data.from_pandas(df).repartition(4)
    books = train_pq_codebooks(ds, m=8, ncodes=16)
    assert books.shape == (8, 16, 8)
    ref = ray.put(books)
    enc1 = ds.map_batches(pq_encode_fn(ref, "embedding", "vec_id"),
                          batch_format="pyarrow").to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    enc2 = ds.repartition(9).map_batches(
        pq_encode_fn(ref, "embedding", "vec_id"),
        batch_format="pyarrow").to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    assert (enc1["code"] == enc2["code"]).all()  # partition-invariant
    assert all(len(c) == 8 for c in enc1["code"])  # 32x vs 64 float32


def test_pq_topk_dim_mismatch_raises(ray_session, rng):
    import ray.data

    from libfilter_ray.stages.ann import pq_topk

    X = rng.standard_normal((50, 64)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(50, dtype=np.int64),
                       "embedding": [list(map(float, r)) for r in X]})
    with pytest.raises(ValueError):
        pq_topk(ray.data.from_pandas(df),
                rng.standard_normal((2, 32)).astype(np.float32), k=5)


