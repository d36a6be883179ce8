"""Hypothesis property tests over the pure kernels (bounded example counts —
the deadline is generous because first-run numpy warm-up dominates)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

import pyarrow as pa

u64s = st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=1, max_size=200)
texts = st.lists(st.text(min_size=0, max_size=60), min_size=1, max_size=30)


@settings(max_examples=25, deadline=None)
@given(u64s)
def test_block_bloom_never_false_negative(keys):
    from libfilter_ray.sketch.block_bloom import BlockBloom

    f = BlockBloom(4096)
    arr = np.array(keys, dtype=np.uint64)
    f.add_hashes(arr)
    assert f.find_hashes(arr).all()


@settings(max_examples=25, deadline=None)
@given(u64s, st.integers(min_value=2, max_value=5))
def test_block_bloom_merge_partition_invariance(keys, parts):
    """Any partition of the keys OR-merges to the same bytes as one pass."""
    from libfilter_ray.sketch.block_bloom import BlockBloom

    arr = np.array(keys, dtype=np.uint64)
    whole = BlockBloom(2048).add_hashes(arr)
    merged = BlockBloom(2048)
    for chunk in np.array_split(arr, parts):
        merged.merge(BlockBloom(2048).add_hashes(chunk))
    assert whole.to_bytes() == merged.to_bytes()


@settings(max_examples=20, deadline=None)
@given(u64s)
def test_taffy_cuckoo_insert_persists(keys):
    from libfilter_ray.sketch.taffy_cuckoo import TaffyCuckoo

    f = TaffyCuckoo(512)
    arr = np.array(keys, dtype=np.uint64)
    f.update(arr)
    assert f.find_hashes(arr).all()
    assert f.freeze().find_hashes(arr).all()


@settings(max_examples=20, deadline=None)
@given(u64s, u64s)
def test_taffy_cuckoo_union_contains_both(a, b):
    """UnionDoes (cpp/extras/test/block.cpp:48-80) over arbitrary key sets."""
    from libfilter_ray.sketch.taffy_cuckoo import TaffyCuckoo

    x = TaffyCuckoo(512).update(np.array(a, dtype=np.uint64))
    y = TaffyCuckoo(512).update(np.array(b, dtype=np.uint64))
    u = x.merge(y)
    assert u.find_hashes(np.array(a, dtype=np.uint64)).all()
    assert u.find_hashes(np.array(b, dtype=np.uint64)).all()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=1, max_size=500))
def test_hll_estimate_within_bound(keys):
    """|est - n| within 5 standard errors for any (small) distinct set;
    HLL consumes pre-randomized hashes, so mix raw ints first."""
    from libfilter_ray.sketch.hashing import hash_u64
    from libfilter_ray.sketch.hll import HyperLogLog

    distinct = np.unique(np.array(keys, dtype=np.uint64))
    h = HyperLogLog(12)
    h.update(hash_u64(distinct))
    n = len(distinct)
    err = 5 * 1.04 / np.sqrt(1 << 12) * n + 3
    assert abs(h.estimate() - n) <= err


@settings(max_examples=25, deadline=None)
@given(texts)
def test_hash_arrow_array_deterministic_and_distinct(rows):
    from libfilter_ray.sketch.hashing import hash_arrow_array

    arr = pa.array(rows, type=pa.string())
    h1 = hash_arrow_array(arr)
    h2 = hash_arrow_array(arr)
    assert np.array_equal(h1, h2)
    # equal inputs hash equal; (probabilistically) distinct inputs differ
    uniq_rows = len(set(rows))
    assert len(np.unique(h1)) == uniq_rows


@settings(max_examples=25, deadline=None)
@given(texts, st.integers(min_value=2, max_value=8))
def test_shingle_hashes_row_alignment(rows, k):
    """Row splits always cover every row; per-row shingle counts match the
    direct formula max(len_bytes - k + 1, 1)."""
    from libfilter_ray.functions.shingles import shingle_hashes

    arr = pa.array(rows, type=pa.string())
    flat, splits = shingle_hashes(arr, k=k)
    assert len(splits) == len(rows) + 1
    for i, s in enumerate(rows):
        b = len(s.encode())
        expect = max(b - k + 1, 1)
        assert splits[i + 1] - splits[i] == expect


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=12, max_size=400))
def test_xor_static_members_always_found(keys):
    from libfilter_ray.sketch.hashing import hash_u64
    from libfilter_ray.sketch.xor_static import StaticXor

    # xor build needs pseudorandom hashes (documented contract) — mix first
    h = hash_u64(np.array(keys, dtype=np.uint64))
    f = StaticXor.build(h)
    assert f.find_hashes(h).all()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=300))
def test_kll_rank_sanity(vals):
    from libfilter_ray.sketch.kll import KLL

    k = KLL(k=200)
    v = np.array(vals, dtype=np.float64)
    k.update(v)
    lo, hi = float(np.min(v)), float(np.max(v))
    assert lo <= k.quantile(0.5) <= hi
    assert k.quantile(0.0) >= lo - 1e-9
    assert k.quantile(1.0) <= hi + 1e-9


@settings(max_examples=12, deadline=None)
@given(st.lists(st.one_of(st.none(),
                          st.lists(st.sampled_from(["a", "bb", "ccc", ""]),
                                   max_size=6).map("\n".join)),
                max_size=24),
       st.integers(min_value=1, max_value=4))
def test_line_dedup_matches_naive_any_corpus(ray_session, docs, nparts):
    """Property: line_dedup == the sequential first-occurrence reference for
    ANY corpus (tiny alphabet forces heavy cross-doc collisions), any
    partitioning."""
    import pyarrow as pa
    import pandas as pd
    import ray.data

    from libfilter_ray.stages.dedup import line_dedup

    t = pa.table({"doc_id": pa.array(range(len(docs)), type=pa.int64()),
                  "text": pa.array(docs, type=pa.string())})
    seen, want = set(), {}
    for d, txt in enumerate(docs):
        if txt is None:
            want[d] = None
            continue
        kept = [ln for ln in txt.split("\n")
                if ln not in seen and not seen.add(ln)]
        want[d] = "\n".join(kept)
    ds = ray.data.from_arrow(t)
    if len(docs) > 1:
        ds = ds.repartition(min(nparts, len(docs)))
    res = line_dedup(ds, "text", "doc_id").to_pandas()
    # an empty corpus yields a column-less empty frame (Ray drops the
    # schema of zero-row outputs) — the contract is just "no rows"
    out = {} if res.empty else \
        {k: (None if pd.isna(v) else v)
         for k, v in res.set_index("doc_id")["text"].to_dict().items()}
    assert out == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.text(min_size=0, max_size=80),
                          st.text(min_size=0, max_size=80)),
                min_size=1, max_size=40),
       st.integers(min_value=2, max_value=8))
def test_jaccard_pairwise_matches_set_reference(pairs, k):
    """The vectorized lexsort+bincount Jaccard must equal the obvious
    per-pair set computation (including the short-row whole-string hash
    semantics) for arbitrary unicode inputs."""
    from libfilter_ray.functions.shingles import jaccard_pairwise

    col_a = pa.array([a for a, _ in pairs], type=pa.string())
    col_b = pa.array([b for _, b in pairs], type=pa.string())
    got = jaccard_pairwise(col_a, col_b, k=k)

    def shingles(s: str) -> set:
        b = s.encode()
        if len(b) >= k:
            return {b[i:i + k] for i in range(len(b) - k + 1)}
        return {b}  # whole-row shingle for short rows

    for i, (a, b) in enumerate(pairs):
        A, B = shingles(a), shingles(b)
        inter = len(A & B)
        union = len(A | B)
        want = inter / union if union else 1.0
        assert abs(got[i] - want) < 1e-12, (i, a, b, got[i], want)


@settings(max_examples=20, deadline=None)
@given(st.text(alphabet="abcdefgh", min_size=60, max_size=150),
       st.text(alphabet="xyzw", min_size=0, max_size=40),
       st.text(alphabet="pqrs", min_size=0, max_size=40))
def test_winnow_anchor_alignment_property(passage, pre, post):
    """For ANY shared substring long enough to contain a full window,
    interior winnowing anchors align at identical content offsets in
    both embeddings — the passage-dedup detection guarantee."""
    from libfilter_ray.stages.passages import winnow_anchor_positions

    k, w = 16, 16
    t1 = pre + passage + post
    t2 = post + pre + passage + pre + post  # different surroundings
    h, row, pos = winnow_anchor_positions(
        pa.array([t1, t2], type=pa.string()), k=k, w=w)
    off1 = len(pre.encode())
    off2 = len((post + pre).encode())
    plen = len(passage.encode())
    margin = w + k - 1

    def interior(r, off):
        return {(int(hh), int(p) - off)
                for hh, rr, p in zip(h, row, pos)
                if rr == r and off + margin <= p < off + plen - margin}

    assert interior(0, off1) == interior(1, off2)
