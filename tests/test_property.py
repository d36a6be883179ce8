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

