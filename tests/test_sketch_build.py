"""Distributed sketch-build framework over Ray Data (global and grouped
builds through the one keyed merge on both its paths, broadcast probe) —
SURVEY.md §2.4/§2.6."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

from libfilter_ray.sketch.block_bloom import BlockBloom
from libfilter_ray.sketch.hashing import hash_arrow_array
from libfilter_ray.sketch import registry
from libfilter_ray.stages import sketch_build as sb

from conftest import SF_DIR, SF_DIR_01


@pytest.fixture()
def docs(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF_DIR}/documents.parquet",
                                 columns=["doc_id", "text", "lang"])


def test_registry():
    assert "block" in registry.kinds()
    sk = registry.make("block", bytes_=64)
    assert isinstance(sk, BlockBloom)
    with pytest.raises(KeyError, match="unknown sketch kind"):
        registry.get("nope")


def test_global_build_matches_local(docs):
    """Distributed build == single-process build, byte for byte."""
    dist = sb.build_sketch(docs.repartition(8), "text", "block",
                           {"bytes_": 2048})
    local = BlockBloom(2048)
    tbl = docs.to_pandas()
    local.add_hashes(hash_arrow_array(pa.array(tbl["text"].tolist())))
    assert dist == local


def test_global_build_forced_exchange(docs, monkeypatch):
    """A zero one-task budget sends the global build's partials through the
    keyed merge's sharded exchange; result still byte-identical."""
    monkeypatch.setattr(sb, "ONE_TASK_BYTES", 0)
    dist = sb.build_sketch(docs.repartition(32), "text", "block",
                           {"bytes_": 1024})
    local = BlockBloom(1024)
    tbl = docs.to_pandas()
    local.add_hashes(hash_arrow_array(pa.array(tbl["text"].tolist())))
    assert dist == local


def test_grouped_build_no_false_negatives(docs):
    grouped = sb.build_grouped_multi(docs.repartition(8), "lang", [
        ("b", "block", {"bytes_": 1024}, "text")])
    tbl = docs.to_pandas()
    assert set(grouped["lang"]) == set(tbl["lang"])
    for _, row in grouped.iterrows():
        f = BlockBloom.from_bytes(row["payload_b"])
        texts = pa.array(tbl.loc[tbl["lang"] == row["lang"], "text"].tolist())
        assert len(texts) == row["rows"]
        assert f.find_hashes(hash_arrow_array(texts)).all()


def test_grouped_build_matches_local_bytes(docs):
    """Per-key OR-merge is order invariant -> equals local per-key build."""
    grouped = sb.build_grouped_multi(docs.repartition(16), "lang", [
        ("b", "block", {"bytes_": 512}, "text")])
    tbl = docs.to_pandas()
    for _, row in grouped.iterrows():
        local = BlockBloom(512)
        texts = pa.array(tbl.loc[tbl["lang"] == row["lang"], "text"].tolist())
        local.add_hashes(hash_arrow_array(texts))
        assert BlockBloom.from_bytes(row["payload_b"]) == local


def test_probe_stage(docs, ray_session):
    import ray

    sk = sb.build_sketch(docs, "text", "block", {"bytes_": 4096})
    ref = ray.put(sk.to_bytes())
    prober = sb.probe_stage(ref, "block", "text")
    probed = docs.map_batches(prober, batch_format="pyarrow",
                              concurrency=2).to_pandas()
    assert probed["found"].all()


def test_actor_pool_variant_identical_bytes(ray_session):
    """SURVEY.md §7.2: the actor-pool accumulate variant and the per-block
    partial variant produce IDENTICAL final sketches for order-invariant
    kinds (BlockBloom OR-merge; HLL register-max)."""
    import ray

    from libfilter_ray.stages.sketch_build import (build_sketch,
                                                   build_sketch_actor_pool)

    ds = ray.data.read_parquet(f"{SF_DIR_01}/events.parquet",
                               columns=["user_id"])
    a = build_sketch(ds, "user_id", "block", {"bytes_": 8192})
    b = build_sketch_actor_pool(ds, "user_id", "block", {"bytes_": 8192},
                                concurrency=3)
    assert a.to_bytes() == b.to_bytes()
    h1 = build_sketch(ds, "user_id", "hll", {"p": 12})
    h2 = build_sketch_actor_pool(ds, "user_id", "hll", {"p": 12},
                                 concurrency=3)
    assert h1.to_bytes() == h2.to_bytes()


def test_salted_merge_under_extreme_skew(ray_session, monkeypatch):
    """SURVEY.md §7.4: deliberately skewed fixture — 95% of rows share ONE
    key. The map side must spread the hot key's partials across multiple
    salt groups, and the exchange path of the keyed merge must still find
    every member of the hot key."""
    import pyarrow as pa
    import ray

    from libfilter_ray.sketch.block_bloom import BlockBloom
    from libfilter_ray.sketch.hashing import DEFAULT_SEED, hash_arrow_array
    from libfilter_ray.stages.sketch_build import (
        _MultiGroupedPartialBuilder, build_grouped_multi)

    monkeypatch.setattr(sb, "ONE_TASK_BYTES", 0)  # the exchange path
    n = 20000
    keys = ["hot"] * (n * 95 // 100) + ["cold"] * (n - n * 95 // 100)
    vals = [f"v{i}" for i in range(n)]
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    ds = ray.data.from_arrow(t).repartition(16)

    built = build_grouped_multi(ds, "k", [("b", "block", {"bytes_": 16384},
                                           "v")])

    # salting actually spreads: the hot key's partials land in >1 salt
    # group across blocks
    partials = ds.map_batches(
        _MultiGroupedPartialBuilder([("b", "block", {"bytes_": 16384}, "v")],
                                    "k", DEFAULT_SEED),
        batch_format="pyarrow", batch_size=None).to_pandas()
    hot_salts = partials.loc[partials["k"] == "hot", "salt"].nunique()
    assert hot_salts > 1, "hot key's partials all carry one salt"

    # and the filters are correct: every member found
    f = BlockBloom.from_bytes(
        built.loc[built["k"] == "hot", "payload_b"].iloc[0])
    hot_vals = pa.array([v for k, v in zip(keys, vals) if k == "hot"])
    assert f.find_hashes(hash_arrow_array(hot_vals)).all()


#: Bloom, HLL and CMS over urls, sized so that _keyed_blocks ships both raw
#: and sketch partials of each, and a KLL whose k forces compactions on merge
_SPECS = [("bloom", "block", {"bytes_": 256}, "url"),
          ("hll", "hll", {"p": 7}, "url"),
          ("cms", "cms", {"width": 16, "depth": 2}, "url"),
          ("kll", "kll", {"k": 16}, "len")]


def _keyed_blocks(rng, n_blocks: int = 24):
    """Blocks of 10-150 rows over keys a/b/c (and a few null keys)."""
    blocks = []
    for b in range(n_blocks):
        n = int(rng.integers(10, 150))
        keys = rng.choice(["a", "a", "b", "c", None], n).tolist()
        blocks.append(pa.table({
            "k": pa.array(keys, type=pa.string()),
            "url": pa.array([f"u{b}-{i}" for i in range(n)]),
            "len": pa.array(rng.normal(100, 30, n))}))
    return blocks


def test_grouped_multi_block_order_invariant(ray_session, rng):
    """The same blocks in three block orders give byte-identical payloads
    for every spec, the merge-order-sensitive KLL included: each key's
    payloads fold in canonical (sorted byte) order. The same rows cut at
    other block boundaries (2 and 12 blocks) give byte-identical rows,
    Bloom, HLL and CMS payloads; KLL's bytes may move with the boundaries,
    so it is held to its configured rank error (3/k) on the exact
    quantiles instead."""
    import ray.data

    from libfilter_ray.sketch.kll import KLL

    blocks = _keyed_blocks(rng)
    perm = rng.permutation(len(blocks))
    outs = [sb.build_grouped_multi(ray.data.from_arrow(order), "k", _SPECS)
            for order in (blocks, blocks[::-1],
                          [blocks[i] for i in perm])]
    assert outs[0]["k"].tolist() == ["a", "b", "c"]
    for out in outs[1:]:
        assert out["k"].tolist() == outs[0]["k"].tolist()
        assert out["rows"].tolist() == outs[0]["rows"].tolist()
        for name, *_r in _SPECS:
            assert out[f"payload_{name}"].tolist() == \
                outs[0][f"payload_{name}"].tolist(), name

    whole = pa.concat_tables(blocks)
    keys = np.array(whole["k"].to_pylist(), dtype=object)
    lens = whole["len"].to_numpy()
    k = next(p["k"] for name, _kind, p, _c in _SPECS if name == "kll")
    for n_cuts in (2, 12):
        cuts = np.linspace(0, whole.num_rows, n_cuts + 1).astype(int)
        recut = [whole.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
        out = sb.build_grouped_multi(ray.data.from_arrow(recut), "k", _SPECS)
        assert out["k"].tolist() == outs[0]["k"].tolist()
        assert out["rows"].tolist() == outs[0]["rows"].tolist()
        for name in ("bloom", "hll", "cms"):
            assert out[f"payload_{name}"].tolist() == \
                outs[0][f"payload_{name}"].tolist(), (n_cuts, name)
        for _, row in out.iterrows():
            mine = lens[keys == row["k"]]
            sk = KLL.from_bytes(row["payload_kll"])
            assert sk.n == len(mine) and len(sk.compactors) > 1
            for q in (0.01, 0.25, 0.5, 0.75, 0.99):
                assert abs((mine <= sk.quantile(q)).mean() - q) < 3.0 / k, \
                    (n_cuts, row["k"], q)


#: one spec per global-build kind checked for order invariance; KLL's k
#: forces compactions on merge
_GLOBAL_SPECS = [("block", {"bytes_": 256}, "url"), ("hll", {"p": 7}, "url"),
                 ("kll", {"k": 16}, "len")]


def test_global_build_block_order_invariant(ray_session, rng):
    """The same materialized blocks, forward and reversed, give
    byte-identical global sketches, the merge-order-sensitive KLL
    included: the global build folds through the keyed merge's canonical
    order."""
    import ray.data

    blocks = _keyed_blocks(rng, n_blocks=32)
    fwd = ray.data.from_arrow(blocks).materialize()
    rev = ray.data.from_arrow_refs(fwd.to_arrow_refs()[::-1])
    for kind, params, column in _GLOBAL_SPECS:
        a = sb.build_sketch(fwd, column, kind, params)
        b = sb.build_sketch(rev, column, kind, params)
        assert a.to_bytes() == b.to_bytes(), kind


def test_global_build_empty_input(ray_session):
    """No rows in: the empty sketch out, as a sequential build over no rows
    gives it — for an empty block and for a Dataset filtered to nothing."""
    import ray.data

    t = pa.table({"url": pa.array([], type=pa.string()),
                  "len": pa.array([], type=pa.float64())})
    none_left = ray.data.from_arrow(pa.table({
        "url": pa.array(["a", "b"]), "len": pa.array([1.0, 2.0])})) \
        .filter(lambda r: False)
    for kind, params, column in _GLOBAL_SPECS:
        want = registry.make(kind, **params).finalize().to_bytes()
        for ds in (ray.data.from_arrow(t), none_left):
            got = sb.build_sketch(ds, column, kind, params)
            assert got.to_bytes() == want, kind


def test_keyed_merge_paths_agree(ray_session, rng, monkeypatch):
    """The one-task fold and the sharded path give byte-identical payloads
    for every spec (the merge-order-sensitive KLL included) and equal rows,
    on normal, many-block, empty and all-null-key inputs."""
    import ray.data

    empty = pa.table({"k": pa.array([], type=pa.string()),
                      "url": pa.array([], type=pa.string()),
                      "len": pa.array([], type=pa.float64())})
    null_keys = pa.table({"k": pa.array([None] * 50, type=pa.string()),
                          "url": pa.array([f"u{i}" for i in range(50)]),
                          "len": pa.array(np.arange(50.0))})
    # 70 blocks: more than NUM_SHARDS, so each split task takes a run of
    # several blocks, and with 3 keys most shards come back empty
    inputs = [_keyed_blocks(rng), _keyed_blocks(rng, 70), [empty],
              [null_keys, null_keys]]

    def build(blocks):
        return sb.build_grouped_multi(ray.data.from_arrow(blocks), "k",
                                      _SPECS)

    one_task = [build(blocks) for blocks in inputs]
    monkeypatch.setattr(sb, "ONE_TASK_BYTES", 0)
    exchanged = [build(blocks) for blocks in inputs]
    assert [len(o) for o in one_task] == [3, 3, 0, 0]
    for a, b in zip(one_task, exchanged):
        assert list(a.columns) == list(b.columns)
        assert a["k"].tolist() == b["k"].tolist()
        assert a["rows"].tolist() == b["rows"].tolist()
        for name, *_r in _SPECS:
            assert a[f"payload_{name}"].tolist() == \
                b[f"payload_{name}"].tolist(), name


def test_build_sketch_exact_partition_invariant(ray_session, rng,
                                                monkeypatch):
    """build_sketch_exact: ANY partitioning of the same rows yields a
    byte-identical TaffyBlock, equal to a sequential single-writer build
    over the SORTED hash multiset (the canonical order), on both paths of
    the keyed merge; no rows in gives the empty sketch."""
    import pyarrow as pa

    import ray
    from libfilter_ray.sketch.hashing import DEFAULT_SEED, hash_arrow_array
    from libfilter_ray.sketch.taffy_block import TaffyBlock
    from libfilter_ray.stages.sketch_build import build_sketch_exact

    vals = [f"key-{i}" for i in rng.integers(0, 3000, 2500)]  # dups included
    params = {"ndv": 64, "fpp": 0.02}
    h = np.sort(hash_arrow_array(pa.array(vals), seed=DEFAULT_SEED),
                kind="stable")
    want = TaffyBlock(**params).add_hashes(h).to_bytes()

    outs = []
    for blocks in (1, 3, 17):
        ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})) \
            .repartition(blocks)
        sk = build_sketch_exact(ds, "v", "taffy_block", params)
        outs.append(sk.to_bytes())
    assert outs[0] == want
    assert all(o == want for o in outs)
    # shuffled row order too: same multiset => same canonical build
    perm = rng.permutation(len(vals))
    ds = ray.data.from_arrow(
        pa.table({"v": pa.array([vals[i] for i in perm])})).repartition(5)
    assert build_sketch_exact(ds, "v", "taffy_block", params) \
        .to_bytes() == want

    empty = registry.make("taffy_block", **params).finalize().to_bytes()
    none_left = ray.data.from_arrow(pa.table({"v": pa.array(vals)})) \
        .filter(lambda r: False)
    empty_block = ray.data.from_arrow(
        pa.table({"v": pa.array([], type=pa.string())}))
    monkeypatch.setattr(sb, "ONE_TASK_BYTES", 0)  # the exchange path
    for blocks in (3, 17):
        ds = ray.data.from_arrow(pa.table({"v": pa.array(vals)})) \
            .repartition(blocks)
        assert build_sketch_exact(ds, "v", "taffy_block", params) \
            .to_bytes() == want
    for ds in (none_left, empty_block):
        assert build_sketch_exact(ds, "v", "taffy_block", params) \
            .to_bytes() == empty


def test_pre_hashed_nulls_keep_hash_bits(ray_session, rng):
    """pre_hashed=True over int64 hash columns holding a null per block:
    nulls are dropped and every hash goes in bit-exact, so every member is
    found and the bytes equal the build without the nulls (a null-bearing
    int column read through float64 rounds away every bit below 2^53's
    precision: a false-negative filter)."""
    import ray

    vals = rng.integers(-(1 << 63), (1 << 63) - 1, 1000, dtype=np.int64)
    chunks = np.array_split(vals, 4)
    with_nulls = ray.data.from_arrow([
        pa.table({"h": pa.array(c.tolist() + [None], type=pa.int64())})
        for c in chunks])
    without = ray.data.from_arrow([
        pa.table({"h": pa.array(c, type=pa.int64())}) for c in chunks])
    members = vals.view(np.uint64)
    for build, kind, params in (
            (sb.build_sketch, "block", {"bytes_": 4096}),
            (sb.build_sketch_exact, "taffy_block", {"ndv": 256,
                                                    "fpp": 0.01})):
        got = build(with_nulls, "h", kind, params, pre_hashed=True)
        assert got.find_hashes(members).all(), kind
        assert got.to_bytes() == build(without, "h", kind, params,
                                       pre_hashed=True).to_bytes(), kind


def test_grouped_build_null_keys_excluded_correct_rows(ray_session):
    """Null-key rows are EXCLUDED (documented) and — the regression — the
    single-distinct-key + null case must still attribute the RIGHT rows:
    key ['a', None, 'a'] with values v0,v1,v2 must sketch exactly {v0,v2}
    (the unsorted-column shortcut used to sketch {v0,v1} and drop v2)."""
    import pyarrow as pa

    import ray

    from libfilter_ray.sketch.block_bloom import BlockBloom
    from libfilter_ray.sketch.hashing import DEFAULT_SEED, hash_arrow_array
    from libfilter_ray.stages.sketch_build import build_grouped_multi

    t = pa.table({"k": pa.array(["a", None, "a"]),
                  "v": pa.array(["v0", "v1", "v2"])})
    out = build_grouped_multi(ray.data.from_arrow(t), "k",
                              [("b", "block", {"bytes_": 1024}, "v")])
    assert out["k"].tolist() == ["a"]
    assert out["rows"].tolist() == [2]
    f = BlockBloom.from_bytes(out["payload_b"].iloc[0])
    h = hash_arrow_array(pa.array(["v0", "v1", "v2"]), seed=DEFAULT_SEED)
    got = f.find_hashes(h)
    assert got[0] and got[2], "member rows must be found (no false negatives)"
    # v1 belongs to the NULL key; a 1KB bloom with 2 members makes a false
    # positive on it vanishingly unlikely — its presence means the bug
    assert not got[1], "null-key row leaked into the 'a' sketch"


def test_grouped_build_empty_input_returns_typed_empty_frame(ray_session):
    import pyarrow as pa

    import ray

    from libfilter_ray.stages.sketch_build import (build_grouped_multi,
                                                   probe_grouped)

    t = pa.table({"k": pa.array([], type=pa.string()),
                  "v": pa.array([], type=pa.string())})
    out = build_grouped_multi(ray.data.from_arrow(t), "k",
                              [("b", "block", {"bytes_": 1024}, "v")])
    assert len(out) == 0 and {"k", "rows", "payload_b"} <= set(out.columns)
    # the grouped probe: (key, n, found) with int64 counts
    probed = probe_grouped(ray.data.from_arrow(t), {},
                           BlockBloom.from_bytes, "k", "v")
    assert len(probed) == 0 and list(probed.columns) == ["k", "n", "found"]
    assert str(probed["n"].dtype) == str(probed["found"].dtype) == "int64"


def test_grouped_build_rejects_duplicate_spec_names():
    """Two specs with one name would share one payload column, and the
    merge would silently keep only one of the two sketches: the build
    refuses them before touching the Dataset."""

    class NoDataset:
        def map_batches(self, *a, **kw):
            raise AssertionError("duplicate names must fail before any work")

    specs = [("x", "block", {"bytes_": 256}, "url"),
             ("y", "hll", {"p": 7}, "url"),
             ("x", "block", {"bytes_": 512}, "url")]
    with pytest.raises(ValueError, match=r"\['x'\]"):
        sb.build_grouped_multi(NoDataset(), "lang", specs)


def test_value_spec_first_in_grouped_multi(ray_session, rng):
    """A KLL spec FIRST in build_grouped_multi: the per-block salt
    fingerprint cannot hash the float64 column, so it falls back to the
    block's first key; an HLL spec rides along. Rows per key are exact,
    the HLL estimate is within 15% and the KLL rank error within its
    configured bound (3/k, as in tests/test_sketches.py)."""
    import ray.data

    from libfilter_ray.sketch.hll import HyperLogLog
    from libfilter_ray.sketch.kll import KLL

    k, n = 32, 6000
    labels = np.array([f"l{v}" for v in rng.integers(0, 3, n)])
    vals = rng.normal(100, 30, n)
    t = pa.table({"label": pa.array(labels), "id": pa.array(np.arange(n)),
                  "len": pa.array(vals)})
    with pytest.raises(TypeError):  # the fallback is really taken
        hash_arrow_array(t["len"].slice(0, 1), seed=7)
    ds = ray.data.from_arrow([t.slice(i * n // 4, n // 4) for i in range(4)])
    out = sb.build_grouped_multi(ds, "label", [
        ("kll", "kll", {"k": k}, "len"), ("ids", "hll", {"p": 10}, "id")])
    assert out["label"].tolist() == ["l0", "l1", "l2"]
    for _, row in out.iterrows():
        mine = vals[labels == row["label"]]
        assert row["rows"] == len(mine)
        est = HyperLogLog.from_bytes(row["payload_ids"]).estimate()
        assert abs(est - len(mine)) <= 0.15 * len(mine)
        sk = KLL.from_bytes(row["payload_kll"])
        assert sk.n == len(mine) and len(sk.compactors) > 1
        for q in (0.01, 0.25, 0.5, 0.75, 0.99):
            assert abs((mine <= sk.quantile(q)).mean() - q) < 3.0 / k, q


_ROWS = st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                           st.one_of(st.none(), st.text(max_size=6))),
                 max_size=40)


@settings(max_examples=60, deadline=None)
@given(rows=_ROWS, int_keys=st.booleans(), cut=st.integers(0, 40))
@example(rows=[(0, "v0"), (None, "v1"), (0, "v2")], int_keys=False, cut=0)
@example(rows=[(None, "x"), (None, "y")], int_keys=True, cut=1)
@example(rows=[], int_keys=False, cut=0)
def test_split_by_key_matches_python_grouping(rows, int_keys, cut):
    """split_by_key against plain Python grouping in row order: keys in
    first-appearance order typed as the key column, null-key rows dropped,
    each key's hashes equal to hashing that key's values, each key's values
    in block order — also for a chunked table."""
    from libfilter_ray.sketch.hashing import DEFAULT_SEED

    ktype = pa.int64() if int_keys else pa.string()
    ks = [k if k is None or int_keys else f"k{k}" for k, _v in rows]
    vs = [v for _k, v in rows]
    t = pa.table({"k": pa.array(ks, type=ktype),
                  "v": pa.array(vs, type=pa.string())})
    cut = min(cut, t.num_rows)
    t = pa.concat_tables([t.slice(0, cut), t.slice(cut)])  # 2 chunks
    groups: dict = {}
    for k, v in zip(ks, vs):
        if k is not None:
            groups.setdefault(k, []).append(v)

    keys, bounds, hashes, values = sb.split_by_key(t, "k", ["v"], ["v"])
    assert keys.type == ktype
    assert keys.to_pylist() == list(groups)
    assert int(bounds[-1]) == sum(k is not None for k in ks)
    for i, k in enumerate(keys.to_pylist()):
        b0, b1 = int(bounds[i]), int(bounds[i + 1])
        want = hash_arrow_array(pa.array(groups[k], type=pa.string()),
                                seed=DEFAULT_SEED)
        assert np.array_equal(hashes["v"][b0:b1], want)
        assert values["v"][b0:b1].to_pylist() == groups[k]


def test_grouped_probe_counts_int_keys(ray_session, monkeypatch):
    """Integer group keys keep their type through the probe (they used to
    crash a string-typed key column); null-key rows are not counted.
    `probe_grouped` over several blocks equals a Python recount on both
    paths of the keyed merge, for string and int keys with null keys and a
    key missing from the broadcast filters."""
    import ray

    t = pa.table({"k": pa.array([1, 2, None, 1, 3], type=pa.int64()),
                  "v": pa.array(["a", "b", "c", "d", "e"])})
    f1 = BlockBloom(1024)
    f1.add_hashes(hash_arrow_array(pa.array(["a"])))
    ref = ray.put({1: f1.to_bytes(), 2: BlockBloom(1024).to_bytes()})
    out = sb.grouped_probe_counts(ref, BlockBloom.from_bytes, "k", "v")(t)
    assert out.schema.field("k").type == pa.int64()
    assert out.to_pydict() == {"k": [1, 2, 3], "n": [2, 1, 1],
                               "found": [1, 0, 0]}

    for ktype, names in ((pa.string(), ["k0", "k1", "k2", "k3", None]),
                         (pa.int64(), [10, 11, 12, 13, None])):
        n = 600
        keys = [names[(i * 7) % 5] for i in range(n)]
        vals = [f"v{i}" for i in range(n)]
        filters = {}
        for k in names[:3]:  # names[3] is absent from the filters
            f = BlockBloom(256)
            f.add_hashes(hash_arrow_array(pa.array(
                [v for kk, v in zip(keys, vals) if kk == k][::2])))
            filters[k] = f
        want: dict = {}
        for k, v in zip(keys, vals):
            if k is not None:
                hit = k in filters and bool(filters[k].find_hashes(
                    hash_arrow_array(pa.array([v])))[0])
                cnt = want.setdefault(k, [0, 0])
                cnt[0] += 1
                cnt[1] += hit
        t = pa.table({"k": pa.array(keys, type=ktype),
                      "v": pa.array(vals)})
        blocks = [t.slice(i, 100) for i in range(0, n, 100)]
        payloads = {k: f.to_bytes() for k, f in filters.items()}
        for budget in (sb.ONE_TASK_BYTES, 0):  # one task, then exchange
            monkeypatch.setattr(sb, "ONE_TASK_BYTES", budget)
            got = sb.probe_grouped(ray.data.from_arrow(blocks), payloads,
                                   BlockBloom.from_bytes, "k", "v")
            assert got["k"].tolist() == sorted(want)
            assert {k: [n_, f_] for k, n_, f_ in got.itertuples(
                index=False)} == want
            assert str(got["n"].dtype) == str(got["found"].dtype) == "int64"
