"""Hash-stage tests: determinism, distribution, arrow-type coverage."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from libfilter_ray.sketch.hashing import (DEFAULT_SEED, hash_arrow_array,
                                          hash_u64, splitmix64)


def test_deterministic_and_seeded():
    arr = pa.array(["alpha", "beta", "gamma"])
    a = hash_arrow_array(arr)
    b = hash_arrow_array(arr)
    assert np.array_equal(a, b)
    c = hash_arrow_array(arr, seed=123)
    assert not np.array_equal(a, c)


def test_equal_values_equal_hashes_across_layouts():
    vals = ["x", "yy", "zzz", "x"]
    plain = hash_arrow_array(pa.array(vals))
    large = hash_arrow_array(pa.array(vals, type=pa.large_string()))
    binary = hash_arrow_array(pa.array([v.encode() for v in vals], type=pa.binary()))
    chunked = hash_arrow_array(pa.chunked_array([pa.array(vals[:2]), pa.array(vals[2:])]))
    sliced = hash_arrow_array(pa.array(["pad"] + vals).slice(1, 4))
    assert np.array_equal(plain, large)
    assert np.array_equal(plain, binary)
    assert np.array_equal(plain, chunked)
    assert np.array_equal(plain, sliced)
    assert plain[0] == plain[3]


def test_prefix_suffix_no_trivial_collisions():
    vals = ["a", "aa", "aaa", "ab", "ba", "", "b", "\x00", "\x00\x00"]
    hs = hash_arrow_array(pa.array(vals))
    assert len(set(hs.tolist())) == len(vals)


def test_uniformity():
    n = 200_000
    hs = hash_u64(np.arange(n, dtype=np.uint64))
    # top byte should be near-uniform: loose dispersion check
    counts = np.bincount((hs >> np.uint64(56)).astype(np.int64), minlength=256)
    assert counts.std() / counts.mean() < 0.1
    # low bit balance
    assert abs((hs & np.uint64(1)).mean() - 0.5) < 0.01


def test_integer_hashing():
    a = hash_arrow_array(pa.array([1, 2, 3], type=pa.int64()))
    b = hash_arrow_array(pa.array([1, 2, 3], type=pa.int32()))
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 3


def test_nulls_fixed_sentinel():
    hs = hash_arrow_array(pa.array(["a", None, None]))
    assert hs[1] == hs[2]
    assert hs[0] != hs[1]


def test_splitmix64_known_vector():
    # Reference vector: splitmix64 with state seeded so first output for
    # state=0 gamma-step is mix(0x9E3779B97F4A7C15).
    out = splitmix64(np.array([0], dtype=np.uint64), seed=0)
    assert out.dtype == np.uint64


def test_unhashable_type_raises():
    with pytest.raises(TypeError):
        hash_arrow_array(pa.array([[1.0, 2.0]]))


def test_int_hash_with_nulls_preserves_large_values():
    """A null in an int64 column must not route non-null values through
    float64 (which silently rounds |v| > 2^53)."""
    import pyarrow as pa

    from libfilter_ray.sketch.hashing import hash_arrow_array

    big = 2**62 + 1
    with_null = pa.array([big, None, 7], type=pa.int64())
    without = pa.array([big, 7], type=pa.int64())
    h1 = hash_arrow_array(with_null)
    h2 = hash_arrow_array(without)
    assert h1[0] == h2[0]  # would differ if rounded through float64
    assert h1[2] == h2[1]


def test_null_sentinel_distinct_from_any_int():
    """NULL's hash must not collide with the hash of any literal value —
    in particular not 0xDEAD (57005), the old sentinel's pre-image."""
    import pyarrow as pa

    from libfilter_ray.sketch.hashing import hash_arrow_array

    h = hash_arrow_array(pa.array([None, 0xDEAD, 0], type=pa.int64()))
    assert h[0] != h[1]
    assert h[0] != h[2]


def test_hash_buffer_chunked_matches_single_pass(monkeypatch, rng):
    """Byte-bounded chunked hashing is bit-identical to one pass (the
    polynomial hash is translation-invariant: Q = P^-1 mod 2^64)."""
    import numpy as np
    import pyarrow as pa

    from libfilter_ray.sketch import hashing

    texts = ["".join(chr(97 + c) for c in rng.integers(0, 26, int(L)))
             for L in rng.integers(0, 200, 300)]
    arr = pa.array(texts)
    want = hashing.hash_arrow_array(arr, seed=123)
    monkeypatch.setattr(hashing, "_HASH_CHUNK_BYTES", 257)
    got = hashing.hash_arrow_array(arr, seed=123)
    assert np.array_equal(want, got)
    # single row larger than the chunk bound still hashes correctly
    big = pa.array(["x" * 5000, "y"])
    monkeypatch.setattr(hashing, "_HASH_CHUNK_BYTES", 64 << 20)
    w2 = hashing.hash_arrow_array(big, seed=9)
    monkeypatch.setattr(hashing, "_HASH_CHUNK_BYTES", 100)
    assert np.array_equal(w2, hashing.hash_arrow_array(big, seed=9))


def test_sql_splitmix_chain_bit_exact(rng):
    """The shared SQL CTE chain (queries._sql_splitmix_chain) reproduces
    sketch/hashing.py:splitmix64 bit-for-bit for random inputs and the
    seeds every oracle uses — the foundation the heavy-hitter, shuffle
    and keep-best oracles stand on."""
    import duckdb

    from libfilter_ray.pipelines.queries import (_SM_ADD_ZIPF,
                                                 _sql_splitmix_chain)
    from libfilter_ray.sketch.hashing import DEFAULT_SEED, splitmix64

    xs = np.concatenate([
        rng.integers(0, 2**63, 500, dtype=np.uint64),
        np.array([0, 1, 2**63 - 1], dtype=np.uint64),
    ])
    con = duckdb.connect()
    con.register("tin", __import__("pandas").DataFrame(
        {"x": xs.astype(np.int64)}))  # int64 view, like parquet ids
    sm_add_default = (DEFAULT_SEED * 0x9E3779B97F4A7C15 + 1) % 2**64
    for add_const, seed in ((sm_add_default, DEFAULT_SEED),
                            (_SM_ADD_ZIPF, 0x21BF)):
        sql = ("WITH " + _sql_splitmix_chain("c", "tin", "x", add_const)
               + " SELECT h FROM c3")
        got = con.sql(sql).df()["h"].to_numpy().astype(np.uint64)
        want = splitmix64(xs, seed=seed)
        assert np.array_equal(got, want), add_const


def test_sliced_array_hashes_only_its_own_bytes(rng):
    """A zero-copy slice hashes exactly as the matching rows of the whole
    array, and its byte view covers only the slice's own span (not the
    whole value buffer)."""
    import numpy as np
    import pyarrow as pa

    from libfilter_ray.sketch import hashing

    texts = ["".join(chr(97 + c) for c in rng.integers(0, 26, int(L)))
             for L in rng.integers(0, 40, 200)]
    texts[7] = None
    for typ in (pa.string(), pa.large_string(), pa.binary()):
        arr = pa.array(texts, type=typ)
        whole = hashing.hash_arrow_array(arr, seed=5)
        for a, b in [(0, 1), (0, 200), (3, 9), (7, 8), (50, 50),
                     (199, 200), *rng.integers(0, 201, (20, 2)).tolist()]:
            a, b = min(a, b), max(a, b)
            part = arr.slice(a, b - a)
            assert np.array_equal(hashing.hash_arrow_array(part, seed=5),
                                  whole[a:b])
            data, starts, ends = hashing._binary_array_parts(part)
            span = sum(len(t or "") for t in texts[a:b])
            assert len(data) == span
            assert (b == a) or (starts[0] == 0 and ends[-1] == span)
