"""Hash-stage tests: determinism, distribution, arrow-type coverage."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_MASK64 = (1 << 64) - 1


def _reference_hash(row, seed):
    """Scalar reference of hash_arrow_array for one string/binary row:
    sum (b + 0x101) * P^(e-1-i) mod 2^64 (Horner), XOR length * gamma,
    then splitmix64 with the seed's increment; a null is `_null_hash`."""
    from libfilter_ray.sketch import hashing

    if row is None:
        return int(hashing._null_hash(seed))
    if isinstance(row, str):
        row = row.encode()
    h = 0
    for b in row:
        h = (h * 0x100000001B3 + b + 0x101) & _MASK64
    z = (h ^ (len(row) * 0x9E3779B97F4A7C15)) & _MASK64
    z = (z + seed * 0x9E3779B97F4A7C15 + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _layouts(rows):
    """The same rows as string, binary, large_binary, a slice of a padded
    array and a chunked array."""
    as_bytes = [r if r is None else r.encode() for r in rows]
    padded = pa.array(["pad", *rows, "tail"], type=pa.large_string())
    half = len(rows) // 2
    return [pa.array(rows, type=pa.string()),
            pa.array(as_bytes, type=pa.binary()),
            pa.array(as_bytes, type=pa.large_binary()),
            padded.slice(1, len(rows)),
            pa.chunked_array([pa.array(rows[:half], type=pa.string()),
                              pa.array(rows[half:], type=pa.string())])]


def test_hash_matches_scalar_reference_at_group_edges(monkeypatch):
    """Every row length, at every group width, hashes as the scalar
    reference: empty rows, rows one byte either side of a group, a row
    spanning several groups, nulls, and sliced/chunked layouts."""
    from libfilter_ray.sketch import hashing

    alphabet = "abcdefghijklmnopqrstuvwxyz" * 8
    seed = 123
    for g in (1, 7, 257, hashing.GROUP_BYTES):
        lengths = [0, 1, g - 1, 0, g, g + 1, 3 * g + 7, 2, 0, 300]
        rows = [(alphabet[n % 26:] * (n // 100 + 1))[:n] for n in lengths]
        assert [len(r) for r in rows] == lengths
        rows[3] = None
        rows.append(None)
        want = [_reference_hash(r, seed) for r in rows]
        monkeypatch.setattr(hashing, "GROUP_BYTES", g)
        for arr in _layouts(rows):
            got = hashing.hash_arrow_array(arr, seed=seed)
            assert got.tolist() == want, (g, arr.type)


@given(rows=st.lists(st.one_of(st.none(), st.text(max_size=40)),
                     max_size=60),
       g=st.sampled_from([1, 7, 257, 64 << 10]),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_hash_matches_scalar_reference_property(rows, g, seed):
    from libfilter_ray.sketch import hashing

    want = [_reference_hash(r, seed) for r in rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hashing, "GROUP_BYTES", g)
        for arr in _layouts(rows):
            assert hashing.hash_arrow_array(arr, seed=seed).tolist() == want


# hash_arrow_array outputs pinned before the row-group kernel replaced the
# whole-buffer one: every filter and sketch digest depends on them
_GOLDEN_ROWS = [b"", b"a", b"https://example.com/", None,
                "h\u00e9llo w\u00f6rld".encode(), b"\x00\xff\x00",
                bytes(range(256)) * 800, b"x" * 65536, b"y" * 65537,
                b"The quick brown fox jumps over the lazy dog"]
_GOLDEN = {
    DEFAULT_SEED: [
        0xD46A65B921B4BF15, 0xB1D56185BD1F12D6, 0x6A1D0D2DC896D12B,
        0xC2E628550AEA0672, 0x5EF0A96CBB88E0B9, 0xE33F66C985916D5A,
        0x9C7E6382027ED8C4, 0x3BB2DC28F6B1E30F, 0xE2FCDC30E13552A0,
        0x73CE3265705D6E76],
    7: [
        0xE099EC6CD7363CA5, 0x85CC650B6E168EE6, 0x7A92D55081D5B4A3,
        0xC176D1863B1C5400, 0xB3C6CFF45089F029, 0x8B6F298A84C7712D,
        0xD53D2FF0C5B92218, 0x9AC419B488BB0B1D, 0x768F9255ABD5415E,
        0x92BADFDBD2BA5D59],
}


def test_golden_hash_values():
    arr = pa.array(_GOLDEN_ROWS, type=pa.large_binary())
    for seed, want in _GOLDEN.items():
        assert hash_arrow_array(arr, seed=seed).tolist() == want, seed
    ints = pa.array([0, -1, 2**62 + 1, None], type=pa.int64())
    assert hash_arrow_array(ints).tolist() == [
        0xD46A65B921B4BF15, 0x8246101DF485E84D, 0x1CB529C99A218030,
        0xC2E628550AEA0672]


def test_hash_memory_is_bounded():
    """Hashing a ~32 MB string column keeps the traced numpy peak far below
    the input size: the kernel's temporaries are per group and per row,
    not per input byte."""
    import tracemalloc

    gen = np.random.default_rng(11)
    lengths = gen.integers(0, 512, 125_000)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    data = gen.integers(32, 127, int(offsets[-1]), dtype=np.uint8)
    arr = pa.Array.from_buffers(pa.string(), len(lengths),
                                [None, pa.py_buffer(offsets),
                                 pa.py_buffer(data)])
    del data
    assert arr.nbytes > 30 << 20
    tracemalloc.start()
    try:
        hash_arrow_array(arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


def test_sql_splitmix_chain_bit_exact(rng):
    """The shared SQL CTE chain (queries._sql_splitmix_chain) reproduces
    sketch/hashing.py:splitmix64 bit-for-bit for random inputs and the
    seeds every oracle uses — the foundation the keep-best oracle stands
    on."""
    import duckdb

    from libfilter_ray.pipelines.queries import (_BEST_SEED, _SM_ADD_BEST,
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
                            (_SM_ADD_BEST, _BEST_SEED)):
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


def test_flagship_absent_hashes_match_python_urls():
    """The flagship's Arrow-built absent-probe urls hash bit-identically to
    the same urls built as Python strings."""
    from libfilter_ray.pipelines.flagship import _absent_hashes

    for n in (0, 1, 1000):
        want = hash_arrow_array(pa.array(
            [f"https://no-such.example.net/{i}" for i in range(n)],
            type=pa.string()))
        assert np.array_equal(_absent_hashes(n), want), n
