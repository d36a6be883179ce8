"""BlockBloom conformance tests — ports of the reference's property tests.

Reference tests: cpp/extras/test/block.cpp (StartEmpty :174-196, InsertPersists
:108-126, InsertFalsePositivePersists :129-149, EqualStayEqual :218-235,
SerDeTest :251-261), java FilterTest.java:69-78 (fpp bound), plus golden
byte-level conformance against the compiled C reference
(tests/golden/block_golden.txt, generated by tests/golden/gen_block.c.txt).
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from libfilter_ray.sketch import sizing
from libfilter_ray.sketch.block_bloom import (SEED32, BlockBloom,
                                              _bucket_index, _masks)

from conftest import rand_u64

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "block_golden.txt")


def splitmix_stream(seed: int, n: int) -> np.ndarray:
    out, s = [], seed
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) % 2**64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return np.array(out, dtype=np.uint64)


def test_golden_conformance_vs_c_reference():
    """Byte-exact serialization + identical probe answers vs compiled reference."""
    sizes = [32, 64, 1344, 4096]
    with open(GOLDEN) as fh:
        for line in fh:
            size, nbytes, n, hexdump, probes = line.split()
            size, nbytes, n = int(size), int(nbytes), int(n)
            f = BlockBloom(size)
            assert f.size_in_bytes() == nbytes
            f.add_hashes(splitmix_stream(0x1234ABCD + sizes.index(size), n))
            assert f.to_bytes().hex() == hexdump
            got = "".join("1" if b else "0"
                          for b in f.find_hashes(splitmix_stream(0x5555, 64)))
            assert got == probes


def test_start_empty(rng):
    f = BlockBloom(2000)
    probes = rand_u64(rng, 1 << 18)
    assert f.find_hashes(probes).sum() == 0


def test_insert_persists(rng):
    f = BlockBloom(ndv=2000, fpp=0.01)
    keys = rand_u64(rng, 2000)
    for i in range(0, 2000, 250):  # incremental: all previous keys still found
        f.add_hashes(keys[i:i + 250])
        assert f.find_hashes(keys[:i + 250]).all()


def test_false_positive_persists(rng):
    f = BlockBloom(512)
    keys = rand_u64(rng, 600)
    probes = rand_u64(rng, 4096)
    fp = np.zeros(len(probes), dtype=bool)
    for i in range(0, 600, 100):
        f.add_hashes(keys[i:i + 100])
        now = f.find_hashes(probes)
        assert now[fp].all(), "a false positive disappeared"
        fp = now


def test_fpp_bound(rng):
    """Measured fpp < 2x configured (FilterTest.java:69-78 bound)."""
    f = BlockBloom(ndv=20000, fpp=0.01)
    f.add_hashes(rand_u64(rng, 20000))
    measured = f.find_hashes(rand_u64(rng, 1 << 20)).mean()
    assert measured < 0.02


def test_serde_roundtrip(rng):
    for size in (32, 100, 1 << 12):
        f = BlockBloom(size)
        f.add_hashes(rand_u64(rng, 100))
        g = BlockBloom.from_bytes(f.to_bytes())
        assert g == f
        probes = rand_u64(rng, 1000)
        assert np.array_equal(f.find_hashes(probes), g.find_hashes(probes))


def test_int_serde_roundtrip(rng):
    # the c/lib/block.c:47-53 Java-interop variant: signed-int32 lane
    # words, bit-identical to the byte dump on a little-endian host
    for size in (32, 100, 1 << 12):
        f = BlockBloom(size)
        f.add_hashes(rand_u64(rng, 5000))  # dense enough for negative i32s
        ints = f.to_ints()
        assert ints.dtype == np.int32
        if size >= 1 << 12:
            assert (ints < 0).any()  # top-bit lane words reinterpret signed
        g = BlockBloom.from_bytes(f.to_bytes())
        h = BlockBloom.from_ints(ints)
        assert h == f == g
        # int dump and byte dump are the same bit pattern
        assert np.frombuffer(f.to_bytes(), dtype="<i4").tolist() \
            == ints.tolist()
        # plain Python list input works too (the interop case)
        assert BlockBloom.from_ints(ints.tolist()) == f


def test_int_serde_rejects_partial_bucket():
    import pytest

    f = BlockBloom(64)
    with pytest.raises(ValueError):
        BlockBloom.from_ints(f.to_ints()[:-1])
    with pytest.raises(ValueError):
        BlockBloom.from_ints([])


def test_equal_stay_equal(rng):
    keys = rand_u64(rng, 500)
    a, b = BlockBloom(1024), BlockBloom(1024)
    a.add_hashes(keys)
    b.add_hashes(keys[::-1].copy())  # different order, same set
    assert a == b
    assert a.clone() == a


@pytest.mark.parametrize("n", [1, 18, 100_000])
def test_kernels_wrap_without_warnings(rng, n):
    """The u32 lane multiply wraps with no errstate guard: numpy never warns
    on integer ARRAY overflow. With warnings raised as errors, the masks and
    bucket indices equal a reference computed in u64, where the products
    cannot overflow, and reduced mod 2^32."""
    h = rand_u64(rng, n)
    nb = 12345
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        masks, idx = _masks(h), _bucket_index(h, nb)
        found = BlockBloom(nb * 32).add_hashes(h).find_hashes(h)
    prod = ((h & 0xFFFFFFFF)[:, None] * SEED32.astype(np.uint64)[None, :]
            & 0xFFFFFFFF)
    assert np.array_equal(masks,
                          (np.uint64(1) << (prod >> 27)).astype(np.uint32))
    assert idx.tolist() == [((int(x) >> 32) * nb) >> 32 for x in h]
    assert found.all()


def test_merge_order_invariance(rng):
    """OR-merge is commutative/associative/idempotent -> byte-identical result
    for any partitioning/permutation of the input (SURVEY.md §2.9)."""
    keys = rand_u64(rng, 3000)
    whole = BlockBloom(4096).add_hashes(keys)
    parts = [BlockBloom(4096).add_hashes(keys[i::7]) for i in range(7)]
    for perm in (range(7), reversed(range(7)), np.random.default_rng(1).permutation(7)):
        acc = BlockBloom(4096)
        for i in perm:
            acc.merge(parts[i])
        assert acc == whole
    # idempotent: merging a part twice changes nothing
    acc.merge(parts[0])
    assert acc == whole


def test_merge_size_mismatch_raises():
    with pytest.raises(ValueError):
        BlockBloom(32).merge(BlockBloom(64))


def test_sizing_matches_model():
    b = sizing.block_bytes_needed(1000, 0.01)
    assert b % 32 == 0
    assert sizing.block_fpp(1000, b) <= 0.01
    assert sizing.block_fpp(1000, b - 32) > 0.01 or b == 32
    cap = sizing.block_capacity(b, 0.01)
    assert sizing.block_fpp(cap, b) < 0.01 <= sizing.block_fpp(cap + 1, b)
    assert sizing.block_fpp(0, 100) == 0.0
    assert sizing.block_fpp(100, 0) == 1.0


def test_intersect_superset_semantics():
    """Every key added to BOTH filters survives the AND; keys on one
    side only are (usually) dropped; AND is commutative byte-level and
    idempotent. The reference leaves intersection as an explicit TODO
    (c/lib/block.c:68) — AND over the identical layout completes it."""
    rng = np.random.default_rng(17)
    both = rng.integers(0, 2**64, 500, dtype=np.uint64)
    only_a = rng.integers(0, 2**64, 500, dtype=np.uint64)
    only_b = rng.integers(0, 2**64, 500, dtype=np.uint64)
    B = sizing.block_bytes_needed(1000, 0.001)
    fa = BlockBloom(B).add_hashes(both).add_hashes(only_a)
    fb = BlockBloom(B).add_hashes(both).add_hashes(only_b)
    fi = fa.clone().intersect(fb)
    assert fi.find_hashes(both).all()          # no false negatives
    # one-side keys mostly drop (fpp-bounded leakage only)
    assert fi.find_hashes(only_a).mean() < 0.05
    assert fi.find_hashes(only_b).mean() < 0.05
    # commutative at the byte level; idempotent
    assert fb.clone().intersect(fa) == fi
    assert fi.clone().intersect(fi) == fi
    # intersect then probe is a superset of the exact intersection:
    # A-only keys found by fi must also be found by BOTH sides
    leak = fi.find_hashes(only_a)
    assert (fb.find_hashes(only_a) | ~leak).all()


def test_intersect_size_mismatch_raises():
    with pytest.raises(ValueError):
        BlockBloom(32).intersect(BlockBloom(64))
