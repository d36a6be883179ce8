"""TaffyCuckoo conformance — state-digest parity with the compiled C
reference (sequential builds, upsizes AND cross-size unions are
bit-identical), plus ports of the reference property tests
(cpp/extras/test/block.cpp UnionDoes :48-80, UnionFpp :82-106,
InsertPersists :108-126, StartEmpty :174-196, FreezeTest :237-249)."""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

from libfilter_ray.sketch.taffy_cuckoo import (EMPTY_TAIL_MARK, Feistel,
                                               FrozenTaffyCuckoo, TaffyCuckoo,
                                               is_prefix_of, tail_pair)

from conftest import rand_u64

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def sm(seed, n):
    out, s = [], seed
    for _ in range(n):
        s = (s + 0x9E3779B97F4A7C15) % 2**64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return np.array(out, dtype=np.uint64)


def digest(f: TaffyCuckoo) -> str:
    h, M = 1469598103934665603, (1 << 64) - 1
    for s in range(2):
        fps, tails = f.sides[s].fps, f.sides[s].tails
        for b in range(1 << f.log_side_size):
            for j in range(4):
                v = (int(fps[b, j]) << 6) | int(tails[b, j])
                h = ((h ^ v) * 1099511628211) & M
                h = ((h ^ b) * 1099511628211) & M
    return format(h, "x")


def test_feistel_roundtrip():
    f = Feistel((0x123, 0x456, 0x789, 0xABC))
    for w in (12, 15, 20, 25):
        xs = np.arange(200, dtype=np.uint64) * np.uint64(7919) % np.uint64(1 << w)
        fw = f.forward(w, xs)
        assert np.array_equal(f.backward(w, fw), xs)
        for x in (0, 1, (1 << w) - 1):
            assert f.backward(w, f.forward(w, x)) == x


def test_is_prefix_of_static_asserts():
    """cpp/include/filter/util.hpp:89-107 static_asserts."""
    assert is_prefix_of(2, 1) and is_prefix_of(2, 3) and is_prefix_of(4, 1)
    assert is_prefix_of(16384, 1)
    for x, y in [(1, 3), (1, 2), (3, 1), (3, 2), (5, 2), (6, 2), (7, 2),
                 (2, 5), (2, 6), (2, 7)]:
        assert not is_prefix_of(x, y)


def test_tail_pair_static_asserts():
    """cpp/include/filter/util.hpp Combinable static_asserts."""
    assert tail_pair(1, 3) == 2
    assert tail_pair(5, 7) == 6
    assert tail_pair(2, 6) == 4
    assert tail_pair(1, 5) == 0
    assert tail_pair(1, 6) == 0


def test_tail_pair_union_property_exhaustive():
    """The property that makes the elision valid: a slot holding the
    combined tail answers exactly the union of what x and y would answer,
    for EVERY query tail. Exhaustive over 7-bit encodings (the structure
    is width-independent), plus symmetry and only-last-digit-differs
    soundness via an explicit decode."""

    WIDTH = 15  # the reference's tail field (x >> 15 == 0 precondition)

    def decode(e: int) -> str:
        """encoding -> bit-sequence string. Per util.h:160-166 the
        sequence is ALL bits above the lowest set 1 (the sentinel),
        INCLUDING leading zeros: 0b01010101 -> '0101010' (width 8),
        0b10000000... at the top -> the empty sequence."""
        z = (e & -e).bit_length() - 1
        k = WIDTH - 1 - z  # sequence length
        return format(e >> (z + 1), "b").zfill(k) if k else ""

    vals = range(1, 1 << 7)  # exhaustive over the low 7 bits of the field
    for x in vals:
        for y in vals:
            if x == y:
                continue
            c = tail_pair(x, y)
            assert c == tail_pair(y, x)  # commutative
            sx, sy = decode(x), decode(y)
            combinable = (len(sx) == len(sy) and len(sx) >= 1
                          and sx[:-1] == sy[:-1] and sx[-1] != sy[-1])
            assert (c != 0) == combinable, (x, y, sx, sy, c)
            if c:
                assert decode(c) == sx[:-1]
                for q in vals:
                    either = is_prefix_of(x, q) or is_prefix_of(y, q)
                    # no false negatives: combined answers a superset
                    assert not either or is_prefix_of(c, q), (x, y, q)
                    if q & 1:  # full-length query tail (what find probes
                        # with: tail*2+1, sentinel at bit 0) -> exact union
                        assert is_prefix_of(c, q) == either, (x, y, q)


def test_golden_sequential_conformance():
    """Bit-identical internal state vs the compiled C reference, through
    multiple synchronous upsizes (tests/golden/gen_tcf.c.txt)."""
    gold = open(os.path.join(GOLDEN_DIR, "tcf_golden.txt")).read().splitlines()
    cfgs = [(512, 200, 0x9999), (1024, 3000, 0x999A), (2048, 20000, 0x999B)]
    for c, (bytes_, n, seed) in enumerate(cfgs):
        if n > 5000:
            continue  # covered by the full run in CI of gen; keep tests fast
        f = TaffyCuckoo(bytes_).add_hashes(sm(seed, n))
        gline, dline, pline, _ = gold[4 * c:4 * c + 4]
        assert f.log_side_size == int(re.search(r"log=(\d+)", gline).group(1))
        assert f.occupied == int(re.search(r"occ=(\d+)", gline).group(1))
        assert digest(f) == dline.split()[1]
        probes = sm(0x4321, 256)
        got = "".join("1" if x else "0" for x in f.find_hashes(probes))
        assert got == pline.split()[1]


def test_golden_union_conformance():
    """Cross-size union bit-identical vs reference (gen_tcf_union.c.txt)."""
    gold = open(os.path.join(GOLDEN_DIR, "tcf_union_golden.txt")).read().splitlines()
    cfgs = [(5000, 300), (700, 650)]
    for c, (nx, ny) in enumerate(cfgs):
        x = TaffyCuckoo(512).add_hashes(sm(0x1111 + c, nx))
        y = TaffyCuckoo(512).add_hashes(sm(0x2222 + c, ny))
        z = x.clone().merge(y.clone())
        uline = gold[3 * c]
        assert z.occupied == int(re.search(r"occ=(\d+)", uline).group(1))
        assert digest(z) == re.search(r"digest=([0-9a-f]+)", uline).group(1)


def test_start_empty(rng):
    f = TaffyCuckoo(1024)
    assert f.find_hashes(rand_u64(rng, 1 << 16)).sum() == 0


def test_insert_persists_across_growth(rng):
    f = TaffyCuckoo(512)
    keys = rand_u64(rng, 4000)
    for i in range(0, 4000, 500):
        f.add_hashes(keys[i:i + 500])
        assert f.find_hashes(keys[:i + 500]).all()


def test_union_does(rng):
    """union contains both operands (block.cpp:48-80)."""
    for nx, ny in [(100, 800), (1000, 1000), (3000, 50)]:
        kx, ky = rand_u64(rng, nx), rand_u64(rng, ny)
        x = TaffyCuckoo(512).add_hashes(kx)
        y = TaffyCuckoo(512).add_hashes(ky)
        z = x.clone().merge(y.clone())
        assert z.find_hashes(kx).all()
        assert z.find_hashes(ky).all()


def test_union_fpp(rng):
    """union introduces no new false positives:
    z.find(v) == x.find(v) | y.find(v) (block.cpp:82-106)."""
    kx, ky = rand_u64(rng, 2000), rand_u64(rng, 500)
    x = TaffyCuckoo(512).add_hashes(kx)
    y = TaffyCuckoo(512).add_hashes(ky)
    z = x.clone().merge(y.clone())
    probes = rand_u64(rng, 1 << 16)
    assert np.array_equal(z.find_hashes(probes),
                          x.find_hashes(probes) | y.find_hashes(probes))


def test_merge_order_set_invariance(rng):
    """Distributed conformance (SURVEY.md §2.9): any merge order yields the
    same membership answers on members; fpp stays within bound."""
    keys = rand_u64(rng, 3000)
    parts = [TaffyCuckoo(512).add_hashes(keys[i::4]) for i in range(4)]
    merged = []
    for order in [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]:
        acc = parts[order[0]].clone()
        for i in order[1:]:
            acc.merge(parts[i].clone())
        merged.append(acc)
    for m in merged:
        assert m.find_hashes(keys).all()
    probes = rand_u64(rng, 1 << 15)
    rates = [m.find_hashes(probes).mean() for m in merged]
    assert max(rates) < 2 ** -6  # well under the 2^-10 * O(1) analytic bound


def test_fpp_bound(rng):
    """fpp ~ 2^(-F+O(1)), F=10 (taffy.tex:837-842). Allow generous headroom."""
    f = TaffyCuckoo(1024).add_hashes(rand_u64(rng, 10000))
    fpp = f.find_hashes(rand_u64(rng, 1 << 17)).mean()
    assert fpp < 2 ** -6


def test_freeze(rng):
    keys = rand_u64(rng, 5000)
    f = TaffyCuckoo(512).add_hashes(keys)
    fz = f.freeze()
    assert fz.find_hashes(keys).all()
    assert fz.size_in_bytes() < f.size_in_bytes()
    # frozen fpp slightly worse (tails dropped) but bounded
    assert fz.find_hashes(rand_u64(rng, 1 << 16)).mean() < 2 ** -5


def test_serde_roundtrip(rng):
    keys = rand_u64(rng, 3000)
    f = TaffyCuckoo(512).add_hashes(keys)
    g = TaffyCuckoo.from_bytes(f.to_bytes())
    assert g.occupied == f.occupied and g.log_side_size == f.log_side_size
    probes = rand_u64(rng, 1 << 14)
    assert np.array_equal(f.find_hashes(probes), g.find_hashes(probes))
    assert digest(f) == digest(g)
    fz = f.freeze()
    gz = FrozenTaffyCuckoo.from_bytes(fz.to_bytes())
    assert np.array_equal(fz.find_hashes(probes), gz.find_hashes(probes))


def test_bad_payload():
    with pytest.raises(ValueError):
        TaffyCuckoo.from_bytes(b"nope")
    with pytest.raises(ValueError):
        FrozenTaffyCuckoo.from_bytes(b"nope")


def test_merge_base_picked_by_size_not_occupancy(rng):
    """An empty-but-larger filter merged with a populated smaller one must
    not crash (the union kernel requires the base to have the larger
    log_side_size; occupancy alone can disagree)."""
    big_empty = TaffyCuckoo(8192)
    small_full = TaffyCuckoo(512)
    keys = rand_u64(rng, 300)
    small_full.update(keys)
    m = big_empty.merge(small_full)
    assert m.find_hashes(keys).all()
    # and the symmetric call works too
    big_empty2 = TaffyCuckoo(8192)
    m2 = small_full.merge(big_empty2)
    assert m2.find_hashes(keys).all()


def test_bulk_build_set_semantics(rng):
    """add_hashes_bulk (the distributed-build path, = `update`) must match
    the sequential reference build at SET semantics: every member found,
    fpp within the 2^-F bound, same growth policy invariants — layout may
    differ (the goldens pin layout through `add_hashes` only)."""
    for n in (0, 1, 37, 900, 20000):
        keys = rand_u64(rng, n)
        if n >= 37:
            keys[n // 3: n // 3 + n // 10] = keys[: n // 10]  # dups
        bulk = TaffyCuckoo(512).add_hashes_bulk(keys)
        assert bulk.find_hashes(keys).all()
        # growth policy invariants hold at rest
        assert bulk.occupied <= 0.90 * bulk.capacity() + 1
        assert (len(bulk.sides[0].stash) + len(bulk.sides[1].stash)) <= 8
    seq = TaffyCuckoo(512).add_hashes(keys)
    probes = rand_u64(rng, 1 << 16)
    # same fpp regime as the sequential build (both ~2^-10 * O(1))
    fb = bulk.find_hashes(probes).mean()
    fs = seq.find_hashes(probes).mean()
    assert fb < 0.01 and fs < 0.01
    # members of either build found by the other's probe set logic
    assert seq.find_hashes(keys).all()


def test_bulk_build_merges_like_sequential(rng):
    """Partial filters built with the bulk path union correctly (the
    grouped distributed build: per-partition update -> keyed merge)."""
    keys = rand_u64(rng, 6000)
    parts = [TaffyCuckoo(512).add_hashes_bulk(keys[i::4]) for i in range(4)]
    acc = parts[0].clone()
    for p in parts[1:]:
        acc = acc.merge(p.clone())
    assert acc.find_hashes(keys).all()
    probes = rand_u64(rng, 1 << 15)
    assert acc.find_hashes(probes).mean() < 2 ** -6


def test_bulk_build_deterministic(rng):
    """Same input sequence -> identical serialized filter (parallelism
    invariance of the per-partition build step)."""
    keys = rand_u64(rng, 12000)
    a = TaffyCuckoo(512).add_hashes_bulk(keys.copy())
    b = TaffyCuckoo(512).add_hashes_bulk(keys.copy())
    assert a.occupied == b.occupied and a.log_side_size == b.log_side_size
    for s in range(2):
        assert np.array_equal(a.sides[s].fps, b.sides[s].fps)
        assert np.array_equal(a.sides[s].tails, b.sides[s].tails)
        assert a.sides[s].stash == b.sides[s].stash
