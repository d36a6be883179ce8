"""TaffyBlock conformance — byte-exact level parity with the compiled C
reference (tests/golden/taffy_block_golden.txt incl. growth), plus growth /
merge / serde properties, and the grouped build (`TaffyBlock.build_keys`)
against the sequential per-key build."""

from __future__ import annotations

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from libfilter_ray.sketch import sizing, taffy_block
from libfilter_ray.sketch.taffy_block import TaffyBlock

from conftest import rand_u64
from test_taffy_cuckoo import sm

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "taffy_block_golden.txt")


def test_golden_conformance_vs_c_reference():
    for ci, line in enumerate(open(GOLDEN)):
        parts = line.split()
        ndv, fpp, n = int(parts[0]), float(parts[1]), int(parts[2])
        cursor, ttl, last_ndv = int(parts[3]), int(parts[4]), int(parts[5])
        levels, probes = parts[6:-1], parts[-1]
        t = TaffyBlock(ndv=ndv, fpp=fpp)
        t.add_hashes(sm(0xABCD0000 + ci, n))
        assert (t.cursor, t.ttl, t.last_ndv) == (cursor, ttl, last_ndv)
        assert len(levels) == t.cursor
        for i, lv in enumerate(levels):
            nbytes, hexd = lv.split(":")
            assert t.levels[i].size_in_bytes() == int(nbytes)
            assert t.levels[i].to_bytes().hex() == hexd
        got = "".join("1" if x else "0" for x in t.find_hashes(sm(0x7777, 64)))
        assert got == probes


def test_insert_persists_across_growth(rng):
    t = TaffyBlock(ndv=100, fpp=0.01)
    keys = rand_u64(rng, 5000)
    for i in range(0, 5000, 500):
        t.add_hashes(keys[i:i + 500])
        assert t.find_hashes(keys[:i + 500]).all()
    assert t.cursor > 1  # actually grew


def test_start_empty(rng):
    t = TaffyBlock(ndv=1000, fpp=0.01)
    assert t.find_hashes(rand_u64(rng, 1 << 16)).sum() == 0


def test_fpp_budget(rng):
    """Total fpp stays within ~2x configured across growth (level budget
    6eps/i^2pi^2 sums below eps — taffy.tex:500-508)."""
    t = TaffyBlock(ndv=1000, fpp=0.01)
    t.add_hashes(rand_u64(rng, 8000))  # 3 doublings
    measured = t.find_hashes(rand_u64(rng, 1 << 18)).mean()
    assert measured < 0.02
    assert abs(t.estimated_fpp() - measured) < 0.01


def test_merge_no_false_negatives(rng):
    keys = rand_u64(rng, 6000)
    parts = [TaffyBlock(ndv=500, fpp=0.01).add_hashes(keys[i::3])
             for i in range(3)]
    acc = parts[0].clone()
    acc.merge(parts[1]).merge(parts[2])
    assert acc.find_hashes(keys).all()
    # set-level merge-order invariance on found answers for members
    acc2 = parts[2].clone()
    acc2.merge(parts[0]).merge(parts[1])
    assert acc2.find_hashes(keys).all()


def test_merge_param_mismatch():
    with pytest.raises(ValueError):
        TaffyBlock(ndv=100, fpp=0.01).merge(TaffyBlock(ndv=200, fpp=0.01))


def test_serde_roundtrip(rng):
    t = TaffyBlock(ndv=200, fpp=0.01)
    t.add_hashes(rand_u64(rng, 3000))
    u = TaffyBlock.from_bytes(t.to_bytes())
    assert u == t
    assert (u.ttl, u.last_ndv, u.counts) == (t.ttl, t.last_ndv, t.counts)
    probes = rand_u64(rng, 10000)
    assert np.array_equal(t.find_hashes(probes), u.find_hashes(probes))


def test_registered():
    from libfilter_ray.sketch import registry

    assert "taffy_block" in registry.kinds()
    assert "taffy_cuckoo" in registry.kinds()


# -- grouped build (TaffyBlock.build_keys) --------------------------------
#: (ndv, fpp) plans: ndv 0 at fpp 0.1 sits below the capacity floor
#: block_capacity(1, fpp*6/pi^2) = 1, so ndv_eff is the floor there.
PLANS = [(0, 0.1), (1, 0.01), (3, 0.1), (64, 0.01), (100, 1e-4),
         (1024, 0.01)]


def _sequential(params, hashes, bounds):
    return [TaffyBlock(**params).update(hashes[b0:b1]).to_bytes()
            for b0, b1 in zip(bounds[:-1], bounds[1:])]


def test_plans_cover_the_capacity_floor():
    ndv, fpp = PLANS[0]
    assert ndv < sizing.block_capacity(1, fpp * taffy_block._SUM)
    assert TaffyBlock(ndv=ndv, fpp=fpp)._ndv_eff == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PLANS), st.data())
def test_build_keys_equals_sequential(plan, data):
    """The grouped build's payloads are the per-key sequential build's
    bytes, for counts that fill a level exactly (ndv_eff*(2^c-1)), one
    past or short of it, single rows and arbitrary counts; for one key;
    and under a run budget small enough to cut the keys into runs."""
    params = {"ndv": plan[0], "fpp": plan[1]}
    eff = TaffyBlock(**params)._ndv_eff
    fill = st.integers(1, 4).map(lambda c: eff * ((1 << c) - 1))
    count = st.one_of(fill, fill.map(lambda n: n + 1),
                      fill.map(lambda n: n - 1).filter(bool),
                      st.just(1), st.integers(1, 3 * eff + 2))
    counts = data.draw(st.lists(count, min_size=1, max_size=12))
    budget = data.draw(st.sampled_from(
        [taffy_block.BUILD_RUN_BYTES, 1, 4096]))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    hashes = rand_u64(rng, int(bounds[-1]))
    with mock.patch.object(taffy_block, "BUILD_RUN_BYTES", budget):
        got = TaffyBlock.build_keys(params, hashes, bounds)
    assert got == _sequential(params, hashes, bounds)


def test_build_keys_zero_keys():
    empty = np.zeros(0, dtype=np.uint64)
    assert TaffyBlock.build_keys({"ndv": 64, "fpp": 0.01}, empty, [0]) == []


def test_build_keys_rejects_a_plan_that_cannot_grow():
    """ndv 0 under the capacity floor 0 plans levels of 0 keys each: the
    sequential add never finds room, the grouped build refuses."""
    with pytest.raises(ValueError):
        TaffyBlock.build_keys({"ndv": 0, "fpp": 0.01},
                              np.arange(3, dtype=np.uint64), [0, 3])


def test_build_keys_stays_within_run_budget(rng):
    """400 keys of a 2^16-ndv filter (~80 KB each, ~31 MB together) build
    with at most BUILD_RUN_BYTES (8 MiB) plus ~1 MiB of transient
    memory beyond the payloads returned; a key whose filter alone exceeds
    a small budget is built alone, with the same bytes."""
    params = {"ndv": 1 << 16, "fpp": 0.01}
    counts = np.tile([1, 3, 2], 134)[:400]
    bounds = np.concatenate([[0], np.cumsum(counts)])
    hashes = rand_u64(rng, int(bounds[-1]))
    TaffyBlock.build_keys(params, hashes, bounds[:2])  # warm the plan cache
    tracemalloc.start()
    try:
        got = TaffyBlock.build_keys(params, hashes, bounds)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    total = sum(map(len, got))
    assert total > 3 * taffy_block.BUILD_RUN_BYTES
    assert peak - held <= taffy_block.BUILD_RUN_BYTES + (1 << 20)
    with mock.patch.object(taffy_block, "BUILD_RUN_BYTES", 1024):
        small = TaffyBlock.build_keys(params, hashes, bounds[:6])
    assert small == got[:5] == _sequential(params, hashes, bounds[:6])
