"""The Putze sum (`sizing.block_fpp_detail`) against the reference's
10,000-term loop (c/lib/util.c:5-34): the sum that starts at the last
term that can be nonzero must be bit-identical, and so must every filter
size searched from it, over the level plans of taffy block filters."""

from __future__ import annotations

import functools
import math

from libfilter_ray.sketch import sizing
from libfilter_ray.sketch.taffy_block import _SUM

FPPS = (1e-4, 1e-3, 1e-2, 0.1)
MAX_NDV = 1 << 20


def _ref_term(i, lam, loglam, log1collide, word_bits=32, bucket_words=8):
    logp = i * loglam - lam - math.lgamma(i + 1)
    base = 1.0 - (1.0 - 1.0 / word_bits) ** i
    logfinner = bucket_words * (math.log(base) if base > 0 else -math.inf)
    logcollide = math.log(i) + log1collide if i > 0 else -math.inf
    return math.exp(logp + logfinner) + math.exp(logp + logcollide)


def _ref_fpp(ndv, bytes_, word_bits=32, bucket_words=8, hash_bits=32):
    """The reference's sum: every one of the 10,000 terms, i descending."""
    if ndv == 0:
        return 0.0
    if bytes_ <= 0:
        return 1.0
    if ndv / (bytes_ * 8) > 3:
        return 1.0
    result = 0.0
    lam = bucket_words * word_bits / ((bytes_ * 8) / ndv)
    loglam = math.log(lam)
    log1collide = -hash_bits * math.log(2.0)
    max_j = 10000
    for j in range(max_j):
        i = max_j - 1 - j
        result += _ref_term(i, lam, loglam, log1collide, word_bits,
                            bucket_words)
    return min(result, 1.0)


@functools.lru_cache(maxsize=1)
def _plan_probes():
    """Every (ndv, bytes) pair the size searches probe for the taffy level
    plans of ndv 1, 16, ..., 2^20 at FPPS (levels up to 2^20 keys), and for
    each plan's block_capacity(1, .) floor."""
    probes = set()

    def record(ndv, bytes_):
        probes.add((ndv, bytes_))
        return sizing.block_fpp_detail(ndv, bytes_)

    orig = sizing.block_fpp
    sizing.block_fpp = record
    try:
        for fpp in FPPS:
            floor = sizing.block_capacity(1, fpp * _SUM)
            for k in range(0, 21, 4):
                ndv_eff, x = max(1 << k, floor), 0
                while ndv_eff << x <= MAX_NDV:
                    sizing.block_bytes_needed.__wrapped__(
                        ndv_eff << x, fpp / (x + 1) ** 2 * _SUM)
                    x += 1
    finally:
        sizing.block_fpp = orig
    return tuple(sorted(p for p in probes
                        if p[0] and p[1] > 0 and p[0] / (p[1] * 8) <= 3))


def test_skipped_terms_are_exactly_zero():
    """For every probed pair, the terms past the sum's start are 0.0 in the
    reference's own arithmetic, so skipping them cannot move the sum."""
    probes = _plan_probes()
    assert len(probes) > 2000
    for ndv, bytes_ in probes:
        lam = 256 / ((bytes_ * 8) / ndv)
        loglam = math.log(lam)
        top = sizing._last_live_term(lam, loglam)
        assert top < sizing._MAX_TERMS - 1
        for i in (top + 1, top + 2, top + 10, sizing._MAX_TERMS - 1):
            if i < sizing._MAX_TERMS:
                assert _ref_term(i, lam, loglam, -32 * math.log(2.0)) == 0.0


def test_block_fpp_bit_identical_to_reference():
    """`==` on floats against the 10,000-term loop, on every 24th probed
    pair of the grid (the whole grid, ~3.5k pairs, takes ~35 s)."""
    for ndv, bytes_ in _plan_probes()[::24]:
        assert sizing.block_fpp_detail(ndv, bytes_) == _ref_fpp(ndv, bytes_)


def test_searches_match_reference(monkeypatch):
    """block_bytes_needed and block_capacity searched over the reference
    sum equal the cached searches over the short one: the capacity floor
    of every fpp, and the first levels of the checkpoint's plan."""
    plans = [(64 << x, 0.01 / (x + 1) ** 2 * _SUM) for x in range(3)]
    want_bytes = [sizing.block_bytes_needed(n, f) for n, f in plans]
    want_cap = [sizing.block_capacity(1, f * _SUM) for f in FPPS]
    monkeypatch.setattr(sizing, "block_fpp", _ref_fpp)
    assert [sizing.block_bytes_needed.__wrapped__(n, f)
            for n, f in plans] == want_bytes
    assert [sizing.block_capacity(1, f * _SUM) for f in FPPS] == want_cap
