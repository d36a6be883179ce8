"""Sizing math for split-block Bloom filters.

Implements equation 3 of Putze, Sanders & Singler, "Cache-, Hash- and
Space-Efficient Bloom Filters" (WEA 2007) — the same model the reference uses
(``/root/reference/c/lib/util.c:5-81``, doc in ``c/lib/util-internal.h``).
Matching this math exactly gives identical filter sizes for a given
(ndv, fpp), hence identical FPP behavior to the reference.

Defaults: word_bits=32, bucket_words=8, hash_bits=32 (one 256-bit bucket,
8 set bits per key) — ``c/lib/block.c:8-18``.
"""

from __future__ import annotations

import functools
import math

BUCKET_WORDS = 8
WORD_BITS = 32
HASH_BITS = 32
BUCKET_BYTES = WORD_BITS * BUCKET_WORDS // 8  # 32


#: Terms of the reference's Putze sum: i = 0 .. 9999 (c/lib/util.c:5-34).
_MAX_TERMS = 10000
#: A Poisson log-pmf below this makes both of its terms exactly 0.0:
#: `math.exp` underflows to 0.0 below about -745, and each term's exponent
#: is the log-pmf plus a non-positive finner term or a collide term of at
#: most log(_MAX_TERMS) (~9.2, for any hash_bits >= 0).
_DEAD_LOGP = -800.0


def _last_live_term(lam: float, loglam: float) -> int:
    """Largest i < _MAX_TERMS whose Poisson log-pmf is >= _DEAD_LOGP.

    The log-pmf rises up to floor(lam) and falls after it, so every i past
    the returned one has a log-pmf below _DEAD_LOGP and adds exactly 0.0 to
    the sum. Bisects the falling side; falls back to the whole range if the
    peak itself is below the threshold."""
    def logp(i):
        return i * loglam - lam - math.lgamma(i + 1)

    lo = min(int(lam), _MAX_TERMS - 1)
    if logp(lo) < _DEAD_LOGP:
        return _MAX_TERMS - 1
    hi = _MAX_TERMS  # first i known dead (or past the end)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if logp(mid) >= _DEAD_LOGP:
            lo = mid
        else:
            hi = mid
    return lo


def block_fpp_detail(ndv: float, bytes_: float, word_bits: float = WORD_BITS,
                     bucket_words: float = BUCKET_WORDS,
                     hash_bits: float = HASH_BITS) -> float:
    """False-positive probability of a split-block Bloom filter (Putze eq. 3).

    Poisson-weighted sum over the load of one bucket, plus the hash-collision
    term for finite hash_bits. Reference: c/lib/util.c:5-34, which sums
    10,000 terms from i = 9999 down to 0. The loop here runs the same scalar
    `math` terms in the same order, but starts at the last term that can be
    nonzero (`_last_live_term`): the terms it skips are exactly 0.0, so the
    result is bit-identical, at ~1/30 of the cost over the taffy level
    plans' searches. The sum must stay scalar `math` in this order: numpy's
    exp/log and pairwise summation round differently and would move filter
    sizes.
    """
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
    for i in range(_last_live_term(lam, loglam), -1, -1):
        logp = i * loglam - lam - math.lgamma(i + 1)
        base = 1.0 - (1.0 - 1.0 / word_bits) ** i
        logfinner = bucket_words * (math.log(base) if base > 0 else -math.inf)
        logcollide = math.log(i) + log1collide if i > 0 else -math.inf
        result += math.exp(logp + logfinner) + math.exp(logp + logcollide)
    return min(result, 1.0)


@functools.lru_cache(maxsize=65536)
def block_fpp(ndv: float, bytes_: float) -> float:
    return block_fpp_detail(ndv, bytes_)


@functools.lru_cache(maxsize=4096)
def block_bytes_needed(ndv: float, fpp: float) -> int:
    """Smallest byte size (rounded up to whole buckets) achieving <= fpp.
    Cached: the model is a pure function and identical (ndv, fpp) pairs
    recur for every per-block partial of the same build (a miss costs a
    few ms: ~50 probes of the search, each a Poisson sum of a few hundred
    nonzero terms).

    Exponential then binary search over the fpp model, as in
    c/lib/util.c:36-58.
    """
    bucket_bytes = BUCKET_BYTES
    result = 1
    while block_fpp(ndv, result) > fpp:
        if result * 2 < result:  # pragma: no cover — overflow guard
            return result
        result *= 2
    if result <= bucket_bytes:
        return bucket_bytes
    lo = 0
    while lo + 1 < result:
        mid = lo + (result - lo) // 2
        test = block_fpp(ndv, mid)
        if test < fpp:
            result = mid
        elif test == fpp:
            return ((mid + bucket_bytes - 1) // bucket_bytes) * bucket_bytes
        else:
            lo = mid
    return ((result + bucket_bytes - 1) // bucket_bytes) * bucket_bytes


def block_capacity(bytes_: int, fpp: float) -> int:
    """Largest ndv a `bytes_`-sized filter supports at <= fpp (c/lib/util.c:60-81)."""
    result = 1
    while block_fpp(result, bytes_) < fpp:
        result *= 2
    if result == 1:
        return 0
    lo = 0
    while lo + 1 < result:
        mid = lo + (result - lo) // 2
        test = block_fpp(mid, bytes_)
        if test < fpp:
            lo = mid
        elif test == fpp:
            return mid
        else:
            result = mid
    return lo
