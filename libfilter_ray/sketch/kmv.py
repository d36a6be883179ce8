"""KMV (k-minimum-values / bottom-k) distinct-count sketch with
theta-style set operations.

Public algorithms: Bar-Yossef et al. (RANDOM 2002) bottom-k counting;
Beyer et al. (SIGMOD 2007) unbiased (k-1)/U_(k) estimator and multiset
synopses; the Theta Sketch Framework (Dasgupta et al. 2016) for
union/intersection estimates restricted below a common threshold.

Engine addition on top of the reference's filter family (SURVEY.md
§2.6, same slot as HLL/CMS/t-digest/KLL): the state is exactly the k
smallest DISTINCT u64 hashes, so update/merge are pure set operations —
associative, commutative, idempotent — and every output (kept set,
estimate, set-op estimates) is a DETERMINISTIC function of the input
hash set. Unlike HLL, that makes the whole sketch exactly reproducible
in SQL via window functions (ORDER BY hash LIMIT k), which is how the
kmv_* queries are oracled bit-for-bit.

Scale shape: a partial per block is <= 8k bytes; the grouped build's
keyed merge (stages/sketch_build.py) moves only partials,
never raw keys, and the raw-mode guard ships plain hash lists for
blocks smaller than half a sketch.
"""

from __future__ import annotations

import struct

import numpy as np

from .registry import register

U64 = np.uint64
_TWO64 = 1 << 64
_TWO64_F = 2.0 ** 64


@register
class KMV:
    kind = "kmv"
    input = "hashes"

    def __init__(self, k: int = 1024):
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = int(k)
        # sorted, unique, len <= k — the k minimum values seen so far
        self.kept = np.empty(0, dtype=U64)

    def update(self, hashes: np.ndarray) -> "KMV":
        hashes = np.ascontiguousarray(hashes, dtype=U64)
        if not len(hashes):
            return self
        self.kept = np.unique(np.concatenate([self.kept, hashes]))[:self.k]
        return self

    add_hashes = update

    def merge(self, other: "KMV") -> "KMV":
        if other.k != self.k:
            raise ValueError("cannot merge KMV sketches with different k")
        self.kept = np.unique(np.concatenate([self.kept, other.kept]))[:self.k]
        return self

    def finalize(self) -> "KMV":
        return self

    @property
    def is_full(self) -> bool:
        return len(self.kept) >= self.k

    def theta_int(self) -> int:
        """Exclusive retention threshold: kept == {h : h < theta}.
        2^64 when the sketch has seen fewer than k distinct hashes
        (nothing was ever evicted), else kth_min + 1."""
        return int(self.kept[self.k - 1]) + 1 if self.is_full else _TWO64

    def estimate(self) -> float:
        """Distinct-count estimate: exact below k, else Beyer et al.'s
        unbiased (k-1) * 2^64 / kth_min."""
        if not self.is_full:
            return float(len(self.kept))
        return (self.k - 1) * _TWO64_F / float(int(self.kept[self.k - 1]))

    def digest(self) -> int:
        """Content digest of the kept set (sum of kept hashes mod 2^63)
        — pins the exact sketch state in oracled query outputs."""
        return int(sum(int(h) for h in self.kept)) % (1 << 63)

    def std_error(self) -> float:
        import math
        return 1.0 / math.sqrt(self.k - 2) if self.k > 2 else 1.0

    _MAGIC = b"KMV1"

    def to_bytes(self) -> bytes:
        return (self._MAGIC + struct.pack("<ii", self.k, len(self.kept))
                + self.kept.tobytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "KMV":
        if data[:4] != cls._MAGIC:
            raise ValueError("bad kmv payload")
        k, n = struct.unpack_from("<ii", data, 4)
        sk = cls(k)
        sk.kept = np.frombuffer(data, dtype=U64, count=n, offset=12).copy()
        return sk


def set_ops(a: KMV, b: KMV) -> dict:
    """Theta-sketch-style set-operation estimates between two KMV
    sketches built with the SAME hash seed.

    theta = min of the two retention thresholds; both kept sets are
    restricted to h < theta (each is then an exact uniform sample of its
    underlying set at rate theta/2^64), so intersection/union counts of
    the restricted sets scale by 2^64/theta into unbiased estimates.
    Deterministic — reproduced exactly by the kmv_set_ops SQL oracle.
    """
    if a.k != b.k:
        raise ValueError("set_ops requires equal k")
    theta = min(a.theta_int(), b.theta_int())
    if theta >= _TWO64:
        ka, kb = a.kept, b.kept
    else:
        t = U64(theta)
        ka = a.kept[a.kept < t]
        kb = b.kept[b.kept < t]
    n_common = int(len(np.intersect1d(ka, kb)))
    n_union = int(len(np.union1d(ka, kb)))
    scale = _TWO64_F / float(theta)
    return {
        "theta": theta,
        "n_common": n_common,
        "n_union_kept": n_union,
        "n_a_kept": int(len(ka)),
        "n_b_kept": int(len(kb)),
        "inter_est": n_common * scale,
        "union_est": n_union * scale,
        "jaccard": (n_common / n_union) if n_union else 0.0,
        # share of A's (resp. B's) distinct values also present in B
        # (resp. A) — both sides restricted to h < theta are rate-equal
        # samples, so the ratio is an unbiased containment estimate (the
        # decontamination pre-flight number)
        "containment_a": (n_common / len(ka)) if len(ka) else 0.0,
        "containment_b": (n_common / len(kb)) if len(kb) else 0.0,
    }
