"""t-digest quantile sketch (Dunning & Ertl, "Computing extremely accurate
quantiles using t-digests", public algorithm — the MergingDigest variant).

Mergeable UDAF over float values: centroid lists merge by concatenation +
recompression under the k1 scale function (accuracy tightest at the tails).
Compression is numpy-vectorized (sort + cumulative-weight boundary scan).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .registry import register


@register
class TDigest:
    kind = "tdigest"
    input = "values"

    def __init__(self, delta: float = 100.0, buffer_size: int = 4096):
        self.delta = float(delta)
        self.buffer_size = int(buffer_size)
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._buf: list[np.ndarray] = []
        self._buf_len = 0
        self._compressed = False
        self.count = 0.0
        self.min = math.inf
        self.max = -math.inf

    def update(self, values: np.ndarray) -> "TDigest":
        v = np.ascontiguousarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return self
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))
        self.count += len(v)
        self._buf.append(v)
        self._buf_len += len(v)
        if self._buf_len >= self.buffer_size:
            self._compress()
        return self

    def _compress(self) -> None:
        # idempotence guard: re-running the greedy pass with no new data
        # shifts q boundaries and would slowly coarsen the digest (and makes
        # quantiles([...]) O(len) full re-merges)
        if not self._buf and self._compressed:
            return
        self._compressed = True
        if self._buf:
            bm = np.concatenate(self._buf)
            bw = np.ones(len(bm), dtype=np.float64)
            means = np.concatenate([self.means, bm])
            weights = np.concatenate([self.weights, bw])
            self._buf, self._buf_len = [], 0
        else:
            means, weights = self.means, self.weights
        if not len(means):
            return
        order = np.argsort(means, kind="stable")
        means, weights = means[order], weights[order]
        total = weights.sum()
        # greedy merge pass under the k1 size bound. kvals (the k1 value at
        # each candidate boundary) is nondecreasing — qacc is a cumsum of
        # non-negative terms and arcsin is monotone — so instead of scanning
        # elements one by one, each segment boundary is found with a
        # searchsorted JUMP: the segment starting at s absorbs every element
        # i with kvals[i] <= kvals[s-1] + 1, i.e. it ends at the first index
        # strictly greater (side="right"). The loop runs once per OUTPUT
        # centroid (~delta), not once per input element (~buffer_size), and
        # segment weights/means come from cumsum diffs.
        k_scale = self.delta / (2 * math.pi)
        n = len(means)
        qacc_arr = np.cumsum(weights / total)
        kvals = k_scale * np.arcsin(np.clip(2 * qacc_arr - 1, -1.0, 1.0))
        klim0 = k_scale * math.asin(-1.0) + 1.0  # k1(q=0) + 1
        bounds = [0]
        s = max(1, int(np.searchsorted(kvals, klim0, side="right")))
        while s < n:
            bounds.append(s)
            nxt = int(np.searchsorted(kvals, kvals[s - 1] + 1.0,
                                      side="right"))
            s = max(s + 1, nxt)
        starts = np.asarray(bounds, dtype=np.intp)
        wm_acc = np.cumsum(weights * means)
        w_acc = np.cumsum(weights)
        ends = np.r_[starts[1:], n] - 1
        seg_w = w_acc[ends] - np.where(starts > 0, w_acc[starts - 1], 0.0)
        seg_wm = wm_acc[ends] - np.where(starts > 0, wm_acc[starts - 1], 0.0)
        self.weights = seg_w
        self.means = seg_wm / seg_w

    def merge(self, other: "TDigest") -> "TDigest":
        other._compress()
        self._compress()
        self._compressed = False  # centroid set changes below
        self.means = np.concatenate([self.means, other.means])
        self.weights = np.concatenate([self.weights, other.weights])
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._compress()
        return self

    def finalize(self) -> "TDigest":
        self._compress()
        return self

    def quantile(self, q: float) -> float:
        self._compress()
        if not len(self.means):
            return math.nan
        if q <= 0:
            return self.min
        if q >= 1:
            return self.max
        target = q * self.weights.sum()
        cum = np.cumsum(self.weights) - self.weights / 2
        i = np.searchsorted(cum, target)
        if i == 0:
            lo_m, lo_c = self.min, 0.0
            hi_m, hi_c = self.means[0], cum[0]
        elif i >= len(self.means):
            lo_m, lo_c = self.means[-1], cum[-1]
            hi_m, hi_c = self.max, self.weights.sum()
        else:
            lo_m, lo_c = self.means[i - 1], cum[i - 1]
            hi_m, hi_c = self.means[i], cum[i]
        if hi_c == lo_c:
            return float(lo_m)
        return float(lo_m + (hi_m - lo_m) * (target - lo_c) / (hi_c - lo_c))

    def quantiles(self, qs) -> np.ndarray:
        return np.array([self.quantile(q) for q in qs])

    _MAGIC = b"TDG1"

    def to_bytes(self) -> bytes:
        self._compress()
        n = len(self.means)
        return (self._MAGIC
                + struct.pack("<dIddd", self.delta, n, self.count, self.min,
                              self.max)
                + self.means.astype("<f8").tobytes()
                + self.weights.astype("<f8").tobytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "TDigest":
        if data[:4] != cls._MAGIC:
            raise ValueError("bad tdigest payload")
        delta, n, count, mn, mx = struct.unpack_from("<dIddd", data, 4)
        t = cls(delta)
        off = 4 + struct.calcsize("<dIddd")
        t.means = np.frombuffer(data, dtype="<f8", count=n, offset=off).copy()
        off += 8 * n
        t.weights = np.frombuffer(data, dtype="<f8", count=n, offset=off).copy()
        t.count, t.min, t.max = count, mn, mx
        t._compressed = True  # serialized form is post-compression
        return t
