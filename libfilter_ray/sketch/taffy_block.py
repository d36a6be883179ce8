"""Taffy block filter — growable Bloom filter of stacked block levels.

Sequential semantics match the reference (``/root/reference/c/lib/taffy-block.c:9-32``,
``c/include/filter/taffy-block.h:35-48``):

- level x is planned at bytes_needed(ndv << x, fpp/(x+1)^2 * 6/3.1415^2)
  (the per-level fpp budget 6eps/(i^2 pi^2), sum <= eps — doc/taffy/taffy.tex:500-508;
  NOTE the reference uses the literal 3.1415, reproduced here for size parity)
- inserts go into the NEWEST level only; `ttl` counts remaining inserts;
  when ttl <= 0 the next level opens (last_ndv doubles, ttl = last_ndv)
- find = OR of find over all open levels

Distributed merge (engine-defined — the reference has no union for this type;
SURVEY.md §2.6): two accumulators with IDENTICAL (ndv, fpp) parameters have
identical level plans, so merge = level-wise bitwise OR of common levels +
summed per-level insert counts. Set semantics are exact (no false negatives,
monotone false positives); the *effective* fpp of a merged filter depends on
real level occupancy, exposed honestly via estimated_fpp() from the summed
counts. Byte layout after merge depends on how keys were partitioned across
levels, so conformance is at set-semantics level (like taffy-cuckoo,
SURVEY.md §2.9) while single-writer sequential builds are byte-identical to
the reference.

Adds are vectorized: a batch is split at ttl boundaries and each chunk goes
through BlockBloom's vectorized scatter.

Grouped build (`TaffyBlock.build_keys`): a block's per-key partials are
built for every key at once rather than one filter per key. Each row's
rank within its key maps to its level (level x holds ranks
[ndv_eff*(2^x-1), ndv_eff*(2^(x+1)-1)) -- exactly where the sequential
ttl split puts it); the keys' `TBF1` payloads are laid out in one buffer,
headers, counts, ttl and cursor written per group of keys with the same
level count, and one `np.bitwise_or.at` per bucket lane scatters every
row's masks into its key's level in place. The bytes equal the sequential
per-key `TaffyBlock(**params).update(h).to_bytes()`. Keys are built in
runs of at most `BUILD_RUN_BYTES` of payload, so the working memory
does not grow with the number of keys in a block.
"""

from __future__ import annotations

import struct

import numpy as np

from . import sizing
from .block_bloom import BlockBloom, _bucket_index, _masks
from .sizing import BUCKET_BYTES
from .registry import register

_SUM = 6.0 / (3.1415 ** 2)
MAX_LEVELS = 48
#: Payload bytes `TaffyBlock.build_keys` lays out at once: keys are built
#: in runs of up to this many bytes of payload (a key whose payload alone
#: is larger is built alone).
BUILD_RUN_BYTES = 8 << 20
_HEADER = "<QdQqQi"
#: A `TBF1` payload's header as a numpy record: magic, then `_HEADER`.
_HEADER_DTYPE = np.dtype([
    ("magic", "S4"), ("ndv", "<u8"), ("fpp", "<f8"), ("ndv_eff", "<u8"),
    ("ttl", "<i8"), ("last_ndv", "<u8"), ("cursor", "<i4")])


def _level_of(rank: np.ndarray, ndv_eff: int) -> np.ndarray:
    """Level holding each 0-based insert rank: x with ndv_eff*(2^x-1) <=
    rank < ndv_eff*(2^(x+1)-1), i.e. bit_length(rank // ndv_eff + 1) - 1
    (frexp's exponent is exact for integers below 2^53). Rank -1 maps to
    level -1."""
    return np.frexp((rank // ndv_eff + 1).astype(np.float64))[1] - 1


@register
class TaffyBlock:
    kind = "taffy_block"
    input = "hashes"

    def __init__(self, ndv: int = 1024, fpp: float = 0.01):
        self.ndv_param = int(ndv)
        self.fpp_param = float(fpp)
        ndv2 = sizing.block_capacity(1, fpp * _SUM)
        ndv_eff = max(int(ndv), ndv2)
        self.last_ndv = ndv_eff
        self.ttl = ndv_eff
        self.levels: list[BlockBloom] = [
            BlockBloom(sizing.block_bytes_needed(ndv_eff, fpp * _SUM))]
        self.counts: list[int] = [0]  # inserts per level (engine bookkeeping)
        self._ndv_eff = ndv_eff

    # level plan is derived lazily: each size is a bytes_needed search
    # (a few ms on a cache miss); only materialize the sizes we open.
    def _level_size(self, x: int) -> int:
        return sizing.block_bytes_needed(
            self._ndv_eff << x, self.fpp_param / ((x + 1) ** 2) * _SUM)

    @property
    def cursor(self) -> int:
        return len(self.levels)

    def _upsize(self) -> None:
        if self.cursor >= MAX_LEVELS:
            raise OverflowError("taffy block filter exceeded 48 levels")
        self.last_ndv *= 2
        self.levels.append(BlockBloom(self._level_size(self.cursor)))
        self.counts.append(0)
        self.ttl = self.last_ndv

    def add_hashes(self, hashes: np.ndarray) -> "TaffyBlock":
        hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
        i, n = 0, len(hashes)
        while i < n:
            if self.ttl <= 0:
                self._upsize()
            k = min(int(self.ttl), n - i)
            self.levels[-1].add_hashes(hashes[i:i + k])
            self.counts[-1] += k
            self.ttl -= k
            i += k
        return self

    update = add_hashes

    def add_hash(self, h: int) -> None:
        self.add_hashes(np.array([h], dtype=np.uint64))

    def find_hashes(self, hashes: np.ndarray) -> np.ndarray:
        hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
        out = np.zeros(len(hashes), dtype=bool)
        for lvl in self.levels:
            rem = ~out
            if not rem.any():
                break
            out[rem] = lvl.find_hashes(hashes[rem])
        return out

    def find_hash(self, h: int) -> bool:
        return bool(self.find_hashes(np.array([h], dtype=np.uint64))[0])

    # -- mergeable-UDAF protocol ------------------------------------------
    def merge(self, other: "TaffyBlock") -> "TaffyBlock":
        if (self.ndv_param, self.fpp_param) != (other.ndv_param, other.fpp_param):
            raise ValueError("can only merge identically-parameterized "
                             "taffy block filters (same ndv/fpp plan)")
        while self.cursor < other.cursor:
            self._upsize()
        for i, lvl in enumerate(other.levels):
            self.levels[i].merge(lvl)
            self.counts[i] += other.counts[i]
        # remaining capacity of the newest level under the summed counts
        cap = self._ndv_eff << max(0, self.cursor - 1)
        self.ttl = cap - self.counts[-1]
        return self

    def finalize(self) -> "TaffyBlock":
        return self

    def estimated_fpp(self) -> float:
        """Honest fpp estimate from actual per-level occupancy (Putze model)."""
        miss = 1.0
        for lvl, cnt in zip(self.levels, self.counts):
            miss *= 1.0 - sizing.block_fpp(cnt, lvl.size_in_bytes())
        return 1.0 - miss

    def size_in_bytes(self) -> int:
        return sum(l.size_in_bytes() for l in self.levels)

    def clone(self) -> "TaffyBlock":
        t = TaffyBlock.__new__(TaffyBlock)
        t.ndv_param, t.fpp_param = self.ndv_param, self.fpp_param
        t._ndv_eff, t.last_ndv, t.ttl = self._ndv_eff, self.last_ndv, self.ttl
        t.levels = [l.clone() for l in self.levels]
        t.counts = list(self.counts)
        return t

    # -- serde (engine format: self-describing header + level dumps) ------
    _MAGIC = b"TBF1"

    def to_bytes(self) -> bytes:
        parts = [self._MAGIC,
                 struct.pack(_HEADER, self.ndv_param, self.fpp_param,
                             self._ndv_eff, self.ttl, self.last_ndv,
                             self.cursor)]
        for lvl, cnt in zip(self.levels, self.counts):
            payload = lvl.to_bytes()
            parts.append(struct.pack("<QQ", cnt, len(payload)))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TaffyBlock":
        if data[:4] != cls._MAGIC:
            raise ValueError("bad taffy block payload")
        off = 4
        ndv, fpp, ndv_eff, ttl, last_ndv, cursor = struct.unpack_from(
            _HEADER, data, off)
        off += struct.calcsize(_HEADER)
        t = cls.__new__(cls)
        t.ndv_param, t.fpp_param = ndv, fpp
        t._ndv_eff, t.ttl, t.last_ndv = ndv_eff, ttl, last_ndv
        t.levels, t.counts = [], []
        for _ in range(cursor):
            cnt, ln = struct.unpack_from("<QQ", data, off)
            off += 16
            t.levels.append(BlockBloom.from_bytes(data[off:off + ln]))
            t.counts.append(cnt)
            off += ln
        return t

    # -- grouped build ----------------------------------------------------
    @classmethod
    def build_keys(cls, params: dict, hashes: np.ndarray,
                   bounds: np.ndarray) -> list[bytes]:
        """`to_bytes()` of one fresh `TaffyBlock(**params)` per key, key i
        fed ``hashes[bounds[i]:bounds[i+1]]`` in order -- byte-identical to
        building each key sequentially, in a fixed number of numpy passes
        per run of keys (see the module docstring)."""
        proto = cls(**params)
        ndv_eff = proto._ndv_eff
        if ndv_eff < 1:  # sequential adds would never find room either
            raise ValueError("taffy block plan holds 0 keys per level")
        hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
        bounds = np.asarray(bounds, dtype=np.int64)
        n = np.diff(bounds)
        if not len(n):
            return []
        cursor = np.maximum(_level_of(n - 1, ndv_eff) + 1, 1)
        top = int(cursor.max())
        if top > MAX_LEVELS:
            raise OverflowError("taffy block filter exceeded 48 levels")
        sizes = [proto.levels[0].size_in_bytes()] + [
            proto._level_size(x) for x in range(1, top)]
        # byte offset of level x's (count, bytes) pair in a payload; entry
        # c is the length of a payload with c levels
        pair_at = np.cumsum([_HEADER_DTYPE.itemsize] + [16 + b for b in sizes])
        ends = np.cumsum(pair_at[cursor])
        out: list[bytes] = []
        k0 = 0
        while k0 < len(n):
            base = ends[k0 - 1] if k0 else 0
            k1 = max(k0 + 1, int(np.searchsorted(
                ends, base + BUILD_RUN_BYTES, side="right")))
            out += proto._build_run(hashes, bounds[k0:k1 + 1], n[k0:k1],
                                    cursor[k0:k1], sizes, pair_at)
            k0 = k1
        return out

    def _build_run(self, hashes, bounds, n, cursor, sizes,
                   pair_at) -> list[bytes]:
        """`build_keys` over one run of keys (``bounds`` has one more entry
        than the run has keys); `self` is a fresh filter of the params.

        The run's payloads are laid out back to back in one zeroed buffer,
        ordered by level count, so the payloads with c levels form one
        (keys x bytes) block: per key the header, then per level its
        (count, bytes) pair and its buckets. Every offset is a multiple of
        8 bytes, so `np.bitwise_or.at` over the buffer's u64 words ORs
        every row's masks into its key's level in place, one call per
        lane of the bucket."""
        ndv_eff, k = self._ndv_eff, len(n)
        lens = pair_at[cursor]
        order = np.argsort(cursor, kind="stable")
        start = np.empty(k, dtype=np.int64)
        start[order] = np.cumsum(lens[order]) - lens[order]
        buf = np.zeros(int(lens.sum()), dtype=np.uint8)
        for c in np.unique(cursor).tolist():
            keys = order[cursor[order] == c]
            s0 = int(start[keys[0]])
            block = buf[s0:s0 + len(keys) * int(pair_at[c])].reshape(
                len(keys), -1)
            counts = [np.minimum(ndv_eff << x,
                                 n[keys] - ndv_eff * ((1 << x) - 1))
                      for x in range(c)]
            head = block[:, :_HEADER_DTYPE.itemsize].view(_HEADER_DTYPE)
            head["magic"], head["ndv"], head["fpp"] = (
                self._MAGIC, self.ndv_param, self.fpp_param)
            head["ndv_eff"], head["cursor"] = ndv_eff, c
            head["last_ndv"] = ndv_eff << (c - 1)
            head["ttl"] = (ndv_eff << (c - 1)) - counts[-1][:, None]
            for x in range(c):
                pair = block[:, pair_at[x]:pair_at[x] + 16].view("<u8")
                pair[:, 0], pair[:, 1] = counts[x], sizes[x]
        r0 = int(bounds[0])
        h = hashes[r0:int(bounds[-1])]
        owner = np.repeat(np.arange(k), n)
        level = _level_of(np.arange(len(h)) - (bounds[:-1] - r0)[owner],
                          ndv_eff)
        nb = np.asarray(sizes, dtype=np.uint64) // np.uint64(BUCKET_BYTES)
        word = ((start[owner] + pair_at[level] + 16) // 8
                + 4 * _bucket_index(h, nb[level]).astype(np.int64))
        words, masks = buf.view(np.uint64), _masks(h).view(np.uint64)
        for lane in range(4):
            np.bitwise_or.at(words, word + lane, masks[:, lane])
        return [buf[a:a + b].tobytes()
                for a, b in zip(start.tolist(), lens.tolist())]

    def __eq__(self, other) -> bool:
        return (isinstance(other, TaffyBlock)
                and self.cursor == other.cursor
                and all(a == b for a, b in zip(self.levels, other.levels)))

    def __hash__(self):  # pragma: no cover
        return id(self)
