"""Split-block Bloom filter ("block") — vectorized, mergeable, byte-compatible.

Semantics match the reference scalar implementation
(``/root/reference/c/include/filter/block.h:87-152``):

- bucket index  = ((hash >> 32) * num_buckets) >> 32            (block.h:97-101)
- 8 lanes of u32; for lane i the set bit is
      1 << ((u32(hash) * SEED32[i]) >> 27)                      (block.h:107-125)
  where SEED32 are the 8 u32 halves of the 4 public 64-bit seed constants
  LIBFILTER_INTERNAL_HASH_SEEDS                                  (block.h:86-89)
- add = OR the 8 mask words into the bucket; find = all 8 bits present
- serialization: little-endian u32 dump of the bucket array      (c/lib/block.c:20-53)
- sizes rounded down to whole 32-byte buckets, minimum one bucket
  (c/lib/memory.c libfilter_truncate; c/lib/block.c:55-66)

Because add is an idempotent OR of a pure function of the hash, two filters of
equal size merge by bitwise OR — commutative, associative, idempotent — which
makes this the engine's byte-exact distributed-merge anchor (SURVEY.md §2.6).

Vectorization: adds use an np.bitwise_or.at row scatter; finds gather bucket
rows and compare masks — no per-key Python in either path.
"""

from __future__ import annotations

import numpy as np

from . import sizing
from .sizing import BUCKET_BYTES

U32 = np.uint32
U64 = np.uint64

# The 4 x 64-bit public seed constants from block.h:86-89, split little-half
# first into 8 u32 lane seeds (block.h:107-117 uses seeds[i] >> (32*j)).
_SEEDS64 = (0x47B6137B44974D91, 0x8824AD5BA2B7289D,
            0x705495C72DF1424B, 0x9EFC49475C6BFB31)
SEED32 = np.array(
    [x for s in _SEEDS64 for x in (s & 0xFFFFFFFF, s >> 32)], dtype=U32)


def _masks(hashes: np.ndarray) -> np.ndarray:
    """(n, 8) u32 mask matrix for a batch of u64 hashes (block.h:107-125)."""
    lo = hashes.astype(U32)  # truncating cast == (uint32)hash
    # u32 wraparound multiply: numpy wraps integer ARRAY ops silently (only
    # scalar ops warn), so no errstate guard is needed on this hot path
    prod = lo[:, None] * SEED32[None, :]
    return (U32(1) << (prod >> U32(32 - 5))).astype(U32)


def _bucket_index(hashes: np.ndarray, num_buckets: int) -> np.ndarray:
    return ((hashes >> U64(32)) * U64(num_buckets)) >> U64(32)


class BlockBloom:
    """Mergeable split-block Bloom filter accumulator."""

    kind = "block"
    input = "hashes"  # Sketch protocol: update() consumes u64 hashes

    def __init__(self, bytes_: int | None = None, *, ndv: float | None = None,
                 fpp: float | None = None):
        if bytes_ is None:
            if ndv is None or fpp is None:
                raise ValueError("need bytes_ or (ndv, fpp)")
            bytes_ = sizing.block_bytes_needed(ndv, fpp)
        num_buckets = max(1, int(bytes_) // BUCKET_BYTES)
        self.num_buckets = num_buckets
        self.buckets = np.zeros((num_buckets, 8), dtype=U32)

    # -- core ops ---------------------------------------------------------
    # The scatter/gather run on a u64 view of the bucket matrix (4 lanes of
    # u64 instead of 8 of u32): identical bits, half the unbuffered
    # bitwise_or.at / compare work (~1.5x measured) — serde stays the
    # reference's little-endian u32 layout.
    def add_hashes(self, hashes: np.ndarray) -> "BlockBloom":
        hashes = np.ascontiguousarray(hashes, dtype=U64)
        idx = _bucket_index(hashes, self.num_buckets)
        np.bitwise_or.at(self.buckets.view(U64), idx,
                         _masks(hashes).view(U64))
        return self

    def find_hashes(self, hashes: np.ndarray) -> np.ndarray:
        hashes = np.ascontiguousarray(hashes, dtype=U64)
        idx = _bucket_index(hashes, self.num_buckets)
        rows = self.buckets.view(U64)[idx]  # (n, 4) u64 gather
        m = _masks(hashes).view(U64)
        return ((rows & m) == m).all(axis=1)

    def update(self, hashes: np.ndarray) -> "BlockBloom":
        """Sketch-protocol alias for add_hashes."""
        return self.add_hashes(hashes)

    def add_hash(self, h: int) -> None:
        self.add_hashes(np.array([h], dtype=U64))

    def find_hash(self, h: int) -> bool:
        return bool(self.find_hashes(np.array([h], dtype=U64))[0])

    # -- mergeable-UDAF protocol ------------------------------------------
    def merge(self, other: "BlockBloom") -> "BlockBloom":
        if other.num_buckets != self.num_buckets:
            raise ValueError(
                f"cannot OR-merge block filters of unequal size "
                f"({self.num_buckets} vs {other.num_buckets} buckets)")
        np.bitwise_or(self.buckets, other.buckets, out=self.buckets)
        return self

    def intersect(self, other: "BlockBloom") -> "BlockBloom":
        """Bitwise-AND intersection — SUPERSET semantics: every key that
        was added to BOTH filters is still found (each of its 8 bits is
        set in both bucket rows, so it survives the AND), while keys in
        only one side usually drop. The result can over-approximate
        A ∩ B (a bit set by different keys on each side survives), so
        fpp is bounded by min(fpp_A, fpp_B) only from above — this is
        the standard Bloom-intersection contract. The reference leaves
        intersection as an explicit TODO (c/lib/block.c:68,
        cpp/include/filter/taffy-cuckoo.hpp:11); AND over the identical
        byte layout is the canonical completion for the OR-mergeable
        block filter. In-place, like merge()."""
        if other.num_buckets != self.num_buckets:
            raise ValueError(
                f"cannot AND-intersect block filters of unequal size "
                f"({self.num_buckets} vs {other.num_buckets} buckets)")
        np.bitwise_and(self.buckets, other.buckets, out=self.buckets)
        return self

    def finalize(self) -> "BlockBloom":
        return self

    # -- serde (little-endian u32 dump, == c/lib/block.c:20-53) -----------
    def to_bytes(self) -> bytes:
        return self.buckets.astype("<u4", copy=False).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BlockBloom":
        if len(data) < BUCKET_BYTES or len(data) % BUCKET_BYTES != 0:
            raise ValueError(
                f"block filter payload must be a positive multiple of "
                f"{BUCKET_BYTES} bytes, got {len(data)}")
        f = cls.__new__(cls)
        f.num_buckets = len(data) // BUCKET_BYTES
        # astype copies (the one copy: a writable array owning its memory);
        # the reshape of that fresh array is a view
        f.buckets = np.frombuffer(data, dtype="<u4").astype(U32).reshape(
            f.num_buckets, 8)
        return f

    # -- int-array serde (== c/lib/block.c:47-53, the Java-interop
    # variant: the lane words reinterpreted as SIGNED int32, memcpy
    # semantics — on a little-endian host the bit pattern is identical
    # to the byte dump above) --------------------------------------------
    def to_ints(self) -> np.ndarray:
        """Lane words as a flat signed-int32 array (length 8*num_buckets)."""
        return self.buckets.reshape(-1).view(np.int32).copy()

    @classmethod
    def from_ints(cls, ints) -> "BlockBloom":
        """Rebuild from the signed-int32 lane-word dump produced by
        :meth:`to_ints` (or by the reference's Java ``serialize()``).

        ``libfilter_block_deserialize_from_ints`` memcpys ``n``
        native int32s into the bucket array; the analogue here is a
        signed→unsigned view. ``n`` must be a positive multiple of 8
        (whole 32-byte buckets), as in the C path where init truncates
        to whole buckets before the copy."""
        arr = np.asarray(ints, dtype=np.int32)
        if arr.ndim != 1 or arr.size == 0 or arr.size % 8 != 0:
            raise ValueError(
                f"int serde payload must be a flat positive multiple of "
                f"8 int32 lane words, got shape {arr.shape}")
        f = cls.__new__(cls)
        f.num_buckets = arr.size // 8
        f.buckets = arr.view(U32).reshape(f.num_buckets, 8).copy()
        return f

    # -- misc --------------------------------------------------------------
    def size_in_bytes(self) -> int:
        return self.num_buckets * BUCKET_BYTES

    def clone(self) -> "BlockBloom":
        f = BlockBloom.__new__(BlockBloom)
        f.num_buckets = self.num_buckets
        f.buckets = self.buckets.copy()
        return f

    def zero_out(self) -> None:
        self.buckets[:] = 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, BlockBloom)
                and self.num_buckets == other.num_buckets
                and bool(np.array_equal(self.buckets, other.buckets)))

    def __hash__(self):  # pragma: no cover
        return id(self)
