"""Stable, vectorized 64-bit hashing of Arrow columns.

The reference (jbapple/libfilter) takes *pre-hashed* pseudorandom u64 keys and
leaves hashing to the caller (``/root/reference/c/include/filter/block.h:43-46``,
``java/.../Filter.java:13-19``).  This engine therefore owns a pinned,
versioned hash function mapping bytes/strings/integers to u64.

Design: a polynomial rolling hash over the raw Arrow data buffer, computed
fully vectorized with numpy (no per-row Python loop), finalized with the
splitmix64 mixer (Steele, Lea & Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014 — public constants) for avalanche.

Vectorization trick: for row bytes b[s..e) we want
    H = sum_{i=s}^{e-1} b[i] * P^(e-1-i)  (mod 2^64).
P is odd, hence invertible mod 2^64. With Q = P^-1,
    H = (S[e] - S[s]) * P^(e-1)   where  S[k] = sum_{i<k} b[i] * Q^i.
S and the power tables are plain cumsum/cumprod over the whole buffer —
all vectorized, all uint64 wraparound arithmetic.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

U64 = np.uint64

# FNV-1a 64-bit prime — odd, invertible mod 2^64 (public constant).
POLY_P = U64(0x100000001B3)
# Modular inverse of POLY_P mod 2^64 (pow(P, -1, 2**64)).
POLY_Q = U64(pow(0x100000001B3, -1, 2**64))

# splitmix64 constants (public domain reference implementation).
_SM_GAMMA = U64(0x9E3779B97F4A7C15)
_SM_M1 = U64(0xBF58476D1CE4E5B9)
_SM_M2 = U64(0x94D049BB133111EB)

DEFAULT_SEED = 0x5EEDBADBEE52B055


def splitmix64(x: np.ndarray | int, seed: int = 0) -> np.ndarray:
    """Vectorized splitmix64 finalizer: u64 -> pseudorandom u64."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=U64) + U64((seed * 0x9E3779B97F4A7C15 + 1) % 2**64)
        z = (z ^ (z >> U64(30))) * _SM_M1
        z = (z ^ (z >> U64(27))) * _SM_M2
        return z ^ (z >> U64(31))


def hash_u64(values: np.ndarray, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Hash a u64/int64 numpy array to pseudorandom u64 (vectorized)."""
    return splitmix64(values.astype(U64, copy=False), seed=seed)


# Reference constant for widening 32-bit hashes to 64
# (java BlockFilter.java:236, TaffyCuckooFilter.java:241-253).
REHASH_32 = U64(0xD1012A3A7A1F4A8A)


def rehash_32_to_64(h32: np.ndarray) -> np.ndarray:
    """Widen 32-bit hashes exactly as the reference's BlockFilter does:
    hash64 = ((REHASH_32 * (long) h) >>> 32) << 32 | h  (vectorized).

    Faithful to the Java semantics including sign extension of `(long) h` —
    both in the multiply AND in the final `| h` (negative ints saturate the
    top 32 bits, an intentional reproduction of the reference's behavior).
    32- and 64-bit inserts must not be mixed in one filter
    (java Filter.java:10-12). NB TaffyCuckooFilter.java:240-252 uses a
    DIFFERENT widening; this one follows BlockFilter.java:236-247."""
    s = np.ascontiguousarray(h32, dtype=np.uint32).astype(np.int32) \
        .astype(np.int64).view(U64)  # sign-extended, reinterpreted u64
    with np.errstate(over="ignore"):
        return (((REHASH_32 * s) >> U64(32)) << U64(32)) | s


# One _hash_buffer pass materializes ~32 B of u64 tables per input byte
# (qpow/ppow/prefix sums); bound the transient at ~2 GB per task by hashing
# row groups of <= this many bytes. The polynomial hash is TRANSLATION-
# INVARIANT (Q = P^-1 mod 2^64, so the Q^d·P^d shift factors cancel),
# hence chunked results are bit-identical to a single pass — property-
# tested in test_hashing.py.
_HASH_CHUNK_BYTES = 64 << 20


def _hash_buffer(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 seed: int) -> np.ndarray:
    """Polynomial hash of variable-length slices [starts, ends) of `data`,
    processed in byte-bounded row groups (see _HASH_CHUNK_BYTES)."""
    n = len(starts)
    if n == 0:
        return np.empty(0, dtype=U64)
    if len(data) > _HASH_CHUNK_BYTES and n > 1:
        out = np.empty(n, dtype=U64)
        i = 0
        while i < n:
            limit = int(starts[i]) + _HASH_CHUNK_BYTES
            j = max(i + 1, int(np.searchsorted(ends, limit, side="right")))
            j = min(j, n)
            base = int(starts[i])
            out[i:j] = _hash_buffer_one(
                data[base:int(ends[j - 1])],
                starts[i:j] - base, ends[i:j] - base, seed)
            i = j
        return out
    return _hash_buffer_one(data, starts, ends, seed)


def _hash_buffer_one(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                     seed: int) -> np.ndarray:
    n = len(starts)
    L = len(data)
    with np.errstate(over="ignore"):
        if L == 0:
            body = np.zeros(n, dtype=U64)
        else:
            # qpow[i] = Q^i, ppow[i] = P^i for i in [0, L]
            qpow = np.empty(L + 1, dtype=U64)
            qpow[0] = U64(1)
            np.cumprod(np.broadcast_to(POLY_Q, L).astype(U64), out=qpow[1:])
            ppow = np.empty(L + 1, dtype=U64)
            ppow[0] = U64(1)
            np.cumprod(np.broadcast_to(POLY_P, L).astype(U64), out=ppow[1:])
            s = np.empty(L + 1, dtype=U64)
            s[0] = U64(0)
            np.cumsum((data.astype(U64) + U64(0x101)) * qpow[:L], out=s[1:])
            # H = (S[e]-S[s]) * P^(e-1); for empty rows (e==s) force 0.
            e1 = np.maximum(ends, 1)
            body = (s[ends] - s[starts]) * ppow[e1 - 1]
            body[ends == starts] = U64(0)
        lengths = (ends - starts).astype(U64)
        return splitmix64(body ^ (lengths * _SM_GAMMA), seed=seed)


def _binary_array_parts(arr: pa.Array):
    """(data_u8, starts, ends) of a string/binary array, honoring offset.

    `data` is only the rows' own byte span [first start, last end) of the
    value buffer, and starts/ends are rebased to it: a zero-copy slice of a
    large array scans its own bytes, not the whole buffer. The polynomial
    hash is translation-invariant (see _HASH_CHUNK_BYTES), so hashes do not
    depend on where the span begins."""
    buffers = arr.buffers()
    if arr.type in (pa.large_string(), pa.large_binary()):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    offsets = np.frombuffer(buffers[1], dtype=off_dtype,
                            count=len(arr) + arr.offset + 1)[arr.offset:]
    base, end = int(offsets[0]), int(offsets[-1])
    data = np.frombuffer(buffers[2], dtype=np.uint8)[base:end] \
        if buffers[2] is not None else np.empty(0, dtype=np.uint8)
    starts = offsets[:-1].astype(np.int64) - base
    ends = offsets[1:].astype(np.int64) - base
    return data, starts, ends


def hash_arrow_array(arr: pa.Array | pa.ChunkedArray,
                     seed: int = DEFAULT_SEED) -> np.ndarray:
    """Hash an Arrow string/binary/integer array to pseudorandom u64.

    Nulls hash to splitmix64(seed-derived constant) — a fixed sentinel.
    Fully vectorized; no per-row Python.
    """
    if isinstance(arr, pa.ChunkedArray):
        if arr.num_chunks == 1:
            return hash_arrow_array(arr.chunk(0), seed)
        return np.concatenate([hash_arrow_array(c, seed) for c in arr.chunks]) \
            if arr.num_chunks else np.empty(0, dtype=U64)
    t = arr.type
    if pa.types.is_integer(t):
        if arr.null_count:
            # stay in integer space: to_numpy on a null-bearing int column
            # yields float64, which silently rounds |values| > 2^53
            import pyarrow.compute as pc
            arr_filled = pc.fill_null(arr, 0)
            vals = arr_filled.to_numpy(zero_copy_only=False)
        else:
            vals = arr.to_numpy(zero_copy_only=False)
        out = hash_u64(np.asarray(vals).astype(np.int64).view(U64), seed)
    elif (pa.types.is_string(t) or pa.types.is_binary(t)
          or pa.types.is_large_string(t) or pa.types.is_large_binary(t)):
        data, starts, ends = _binary_array_parts(arr)
        out = _hash_buffer(data, starts, ends, seed)
    else:
        raise TypeError(f"unhashable arrow type for sketch keys: {t}")
    if arr.null_count:
        mask = np.asarray(arr.is_null())
        out = out.copy()
        # sentinel drawn from a DISTINCT seed stream so NULL can never
        # collide with any real value's hash under the data seed
        out[mask] = splitmix64(np.asarray([U64(0xDEAD)], dtype=U64),
                               seed=(seed ^ 0xA5A5_5A5A_F00D_BEEF))[0]
    return out


def shard_of_values(values, num_shards: int, seed: int = 0x5AAD) -> np.ndarray:
    """int64 shard ids for a column of key values (pandas Series, numpy
    array, python list, or Arrow array): hash_arrow_array % num_shards —
    the ONE vectorized shard tagger shared by sharded merges, joins, pair
    scans and samplers (equal keys always land in one shard)."""
    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = pa.array(values)
    if len(values) == 0:
        return np.empty(0, dtype=np.int64)
    if pa.types.is_null(values.type):
        # all-None python input infers Arrow type `null`; use the SAME
        # null sentinel as hash_arrow_array so a fully-null column shards
        # exactly like the null rows of a typed column
        sentinel = splitmix64(np.asarray([U64(0xDEAD)], dtype=U64),
                              seed=(seed ^ 0xA5A5_5A5A_F00D_BEEF))[0]
        h = np.full(len(values), sentinel, dtype=U64)
    else:
        h = hash_arrow_array(values, seed=seed)
    return (h % np.uint64(num_shards)).astype(np.int64)
