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
    H = sum_{i=s}^{e-1} (b[i] + 0x101) * P^(e-1-i)  (mod 2^64).
P is odd, hence invertible mod 2^64. With Q = P^-1,
    H = (S[e] - S[s]) * P^(e-1)   where  S[k] = sum_{i<k} (b[i] + 0x101) * Q^i.
The difference is translation-invariant (shifting the buffer start by d
multiplies S[e] - S[s] by Q^d and P^(e-1) by P^d), so rows are hashed in
groups of at most GROUP_BYTES bytes, S[e] - S[s] taken as a segment sum of
the group's terms against power tables precomputed once at import:
temporaries stay bounded whatever the input size. All uint64 wraparound
arithmetic. The body is then XORed with length * 0x9E3779B97F4A7C15 and
finalized by splitmix64.
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


#: Bytes per row group. A call's temporaries are one scratch buffer of
#: GROUP_BYTES u64 (0.5 MB) plus a few u64 per row, whatever the input
#: size; the two power tables hold GROUP_BYTES + 1 u64 each.
GROUP_BYTES = 64 << 10


def _powers(x: np.uint64, n: int) -> np.ndarray:
    """[x^0, x^1, ..., x^n] mod 2^64."""
    out = np.empty(n + 1, dtype=U64)
    out[0] = U64(1)
    with np.errstate(over="ignore"):
        np.cumprod(np.full(n, x, dtype=U64), out=out[1:])
    return out


_QPOW = _powers(POLY_Q, GROUP_BYTES)
_PPOW = _powers(POLY_P, GROUP_BYTES)
_MASK64 = (1 << 64) - 1


def _weighted(span: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t[:len(span)] = (span + 0x101) * Q^i, the bytes' terms of S."""
    w = t[:len(span)]
    np.add(span, U64(0x101), out=w, dtype=U64)
    np.multiply(w, _QPOW[:len(span)], out=w)
    return w


def _fold_long(row: np.ndarray, t: np.ndarray, g: int) -> int:
    """Body hash of one row longer than a group: each chunk of at most `g`
    bytes is hashed on its own and folded in with H(x||y) = H(x)·P^|y| + H(y)."""
    h = 0
    for c in range(0, len(row), g):
        m = min(g, len(row) - c)
        chunk = int(_weighted(row[c:c + m], t).sum()) * int(_PPOW[m - 1])
        h = (h * int(_PPOW[m]) + chunk) & _MASK64
    return h


def _hash_buffer(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 seed: int) -> np.ndarray:
    """Polynomial hash of the slices [starts, ends) of `data`, laid out as
    Arrow rows (each row starts where the one before it ends).

    Consecutive rows are hashed in groups whose bytes span at most
    GROUP_BYTES: a group's weighted bytes go into one reused scratch buffer
    and each row's S[e] - S[s] is its segment sum (`np.add.reduceat`). The
    hash is translation-invariant, so a row hashes the same whatever group
    it falls in. A row longer than a group is folded chunk by chunk
    (`_fold_long`)."""
    n = len(starts)
    g = GROUP_BYTES
    body = np.zeros(n, dtype=U64)
    t = np.empty(g, dtype=U64)
    with np.errstate(over="ignore"):
        i = 0
        while i < n:
            base = int(starts[i])
            j = int(np.searchsorted(ends, base + g, side="right"))
            if j <= i:
                body[i] = _fold_long(data[base:int(ends[i])], t, g)
                i += 1
                continue
            w = _weighted(data[base:int(ends[j - 1])], t)
            st = starts[i:j] - base
            # rows are contiguous, so from one row's start to the next row's
            # start lie exactly its bytes; the group's trailing empty rows
            # start at len(w), outside reduceat's range, and are left out
            k = int(np.searchsorted(st, len(w)))
            body[i:i + k] = (np.add.reduceat(w, st[:k])
                             * _PPOW[ends[i:i + k] - base - 1])
            i = j
        lengths = (ends - starts).astype(U64)
        # an empty row inside a group got its successor's first term (and
        # any power); its body is 0
        body[lengths == 0] = 0
        return splitmix64(body ^ (lengths * _SM_GAMMA), seed=seed)


def _null_hash(seed: int) -> np.uint64:
    """The hash of a null under `seed`: drawn from a DISTINCT seed stream,
    so a null never collides with a real value's hash under the data seed."""
    return splitmix64(np.asarray([U64(0xDEAD)], dtype=U64),
                      seed=(seed ^ 0xA5A5_5A5A_F00D_BEEF))[0]


def _binary_array_parts(arr: pa.Array):
    """(data_u8, starts, ends) of a string/binary array, honoring offset.

    `data` is only the rows' own byte span [first start, last end) of the
    value buffer, and starts/ends are rebased to it: a zero-copy slice of a
    large array scans its own bytes, not the whole buffer. The polynomial
    hash is translation-invariant (see the module docstring), so hashes do
    not depend on where the span begins."""
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

    Nulls hash to one fixed sentinel, `_null_hash(seed)`.
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
        out[np.asarray(arr.is_null())] = _null_hash(seed)
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
        # all-None python input infers Arrow type `null`; a fully-null
        # column shards exactly like the null rows of a typed column
        h = np.full(len(values), _null_hash(seed), dtype=U64)
    else:
        h = hash_arrow_array(values, seed=seed)
    return (h % np.uint64(num_shards)).astype(np.int64)
