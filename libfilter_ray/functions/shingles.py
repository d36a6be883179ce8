"""Vectorized byte-shingle hashing and winnowing fingerprints over Arrow
string columns.

Engine additions beyond the reference (training-data text family); the
rolling-hash machinery reuses the invertible polynomial prefix-sum trick from
``sketch/hashing.py``: with S[k] = sum_{i<k} b[i]·Q^i, the hash of ANY window
[i, i+k) is (S[i+k] − S[i])·P^(i+k−1) — so every k-gram hash of every row in
a batch comes out of one cumsum + one elementwise pass, no per-row Python.

Winnowing is the published algorithm (Schleimer/Wilkes/Aiken 2003).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sketch.hashing import (POLY_P, POLY_Q, _binary_array_parts, splitmix64)

U64 = np.uint64


def _as_array(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col


def shingle_hashes(col: pa.Array | pa.ChunkedArray, k: int = 5,
                   seed: int = 0x5419E1E5):
    """All k-byte rolling shingle hashes for every row of a string column.

    Returns (flat u64 hashes, row_splits int64[len+1]); rows shorter than k
    contribute ONE whole-row hash so no row is empty. Fully vectorized.
    """
    arr = _as_array(col)
    data, starts, ends = _binary_array_parts(arr)
    n = len(starts)
    if n == 0:
        return np.empty(0, dtype=U64), np.zeros(1, dtype=np.int64)
    L = len(data)
    with np.errstate(over="ignore"):
        qpow = np.empty(L + 1, dtype=U64)
        qpow[0] = U64(1)
        ppow = np.empty(L + 1, dtype=U64)
        ppow[0] = U64(1)
        if L:
            np.cumprod(np.broadcast_to(POLY_Q, L).astype(U64), out=qpow[1:])
            np.cumprod(np.broadcast_to(POLY_P, L).astype(U64), out=ppow[1:])
        s = np.empty(L + 1, dtype=U64)
        s[0] = U64(0)
        if L:
            np.cumsum((data.astype(U64) + U64(0x101)) * qpow[:L], out=s[1:])

        lengths = ends - starts
        counts = np.where(lengths >= k, lengths - k + 1, 1).astype(np.int64)
        row_splits = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=row_splits[1:])
        total = int(row_splits[-1])
        # window start index for every shingle: row start + offset-in-row
        row_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        pos_in_row = np.arange(total, dtype=np.int64) - row_splits[:-1][row_of]
        w_start = starts[row_of] + pos_in_row
        w_len = np.where(lengths[row_of] >= k, k, lengths[row_of])
        w_end = w_start + w_len
        e1 = np.maximum(w_end, 1)
        h = (s[w_end] - s[w_start]) * ppow[e1 - 1]
        h[w_end == w_start] = U64(0)
        return splitmix64(h ^ (w_len.astype(U64) * U64(0x9E3779B97F4A7C15)),
                          seed=seed), row_splits


def winnow_fingerprints(col, k: int = 8, window: int = 4,
                        seed: int = 0x111101) -> np.ndarray:
    """Winnowing document fingerprint (Schleimer et al. 2003): per row, the
    XOR of the min shingle hash in each sliding window of `window` shingles —
    a stable u64 content fingerprint robust to small local edits.

    Vectorized via a strided sliding-window minimum over the flat shingle
    array (windows crossing row boundaries are masked out by re-reducing
    per-row with reduceat over window minima)."""
    flat, splits = shingle_hashes(col, k=k, seed=seed)
    n = len(splits) - 1
    out = np.zeros(n, dtype=U64)
    if len(flat) == 0:
        return out
    counts = np.diff(splits)
    # short rows (<= window shingles): fingerprint = min shingle
    mins = np.minimum.reduceat(flat, np.minimum(splits[:-1], len(flat) - 1))
    short = counts <= window
    out[short & (counts > 0)] = mins[short & (counts > 0)]
    if (counts > window).any():
        # ONE global sliding-window min over the flat array; windows that
        # cross a row boundary are masked out by their start position
        W = np.lib.stride_tricks.sliding_window_view(flat, window) \
            .min(axis=1)
        s = np.arange(len(W), dtype=np.int64)
        row_of = np.searchsorted(splits, s, side="right") - 1
        valid = (s + window) <= splits[row_of + 1]
        rows, vals = row_of[valid], W[valid]
        # XOR of UNIQUE minima per row: lexsort, drop in-row duplicates,
        # bitwise_xor.reduceat at row starts
        order = np.lexsort((vals, rows))
        rows, vals = rows[order], vals[order]
        keep = np.r_[True, (rows[1:] != rows[:-1]) | (vals[1:] != vals[:-1])]
        rows, vals = rows[keep], vals[keep]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        out[rows[starts]] = np.bitwise_xor.reduceat(vals, starts)
    return out
