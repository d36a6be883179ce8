"""Vectorized byte-shingle hashing and winnowing fingerprints over Arrow
string columns.

Engine additions beyond the reference (training-data text family). A
shingle hashes exactly as its bytes would on their own under the engine's
string hash (``sketch/hashing.py``): each run of shingles is gathered into
one contiguous buffer of windows and hashed by the hash kernel in one call,
so there is no per-row Python and no second hash implementation.

Winnowing is the published algorithm (Schleimer/Wilkes/Aiken 2003).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from numpy.lib.stride_tricks import sliding_window_view

from ..sketch.hashing import GROUP_BYTES, _binary_array_parts, _hash_buffer

U64 = np.uint64


def _as_array(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col


def shingle_hashes(col: pa.Array | pa.ChunkedArray, k: int = 5,
                   seed: int = 0x5419E1E5):
    """All k-byte shingle hashes for every row of a string column.

    Returns (flat u64 hashes, row_splits int64[len+1]); rows shorter than k
    contribute ONE whole-row hash so no row is empty. Shingles are hashed in
    runs whose windows span at most `GROUP_BYTES` bytes: a run's windows are
    gathered into one contiguous buffer, one row per window, for
    `_hash_buffer`. Besides the output, memory stays bounded by the run,
    whatever the column or row size.
    """
    data, starts, ends = _binary_array_parts(_as_array(col))
    lengths = ends - starts
    row_splits = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(np.maximum(lengths - k + 1, 1), out=row_splits[1:])
    out = np.empty(int(row_splits[-1]), dtype=U64)
    step = max(GROUP_BYTES // k, 1)
    for s0 in range(0, len(out), step):
        s = np.arange(s0, min(s0 + step, len(out)), dtype=np.int64)
        row = np.searchsorted(row_splits, s, side="right") - 1
        w_len = np.minimum(lengths[row], k)
        w_end = np.cumsum(w_len)  # window ends in the gathered buffer
        w_start = starts[row] + (s - row_splits[row])
        if w_end[-1] == k * len(s):  # every window is k bytes long
            buf = sliding_window_view(data, k)[w_start].ravel()
        else:  # byte j of a window sits at its start + j in `data`
            buf = data[np.arange(int(w_end[-1]))
                       + np.repeat(w_start - w_end + w_len, w_len)]
        out[s0:s0 + len(s)] = _hash_buffer(buf, w_end - w_len, w_end, seed)
    return out, row_splits


def _run_starts(rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Mask of the entries whose (row, value) differs from the one before."""
    return np.r_[True, (rows[1:] != rows[:-1]) | (vals[1:] != vals[:-1])]


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
        # XOR of UNIQUE minima per row. Windows that share their minimum
        # give runs of one value, so drop those repeats first; then
        # lexsort what is left, drop in-row duplicates, and
        # bitwise_xor.reduceat at row starts
        keep = _run_starts(rows, vals)
        rows, vals = rows[keep], vals[keep]
        order = np.lexsort((vals, rows))
        rows, vals = rows[order], vals[order]
        keep = _run_starts(rows, vals)
        rows, vals = rows[keep], vals[keep]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        out[rows[starts]] = np.bitwise_xor.reduceat(vals, starts)
    return out
