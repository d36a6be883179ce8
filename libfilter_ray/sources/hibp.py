"""HIBP-style source: line-oriented `<40-hex-SHA1>:<count>` text files.

Mirrors the reference's only real-corpus reader
(``cpp/extras/benchmarks/hibp.cpp:27-31,79-90``): each line's LOW 16 hex
characters (positions 24..39) decode to a u64 key with *reversed nibble
order* — ``x = Σ FromHex(line[39-i]) << (4*(15-i))`` — i.e. the key's hex
digits written back-to-front. ``parse_hibp_lines`` reproduces that decode
bit-exactly, fully vectorized (numpy nibble table over the raw line buffer).

No external data is allowed, so ``write_hibp_file`` synthesizes a corpus in
the same format from any u64 hash array (top 24 hex chars are filler derived
from the key, as in real SHA1 prefixes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sketch.hashing import splitmix64

_HEX = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)

# FromHex (hibp.cpp:27-31): '0'-'9' -> 0-9, else 10 + c - 'A'
_FROMHEX = np.zeros(256, dtype=np.uint8)
for _c in range(ord("0"), ord("9") + 1):
    _FROMHEX[_c] = _c - ord("0")
for _c in range(ord("A"), ord("F") + 1):
    _FROMHEX[_c] = 10 + _c - ord("A")


def _hex_chars(vals: np.ndarray, n_digits: int) -> np.ndarray:
    """(len, n_digits) uint8 ASCII hex (MSB first) of u64 values."""
    out = np.empty((len(vals), n_digits), dtype=np.uint8)
    for d in range(n_digits):
        shift = np.uint64(4 * (n_digits - 1 - d))
        out[:, d] = _HEX[((vals >> shift) & np.uint64(0xF)).astype(np.int64)]
    return out


def write_hibp_file(path: str, keys: np.ndarray,
                    counts: np.ndarray | None = None) -> None:
    """Write `<40-hex>:<count>` lines such that parse_hibp_lines(file) ==
    keys, in order. Positions 24..39 hold the key's 16 hex digits REVERSED
    (the reference reads them back-to-front); 0..23 are deterministic filler.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    n = len(keys)
    if counts is None:
        counts = (splitmix64(keys, seed=77) % np.uint64(1000)).astype(np.int64) + 1
    filler1 = _hex_chars(splitmix64(keys, seed=1), 16)
    filler2 = _hex_chars(splitmix64(keys, seed=2), 8)
    key_hex = _hex_chars(keys, 16)[:, ::-1]  # reversed nibble order
    lines = []
    body = np.concatenate([filler1, filler2, key_hex], axis=1)
    for i in range(n):  # join with per-line counts (I/O path, not hot)
        lines.append(body[i].tobytes().decode("ascii") + f":{counts[i]}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def parse_hibp_lines(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Vectorized decode of HIBP lines -> u64 keys, bit-exact to the
    reference's FromHex loop (hibp.cpp:79-90)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    import pyarrow.compute as pc

    from ..sketch.hashing import _binary_array_parts

    if len(col) == 0:  # empty read split: no lines, no keys
        return np.empty(0, dtype=np.uint64)
    hex16 = pc.utf8_slice_codeunits(col, 24, 40)
    if isinstance(hex16, pa.ChunkedArray):
        hex16 = hex16.combine_chunks()
    data, starts, ends = _binary_array_parts(hex16)
    assert ((ends - starts) == 16).all(), "malformed HIBP line (short hex)"
    nib = _FROMHEX[data].astype(np.uint64).reshape(-1, 16)
    # x = (x << 4) | nib[39 - i]: nibble at column 15 is MSB, column 0 is LSB
    x = np.zeros(len(nib), dtype=np.uint64)
    for c in range(15, -1, -1):
        x = (x << np.uint64(4)) | nib[:, c]
    return x


def parse_stage(batch: pa.Table, column: str = "text") -> pa.Table:
    """map_batches stage: HIBP text lines -> (key u64-as-int64, count)."""
    import pyarrow.compute as pc

    keys = parse_hibp_lines(batch[column])
    counts = pc.cast(pc.utf8_slice_codeunits(
        batch[column], 41, 2**31 - 1), pa.int64())
    return pa.table({
        "key": pa.array(keys.view(np.int64), type=pa.int64()),
        "count": counts,
    })


def read_hibp(path: str):
    """Ray Dataset of parsed (key, count) rows from an HIBP-format file."""
    import ray.data

    return ray.data.read_text(path).map_batches(
        parse_stage, batch_format="pyarrow")
