"""Sliding-window document chunking — the RAG/indexing flat_map.

Splits each document into overlapping word-window chunks
(`window` tokens, `stride` tokens apart; the last chunk is the tail
remainder), the expansion step in front of an embedding or
inverted-index build. Chunk text is a SLICE OF THE ORIGINAL string —
whitespace-split tokens rejoined with ' ' reconstruct the source
exactly, so chunk boundaries are computed as character offsets
(vectorized cumulative token lengths) and only the final substring
extraction is per-chunk Python (bounded by OUTPUT rows).

Chunk-count rule shared verbatim with the SQL oracle:
n_chunks = ceil(max(L - window, 0) / stride) + 1 for L tokens — every
token is covered, no fully-redundant tail windows.

The reference engine has no text expansion ops; engine addition for
the retrieval-prep family.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def chunk_documents(ds, text_col: str, id_col: str, *,
                    window: int = 64, stride: int = 32):
    """Dataset of (id, chunk_id, chunk, n_tokens): whitespace-token
    sliding windows per document. Null texts are excluded; an empty
    text yields one empty chunk (split('') is [''] — SQL parity)."""
    if window < 1 or stride < 1:
        raise ValueError("chunk: window and stride must be >= 1")
    if stride > window:
        raise ValueError(
            "chunk: stride > window would skip tokens (gap windows); "
            "use stride <= window")

    def fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.is_valid(t[text_col]))
        n = t.num_rows
        empty = pa.table({
            id_col: pa.array([], type=pa.int64()),
            "chunk_id": pa.array([], type=pa.int64()),
            "chunk": pa.array([], type=pa.string()),
            "n_tokens": pa.array([], type=pa.int64())})
        if not n:
            return empty
        text = t[text_col].combine_chunks() \
            if isinstance(t[text_col], pa.ChunkedArray) else t[text_col]
        lists = pc.split_pattern(text, " ")
        flat = pc.list_flatten(lists)
        L = np.asarray(pc.list_value_length(lists), dtype=np.int64)
        splits = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(L, out=splits[1:])
        # char offset of token j inside its doc: cumulative (len+1),
        # rebased per doc — ' '.join(tokens) IS the original text
        tok_len = np.asarray(pc.utf8_length(flat), dtype=np.int64)
        prefix = np.zeros(len(tok_len) + 1, dtype=np.int64)
        np.cumsum(tok_len + 1, out=prefix[1:])

        n_chunks = (np.maximum(L - window, 0) + stride - 1) \
            // stride + 1
        total = int(n_chunks.sum())
        doc = np.repeat(np.arange(n, dtype=np.int64), n_chunks)
        first = np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
        g = np.arange(total, dtype=np.int64) - first
        start = g * stride
        end = np.minimum(start + window, L[doc])
        base = splits[doc]
        doc_base = prefix[base]
        ccs = prefix[base + start] - doc_base
        cce = prefix[base + end] - doc_base - 1  # drop trailing space
        texts = text.to_pylist()
        chunks = [texts[d][a:b]  # per-OUTPUT-row slice, see module doc
                  for d, a, b in zip(doc.tolist(), ccs.tolist(),
                                     cce.tolist())]
        ids = t[id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[doc]
        return pa.table({
            id_col: pa.array(ids),
            "chunk_id": pa.array(g),
            "chunk": pa.array(chunks, type=pa.string()),
            "n_tokens": pa.array((end - start).astype(np.int64)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")
