"""html -> text extraction stage.

The reference has no extraction (it consumes pre-hashed keys); the engine's
north star adds the per-row invariant "byte-identical extracted text per url"
(BASELINE.json input_hint). The extractor inverts the fixed markup produced by
sources/webpages.py: strip head/nav/footer chrome, restore paragraph and line
breaks, unescape entities. The article body is cut at marker offsets over the
html's own value buffer (numpy offset arithmetic plus one Arrow `take`): it
runs from the end of the FIRST `<article><p>` to the start of the LAST
`</p></article>` (greedy, as `(?s)<article><p>(.*)</p></article>` would
match). The unescaping is pyarrow.compute. Vectorized, stateless,
parallelism-safe at any width.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_BODY_OPEN = "<article><p>"
_BODY_CLOSE = "</p></article>"


def _article_body(s: pa.StringArray) -> pa.StringArray:
    """Per row, the bytes between the first open and the last close marker;
    the whole row when either is missing or the close starts before the open
    ends. Nulls stay null."""
    n = len(s)
    if n == 0:
        return s
    lo = np.asarray(pc.fill_null(pc.find_substring(s, _BODY_OPEN), -1),
                    dtype=np.int64)
    rev = pc.binary_reverse(s.view(pa.binary()))
    rc = np.asarray(pc.fill_null(pc.find_substring(rev, _BODY_CLOSE[::-1]),
                                 -1), dtype=np.int64)
    row_offsets = np.frombuffer(s.buffers()[1], dtype=np.int32,
                                count=n + s.offset + 1)[s.offset:]
    starts = row_offsets[:-1].astype(np.int64)
    ends = row_offsets[1:].astype(np.int64)
    close_at = ends - starts - rc - len(_BODY_CLOSE)
    ok = (lo >= 0) & (rc >= 0) & (close_at >= lo + len(_BODY_OPEN))
    # [base, lo0, hi0, lo1, hi1, ...] over the array's own value buffer:
    # value 2i+1 is row i's body, value 2i the bytes skipped before it;
    # offsets stay non-decreasing because each body lies inside its own row
    offsets = np.empty(2 * n + 1, dtype=np.int64)
    offsets[0] = row_offsets[0]
    offsets[1::2] = np.where(ok, starts + lo + len(_BODY_OPEN), starts)
    offsets[2::2] = np.where(ok, starts + close_at, ends)
    data = s.buffers()[2]
    if data is None:
        data = pa.py_buffer(b"")
    spans = pa.Array.from_buffers(pa.large_string(), 2 * n,
                                  [None, pa.py_buffer(offsets), data])
    mask = s.is_null().to_numpy(zero_copy_only=False) if s.null_count else None
    idx = pa.array(np.arange(1, 2 * n, 2, dtype=np.int64), mask=mask)
    return spans.take(idx).cast(pa.string())


def extract_text(html: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Extract the article text from a binary or string html column,
    byte-identical to the original text for pages produced by
    synthesize_webpages.

    A row whose first `<article><p>` is not followed by a `</p></article>`
    keeps its whole (unescaped) string; a null row stays null. Rows must be
    valid UTF-8. A ChunkedArray is cut chunk by chunk and returned chunked."""
    s = pc.cast(html, pa.string())
    if isinstance(s, pa.ChunkedArray):
        body = pa.chunked_array([_article_body(c) for c in s.chunks],
                                type=pa.string())
    else:
        body = _article_body(s)
    # restore line structure, then unescape (reverse order of synthesis)
    body = pc.replace_substring(body, "</p><p>", "\n\n")
    body = pc.replace_substring(body, "<br/>", "\n")
    body = pc.replace_substring(body, "&lt;", "<")
    body = pc.replace_substring(body, "&gt;", ">")
    body = pc.replace_substring(body, "&amp;", "&")
    return body


def verify_extract_stage(batch: pa.Table) -> pa.Table:
    """extract + per-row invariant check: extracted == text, byte-for-byte.

    Drops the html column so ~100 KB html rows do not travel past this stage
    (SURVEY.md §7.4)."""
    extracted = extract_text(batch["html"])
    ok = pc.equal(extracted, batch["text"])
    bad = batch.filter(pc.invert(pc.fill_null(ok, False)))
    if bad.num_rows:
        raise AssertionError(
            f"extract invariant violated for {bad.num_rows} rows, "
            f"first url={bad['url'][0].as_py()!r}")
    out = batch.append_column("text_extracted", extracted)
    return out.drop_columns(["html"])
