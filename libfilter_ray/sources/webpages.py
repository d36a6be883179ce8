"""Deterministic Common-Crawl-style web-page table.

`BASELINE.json` `input_hint` pins the engine's input shape:
    (url:string, warc_ts:timestamp, html:binary, text:string, lang:string)

No external data is allowed, so the table is *synthesized deterministically*
from the driver-generated `documents` table (doc_id, text, lang, source,
n_chars): url/warc_ts derive from doc_id, and `html` wraps `text` in a fixed
markup template whose extraction (stages/extract.py) is byte-identical to
`text` — the per-row invariant the north star demands.

Everything here is vectorized — pyarrow.compute, plus one polars
multi-pattern rewrite (`replace_many`) for the page body — no per-row
Python.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WEBPAGE_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])

# WARC capture epoch for synthetic timestamps (arbitrary fixed constant).
WARC_EPOCH_US = np.int64(1_709_251_200_000_000)  # 2024-03-01T00:00:00Z in µs


#: The page-body codec, one ordered table: text -> markup. A blank line is
#: a paragraph break and a single newline a <br/>; "\n\n" precedes "\n" so
#: that a leftmost-first scan prefers it. The extractor runs the inverse
#: table in reverse order (stages/extract.py).
MARKUP = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\n\n": "</p><p>",
          "\n": "<br/>"}


def replace_many(col: pa.Array | pa.ChunkedArray,
                 mapping: dict[str, str]) -> pa.Array | pa.ChunkedArray:
    """Every key of `mapping` replaced by its value in one leftmost-first
    scan (Aho-Corasick, polars' `str.replace_many`): at each position the
    first listed key that matches wins, and replaced text is never scanned
    again. For the codec's tables, whose keys cannot start inside another
    key's match and whose values create no match for a later key, this
    equals replacing the keys one after another in table order. A string
    Array comes back as an Array and a ChunkedArray chunk by chunk; nulls
    stay null.

    polars is imported here, not at module level: importing this module
    (perfbench's input generator does, for `url_of`) and a lang job's
    driver, which never runs the codec, must not pay ~0.2 s and ~32 MB of
    peak RSS for `import polars`."""
    import polars as pl

    if isinstance(col, pa.ChunkedArray):
        return pa.chunked_array([replace_many(c, mapping) for c in col.chunks],
                                type=pa.string())
    return pl.from_arrow(col).str.replace_many(mapping, leftmost=True) \
        .to_arrow().cast(pa.string())


def url_of(doc_id, lang, source) -> pa.Array:
    """The deterministic url of a document — shared by the synthesis
    stage and every query that needs urls without the full page payload.
    ANSI-SQL equivalent (the oracle form):
    'https://' || source || '.example.org/' || lang || '/page-' ||
    lpad(CAST(doc_id AS VARCHAR), 8, '0') || '.html'"""
    idstr = pc.utf8_lpad(pc.cast(doc_id, pa.string()), 8, "0")
    # NB: binary_join_element_wise uses its LAST argument as the separator.
    return pc.binary_join_element_wise(
        "https://", source, ".example.org/", lang, "/page-", idstr,
        ".html", "")


def warc_ts_of(doc_id) -> pa.Array:
    """The deterministic capture timestamp of a document (µs precision).
    ANSI-SQL equivalent of the raw int64: 1709251200000000 + doc_id *
    1337000000."""
    return pa.array(
        WARC_EPOCH_US + np.asarray(doc_id, dtype=np.int64) * 1_337_000_000,
        type=pa.timestamp("us"))


def synthesize_webpages(batch: pa.Table) -> pa.Table:
    """documents batch -> web-page batch (url, warc_ts, html, text, lang)."""
    doc_id = batch["doc_id"]
    text = batch["text"]
    lang = batch["lang"]
    source = batch["source"]

    url = url_of(doc_id, lang, source)
    ts = warc_ts_of(doc_id)

    body = replace_many(text, MARKUP)
    html = pc.binary_join_element_wise(
        "<html><head><meta charset=\"utf-8\"/><title>", url,
        "</title></head>\n<body>\n<nav>example.org index</nav>\n<article><p>",
        body,
        "</p></article>\n<footer>&copy; example.org</footer>\n</body></html>",
        "")
    html = pc.cast(html, pa.binary())

    return pa.table({
        "url": url, "warc_ts": ts, "html": html,
        "text": text, "lang": lang,
    })


def _replicate_docs(batch: pa.Table, factor: int) -> pa.Table:
    """Deterministically expand a documents batch `factor`x: replica r gets
    doc_id' = doc_id*factor + r (so urls/timestamps stay unique). Used by the
    bench to scale work beyond the tiny driver-generated documents table."""
    n = batch.num_rows
    reps = [batch.set_column(
        batch.schema.get_field_index("doc_id"), "doc_id",
        pa.array(np.asarray(batch["doc_id"], dtype=np.int64) * factor + r,
                 type=pa.int64()))
        for r in range(factor)]
    return pa.concat_tables(reps)


def _read_row_groups(path: str, groups: list[int],
                     columns: list[str]) -> list[pa.Table]:
    """The read of one run of consecutive row groups: one block."""
    import pyarrow.parquet as pq

    return [pq.ParquetFile(path).read_row_groups(groups, columns=columns)]


def _row_group_source(path: str, columns: list[str]):
    """A Ray Datasource over one parquet file that reads one run of
    consecutive row groups per task.

    `ray.data.read_parquet` reads a file in one task; when the read must
    give more blocks than it has files, Ray splits each task's output
    (`SplitBlocks`), and a split read cannot fuse with the map after it
    (Ray 2.49, `ray/data/_internal/logical/rules/operator_fusion.py`).
    Cutting the row groups into `min(parallelism, row groups)` runs gives
    one block per task, so the read fuses with every map after it. When
    the file has fewer row groups than the read wants blocks, Ray adds
    the same `SplitBlocks` to these tasks.

    Defined here, not at module level, so that importing this module
    (perfbench's input generator does, for `url_of`) stays Ray-free."""
    import pyarrow.parquet as pq
    import ray.data
    from ray.data.block import BlockMetadata

    class RowGroupDatasource(ray.data.Datasource):
        def __init__(self):
            meta = pq.read_metadata(path)
            groups = [meta.row_group(g) for g in range(meta.num_row_groups)]
            self._rows = [g.num_rows for g in groups]
            # the footer's uncompressed bytes of the selected columns
            self._bytes = [sum(
                g.column(i).total_uncompressed_size
                for i in range(g.num_columns)
                if g.column(i).path_in_schema.split(".")[0] in columns)
                for g in groups]
            schema = meta.schema.to_arrow_schema()
            self._schema = pa.schema([schema.field(c) for c in columns])

        def estimate_inmemory_data_size(self) -> int:
            return sum(self._bytes)

        def get_read_tasks(self, parallelism: int):
            runs = np.array_split(np.arange(len(self._rows)),
                                  max(1, min(parallelism, len(self._rows))))
            return [ray.data.ReadTask(
                functools.partial(_read_row_groups, path, run.tolist(),
                                  columns),
                BlockMetadata(
                    num_rows=sum(self._rows[g] for g in run),
                    size_bytes=sum(self._bytes[g] for g in run),
                    input_files=[path], exec_stats=None),
                schema=self._schema) for run in runs]

    return RowGroupDatasource()


def read_webpages(sf_dir: str, *, include_html: bool = True,
                  replicate: int = 1, parallelism: int | None = None):
    """Ray Dataset of the web-page table for a testdata scale-factor dir.

    Column-pruned read of documents.parquet, one task per run of its row
    groups (`_row_group_source`) -> vectorized synthesis stage.
    `parallelism` sets the block count outright. `replicate` > 1
    deterministically expands the corpus for benchmarking.
    """
    import ray.data

    cols = ["doc_id", "text", "lang", "source"]
    ds = ray.data.read_datasource(
        _row_group_source(f"{sf_dir}/documents.parquet", cols),
        override_num_blocks=parallelism or None)
    if replicate > 1:
        # batch_size=None = one batch per block: a fixed batch_size here
        # coalesces many small read blocks into few huge tasks and collapses
        # the parallelism of everything fused downstream
        ds = ds.map_batches(lambda b: _replicate_docs(b, replicate),
                            batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(synthesize_webpages, batch_format="pyarrow")
    if not include_html:
        ds = ds.select_columns(["url", "warc_ts", "text", "lang"])
    return ds
