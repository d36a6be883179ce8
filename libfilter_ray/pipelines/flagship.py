"""Flagship pipeline: the engine equivalent of the reference's HIBP run
(cpp/extras/benchmarks/hibp.cpp:66-129 — read corpus -> build filters ->
evaluate membership/fpp -> report), re-expressed Ray-Data-first over the
Common-Crawl-style web-page table.

Exactly TWO Ray executions (fixed per-pipeline overhead matters at small
scale and stage count stays constant at 100 TB):

1. build: read documents -> synthesize pages -> extract text with the
   byte-identical invariant ENFORCED per row -> per-block per-lang BlockBloom
   partials -> one keyed merge (one task, or key-hash split and fold tasks
   for a large partial set; stages/sketch_build.merge_keyed).
2. probe: broadcast the per-lang filters (ray.put once), stream the pages
   again, count members found per lang inside each batch (vectorized),
   and sum the per-batch counts through the same keyed merge
   (stages/sketch_build.probe_grouped).

FPP on non-members is measured driver-side on a synthetic probe set
(vectorized, no Ray needed).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sketch import sizing
from ..sketch.block_bloom import BlockBloom
from ..sketch.hashing import hash_arrow_array
from ..sources.webpages import read_webpages
from ..stages.extract import verify_extract_stage
from ..stages.sketch_build import build_grouped_multi, probe_grouped


def _absent_hashes(n: int) -> np.ndarray:
    """Hashes of the `n` urls `https://no-such.example.net/<i>`, which no
    page carries, built in Arrow (no Python string per url)."""
    ids = pc.cast(pa.array(np.arange(n)), pa.string())
    return hash_arrow_array(pc.binary_join_element_wise(
        "https://no-such.example.net/", ids, ""))


def _document_count(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows


def sketch_build_throughput_job(sf_dir: str, replicate: int = 400,
                                parallelism: int | None = None,
                                fpp: float = 0.01) -> pd.DataFrame:
    """The north-metric job ("documents/sec sketch-build throughput"): one
    streaming pass over the synthesized web-page corpus building FOUR
    mergeable sketches per lang — BlockBloom + HLL + CMS over url hashes and
    KLL over text length — through the one keyed merge. This is the
    workload `bench.py --scaling` times at two parallelism levels.

    Returns one row per lang with the sketch summaries (rows, filter bytes,
    distinct estimate, cms total, p50 length)."""
    from ..sketch.cms import CountMin
    from ..sketch.hll import HyperLogLog
    from ..sketch.kll import KLL

    total = _document_count(sf_dir) * replicate
    size = sizing.block_bytes_needed(max(total, 1), fpp)

    pages = read_webpages(sf_dir, replicate=replicate,
                          parallelism=parallelism).map_batches(
        verify_extract_stage, batch_format="pyarrow")

    def add_len(t: pa.Table) -> pa.Table:
        return t.append_column(
            "text_len", pc.cast(pc.utf8_length(t["text_extracted"]),
                                pa.float64()))

    pages = pages.map_batches(add_len, batch_format="pyarrow") \
        .select_columns(["url", "lang", "text_len"])
    grouped = build_grouped_multi(pages, "lang", [
        ("bloom", "block", {"bytes_": size}, "url"),
        ("hll", "hll", {"p": 14}, "url"),
        ("cms", "cms", {"width": 1 << 14, "depth": 4}, "url"),
        ("kll", "kll", {"k": 200}, "text_len"),
    ])
    rows = []
    for _, r in grouped.iterrows():
        rows.append({
            "lang": r["lang"], "rows": int(r["rows"]),
            "bloom_bytes": len(r["payload_bloom"]),
            "distinct_urls_est":
                round(HyperLogLog.from_bytes(r["payload_hll"]).estimate(), 1),
            "cms_total": int(CountMin.from_bytes(r["payload_cms"]).total),
            "len_p50": round(KLL.from_bytes(r["payload_kll"]).quantile(0.5), 1),
        })
    return pd.DataFrame(rows).sort_values("lang").reset_index(drop=True)


def flagship(sf_dir: str, fpp: float = 0.01, replicate: int = 1,
             parallelism: int | None = None) -> pd.DataFrame:
    """Returns one row per lang: rows, filter bytes, members found, fpp."""
    # size from parquet metadata (free): conservative upper bound = total
    # rows; a 100 TB run would take the lang histogram from a stats pass.
    total = _document_count(sf_dir) * replicate
    size = sizing.block_bytes_needed(max(total, 1), fpp)

    # --- Ray execution 1: build (extract invariant enforced in-pipeline) ---
    pages = read_webpages(sf_dir, replicate=replicate,
                          parallelism=parallelism).map_batches(
        verify_extract_stage, batch_format="pyarrow")
    grouped = build_grouped_multi(pages, "lang", [
        ("bloom", "block", {"bytes_": size}, "url")])

    # --- Ray execution 2: broadcast probe, per-batch vectorized counts ----
    # Filters are sized for the TOTAL corpus, so at scale the set is MBs —
    # probe_grouped ships the serialized payloads ONCE via ray.put and each
    # worker process deserializes them once (cached_broadcast), never once
    # per cloudpickled task closure. (For GB-scale frozen filters use
    # stages.sketch_build.probe_stage with an actor pool instead.)
    probe = probe_grouped(
        read_webpages(sf_dir, include_html=False, replicate=replicate,
                      parallelism=parallelism).select_columns(["url", "lang"]),
        {row["lang"]: bytes(row["payload_bloom"])
         for _, row in grouped.iterrows()},
        BlockBloom.from_bytes, "lang", "url")

    # --- driver-side fpp measurement (vectorized, tiny) -------------------
    probe_hashes = _absent_hashes(65536)
    out = []
    probe = probe.set_index("lang")
    for _, row in grouped.iterrows():
        f = BlockBloom.from_bytes(row["payload_bloom"])
        lang = row["lang"]
        out.append({
            "lang": lang, "rows": int(row["rows"]),
            "filter_bytes": f.size_in_bytes(),
            "members_found": int(probe.loc[lang, "found"]),
            "fpp_measured": round(float(f.find_hashes(probe_hashes).mean()), 5),
            "fpp_configured": fpp,
        })
    df = pd.DataFrame(out).sort_values("lang").reset_index(drop=True)
    # production invariant — a real raise, not an assert (compiled out
    # under python -O)
    if not (df["members_found"] == df["rows"]).all():
        raise RuntimeError(
            "false negatives detected — BlockBloom invariant violated")
    return df
