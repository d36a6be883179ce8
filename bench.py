"""Benchmark harness.

Plain run: executes the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(num_cpus=$RAY_GRAFT_CPUS, default 32)
and prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "docs_per_sec": ...}

--scaling: runs the same bench in two fresh subprocesses at 8 and 32 CPUs
on the same input and reports both throughputs + scaling efficiency
(the sandbox evidence for the N vs 4N cluster criterion — BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

#: documented per-entry host-mood bands at sf0.1/32 CPUs (seconds) —
#: provenance in BASELINE.md (each was anchored when its entry landed,
#: widened only with a recorded slow-host observation). The bench JSON
#: reports breaches under "band_breaches" so a regression is machine-
#: checkable instead of prose-checkable. Entries without a documented
#: band are intentionally absent.
BANDS: dict[str, tuple[float, float]] = {
    "exact_value_quantiles": (2.0, 4.6),
    "part_lineitem_full_join": (3.5, 7.5),
    "lm_quality_filter": (4.0, 9.5),
    "shipping_priority": (4.0, 8.0),
    "keyword_topk": (1.8, 4.5),
    "quality_percentile_cut": (2.2, 5.5),
}


def _warm_cache() -> None:
    import glob

    for f in glob.glob(f"{SF_DIR}/*.parquet"):
        with open(f, "rb") as fh:
            fh.read()


def _warm_workers() -> None:
    """Untimed warm pipeline: a real mini-workload per worker — faults in
    the numpy/arrow heap paths the timed kernels use. On this microVM fresh
    page faults run ~100x slower than warm pages; production workers are
    long-lived and warm, so steady state is the honest measurement. Shared
    by run_bench and the --scaling children so both warm the SAME paths."""
    import ray

    def _warm(b):
        import numpy as _np
        import pyarrow.parquet as _pq

        from libfilter_ray.sketch.hashing import DEFAULT_SEED
        from libfilter_ray.sources.webpages import (_replicate_docs,
                                                    synthesize_webpages)
        from libfilter_ray.stages.extract import verify_extract_stage
        from libfilter_ray.stages.sketch_build import \
            _MultiGroupedPartialBuilder

        t = _pq.read_table(f"{SF_DIR}/documents.parquet",
                           columns=["doc_id", "text", "lang", "source"]) \
            .slice(0, 80)
        pages = verify_extract_stage(
            synthesize_webpages(_replicate_docs(t, 400)))
        bld = _MultiGroupedPartialBuilder(
            [("bloom", "block", {"bytes_": 2 << 20}, "url")], "lang",
            DEFAULT_SEED)
        bld(pages.select(["url", "lang"]))
        return {"x": _np.asarray(b["id"])}

    ray.data.range(NUM_CPUS * 2, override_num_blocks=NUM_CPUS * 2).map_batches(
        _warm, batch_size=1).materialize()


def run_bench() -> dict:
    import ray

    if not ray.is_initialized():
        # modest object store: sf0.1 blocks total ~100MB; a default-sized
        # (tens of GB) plasma mmap pays first-touch page faults at this
        # microVM's ~10-50 MB/s and dominates wall time with huge variance
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=4 << 30)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    from libfilter_ray.context import apply_scale_defaults

    apply_scale_defaults()
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from libfilter_ray.pipelines import queries as q
    from libfilter_ray.pipelines.flagship import flagship

    _warm_cache()

    _warm_workers()

    n_docs = None
    timings: dict[str, float] = {}

    # min-of-N protocol, as the reference's own benchmarks use ("min of 9
    # runs", doc/taffy/taffy.tex:1591-1604) — this microVM's page-reclaim
    # background activity adds multi-second noise to single runs
    reps = int(os.environ.get("GRAFT_BENCH_REPS", "2"))

    def timed(name, fn):
        best, out = float("inf"), None
        for _ in range(reps):
            t0 = time.perf_counter()
            out = fn(SF_DIR)
            best = min(best, time.perf_counter() - t0)
        timings[name] = round(best, 3)
        return out

    # headline: flagship per-lang BlockBloom build over synthesized web pages
    # (read -> synth -> extract-verify -> grouped build -> probe),
    # corpus deterministically replicated so the bench measures throughput,
    # not per-pipeline fixed overhead
    replicate = int(os.environ.get("GRAFT_BENCH_REPLICATE", "20"))
    flag = timed("flagship_block_bloom",
                 lambda sf: flagship(sf, replicate=replicate,
                                     parallelism=NUM_CPUS * 2))
    n_docs = int(flag["rows"].sum())

    timed("sketch_summary_events", q.q_sketch_summary_events)
    timed("pricing_summary", q.q_pricing_summary)
    timed("bloom_semijoin", q.q_bloom_semijoin)
    timed("distinct_users_by_type", q.q_distinct_users_by_type)
    timed("growable_filters_per_lang", q.q_growable_filters_per_lang)
    timed("text_stats_by_lang", q.q_text_stats_by_lang)
    timed("exact_dedup_docs", q.q_exact_dedup_docs)
    # high-cardinality grouped build (~2000 domain keys, sort-split partials)
    timed("domain_doc_counts", q.q_domain_doc_counts)
    # fact-x-fact hash-partitioned equi-join (orders x lineitem)
    timed("order_priority_revenue", q.q_order_priority_revenue)
    # composed prep: quality filter -> exact dedup -> per-lang stats
    timed("training_prep_pipeline", q.q_training_prep_pipeline)
    # corpus-level line dedup (exploded-line exact dedup + stats pass)
    timed("line_dedup_stats", q.q_line_dedup_stats)
    # zero-shuffle streaming cleaning: RE2 scrub + per-lang partials
    timed("pii_scrub_stats", q.q_pii_scrub_stats)
    # crawl curation: keep-newest capture per url (planted recrawls)
    timed("url_dedup_latest", q.q_url_dedup_latest)
    # self-trained frequency quality (vocab build + broadcast scoring)
    timed("freq_quality_stats", q.q_freq_quality_stats)
    # incremental-crawl snapshot diff (narrow full-outer classify)
    timed("crawl_delta", q.q_crawl_delta)
    # exact order statistics by iterative range refinement (4 streaming
    # passes over events.value, no group materialization)
    timed("exact_value_quantiles", q.q_exact_value_quantiles)
    # full-outer face of the hash-partitioned equi-join
    timed("part_lineitem_full_join", q.q_part_lineitem_full_join)
    # self-trained bigram LM quality filter (distributed model build +
    # broadcast scoring — the real-log-prob CCNet shape)
    timed("lm_quality_filter", q.q_lm_quality_filter)
    # TPC-H Q3 shape: semi-join prune -> fact x fact join -> top-10
    timed("shipping_priority", q.q_shipping_priority)
    # tf/df keyword extraction (doc-freq broadcast + per-doc top-3)
    timed("keyword_topk", q.q_keyword_topk)
    # Gopher-style top-30% cut via exact distributed order statistics
    timed("quality_percentile_cut", q.q_quality_percentile_cut)

    # single-process kernel throughput (comparable to the reference's
    # single-core table in BASELINE.md — SBBF insert/lookup M keys/s)
    kernels = kernel_throughput()

    total = round(sum(timings.values()), 3)
    docs_per_sec = round(n_docs / timings["flagship_block_bloom"], 1)
    breaches = {
        name: [timings[name], lo, hi]
        for name, (lo, hi) in BANDS.items()
        if name in timings and not lo <= timings[name] <= hi
    }
    result = {
        "metric": "headline_pipelines_total",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1],
        "num_cpus": NUM_CPUS,
        "docs": n_docs,
        "docs_per_sec": docs_per_sec,
        "kernel_mkeys_per_sec": kernels,
        # machine-checkable band verdicts (BASELINE.md documents each
        # band's provenance): {name: [sec, band_lo, band_hi]} for every
        # banded entry outside its band at sf0.1 — empty means all in
        "band_breaches": breaches,
    }
    ray.shutdown()
    return result


def kernel_throughput(n: int = 10_000_000) -> dict:
    """Vectorized single-process kernel rates in M keys/s (vs the reference's
    single-core SBBF numbers, doc/doc.tex:60-76)."""
    import numpy as np

    from libfilter_ray.sketch import sizing
    from libfilter_ray.sketch.block_bloom import BlockBloom
    from libfilter_ray.sketch.cms import CountMin
    from libfilter_ray.sketch.hll import HyperLogLog

    rng = np.random.default_rng(42)
    keys = rng.integers(0, 2**64, n, dtype=np.uint64)
    out = {}
    f = BlockBloom(sizing.block_bytes_needed(n, 0.01))
    f.add_hashes(keys)  # full-size warm pass: faults in heap+temps once
    f.find_hashes(keys)
    f.zero_out()
    t0 = time.perf_counter()
    f.add_hashes(keys)
    out["block_insert"] = round(n / (time.perf_counter() - t0) / 1e6, 1)
    t0 = time.perf_counter()
    f.find_hashes(keys)
    out["block_find"] = round(n / (time.perf_counter() - t0) / 1e6, 1)
    h = HyperLogLog(14)
    t0 = time.perf_counter()
    h.update(keys)
    out["hll_update"] = round(n / (time.perf_counter() - t0) / 1e6, 1)
    c = CountMin(width=1 << 16, depth=4)
    t0 = time.perf_counter()
    c.update(keys[:n // 4])
    out["cms_update"] = round((n // 4) / (time.perf_counter() - t0) / 1e6, 1)
    from libfilter_ray.sketch.taffy_cuckoo import TaffyCuckoo

    tcf = TaffyCuckoo(bytes_=1024)
    tcf.add_hashes(keys[:20000])
    probes = keys[: n // 10]
    tcf.find_hashes(probes)  # warm
    t0 = time.perf_counter()
    tcf.find_hashes(probes)
    out["tcf_find"] = round(len(probes) / (time.perf_counter() - t0) / 1e6, 1)
    return out


def run_headline_only() -> dict:
    """Child mode for --scaling: warm up, run ONLY the flagship build+probe
    at a compute-dominated replication factor, report docs/sec."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", object_store_memory=4 << 30)
    from ray.data import DataContext

    from libfilter_ray.context import apply_scale_defaults

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    apply_scale_defaults()

    _warm_workers()
    _warm_cache()
    from libfilter_ray.pipelines.flagship import sketch_build_throughput_job

    replicate = int(os.environ.get("GRAFT_SCALING_REPLICATE", "400"))
    # min-of-3: this microVM's page-reclaim noise swings single runs +-30%
    reps = int(os.environ.get("GRAFT_BENCH_REPS", "3"))
    dt, docs = float("inf"), 0
    for _ in range(reps):  # min-of-N: reference bench protocol
        t0 = time.perf_counter()
        df = sketch_build_throughput_job(SF_DIR, replicate=replicate,
                                         parallelism=NUM_CPUS * 2)
        dt = min(dt, time.perf_counter() - t0)
        docs = int(df["rows"].sum())
    ray.shutdown()
    return {"metric": "headline_only", "value": round(dt, 3), "unit": "sec",
            "docs": docs, "num_cpus": NUM_CPUS,
            "docs_per_sec": round(docs / dt, 1),
            "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1]}


def run_growth(ndv: int = 10_000_000, factor: float = 1.05,
               probe_n: int = 1 << 17, out=None) -> None:
    """Growth-curve protocol — the reference's primary published
    artifact (cpp/extras/benchmarks/bench.cpp:124-240 BenchHelp;
    doc/taffy/all-bench-100000000-014.txt): insert keys in geometric
    `factor` chunks and at every step emit CSV rows
    ``filter_name,ndv_start,ndv_finish,bytes,sample_type,payload``
    with sample types insert_nanos (per-key insert ns over the chunk),
    find_missing_nanos / find_present_nanos (per-key probe ns), and
    fpp (measured absent-probe hit rate). Single-process, like the
    reference. Documented deviations: probes are vectorized numpy
    batches of `probe_n` keys (default 2^17; the reference loops 1M
    scalar probes), so the to_fin_base/to_ins_base loop-overhead rows
    are meaningless here and are omitted; the growable TaffyCuckoo's
    per-key insert path caps its leg at 1e6 keys (honest engine
    limitation, noted on stderr)."""
    import numpy as np

    from libfilter_ray.sketch import sizing
    from libfilter_ray.sketch.block_bloom import BlockBloom
    from libfilter_ray.sketch.taffy_block import TaffyBlock
    from libfilter_ray.sketch.taffy_cuckoo import TaffyCuckoo

    out = out or sys.stdout
    rng = np.random.default_rng(14)
    to_insert = rng.integers(0, 2**64, ndv, dtype=np.uint64)
    to_find = rng.integers(0, 2**64, probe_n, dtype=np.uint64)
    tcf_cap = min(ndv, 1_000_000)
    filters = [
        ("SplitBlockBloom",
         BlockBloom(sizing.block_bytes_needed(ndv, 0.01)), ndv,
         "add_hashes"),
        ("TaffyBlock", TaffyBlock(ndv=1000, fpp=0.01), ndv, "add_hashes"),
        ("TaffyCuckoo", TaffyCuckoo(bytes_=1024), tcf_cap, "add_hashes"),
        # the distributed-build insert path (multi-pass vectorized
        # placement + vectorized upsize) runs the FULL ndv — same
        # membership/fpp semantics, different slot layout than the
        # sequential reference order (taffy_cuckoo.py:add_hashes_bulk)
        ("TaffyCuckooBulk", TaffyCuckoo(bytes_=1024), ndv,
         "add_hashes_bulk"),
    ]
    if tcf_cap < ndv:
        print(f"note: sequential TaffyCuckoo leg capped at {tcf_cap} keys "
              "(per-key reference-order insert path; TaffyCuckooBulk "
              "runs the full ndv)", file=sys.stderr)
    print("filter_name,ndv_start,ndv_finish,bytes,sample_type,payload",
          file=out)

    def emit(name, lo, hi, nbytes, stype, payload):
        print(f'"{name}",{lo},{hi},{nbytes},"{stype}",{payload:.6g}',
              file=out)

    for name, f, cap, insert_name in filters:
        insert = getattr(f, insert_name)
        last = 0
        while last < cap:
            hi = max(last + 1, min(cap, int(last * factor) + 1))
            t0 = time.perf_counter()
            insert(to_insert[last:hi])
            t1 = time.perf_counter()
            nbytes = f.size_in_bytes()
            emit(name, last, hi, nbytes, "insert_nanos",
                 (t1 - t0) * 1e9 / (hi - last))
            t0 = time.perf_counter()
            miss = f.find_hashes(to_find)
            t1 = time.perf_counter()
            emit(name, last, hi, nbytes, "find_missing_nanos",
                 (t1 - t0) * 1e9 / probe_n)
            emit(name, last, hi, nbytes, "fpp", float(miss.mean()))
            present = to_insert[rng.integers(0, hi, probe_n)]
            t0 = time.perf_counter()
            pres = f.find_hashes(present)
            t1 = time.perf_counter()
            emit(name, last, hi, nbytes, "find_present_nanos",
                 (t1 - t0) * 1e9 / probe_n)
            if not pres.all():
                raise AssertionError(
                    f"{name}: false negative at ndv={hi}")
            last = hi


def run_scaling() -> dict:
    """The two-cluster-size criterion, evidenced in-sandbox: the IDENTICAL
    flagship job in two fresh processes at 8 and 32 CPUs (N vs 4N) on the
    same input, at a replication factor where compute dominates fixed
    pipeline overhead (as a real 100 TB run would be). Efficiency =
    (docs_per_sec_4N / docs_per_sec_N) / 4."""
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_REPS="1")
        out = subprocess.run([sys.executable, os.path.join(REPO, "bench.py"),
                              "--headline-only"],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    # Alternate the two levels across rounds and take the min per level:
    # this microVM's page-reclaim noise comes in multi-second windows, so
    # back-to-back same-level reps share the same bad window — interleaving
    # decorrelates it (the reference's own min-of-9 protocol, adapted).
    rounds = int(os.environ.get("GRAFT_SCALING_ROUNDS", "3"))
    lo, hi = None, None
    per_round = []
    for _ in range(rounds):
        a, b = run(8), run(32)
        per_round.append(
            round((b["docs_per_sec"] / a["docs_per_sec"]) / (32 / 8), 3))
        if lo is None or a["value"] < lo["value"]:
            lo = a
        if hi is None or b["value"] < hi["value"]:
            hi = b
    eff = (hi["docs_per_sec"] / lo["docs_per_sec"]) / (32 / 8)
    med = sorted(per_round)[len(per_round) // 2]
    return {
        "metric": "scaling_efficiency",
        "docs": lo["docs"],
        "sec_8": lo["value"], "sec_32": hi["value"],
        "docs_per_sec_8": lo["docs_per_sec"],
        "docs_per_sec_32": hi["docs_per_sec"],
        # min-of-rounds per level (the reference's min-of-9 protocol):
        # the noise-robust headline number
        "scaling_efficiency_headline": round(eff, 3),
        # median of the per-round (same-window 8-vs-32) efficiencies:
        # robust to a single slow-host round catching one level only
        "scaling_efficiency_median": med,
        "per_round_efficiency": per_round,
        "rounds": rounds,
        "sf": lo["sf"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--growth" in sys.argv:
        ndv = int(os.environ.get("GRAFT_GROWTH_NDV", "10000000"))
        run_growth(ndv=ndv)
    elif "--headline-only" in sys.argv:
        print(json.dumps(run_headline_only()))
    else:
        print(json.dumps(run_bench()))
