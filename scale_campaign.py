"""Scale-proof campaign: the heaviest pipeline families at sf1.0
(1M synthetic documents, 200x the sf0.1 documents table / 10x the
bench's replicated corpus) vs sf0.1, with per-run wall + PEAK DRIVER
RSS (each family runs in its own subprocess so maxrss isolates).

The point (VERDICT r4 task 1): make the 100-TB design claims
empirical — a driver-side collect that grows with input scale shows up
as driver RSS scaling with SF; a streaming family shows near-linear
wall-vs-rows. Results are recorded in BASELINE.md §sf1.0.

Usage:
  python scale_campaign.py            # full campaign, one JSON line/run
  python scale_campaign.py --child FAMILY SF_DIR   # internal

The sf1.0 table is synthesized deterministically under /tmp (north
rule: no external data; libfilter_ray/sources/synth_corpus.py), other
tables symlink from the sf0.1 testdata (only documents scales).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF01 = "/root/testdata/sf0.1"
SF10 = os.environ.get("GRAFT_SF10_DIR", "/tmp/sf1.0")
N_DOCS = int(os.environ.get("GRAFT_SF10_DOCS", "1000000"))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

FAMILIES = [
    "read_count_baseline",     # read + count only: the engine floor that
                               # everything below should be judged against
                               # (plasma pages mapped only by the driver
                               # count as Private_Dirty in smaps_rollup,
                               # so even a collect-free run grows with SF)
    "exact_dedup_docs",        # hash-partitioned exact dedup
    "training_prep_pipeline",  # curate chain: quality -> dedup -> stats
    "bpe_merges",              # iterative tokenizer training
    "shuffle_shard_report",    # global permutation -> training shards
    "link_pagerank_topk",      # iterative all-to-all link analysis
]


def ensure_sf10() -> None:
    from libfilter_ray.sources.synth_corpus import write_documents

    os.makedirs(SF10, exist_ok=True)
    write_documents(SF10, N_DOCS)  # resumable, deterministic
    for t in ("region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "embeddings"):
        dst = os.path.join(SF10, f"{t}.parquet")
        if not os.path.exists(dst):
            os.symlink(os.path.join(SF01, f"{t}.parquet"), dst)


def run_child(family: str, sf_dir: str) -> None:
    import resource
    import time

    import ray

    ray.init(address="local", num_cpus=NUM_CPUS,
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    from libfilter_ray.context import apply_scale_defaults

    DataContext.get_current().enable_progress_bars = False
    apply_scale_defaults()  # push-based sort exchange
    import libfilter_ray.pipelines.queries as q

    if family == "read_count_baseline":
        def fn(d):
            import ray.data as rd
            ds = rd.read_parquet(os.path.join(d, "documents.parquet"),
                                 columns=["doc_id", "n_chars"])
            return [ds.count()]
    else:
        fn = getattr(q, f"q_{family}")
    t0 = time.perf_counter()
    out = fn(sf_dir)
    if isinstance(out, list) and len(out) == 1 and isinstance(out[0], int):
        rows = out[0]  # count-style families report the count itself
    else:
        rows = len(out) if hasattr(out, "__len__") else -1
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # maxrss counts /dev/shm plasma pages the driver merely TOUCHED
    # (zero-copy Arrow reads of results/broadcasts map shared object
    # store memory); private_mb is the driver's own heap — the number
    # that exposes a real driver-side collect growing with SF
    private_kb = 0
    with open("/proc/self/smaps_rollup") as f:
        for line in f:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                private_kb += int(line.split()[1])
    print(json.dumps({"family": family, "sf_dir": sf_dir,
                      "wall_sec": round(wall, 2),
                      "driver_maxrss_mb": round(rss_mb, 1),
                      "driver_private_mb": round(private_kb / 1024, 1),
                      "rows": rows}))
    ray.shutdown()


def main() -> int:
    if "--child" in sys.argv:
        i = sys.argv.index("--child")
        run_child(sys.argv[i + 1], sys.argv[i + 2])
        return 0
    ensure_sf10()
    results = []
    for family in FAMILIES:
        for sf_dir in (SF01, SF10):
            r = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--child", family, sf_dir],
                capture_output=True, text=True)
            if r.returncode != 0:
                print(json.dumps({"family": family, "sf_dir": sf_dir,
                                  "error": r.stderr[-2000:]}))
                continue
            rec = json.loads(r.stdout.strip().splitlines()[-1])
            results.append(rec)
            print(json.dumps(rec), flush=True)
    # summary: wall ratio + rss ratio per family (sf1.0 / sf0.1)
    by = {}
    for rec in results:
        by.setdefault(rec["family"], {})[rec["sf_dir"]] = rec
    summary = {}
    for fam, d in by.items():
        if SF01 in d and SF10 in d:
            summary[fam] = {
                "wall_x": round(d[SF10]["wall_sec"]
                                / max(d[SF01]["wall_sec"], 1e-9), 2),
                "rss_x": round(d[SF10]["driver_maxrss_mb"]
                               / max(d[SF01]["driver_maxrss_mb"], 1e-9),
                               2),
                "private_x": round(
                    d[SF10].get("driver_private_mb", 0)
                    / max(d[SF01].get("driver_private_mb", 1), 1e-9),
                    2),
                "wall_sf1": d[SF10]["wall_sec"],
                "rss_sf1_mb": d[SF10]["driver_maxrss_mb"],
                "private_sf1_mb": d[SF10].get("driver_private_mb"),
            }
    print(json.dumps({"metric": "scale_campaign", "docs_sf1": N_DOCS,
                      "num_cpus": NUM_CPUS, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
