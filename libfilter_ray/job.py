"""Cluster job entry point — the ``ray job submit`` surface the north rule
names (the engine analogue of the reference's CLI-driven bench/build binaries,
``cpp/extras/benchmarks/bench.cpp:124-240``).

On a real multi-node cluster::

    ray job submit --working-dir . -- \
        python -m libfilter_ray.job build --config job.json \
            --input s3://bucket/corpus --output /mnt/shared/out.parquet \
            --checkpoint-dir /mnt/shared/ck/run1

    ray job submit --working-dir . -- \
        python -m libfilter_ray.job query --name pricing_summary \
            --input s3://bucket/corpus --output /mnt/shared/q1

In this sandbox the same commands run locally (``RAY_ADDRESS=local`` is
preset; ``--num-cpus`` sizes the local session). The process attaches to an
existing Ray session when one is up (the ``ray job submit`` case — the
cluster owns the session) and initialises a local one otherwise, so the
module never double-inits.

Subcommands:

- ``build``   run a config-described sketch job (``pipelines/config.py``
  spec shape, JSON file) and write the payload frame to ``--output``
  parquet. With ``--checkpoint-dir`` (single-sketch specs) the build runs
  through ``CheckpointedBuild``: per-partition lineage + metrics, and a
  resubmitted job resumes instead of recomputing — partials must live on
  storage shared by all nodes.
- ``query``   run one named pipeline from the engine's query registry over
  ``--input`` and write/print its result.
- ``probe``   membership-probe a table column against filters persisted by a
  previous ``build`` job (broadcast once via ``ray.put``; grouped builds
  probe per key). Build and probe compose across separate job
  submissions — the filter parquet is the hand-off artifact.
- ``clean``   the composed corpus-cleaning job: PII scrub (email/URL/IP
  masking) -> corpus-level line dedup (boilerplate removal) -> exact
  document dedup, each stage optional, streaming to cleaned parquet.
- ``pack``    training sequence packing: next-fit docs into fixed
  token-budget sequences per key, writing (id, key, n_tokens, seq_id)
  assignments.
- ``profile`` one-pass column profile: rows, distinct estimate (HLL) and,
  for numeric columns, quantiles (KLL) — per key with ``--key``. The
  "what is in this corpus" first look, one streaming pass regardless of
  corpus size. ``--exact-quantiles`` swaps the KLL estimates for exact
  order statistics (stages/order_stats.py iterative range refinement — a
  few extra streaming passes, still no group materialization).
- ``topk``    exact heavy hitters over a string/integer column
  (heavy domains/urls/tokens): per-block Misra-Gries summaries, bounded
  candidate collect, broadcast exact recount — exact counts for every
  item with frequency >= ``--phi``, no full-vocabulary shuffle.
- ``shuffle`` deterministic global shuffle into hash-range training
  shards (splitmix64 order — reproducible permutation, resumable
  per-shard files, positional-digest report).
- ``list``    print every registered pipeline and whether it carries a
  DuckDB oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _ensure_ray(num_cpus: int | None) -> bool:
    """Attach to the cluster session if one exists (ray job submit), else
    start a local one. Returns True iff this process owns the session."""
    import ray

    from .context import apply_scale_defaults

    apply_scale_defaults()  # push-based sort exchange (context.py)
    if ray.is_initialized():
        return False
    kw: dict[str, Any] = {"include_dashboard": False,
                          "logging_level": "ERROR"}
    address = os.environ.get("RAY_ADDRESS", "local")
    # num_cpus only sizes a NEW local session; passing it while attaching
    # to an existing cluster (the ray-job-submit case, RAY_ADDRESS set by
    # the job runtime) is a ray.init ValueError
    if num_cpus is not None and address == "local":
        kw["num_cpus"] = num_cpus
    ray.init(address=address, **kw)
    return True


def _table_paths(input_dir: str, table: str) -> list[str]:
    """Resolve a table name to concrete parquet files: `{input}/{table}.parquet`
    (single file) or `{input}/{table}/` (a directory shard set — the normal
    layout for large corpora). Sorted for deterministic partition ids."""
    import glob

    f = os.path.join(input_dir, f"{table}.parquet")
    if os.path.isfile(f):
        return [f]
    d = os.path.join(input_dir, table)
    if os.path.isdir(d):
        shards = sorted(glob.glob(os.path.join(d, "**", "*.parquet"),
                                  recursive=True))
        if shards:
            return shards
    raise SystemExit(f"table {table!r} not found under {input_dir} "
                     f"(no {table}.parquet file or {table}/ shard dir)")


def _check_columns(paths: list[str], need: list[str]) -> None:
    have = set(pq.read_schema(paths[0]).names)
    if missing := [c for c in need if c not in have]:
        raise SystemExit(f"column(s) {missing} not in {paths[0]} "
                         f"(schema: {sorted(have)})")


def _write_result(result: Any, output: str | None,
                  partition_cols: list[str] | None = None) -> None:
    """Dataset -> partitioned parquet dir (streaming, resumable layout;
    `partition_cols` hive-partitions it, e.g. split=train/);
    DataFrame/Table -> single parquet file; no --output -> print."""
    import ray.data

    if output is None:
        if isinstance(result, ray.data.Dataset):
            result = result.to_pandas()
        print(result)
        return
    if isinstance(result, ray.data.Dataset):
        # write_parquet streams uuid-named files INTO the dir: writing
        # beside a killed attempt's partial files would duplicate rows on
        # read-back, so refuse a non-empty target for every Dataset write
        if os.path.isdir(output) and os.listdir(output):
            raise SystemExit(
                f"--output {output} exists and is not empty — remove it "
                "or point at a fresh dir (checkpoints make scans "
                "resumable; the output write restarts clean)")
        if partition_cols:
            result.write_parquet(output, partition_cols=partition_cols)
        else:
            result.write_parquet(output)
        return
    if isinstance(result, pd.DataFrame):
        result = pa.Table.from_pandas(result, preserve_index=False)
    pq.write_table(result, output)


def _cmd_build(args: argparse.Namespace) -> int:
    from .pipelines.config import run_config

    with open(args.config) as f:
        spec = json.load(f)
    if args.checkpoint_dir:
        from .state.checkpoint import CheckpointedBuild

        sketches = spec.get("sketches", [])
        if len(sketches) != 1:
            raise SystemExit(
                "--checkpoint-dir supports single-sketch specs (got "
                f"{len(sketches)}); run multi-sketch jobs uncheckpointed or "
                "as one job per sketch sharing the input scan cost")
        if spec.get("filter") or spec.get("dedup"):
            raise SystemExit(
                "--checkpoint-dir does not compose with filter/dedup "
                "pre-stages (the checkpointed unit must be a pure function "
                "of the input partition)")
        if sketches[0].get("exact"):
            raise SystemExit(
                "--checkpoint-dir does not support \"exact\" specs: the "
                "checkpointed build merges per-partition sketches, which "
                "is partition-plan-dependent for growth-order-sensitive "
                "kinds — run the exact build uncheckpointed (run_config "
                "routes it through build_sketch_exact)")
        s = sketches[0]
        key = spec.get("key")
        paths = _table_paths(args.input, spec["table"])
        need = [s["column"]] + ([key] if key else [])
        _check_columns(paths, need)
        job = CheckpointedBuild(
            args.checkpoint_dir, paths,
            kind=s["kind"], params=s.get("params", {}), column=s["column"],
            key=key, target_rows=args.target_rows,
            read_columns=need)
        st = job.status()
        print(f"checkpoint: {st['done']}/{st['total']} partitions done, "
              f"resuming {len(st['pending'])}", file=sys.stderr)
        merged = job.run()
        if spec.get("key"):
            rows = [{"key": k, "kind": s["kind"], "payload": v.to_bytes()}
                    for k, v in sorted(merged.items())]
        else:
            rows = [{"name": s["name"], "kind": s["kind"],
                     "payload": merged[""].to_bytes()}]
        out = pd.DataFrame(rows)
        print(job.metrics().to_string(index=False), file=sys.stderr)
    else:
        out = run_config(spec, args.input)
        sketches = spec.get("sketches", [])
        key = spec.get("key")
        if key and len(sketches) == 1:
            # normalize the grouped single-sketch frame (key column +
            # payload_<name>) to the probe-able (key, kind, payload) layout
            # the checkpointed path writes — build output stays one format
            s = sketches[0]
            out = pd.DataFrame({
                "key": out[key].astype(str),
                "kind": s["kind"],
                "payload": out[f"payload_{s['name']}"],
            }).sort_values("key").reset_index(drop=True)
    _write_result(out, args.output)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .pipelines.queries import QUERIES

    if args.name not in QUERIES:
        raise SystemExit(f"unknown pipeline {args.name!r} — "
                         "`python -m libfilter_ray.job list` enumerates")
    _write_result(QUERIES[args.name](args.input), args.output)
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    import ray
    import ray.data

    from .sketch import registry

    filt = pq.read_table(args.filters).to_pandas()
    if "kind" not in filt.columns or "payload" not in filt.columns:
        raise SystemExit(
            f"{args.filters} is not a probe-able filter file (needs "
            "'kind' + 'payload' columns). Multi-sketch grouped builds "
            "write the per-key payload_<name> frame, which probe cannot "
            "consume — re-run build with a SINGLE-sketch spec (with or "
            "without --checkpoint-dir); its output is probe-able")
    kinds = set(filt["kind"])
    if len(kinds) != 1:
        raise SystemExit(f"filter file mixes sketch kinds {sorted(kinds)}")
    kind = kinds.pop()
    if "key" not in filt.columns and len(filt) != 1:
        raise SystemExit(
            f"{args.filters} holds {len(filt)} ungrouped sketches "
            f"({sorted(filt.get('name', []))}) — probe expects exactly "
            "one; re-run build with a single-sketch spec")
    cls = registry.get(kind)
    paths = _table_paths(args.input, args.table)
    grouped = "key" in filt.columns
    if grouped and not args.key:
        raise SystemExit("--key is required: the filter file is a "
                         "grouped build (has a 'key' column)")
    cols = [args.column] + ([args.key] if grouped else [])
    _check_columns(paths, cols)
    ds = ray.data.read_parquet(paths, columns=cols)
    if grouped:
        from .stages.sketch_build import probe_grouped

        out = probe_grouped(ds, dict(zip(filt["key"], filt["payload"])),
                            cls.from_bytes, args.key, args.column) \
            .rename(columns={"n": "n_probed", "found": "n_found"})
        _write_result(out, args.output)
        return 0
    from .sketch.hashing import hash_arrow_array
    from .stages.broadcast import cached_broadcast

    ref = ray.put(bytes(filt["payload"].iloc[0]))
    column = args.column

    def probe(t: pa.Table) -> pa.Table:
        sk = cached_broadcast(ref, cls.from_bytes)
        found = sk.find_hashes(hash_arrow_array(t[column]))
        return t.append_column("found", pa.array(found))

    probed = ds.map_batches(probe, batch_format="pyarrow")
    if args.only_hits:
        probed = probed.filter(expr="found == True")
    _write_result(probed, args.output)
    return 0


def _scrub_fn(column: str):
    from .functions.textstats import scrub_text

    def scrub(t: pa.Table) -> pa.Table:
        return t.set_column(t.schema.get_field_index(column), column,
                            scrub_text(t[column]))

    return scrub


def _cmd_clean(args: argparse.Namespace) -> int:
    import ray.data

    paths = _table_paths(args.input, args.table)
    _check_columns(paths, [args.column, args.id_column])
    stages = [s for s, on in (("scrub", not args.no_scrub),
                              ("line-dedup", not args.no_line_dedup),
                              ("doc-dedup", not args.no_doc_dedup)) if on]
    if not stages:
        raise SystemExit("all cleaning stages disabled — nothing to do")
    print("stages (streaming): " + " -> ".join(stages), file=sys.stderr)
    column, id_column = args.column, args.id_column
    ds = ray.data.read_parquet(paths)
    if not args.no_scrub:
        ds = ds.map_batches(_scrub_fn(column), batch_format="pyarrow")
    if not args.no_line_dedup:
        from .stages.dedup import line_dedup

        ds = line_dedup(ds, column, id_column)
    if not args.no_doc_dedup:
        from .stages.dedup import exact_dedup

        ds = exact_dedup(ds, column, id_column)
    _write_result(ds, args.output)
    return 0


def _drop_source_cached(cache_dir: str, compute_drop_ds, *,
                        broadcast_limit: int):
    """Resumable drop-set carrier for curate's drop stages: the confirmed
    drop ids persist as a range-partitioned DropIdStore under the checkpoint
    dir (stages/dropstore.py — written once; a resumed job re-attaches
    WITHOUT recomputing; an unfinished store, no manifest, is cleared and
    rewritten). Driver memory is independent of the duplicate count: the
    store write is a distributed sort of the drop Dataset, and
    application either re-broadcasts one array (<= broadcast_limit ids,
    the fast path) or streams bloom-fronted range confirms from the store.
    Returns (source, n_ids): source is None (nothing to drop), an
    ObjectRef to a sorted array, or the DropIdStore."""
    import shutil

    import numpy as np
    import ray

    from .stages.dropstore import MANIFEST, DropIdStore

    if os.path.exists(os.path.join(cache_dir, MANIFEST)):
        store = DropIdStore(cache_dir)
    else:
        if os.path.isdir(cache_dir):
            shutil.rmtree(cache_dir)
        store = DropIdStore.write(compute_drop_ds().materialize(),
                                  cache_dir)
    if store.n_ids == 0:
        return None, 0
    if store.n_ids <= broadcast_limit:
        parts = [pq.read_table(f)["drop_id"].to_numpy().astype(np.int64)
                 for f in store.files]
        return ray.put(np.sort(np.concatenate(parts))), store.n_ids
    return store, store.n_ids


def _parse_mix(spec: str) -> dict[str, float]:
    """'en=0.5,zh=0.2,...' -> {lang: weight}. Weight math (normalize,
    floor to per-lang budgets) lives in stages/corpus.mixture_budgets."""
    out: dict[str, float] = {}
    for part in spec.split(","):
        lang, eq, w = part.partition("=")
        lang = lang.strip()
        if not lang or not eq or not w.strip():
            raise SystemExit(f"bad --mix entry {part!r} "
                             "(want lang=weight,lang=weight,...)")
        try:
            out[lang] = float(w)
        except ValueError:
            raise SystemExit(f"bad --mix weight {w!r} for {lang!r}")
    return out


def _curate_manifest_guard(ck: str, args: argparse.Namespace) -> None:
    """Two-sided flag-identity check for a resumed curate run: every
    cached artifact under `ck` was computed under these exact flags, so
    a mismatch must refuse rather than silently mix configurations."""
    ident = {k: getattr(args, k) for k in (
        "table", "column", "id_column", "url_column", "ts_column",
        "lang_column", "no_url_dedup", "domain_cap",
        "benchmark", "benchmark_column", "shingle_k",
        "contamination_threshold", "min_commonness", "token_budget",
        "mix", "lm_threshold", "lm_min_count", "blocklist",
        "blocklist_digest", "split")}
    mpath = os.path.join(ck, "curate.json")
    if os.path.exists(mpath):
        with open(mpath) as fh:
            prev = json.load(fh)
        prev.setdefault("mix", None)  # manifests predating --mix
        prev.setdefault("lm_threshold", 0.0)  # ... predating --lm-*
        prev.setdefault("lm_min_count", 2)
        prev.setdefault("blocklist", None)  # ... predating --blocklist
        prev.setdefault("blocklist_digest", None)
        prev.setdefault("split", None)
        # manifests predating the passage-dedup cut: 0 (stage off) is
        # adopted; a nonzero value stays and mismatches below, since
        # its cached artifacts were computed after passage removal
        if prev.get("passage_dedup") == 0:
            prev.pop("passage_dedup")
        if prev != ident:
            diff = sorted(set(prev.items()) ^ set(ident.items()))
            raise SystemExit(
                f"checkpoint dir {ck} was written by a curate run with "
                f"different flags ({diff}) — use a fresh dir")
        return
    os.makedirs(ck, exist_ok=True)
    tmp = mpath + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ident, fh)
    os.replace(tmp, mpath)


def _cached_array(path: str, compute, column: str = "v"):
    """Atomic parquet cache of one int64/uint64 numpy array (stored as the
    int64 bit view)."""
    import numpy as np

    if os.path.exists(path):
        return pq.read_table(path)[column].to_numpy().astype(np.int64)
    arr = np.ascontiguousarray(compute()).view(np.int64)
    tmp = f"{path}.tmp"
    pq.write_table(pa.table({column: pa.array(arr, type=pa.int64())}), tmp)
    os.replace(tmp, path)
    return arr


def _cmd_curate(args: argparse.Namespace) -> int:
    """Composed crawl-to-corpus curation over a web-page-shaped table:
    keep-newest capture per url -> per-domain cap -> benchmark
    decontamination -> self-trained
    frequency quality filter -> per-lang token budget -> optional
    off-ramp (--split hive partitions, or --shuffle-out deterministic
    global shuffle into training shards). Every stage is
    optional; each is the streaming form of its stages/crawl.py /
    stages/corpus.py / stages/shuffle.py operator (bounded
    broadcast/DropIdStore carriers throughout).

    With --checkpoint-dir every expensive full-corpus artifact persists
    on shared storage and a resubmitted run re-attaches instead of
    recomputing: the url-dedup drop set and domain-cap keep set as
    range-partitioned DropIdStores, the benchmark shingle set and the
    frequency vocabulary as parquet arrays, the budget keep set as a
    parquet + boundary json. A curate.json manifest pins the flag
    identity (two-sided check, same contract as the clean job)."""
    import ray
    import ray.data

    paths = _table_paths(args.input, args.table)
    need = [args.column, args.id_column]
    if not args.no_url_dedup:
        need += [args.url_column, args.ts_column]
    if args.domain_cap or args.blocklist:
        need.append(args.url_column)
    if args.token_budget or args.lm_threshold:
        need.append(args.lang_column)
    _check_columns(paths, sorted(set(need)))

    # the blocklist digest pins CONTENT (not just the path) in the
    # checkpoint manifest: cached downstream artifacts (drop sets, vocab,
    # model, budget) were computed on the blocklist-filtered corpus
    args.blocklist_digest = None
    if args.blocklist:
        import hashlib

        with open(args.blocklist, "rb") as fh:
            args.blocklist_digest = hashlib.sha256(fh.read()).hexdigest()

    stages = [s for s, on in (
        (f"blocklist({args.blocklist})", bool(args.blocklist)),
        ("url-dedup-latest", not args.no_url_dedup),
        (f"domain-cap({args.domain_cap})", bool(args.domain_cap)),
        ("decontaminate", bool(args.benchmark)),
        (f"freq-quality(<{args.min_commonness})",
         bool(args.min_commonness)),
        (f"lm-quality(<={args.lm_threshold})", bool(args.lm_threshold)),
        (f"token-budget({args.token_budget}"
         + (f", mix {args.mix}" if args.mix else "") + ")",
         bool(args.token_budget)),
        (f"split({args.split})", bool(args.split)),
        (f"shuffle({1 << args.shuffle_shards_log2} shards)",
         bool(args.shuffle_out)),
        (f"chunk(w={args.chunk_window},s={args.chunk_stride})",
         bool(args.chunk_out)),
    ) if on]
    if not stages:
        raise SystemExit("all curation stages disabled — nothing to do")
    split_shares = None
    if args.split:
        raw = _parse_mix(args.split)  # same lang=weight syntax
        split_shares = {k: int(v) for k, v in raw.items()}
        if any(v != int(v) for v in raw.values()) \
                or sum(split_shares.values()) != 100:
            raise SystemExit("--split shares must be integer percents "
                             f"summing to 100, got {args.split!r}")
    if args.shuffle_out:  # validate BEFORE any stage runs
        if split_shares is not None:
            raise SystemExit(
                "--shuffle-out and --split are mutually exclusive "
                "(shuffle each split partition in its own run)")
        if not 0 <= args.shuffle_shards_log2 <= 24:
            raise SystemExit("--shuffle-shards-log2 must be in [0, 24], "
                             f"got {args.shuffle_shards_log2}")
    if args.chunk_out:  # validate BEFORE any stage runs
        if split_shares is not None or args.shuffle_out:
            raise SystemExit(
                "--chunk-out is mutually exclusive with --split / "
                "--shuffle-out (one off-ramp per run)")
        if args.chunk_window < 1 or not \
                1 <= args.chunk_stride <= args.chunk_window:
            raise SystemExit(
                "--chunk-window must be >= 1 and --chunk-stride in "
                f"[1, window], got w={args.chunk_window} "
                f"s={args.chunk_stride}")
    mix = _parse_mix(args.mix) if args.mix else None
    if mix is not None and not args.token_budget:
        raise SystemExit("--mix needs --token-budget (the TOTAL token "
                         "budget the weights split)")
    if mix is not None:  # validate weights BEFORE any stage runs
        from .stages.corpus import mixture_budgets
        try:
            mixture_budgets(mix, args.token_budget)
        except ValueError as e:
            raise SystemExit(str(e))
    ck = args.checkpoint_dir
    mode = "checkpointed" if ck else "streaming"
    print(f"stages ({mode}): " + " -> ".join(stages), file=sys.stderr)
    if ck:
        _curate_manifest_guard(ck, args)

    from .stages.dedup import DROP_BROADCAST_LIMIT

    # per-artifact metrics (checkpointed runs): stage, count, seconds,
    # whether the artifact was re-attached from cache. Appended to
    # <ck>/metrics.jsonl per run and summarized on stderr — the ops-side
    # complement of the per-partition lineage the scans already keep.
    import time as _time

    run_metrics: list[dict] = []

    def _noted(stage: str, artifact, build):
        arts = [artifact] if isinstance(artifact, str) else list(artifact)
        cached = bool(ck) and all(
            os.path.exists(os.path.join(ck, a)) for a in arts)
        t0 = _time.perf_counter()
        out, n = build()
        run_metrics.append({
            "stage": stage, "n": int(n), "cached": cached,
            "sec": round(_time.perf_counter() - t0, 3)})
        return out

    ds = ray.data.read_parquet(paths)
    if args.blocklist:
        from .stages.crawl import blocked_domains_ref, blocklist_filter

        with open(args.blocklist) as fh:
            domains = [ln.strip() for ln in fh if ln.strip()
                       and not ln.lstrip().startswith("#")]
        ds = blocklist_filter(ds, args.url_column,
                              blocked_domains_ref(domains))
    raw = ds
    if not args.no_url_dedup:
        from .stages.crawl import keyed_latest_drop_ds, url_dedup_latest
        from .stages.dedup import drop_id_filter

        if ck:
            src = _noted(
                "url-dedup", os.path.join("urls", "manifest.json"),
                lambda: _drop_source_cached(
                    os.path.join(ck, "urls"),
                    lambda: keyed_latest_drop_ds(
                        raw, args.url_column, args.ts_column,
                        args.id_column),
                    broadcast_limit=DROP_BROADCAST_LIMIT))
            if src is not None:
                ds = ds.map_batches(drop_id_filter(src, args.id_column),
                                    batch_format="pyarrow")
        else:
            ds = url_dedup_latest(ds, url_col=args.url_column,
                                  ts_col=args.ts_column,
                                  id_col=args.id_column)
    if args.domain_cap:
        from .stages.crawl import (domain_cap, domain_of,
                                   keep_id_filter, per_key_cap_keep_ds)

        if ck:
            url_col = args.url_column
            cap_in = ds

            def compute_keep():
                keep = per_key_cap_keep_ds(
                    cap_in, lambda t: domain_of(t[url_col]),
                    args.id_column, cap=args.domain_cap)
                return keep.map_batches(
                    lambda t: t.rename_columns(["drop_id"]),
                    batch_format="pyarrow")

            src = _noted(
                "domain-cap", os.path.join("domains", "manifest.json"),
                lambda: _drop_source_cached(
                    os.path.join(ck, "domains"), compute_keep,
                    broadcast_limit=DROP_BROADCAST_LIMIT))
            if src is not None:
                ds = ds.map_batches(
                    keep_id_filter(src, args.id_column),
                    batch_format="pyarrow")
            else:  # keep set empty <=> corpus empty: nothing survives
                ds = ds.map_batches(lambda t: t.slice(0, 0),
                                    batch_format="pyarrow")
        else:
            ds = domain_cap(ds, url_col=args.url_column,
                            id_col=args.id_column, cap=args.domain_cap)
    if args.benchmark:
        import numpy as np

        from .stages.crawl import benchmark_shingle_ref, contamination_flags

        if os.path.exists(args.benchmark):
            bench_paths = [args.benchmark]
        else:  # a table name inside --input
            bench_paths = _table_paths(args.input, args.benchmark)

        def bench_hashes():
            import ray as _ray

            bench = ray.data.read_parquet(
                bench_paths, columns=[args.benchmark_column])
            ref, exact = benchmark_shingle_ref(bench,
                                               args.benchmark_column,
                                               k=args.shingle_k)
            if not exact:
                raise SystemExit(
                    "benchmark shingle set exceeds the exact bound — "
                    "checkpointing the bloom carrier is unsupported; "
                    "run without --checkpoint-dir or shrink the benchmark")
            return _ray.get(ref)

        if ck:
            sh = _noted(
                "decontaminate", "bench_shingles.parquet",
                lambda: (lambda a: (a, len(a)))(_cached_array(
                    os.path.join(ck, "bench_shingles.parquet"),
                    bench_hashes, "shingle_hash")))
            sh_ref, exact = ray.put(sh.view(np.uint64)), True
        else:
            bench = ray.data.read_parquet(
                bench_paths, columns=[args.benchmark_column])
            sh_ref, exact = benchmark_shingle_ref(
                bench, args.benchmark_column, k=args.shingle_k)
        from .stages.crawl import contamination_filter

        flag_fn = contamination_flags(
            args.column, args.id_column, sh_ref, exact,
            k=args.shingle_k, threshold=args.contamination_threshold)
        ds = ds.map_batches(contamination_filter(flag_fn),
                            batch_format="pyarrow")
    if args.min_commonness:
        import numpy as np

        from .stages.corpus import build_vocab_ref, commonness_flags

        if ck:
            vpath = os.path.join(ck, "vocab.parquet")

            def load_or_build_vocab():
                if os.path.exists(vpath):
                    vt = pq.read_table(vpath)
                    ref = ray.put((
                        vt["word_hash"].to_numpy().astype(np.int64)
                        .view(np.uint64),
                        vt["count"].to_numpy().astype(np.int64)))
                    return ref, vt.num_rows
                ref = build_vocab_ref(ds, args.column)
                vh, vc = ray.get(ref)
                tmp = f"{vpath}.tmp"
                pq.write_table(pa.table({
                    "word_hash": pa.array(vh.view(np.int64),
                                          type=pa.int64()),
                    "count": pa.array(vc, type=pa.int64())}), tmp)
                os.replace(tmp, vpath)
                return ref, len(vh)

            vocab_ref = _noted("freq-quality", "vocab.parquet",
                               load_or_build_vocab)
        else:
            vocab_ref = build_vocab_ref(ds, args.column)
        flag = commonness_flags(args.column, args.id_column, vocab_ref,
                                rare_factor=args.min_commonness)

        def drop_rare(t: pa.Table) -> pa.Table:
            import numpy as np

            rare = np.asarray(flag(t)["rare"])
            return t.filter(pa.array(~rare))

        ds = ds.map_batches(drop_rare, batch_format="pyarrow")
    if args.lm_threshold:
        import numpy as np

        from .stages.corpus import build_bigram_lm_ref, lm_nll_stage

        if ck:
            lm_path = os.path.join(ck, "lm_model.parquet")

            def load_or_build_lm():
                if os.path.exists(lm_path):
                    mt = pq.read_table(lm_path)
                    kind = mt["kind"].to_numpy()
                    h = mt["h"].to_numpy().astype(np.int64) \
                        .view(np.uint64)
                    n = mt["n"].to_numpy().astype(np.int64)
                    langs = mt["lang"].to_pylist()
                    bm, pm, vm = kind == 0, kind == 1, kind == 2
                    model = (h[bm], n[bm], h[pm], n[pm],
                             {str(lg): int(c) for lg, c in
                              zip(np.array(langs, dtype=object)[vm],
                                  n[vm])})
                    return ray.put(model), int(bm.sum())
                ref = build_bigram_lm_ref(ds, args.column,
                                          args.lang_column,
                                          min_count=args.lm_min_count)
                bh, bc, ph, pc_, vby = ray.get(ref)
                kinds = np.concatenate([
                    np.zeros(len(bh), np.int64),
                    np.ones(len(ph), np.int64),
                    np.full(len(vby), 2, np.int64)])
                vl = sorted(vby)
                tmp = f"{lm_path}.tmp"
                pq.write_table(pa.table({
                    "kind": pa.array(kinds),
                    "lang": pa.array([""] * (len(bh) + len(ph)) + vl),
                    "h": pa.array(np.concatenate([
                        bh.view(np.int64), ph.view(np.int64),
                        np.zeros(len(vby), np.int64)])),
                    "n": pa.array(np.concatenate([
                        bc, pc_,
                        np.array([vby[lg] for lg in vl], np.int64)])),
                }), tmp)
                os.replace(tmp, lm_path)
                return ref, len(bh)

            model_ref = _noted("lm-quality", "lm_model.parquet",
                               load_or_build_lm)
        else:
            model_ref = build_bigram_lm_ref(ds, args.column,
                                            args.lang_column,
                                            min_count=args.lm_min_count)
        lm_score = lm_nll_stage(args.column, args.id_column,
                                args.lang_column, model_ref)
        lm_tau = float(args.lm_threshold)

        def drop_unlikely(t: pa.Table) -> pa.Table:
            import numpy as np

            s = lm_score(t)
            n_bg = np.asarray(s["n_bigrams"], dtype=np.int64)
            nll = np.asarray(s["nll_sum"], dtype=np.float64)
            # < 2 tokens = unscoreable -> kept, same rule as the query
            keep = (n_bg == 0) | (nll <= lm_tau * n_bg)
            return t.filter(pa.array(keep))

        ds = ds.map_batches(drop_unlikely, batch_format="pyarrow")
    if args.token_budget:
        import numpy as np

        from .stages.corpus import (apply_token_budget, mixture_budgets,
                                    space_token_counts,
                                    token_budget_keep_ids,
                                    token_budget_sample)

        budget = (mixture_budgets(mix, args.token_budget)
                  if mix is not None else args.token_budget)
        col = args.column
        if ck:
            bpath = os.path.join(ck, "budget.json")
            kpath = os.path.join(ck, "budget_keep.parquet")

            def load_or_build_budget():
                if os.path.exists(bpath) and os.path.exists(kpath):
                    with open(bpath) as fh:
                        boundary = json.load(fh)
                    kt = pq.read_table(kpath)
                    langs = kt["lang"].to_pylist()
                    kid = kt["keep_id"].to_numpy().astype(np.int64)
                    keep_ids = {lg: np.sort(kid[np.array(langs) == lg])
                                for lg in set(langs)}
                    return (boundary, keep_ids), len(kid)
                boundary, keep_ref0 = token_budget_keep_ids(
                    ds, args.lang_column, args.id_column,
                    lambda t: space_token_counts(t[col]),
                    budget=budget)
                keep_ids = ray.get(keep_ref0)
                rows_l, rows_i = [], []
                for lg, arr in keep_ids.items():
                    rows_l += [lg] * len(arr)
                    rows_i += arr.tolist()
                tmp = f"{kpath}.tmp"
                pq.write_table(pa.table({
                    "lang": pa.array(rows_l, type=pa.string()),
                    "keep_id": pa.array(rows_i, type=pa.int64())}), tmp)
                os.replace(tmp, kpath)
                tmpb = f"{bpath}.tmp"
                with open(tmpb, "w") as fh:
                    json.dump(boundary, fh)
                os.replace(tmpb, bpath)
                return (boundary, keep_ids), len(rows_i)

            boundary, keep_ids = _noted(
                "token-budget", ["budget.json", "budget_keep.parquet"],
                load_or_build_budget)
            ds = apply_token_budget(ds, args.lang_column, args.id_column,
                                    boundary, ray.put(keep_ids))
        else:
            ds = token_budget_sample(
                ds, args.lang_column, args.id_column,
                lambda t: space_token_counts(t[col]),
                budget=budget)
    if ck and run_metrics:
        with open(os.path.join(ck, "metrics.jsonl"), "a") as fh:
            for m in run_metrics:
                fh.write(json.dumps(m) + "\n")
        parts = []
        for m in run_metrics:
            how = "cached" if m["cached"] else f"built {m['sec']}s"
            parts.append(f"{m['stage']}: n={m['n']} ({how})")
        print("artifacts: " + "; ".join(parts), file=sys.stderr)
    if args.shuffle_out:
        from .stages.shuffle import shuffle_shards

        payload = tuple(c for c in pq.read_schema(paths[0]).names
                        if c != args.id_column)
        report = shuffle_shards(ds, args.id_column,
                                nshards_log2=args.shuffle_shards_log2,
                                out_dir=args.shuffle_out,
                                payload_columns=payload)
        print(f"shuffled {int(report['n_docs'].sum())} docs into "
              f"{len(report)} shards under {args.shuffle_out}",
              file=sys.stderr)
        _write_result(report, args.output)
    elif args.chunk_out:
        from .stages.chunk import chunk_documents

        chunks = chunk_documents(ds, args.column, args.id_column,
                                 window=args.chunk_window,
                                 stride=args.chunk_stride)
        _write_result(chunks, args.chunk_out)
        print(f"chunked curated corpus (w={args.chunk_window}, "
              f"s={args.chunk_stride}) under {args.chunk_out}",
              file=sys.stderr)
    elif split_shares is not None:
        from .stages.corpus import hash_split_stage

        ds = ds.map_batches(
            hash_split_stage(args.id_column, split_shares),
            batch_format="pyarrow")
        _write_result(ds, args.output, partition_cols=["split"])
    else:
        _write_result(ds, args.output)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    import ray.data

    from .functions.packing import next_fit_pack
    from .functions.textstats import token_counts

    paths = _table_paths(args.input, args.table)
    need = [args.column, args.id_column] + ([args.key] if args.key else [])
    _check_columns(paths, need)
    column, id_column, key = args.column, args.id_column, args.key
    budget = args.budget

    def tok_partial(t: pa.Table) -> pa.Table:
        cols = {id_column: t[id_column],
                "n_tokens": pa.array(token_counts(t[column]),
                                     type=pa.int64())}
        if key:
            cols[key] = t[key]
        return pa.table(cols)

    def pack_group(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(id_column, kind="stable") \
            .reset_index(drop=True)
        df["seq_id"] = next_fit_pack(df["n_tokens"].to_numpy(), budget)
        return df

    ds = ray.data.read_parquet(paths, columns=need) \
        .map_batches(tok_partial, batch_format="pyarrow")
    if key:
        out = ds.groupby(key).map_groups(pack_group, batch_format="pandas")
    else:
        # global packing is a single ordered chain: narrow (id, n_tokens)
        # rows only — at 10^12 scale pass --key to shard the chain
        import pandas as pd

        out = pack_group(ds.to_pandas())
    _write_result(out, args.output)
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    """Build a token-hash-bucketed inverted index (once) and/or query
    it. Without --search, builds into --index-dir. With --search, an
    existing index is attached (built first if absent) and the query
    runs off the bucket files alone — the corpus is not read."""
    import numpy as np
    import ray.data

    from .state.inverted_index import INDEX_MANIFEST, InvertedIndex

    have = os.path.exists(os.path.join(args.index_dir, INDEX_MANIFEST))
    if have and not args.search:
        print(f"index already built at {args.index_dir}",
              file=sys.stderr)
    if not have:
        if not (args.input and args.table):
            raise SystemExit(
                f"no index at {args.index_dir} — building one needs "
                "--input and --table")
        paths = _table_paths(args.input, args.table)
        _check_columns(paths, [args.column, args.id_column])
        ds = ray.data.read_parquet(paths,
                                   columns=[args.column, args.id_column])
        idx = InvertedIndex.build(
            ds, args.column, args.id_column, args.index_dir,
            num_buckets=args.buckets, min_df=args.min_df,
            max_df=args.max_df)
        print(f"built: {idx.n_terms} terms over {idx.n_docs} docs in "
              f"{idx.num_buckets} buckets", file=sys.stderr)
    else:
        idx = InvertedIndex(args.index_dir)
    if args.merge_base:
        from .state.inverted_index import merge_indexes

        if not args.merged_out:
            raise SystemExit("--merge-base needs --merged-out")
        merged = merge_indexes(args.merge_base, args.index_dir,
                               args.merged_out)
        print(f"merged: {merged.n_terms} terms over {merged.n_docs} "
              f"docs -> {args.merged_out}", file=sys.stderr)
        idx = merged
    if args.search:
        import pandas as pd

        terms = args.search.split()
        if args.mode == "bm25":
            ids, scores = idx.search_bm25(terms, k=args.k or 10)
            out = pd.DataFrame({
                "rank": np.arange(1, len(ids) + 1, dtype=np.int64),
                "doc_id": ids, "score": np.round(scores, 6)})
        else:
            ids = idx.search(terms, mode=args.mode)[:args.k] \
                if args.k else idx.search(terms, mode=args.mode)
            out = pd.DataFrame({"doc_id": ids})
        _write_result(out, args.output)
    return 0


_PROFILE_QS = (0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def _cmd_profile(args: argparse.Namespace) -> int:
    import ray.data

    from .sketch.hll import HyperLogLog
    from .sketch.kll import KLL
    from .stages.sketch_build import build_grouped_multi

    paths = _table_paths(args.input, args.table)
    need = [args.column] + ([args.key] if args.key else [])
    _check_columns(paths, need)
    ds = ray.data.read_parquet(paths, columns=need)
    ftype = pq.read_schema(paths[0]).field(args.column).type
    numeric = pa.types.is_integer(ftype) or pa.types.is_floating(ftype)
    if not (numeric or pa.types.is_string(ftype)
            or pa.types.is_large_string(ftype)
            or pa.types.is_binary(ftype)
            or pa.types.is_large_binary(ftype)):
        raise SystemExit(
            f"cannot profile column of type {ftype} — supported: "
            "string/binary (NDV) and integer/float (NDV + quantiles); "
            "cast timestamps/bools to a supported type first")
    if args.exact_quantiles and not numeric:
        raise SystemExit("--exact-quantiles requires a numeric column")
    ndv_col = args.column
    if pa.types.is_floating(ftype):
        # floats aren't hashable sketch keys — count distinctness on the
        # float64 bit pattern (injective for float32->64; nulls become the
        # single NaN pattern, matching the string path's null sentinel)
        import numpy as np

        ndv_col = f"__{args.column}_bits__"
        column = args.column

        def add_bits(t: pa.Table) -> pa.Table:
            bits = t[column].to_numpy(zero_copy_only=False) \
                .astype(np.float64).view(np.int64)
            return t.append_column(ndv_col,
                                   pa.array(bits, type=pa.int64()))

        ds = ds.map_batches(add_bits, batch_format="pyarrow")
    key = args.key
    if not key:
        # constant key -> the same one-pass multi-sketch machinery; a
        # typed nullary-cost constant (no per-row Python strings, and a
        # stable schema even for zero-row batches)
        import numpy as np

        key = "__all__"

        def add_const(t: pa.Table) -> pa.Table:
            const = pa.array(["all"], type=pa.string()).take(
                pa.array(np.zeros(len(t), dtype=np.int64)))
            return t.append_column("__all__", const)

        ds = ds.map_batches(add_const, batch_format="pyarrow")
    specs = [("ndv", "hll", {"p": args.p}, ndv_col)]
    if numeric:
        specs.append(("q", "kll", {"k": args.k}, args.column))
    out = build_grouped_multi(ds, key, specs)
    rows = []
    for _, r in out.iterrows():
        row = {key: r[key], "rows": int(r["rows"]),
               "ndv_est": round(
                   HyperLogLog.from_bytes(r["payload_ndv"]).estimate(), 1)}
        if numeric:
            kll = KLL.from_bytes(r["payload_q"])
            for q, v in zip(_PROFILE_QS, kll.quantiles(_PROFILE_QS)):
                row[f"p{int(q * 100):02d}"] = round(float(v), 4)
        rows.append(row)
    out = pd.DataFrame(rows)
    if args.exact_quantiles and len(out):
        # exact order statistics by iterative range refinement
        # (stages/order_stats.py): a few extra streaming passes, no group
        # ever materialized — replaces the KLL estimates with exact values
        from .stages.order_stats import exact_group_quantiles

        ex = exact_group_quantiles(ds, key, args.column, qs=_PROFILE_QS,
                                   rounds=args.exact_rounds)
        ex = ex.rename(columns={
            f"q{int(q * 100)}": f"p{int(q * 100):02d}" for q in _PROFILE_QS})
        kll_cols = [f"p{int(q * 100):02d}" for q in _PROFILE_QS]
        out = out.drop(columns=kll_cols).merge(ex, on=key)
    if len(out):
        out = out.sort_values(key).reset_index(drop=True)
    if not args.key and f"{key}" in out.columns:
        out = out.drop(columns=[key])  # internal sentinel, not user data
    _write_result(out, args.output)
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    """EXACT heavy hitters over a string/integer column (the heavy
    domains / urls / tokens report): per-block Misra-Gries summaries ->
    bounded candidate set -> broadcast exact recount (stages/heavy.py).
    Output is exactly the items with count >= ceil(total * phi) and
    their exact counts — no sketch error — while no stage ever holds
    more than k rows per block or ~1/(phi - 1/(k+1)) rows on the
    driver. With --by KEY the threshold applies within each key's
    stream (grouped_heavy_hitters — heavy tokens per language); rows
    where either column is NULL are dropped."""
    import ray.data

    from .stages.heavy import (column_items, grouped_heavy_hitters,
                               heavy_hitters)

    paths = _table_paths(args.input, args.table)
    need = [args.column] if not args.by else [args.column, args.by]
    if args.by == args.column:
        raise SystemExit("--by must differ from --column")
    _check_columns(paths, need)
    ftype = pq.read_schema(paths[0]).field(args.column).type
    if pa.types.is_integer(ftype):
        item_type, sentinel = pa.int64(), 0
    elif pa.types.is_string(ftype) or pa.types.is_large_string(ftype):
        item_type, sentinel = pa.string(), ""
    else:
        raise SystemExit(f"cannot run topk on column of type {ftype} — "
                         "supported: string and integer")
    try:
        num, den = (int(x) for x in args.phi.split("/", 1))
    except ValueError:
        raise SystemExit(f"--phi must look like 1/100, got {args.phi!r}")
    ds = ray.data.read_parquet(paths, columns=need)
    if args.by:
        ds = ds.map_batches(lambda t: t.drop_null(),
                            batch_format="pyarrow")
        try:
            out, totals = grouped_heavy_hitters(
                ds, args.by, column_items(args.column, drop_null=False),
                k=args.k, phi_num=num, phi_den=den, item_type=item_type,
                sentinel=sentinel)
        except ValueError as e:
            raise SystemExit(str(e))
        out = out.rename(columns={"item": args.column})
        if len(out):
            tot = out[args.by].map(totals).astype("int64")
            out["share_ppm"] = (out["n"] * 1_000_000 // tot).astype("int64")
        print(f"keys: {len(totals)}, total items: {sum(totals.values())}, "
              f"per-key threshold: >= ceil({num}/{den} * key_total)",
              file=sys.stderr)
        _write_result(out, args.output)
        return 0
    try:
        out, total = heavy_hitters(
            ds, column_items(args.column), k=args.k,
            phi_num=num, phi_den=den, item_type=item_type,
            sentinel=sentinel)
    except ValueError as e:
        raise SystemExit(str(e))
    out = out.rename(columns={"item": args.column})
    if total:
        out["share_ppm"] = (out["n"] * 1_000_000 // total).astype("int64")
    print(f"total items: {total}, threshold: "
          f">= ceil({num}/{den} * total) = {(num * total + den - 1) // den}",
          file=sys.stderr)
    _write_result(out, args.output)
    return 0


def _cmd_bpe(args: argparse.Namespace) -> int:
    """Learn BPE tokenizer merges over a text column (stages/bpe.py):
    the word table stays distributed; stdout (or --output) is the
    learned merge table (merge_rank, left, right, pair_n) — feed it to
    any BPE segmenter. `--min-count` prunes the typo tail first, the
    standard corpus-scale practice. `--save-dir` additionally exports
    the standard two-file tokenizer layout (merges.txt + vocab.json)
    that round-trips into real BPE loaders (stages/bpe.py:
    save_bpe_artifacts / load_bpe_artifacts)."""
    import ray.data

    from .stages.bpe import bpe_alphabet, learn_bpe_merges, \
        save_bpe_artifacts

    paths = _table_paths(args.input, args.table)
    _check_columns(paths, [args.column])
    ds = ray.data.read_parquet(paths, columns=[args.column])
    out = learn_bpe_merges(ds, k=args.merges, text_col=args.column,
                           min_count=args.min_count,
                           num_shards=args.shards)
    if args.save_dir:
        alpha = bpe_alphabet(ds, text_col=args.column)
        mpath, vpath = save_bpe_artifacts(args.save_dir, out, alpha)
        print(f"artifacts: {mpath} {vpath}", file=sys.stderr)
    _write_result(out, args.output)
    return 0


def _cmd_outliers(args: argparse.Namespace) -> int:
    """Robust per-key outlier report over a numeric column: exact lower
    median + MAD (order-statistics engine, no group materialized) and
    the count of |x - median| > scale * MAD rows per key
    (stages/robust.py)."""
    import ray.data

    from .stages.robust import mad_outlier_stats

    paths = _table_paths(args.input, args.table)
    _check_columns(paths, [args.column, args.by])
    ds = ray.data.read_parquet(paths, columns=[args.by, args.column])
    out = mad_outlier_stats(ds, args.by, args.column, scale=args.scale)
    _write_result(out, args.output)
    return 0


def _cmd_rollup(args: argparse.Namespace) -> int:
    """All GROUP BY ROLLUP levels of sum(value)+count over comma-listed
    keys in ONE input shuffle (stages/rollup.py): coarser levels
    re-aggregate the combo-sized finest result, never the raw rows."""
    import ray.data

    from .stages.rollup import rollup_aggregate

    keys = [k for k in args.keys.split(",") if k]
    if not keys:
        raise SystemExit("--keys needs at least one column")
    paths = _table_paths(args.input, args.table)
    _check_columns(paths, keys + [args.value])
    ds = ray.data.read_parquet(paths, columns=keys + [args.value])
    _write_result(rollup_aggregate(ds, keys, args.value), args.output)
    return 0


def _cmd_fuzzy(args: argparse.Namespace) -> int:
    """All pairs of distinct column values within Levenshtein distance 1
    (stages/fuzzy.py: FastSS deletion-neighborhood banding + vectorized
    exact verify) — typo-variant detection over keys/tokens/URLs."""
    import ray.data

    from .stages.fuzzy import edit1_pairs

    paths = _table_paths(args.input, args.table)
    _check_columns(paths, [args.column])
    ds = ray.data.read_parquet(paths, columns=[args.column])
    out = edit1_pairs(ds, args.column,
                      num_shards=args.num_shards).to_pandas() \
        .sort_values(["w1", "w2"]).reset_index(drop=True)
    _write_result(out, args.output)
    return 0


def _cmd_links(args: argparse.Namespace) -> int:
    """Extract every href from an html column into a (src, dst) edge
    parquet (stages/extract.py:links_stage) — the crawl-to-link-graph
    bridge: import-warc -> links -> graph pagerank/components."""
    import ray.data

    from .stages.extract import links_stage

    paths = _table_paths(args.input, args.table)
    _check_columns(paths, [args.html_column, args.src_column])
    ds = ray.data.read_parquet(
        paths, columns=[args.src_column, args.html_column])
    out = ds.map_batches(links_stage(html_col=args.html_column,
                                     src_col=args.src_column),
                         batch_format="pyarrow")
    _write_result(out, args.output)
    return 0


def _cmd_chunk(args: argparse.Namespace) -> int:
    """Sliding-window document chunking (stages/chunk.py): expand each
    doc into overlapping word windows — the flat_map in front of an
    embedding or index build. Streams to partitioned parquet."""
    import ray.data

    from .stages.chunk import chunk_documents

    paths = _table_paths(args.input, args.table)
    _check_columns(paths, [args.column, args.id_column])
    ds = ray.data.read_parquet(paths,
                               columns=[args.id_column, args.column])
    out = chunk_documents(ds, args.column, args.id_column,
                          window=args.window, stride=args.stride)
    _write_result(out, args.output)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    """Exact per-key percent_rank of a numeric column for every row
    (stages/rank.py): histogram shuffle + per-key cumsum + broadcast-
    or-join rank attach — the group itself never materializes."""
    import ray.data

    from .stages.rank import percent_rank

    id_cols = [c for c in args.id_cols.split(",") if c]
    if not id_cols:
        raise SystemExit("--id-cols needs at least one column")
    paths = _table_paths(args.input, args.table)
    _check_columns(paths, id_cols + [args.by, args.column])
    ds = ray.data.read_parquet(paths,
                               columns=id_cols + [args.by, args.column])
    _write_result(percent_rank(ds, args.by, args.column,
                               id_cols=id_cols), args.output)
    return 0


def _cmd_shuffle(args: argparse.Namespace) -> int:
    """Deterministic global shuffle into training shards: shard = top
    log2(S) bits of splitmix64(id column), within-shard order =
    ascending hash — a pseudorandom permutation any re-run reproduces
    (stages/shuffle.py). With --out, each shard writes its own parquet
    file (tmp+rename, re-runs skip finished shards); stdout is the
    report (shard, n_docs, sum_doc_id, ord_digest[, path])."""
    import ray.data

    from .stages.shuffle import shuffle_shards

    paths = _table_paths(args.input, args.table)
    payload = [c for c in (args.payload or "").split(",") if c]
    _check_columns(paths, [args.column, *payload])
    ds = ray.data.read_parquet(paths, columns=[args.column, *payload])
    try:
        report = shuffle_shards(ds, args.column,
                                nshards_log2=args.shards_log2,
                                out_dir=args.out,
                                payload_columns=tuple(payload))
    except ValueError as e:
        raise SystemExit(str(e))
    print(f"shards: {len(report)}, docs: {int(report['n_docs'].sum())}",
          file=sys.stderr)
    _write_result(report, args.output)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Ship a parquet table as wire-format shards — the off-ramp
    mirroring import-warc's on-ramp: `--format jsonl` writes gzip'd
    JSONL (the LLM-corpus interchange layout; columns must be
    JSON-native — project timestamps/binary first or pass --columns),
    `--format warc` writes member-per-record gzip'd WARC (requires
    url/warc_ts/html columns). Each task writes its own shard named by
    its batch's content digest (idempotent re-runs); stdout is the
    manifest (shard_path, n_records)."""
    import ray.data

    paths = _table_paths(args.input, args.table)
    cols = args.columns.split(",") if args.columns else None
    ds = ray.data.read_parquet(paths, columns=cols)
    os.makedirs(args.out, exist_ok=True)
    if args.format == "jsonl":
        from .sources.jsonl import write_jsonl_shards_stage

        # shard naming digests full batch content; --key-column is
        # accepted for compatibility but no longer affects names
        stage = write_jsonl_shards_stage(args.out, args.key_column)
    else:
        from .sources.warc import write_warc_shards_stage

        stage = write_warc_shards_stage(args.out)
    manifest = ds.map_batches(stage, batch_format="pyarrow").to_pandas()
    _write_result(manifest, args.output)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    """Link-graph analysis over a real (src, dst) edge parquet table:
    `--mode pagerank` runs the exact-integer PageRank (stages/graph.py,
    join-per-round adjacency) and emits the top-k (node, pr_micro);
    `--mode components` runs distributed connected components
    (stages/cluster.py) and emits the component-size histogram. Nodes
    come from `--nodes`/`--node-col` when given, else from the distinct
    edge endpoints (one extra shuffle)."""
    import numpy as np
    import pyarrow as _pa
    import ray.data

    from .stages.graph import integer_pagerank_edges

    edges = ray.data.read_parquet(args.edges,
                                  columns=[args.src_col, args.dst_col])
    if args.nodes:
        nodes = ray.data.read_parquet(args.nodes,
                                      columns=[args.node_col])
        node_col = args.node_col
    else:
        def endpoints(t: _pa.Table) -> _pa.Table:
            both = np.concatenate([
                np.asarray(t[args.src_col], dtype=np.int64),
                np.asarray(t[args.dst_col], dtype=np.int64)])
            return _pa.table({"node": _pa.array(np.unique(both))})

        nodes = edges.map_batches(endpoints, batch_format="pyarrow") \
            .groupby("node").count().select_columns(["node"])
        node_col = "node"

    if args.mode == "pagerank":
        from .stages.graph import topk_from_ranks

        ranks = integer_pagerank_edges(
            edges, nodes, iters=args.iters, node_col=node_col,
            src_col=args.src_col, dst_col=args.dst_col,
            num_shards=args.shards)
        out = topk_from_ranks(ranks, args.top, id_name="node")
    else:
        from .stages.graph import component_size_histogram_edges

        out = component_size_histogram_edges(
            edges, nodes, node_col=node_col,
            src_col=args.src_col, dst_col=args.dst_col)
    _write_result(out, args.output)
    return 0


def _cmd_import_warc(args: argparse.Namespace) -> int:
    """Ingest gzip'd WARC archives (Common Crawl's native format) into a
    hive-partitioned parquet web-page table: one WARC file per read
    task, streamed response records, optional html->text extraction,
    url-hash bucket partitioning for downstream partition pruning.
    Resume is whole-output atomic (stages/sink.py:write_partitioned):
    a COMPLETED output (_SUCCESS) is reused on re-run; an incomplete one
    is rewritten from scratch — for crash-resumable ingest of a large
    crawl, split the archive list across several import-warc invocations
    with distinct --out dirs (each completes or rewrites independently).
    The on-ramp from a real crawl into every pipeline in this engine."""
    import glob as _glob

    from .sketch.hashing import shard_of_values
    from .sources.warc import read_warc
    from .stages.extract import extract_text
    from .stages.sink import write_partitioned

    paths = sorted(p for pat in args.warc for p in _glob.glob(pat))
    if not paths:
        raise SystemExit(f"no WARC files match {args.warc}")
    ds = read_warc(paths, batch_rows=args.batch_rows)
    extract = not args.no_extract
    keep_html = args.keep_html
    buckets = args.buckets
    want_lang = args.lang_id
    if want_lang and not extract:
        raise SystemExit("--lang-id needs the extracted text "
                         "(remove --no-extract)")

    def prep(t: pa.Table) -> pa.Table:
        if extract:
            text = extract_text(t["html"])
            t = t.append_column("text", text)
            if want_lang:  # WARC carries no language — annotate here
                from .functions.textstats import lang_id

                t = t.append_column("lang_pred", lang_id(text))
            if not keep_html:
                t = t.drop_columns(["html"])  # wide payload dies here
        return t.append_column("bucket", pa.array(
            shard_of_values(t["url"], buckets, seed=0x3A7C),
            type=pa.int64()))

    wrote = write_partitioned(
        ds.map_batches(prep, batch_format="pyarrow"), args.out,
        partition_cols=["bucket"])
    print(json.dumps({"out": args.out, "warc_files": len(paths),
                      "wrote": bool(wrote)}))
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    from .pipelines.queries import ORACLES, QUERIES

    for name in sorted(QUERIES):
        print(f"{name:36s} {'sql-oracled' if name in ORACLES else 'approx'}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m libfilter_ray.job",
        description="libfilter_ray cluster job entry point")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="local-session CPU count (ignored when attaching "
                        "to an existing cluster session)")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="config-described sketch build")
    b.add_argument("--config", required=True, help="JSON job spec "
                   "(pipelines/config.py shape)")
    b.add_argument("--input", required=True, help="input table directory")
    b.add_argument("--output", default=None, help="output parquet path")
    b.add_argument("--checkpoint-dir", default=None,
                   help="shared-storage run dir: resumable per-partition "
                        "build (single-sketch specs)")
    b.add_argument("--target-rows", type=int, default=1 << 20,
                   help="rows per checkpoint partition")
    b.set_defaults(fn=_cmd_build)

    q = sub.add_parser("query", help="run a named pipeline")
    q.add_argument("--name", required=True)
    q.add_argument("--input", required=True)
    q.add_argument("--output", default=None)
    q.set_defaults(fn=_cmd_query)

    pr = sub.add_parser("probe", help="probe a column against built filters")
    pr.add_argument("--filters", required=True,
                    help="parquet written by `build`")
    pr.add_argument("--input", required=True)
    pr.add_argument("--table", required=True)
    pr.add_argument("--column", required=True)
    pr.add_argument("--key", default=None,
                    help="group key column (grouped filter files)")
    pr.add_argument("--only-hits", action="store_true",
                    help="ungrouped: emit only rows the filter contains")
    pr.add_argument("--output", default=None)
    pr.set_defaults(fn=_cmd_probe)

    cl = sub.add_parser("clean", help="composed corpus cleaning job")
    cl.add_argument("--input", required=True)
    cl.add_argument("--table", required=True)
    cl.add_argument("--column", required=True, help="text column to clean")
    cl.add_argument("--id-column", required=True)
    cl.add_argument("--no-scrub", action="store_true",
                    help="skip PII masking")
    cl.add_argument("--no-line-dedup", action="store_true",
                    help="skip corpus-level duplicated-line removal")
    cl.add_argument("--no-doc-dedup", action="store_true",
                    help="skip exact document dedup")
    cl.add_argument("--output", default=None,
                    help="cleaned parquet output dir")
    cl.set_defaults(fn=_cmd_clean)

    cu = sub.add_parser("curate", help="composed crawl-to-corpus curation")
    cu.add_argument("--input", required=True)
    cu.add_argument("--table", required=True)
    cu.add_argument("--column", required=True, help="text column")
    cu.add_argument("--id-column", required=True,
                    help="unique int64 row id")
    cu.add_argument("--url-column", default="url")
    cu.add_argument("--ts-column", default="warc_ts")
    cu.add_argument("--lang-column", default="lang")
    cu.add_argument("--no-url-dedup", action="store_true",
                    help="skip keep-newest-capture url dedup")
    cu.add_argument("--blocklist", default=None,
                    help="text file of blocked domains (one per line, "
                         "# comments): drop docs whose url host equals "
                         "or is a subdomain of an entry (UT1 semantics)")
    cu.add_argument("--domain-cap", type=int, default=0,
                    help="max docs per domain (0 = off)")
    cu.add_argument("--benchmark", default=None,
                    help="parquet table of benchmark docs to "
                         "decontaminate against (path or input-relative "
                         "table name)")
    cu.add_argument("--benchmark-column", default="text")
    cu.add_argument("--shingle-k", type=int, default=8)
    cu.add_argument("--contamination-threshold", type=float, default=0.5)
    cu.add_argument("--min-commonness", type=int, default=0,
                    help="drop docs whose avg global token count is "
                         "below this (0 = off)")
    cu.add_argument("--lm-threshold", type=float, default=0.0,
                    help="drop docs whose avg bigram NLL under the "
                         "self-trained per-lang LM exceeds this "
                         "(0 = off; docs with < 2 tokens are kept)")
    cu.add_argument("--lm-min-count", type=int, default=2,
                    help="prune LM bigrams seen fewer times than this "
                         "(the model-size scale knob)")
    cu.add_argument("--token-budget", type=int, default=0,
                    help="per-language token budget (0 = off); with "
                         "--mix, the TOTAL budget the weights split")
    cu.add_argument("--split", default=None,
                    help="emit hash-split output partitions, e.g. "
                         "'train=90,val=5,test=5' (integer percents "
                         "summing to 100): deterministic Knuth-rank slot "
                         "windows of the id column, written as "
                         "split=NAME/ hive partitions")
    cu.add_argument("--mix", default=None,
                    help="weighted corpus mixture 'en=0.5,zh=0.2,...': "
                         "each language is budgeted "
                         "floor(weight share x --token-budget) tokens; "
                         "languages absent from the mix are dropped")
    cu.add_argument("--shuffle-out", default=None,
                    help="after all stages, globally shuffle the curated "
                         "corpus into hash-range training shards under "
                         "this directory (deterministic splitmix64 "
                         "order); the report replaces the row output")
    cu.add_argument("--shuffle-shards-log2", type=int, default=4,
                    dest="shuffle_shards_log2")
    cu.add_argument("--chunk-out", default=None, dest="chunk_out",
                    help="after all stages, expand the curated corpus "
                         "into sliding-window chunks under this "
                         "directory (RAG/index prep; exclusive with "
                         "--split / --shuffle-out)")
    cu.add_argument("--chunk-window", type=int, default=64,
                    dest="chunk_window")
    cu.add_argument("--chunk-stride", type=int, default=32,
                    dest="chunk_stride")
    cu.add_argument("--checkpoint-dir", default=None,
                    help="shared-storage run dir: every stage artifact "
                         "(drop/keep stores, shingle set, vocab, budget "
                         "rule) persists and a resubmitted run "
                         "re-attaches instead of recomputing")
    cu.add_argument("--output", default=None)
    cu.set_defaults(fn=_cmd_curate)

    ix = sub.add_parser("index", help="inverted index build / search")
    ix.add_argument("--input", help="required to BUILD")
    ix.add_argument("--table")
    ix.add_argument("--column", default="text")
    ix.add_argument("--id-column", default="doc_id")
    ix.add_argument("--index-dir", required=True,
                    help="bucketed index directory (built if absent)")
    ix.add_argument("--buckets", type=int, default=64)
    ix.add_argument("--min-df", type=int, default=1,
                    help="drop tokens in fewer docs than this")
    ix.add_argument("--max-df", type=int, default=None,
                    help="drop tokens in more docs than this "
                         "(stopword cut)")
    ix.add_argument("--merge-base", default=None,
                    help="existing index to merge this one into "
                         "(incremental crawl: index only the NEW docs, "
                         "then per-bucket merge — no full rebuild)")
    ix.add_argument("--merged-out", default=None,
                    help="output dir for --merge-base")
    ix.add_argument("--search", default=None,
                    help="space-separated query terms")
    ix.add_argument("--mode", choices=("and", "or", "bm25"),
                    default="bm25")
    ix.add_argument("--k", type=int, default=None,
                    help="result cap (bm25 top-k, default 10; and/or "
                         "default unlimited)")
    ix.add_argument("--output", default=None)
    ix.set_defaults(fn=_cmd_index)

    pk = sub.add_parser("pack", help="sequence-packing assignments")
    pk.add_argument("--input", required=True)
    pk.add_argument("--table", required=True)
    pk.add_argument("--column", required=True, help="text column to count")
    pk.add_argument("--id-column", required=True,
                    help="order + output id column")
    pk.add_argument("--key", default=None,
                    help="pack independently per this key (recommended at "
                         "scale; omit for one global chain)")
    pk.add_argument("--budget", type=int, default=2048,
                    help="tokens per packed sequence")
    pk.add_argument("--output", default=None)
    pk.set_defaults(fn=_cmd_pack)

    pf = sub.add_parser("profile", help="one-pass column profile")
    pf.add_argument("--input", required=True)
    pf.add_argument("--table", required=True)
    pf.add_argument("--column", required=True)
    pf.add_argument("--key", default=None, help="profile per this key")
    pf.add_argument("--p", type=int, default=14, help="HLL precision")
    pf.add_argument("--k", type=int, default=200, help="KLL parameter")
    pf.add_argument("--exact-quantiles", action="store_true",
                    help="exact order statistics via iterative range "
                         "refinement instead of KLL estimates (a few "
                         "extra streaming passes)")
    pf.add_argument("--exact-rounds", type=int, default=2,
                    help="refinement rounds for --exact-quantiles")
    pf.add_argument("--output", default=None)
    pf.set_defaults(fn=_cmd_profile)

    tk = sub.add_parser("topk",
                        help="exact heavy hitters over a column "
                             "(Misra-Gries candidates + exact recount)")
    tk.add_argument("--input", required=True)
    tk.add_argument("--table", required=True)
    tk.add_argument("--column", required=True)
    tk.add_argument("--k", type=int, default=256,
                    help="MG summary size; must satisfy phi > 1/(k+1)")
    tk.add_argument("--phi", default="1/100",
                    help="frequency threshold as NUM/DEN (items with "
                         "count >= ceil(total*phi) are reported)")
    tk.add_argument("--by", default=None,
                    help="grouping key column: report per-key heavy "
                         "hitters, threshold applied within each key")
    tk.add_argument("--output", default=None)
    tk.set_defaults(fn=_cmd_topk)

    iw = sub.add_parser("import-warc",
                        help="WARC archives -> partitioned parquet table")
    iw.add_argument("--warc", required=True, nargs="+",
                    help="one or more .warc.gz paths/globs")
    iw.add_argument("--out", required=True,
                    help="output table directory (hive buckets)")
    iw.add_argument("--buckets", type=int, default=64,
                    help="url-hash output partitions (pruning "
                         "granularity for downstream reads)")
    iw.add_argument("--batch-rows", type=int, default=512,
                    help="records per streamed batch")
    iw.add_argument("--no-extract", action="store_true",
                    help="skip html->text extraction")
    iw.add_argument("--lang-id", action="store_true",
                    help="annotate a lang_pred column (n-gram marker "
                         "heuristic) — WARC carries no language")
    iw.add_argument("--keep-html", action="store_true",
                    help="keep the wide html column after extraction")
    iw.set_defaults(fn=_cmd_import_warc)

    gr = sub.add_parser("graph",
                        help="link analysis over a (src, dst) edge table")
    gr.add_argument("--edges", required=True,
                    help="edge parquet path/glob")
    gr.add_argument("--mode", choices=["pagerank", "components"],
                    default="pagerank")
    gr.add_argument("--src-col", default="src")
    gr.add_argument("--dst-col", default="dst")
    gr.add_argument("--nodes", default=None,
                    help="node parquet (default: distinct edge endpoints)")
    gr.add_argument("--node-col", default="node")
    gr.add_argument("--iters", type=int, default=3,
                    help="PageRank rounds (exact integer micro-ranks)")
    gr.add_argument("--top", type=int, default=10,
                    help="PageRank top-k result size")
    gr.add_argument("--shards", type=int, default=16,
                    help="join/shuffle shards per round (scale with "
                         "cluster size and edge count)")
    gr.add_argument("--output", default=None)
    gr.set_defaults(fn=_cmd_graph)

    ol = sub.add_parser("outliers",
                        help="robust per-key outlier report "
                             "(exact median + MAD)")
    ol.add_argument("--input", required=True)
    ol.add_argument("--table", required=True)
    ol.add_argument("--column", required=True, help="numeric column")
    ol.add_argument("--by", required=True, help="grouping key column")
    ol.add_argument("--scale", type=float, default=3.0,
                    help="flag |x - median| > scale * MAD")
    ol.add_argument("--output", default=None)
    ol.set_defaults(fn=_cmd_outliers)

    ru = sub.add_parser("rollup",
                        help="all GROUP BY ROLLUP levels in one "
                             "input shuffle")
    ru.add_argument("--input", required=True)
    ru.add_argument("--table", required=True)
    ru.add_argument("--keys", required=True,
                    help="comma-separated grouping columns, coarsest "
                         "first (ROLLUP prefix order)")
    ru.add_argument("--value", required=True, help="numeric column")
    ru.add_argument("--output", default=None)
    ru.set_defaults(fn=_cmd_rollup)

    fz = sub.add_parser("fuzzy",
                        help="edit-distance-1 pairs of distinct "
                             "column values (typo variants)")
    fz.add_argument("--input", required=True)
    fz.add_argument("--table", required=True)
    fz.add_argument("--column", required=True)
    fz.add_argument("--num-shards", type=int, default=64,
                    dest="num_shards")
    fz.add_argument("--output", default=None)
    fz.set_defaults(fn=_cmd_fuzzy)

    lk = sub.add_parser("links",
                        help="extract href edges from an html column "
                             "(crawl -> link-graph bridge)")
    lk.add_argument("--input", required=True)
    lk.add_argument("--table", required=True)
    lk.add_argument("--html-column", default="html", dest="html_column")
    lk.add_argument("--src-column", default="url", dest="src_column")
    lk.add_argument("--output", default=None)
    lk.set_defaults(fn=_cmd_links)

    ch = sub.add_parser("chunk",
                        help="sliding-window document chunking "
                             "(overlapping word windows)")
    ch.add_argument("--input", required=True)
    ch.add_argument("--table", required=True)
    ch.add_argument("--column", required=True, help="text column")
    ch.add_argument("--id-column", required=True, dest="id_column")
    ch.add_argument("--window", type=int, default=64)
    ch.add_argument("--stride", type=int, default=32)
    ch.add_argument("--output", default=None)
    ch.set_defaults(fn=_cmd_chunk)

    rk = sub.add_parser("rank",
                        help="exact per-key percent_rank of a numeric "
                             "column (row-level)")
    rk.add_argument("--input", required=True)
    rk.add_argument("--table", required=True)
    rk.add_argument("--column", required=True, help="numeric column")
    rk.add_argument("--by", required=True, help="partition key column")
    rk.add_argument("--id-cols", required=True, dest="id_cols",
                    help="comma-separated id columns carried through")
    rk.add_argument("--output", default=None)
    rk.set_defaults(fn=_cmd_rank)

    shf = sub.add_parser("shuffle",
                         help="deterministic global shuffle into "
                              "hash-range training shards")
    shf.add_argument("--input", required=True)
    shf.add_argument("--table", default="documents")
    shf.add_argument("--column", default="doc_id",
                     help="unique integer id column (shuffle key)")
    shf.add_argument("--payload", default=None,
                     help="comma-separated payload columns carried "
                          "into the shard files")
    shf.add_argument("--shards-log2", type=int, default=4,
                     dest="shards_log2",
                     help="log2(shard count); size so one shard fits "
                          "a task (512MB-ish files at scale)")
    shf.add_argument("--out", default=None,
                     help="shard output directory (omit: report only)")
    shf.add_argument("--output", default=None)
    shf.set_defaults(fn=_cmd_shuffle)

    ex = sub.add_parser("export",
                        help="parquet table -> wire-format shards")
    ex.add_argument("--input", required=True)
    ex.add_argument("--table", default="documents")
    ex.add_argument("--format", choices=["jsonl", "warc"],
                    default="jsonl")
    ex.add_argument("--out", required=True,
                    help="shard output directory")
    ex.add_argument("--columns", default=None,
                    help="comma-separated projection (jsonl columns "
                         "must be JSON-native)")
    ex.add_argument("--key-column", default=None,
                    help="shard-naming key (default: first column)")
    ex.add_argument("--output", default=None,
                    help="write the manifest here instead of stdout")
    ex.set_defaults(fn=_cmd_export)

    bp = sub.add_parser("bpe",
                        help="learn BPE tokenizer merges over a corpus")
    bp.add_argument("--input", required=True)
    bp.add_argument("--table", default="documents")
    bp.add_argument("--column", default="text")
    bp.add_argument("--merges", type=int, default=100,
                    help="number of merge rounds to learn")
    bp.add_argument("--min-count", type=int, default=1,
                    help="prune words rarer than this before training")
    bp.add_argument("--shards", type=int, default=16)
    bp.add_argument("--save-dir", default=None,
                    help="export merges.txt + vocab.json (the standard "
                         "loadable tokenizer layout) to this directory")
    bp.add_argument("--output", default=None)
    bp.set_defaults(fn=_cmd_bpe)

    ls = sub.add_parser("list", help="enumerate pipelines")
    ls.set_defaults(fn=_cmd_list)
    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    owns = args.cmd != "list" and _ensure_ray(args.num_cpus)
    try:
        return args.fn(args)
    finally:
        if owns:
            import ray

            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
