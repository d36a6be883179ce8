"""The benchmark's workloads.

`BENCHMARK.json` runs three of them; `domain_sketch_build` runs by name
(``--workload domain_sketch_build``) and in the self-test, but a full round
of benchmark runs over four workloads does not fit an hour on one core.

Each workload owns one seeded input directory and implements:

- ``prepare()``: set-up after input generation (expected values from a
  pyarrow recount of the input, member hashes, and workload state such as
  broadcast filters);
- ``warm_up(ops)``: one untimed job (for the checkpoint workload, the clean
  single-shot reference build), returning its gates;
- ``job()``: the timed job, returning ``(output, rows, wall_s, result_s)``;
- ``check(output)``: named correctness gates, ``[(name, ok), ...]``; they
  also fill ``self.accuracy``;
- ``traced(tracer)``: the same job split at layer boundaries, each stage
  materialized inside a span; returns the output, which is checked too;
- ``replay(tracer)``: one single-process pass of each layer's public calls
  over the blocks the layer received in the traced job;
- ``corrupt(output)``: a deliberately wrong copy of an output (self-test).
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

FPP = 0.01
#: HLL and KLL gates: several standard errors of the configured sketches
HLL_TOL = 0.05
KLL_TOL = 0.03
#: build_grouped_multi's default merge-shard count
NUM_SHARDS = 32


def _now() -> float:
    return time.perf_counter()


def _counts(col) -> dict:
    vc = pc.value_counts(col)
    return {v["values"].as_py(): v["counts"].as_py() for v in vc}


def _bounds(keys: pa.Array):
    """(key value, start, end) of each run of equal keys in sorted `keys`."""
    if not len(keys):
        return []
    cuts = np.flatnonzero(np.asarray(pc.not_equal(keys[1:], keys[:-1]))) + 1
    starts = np.concatenate(([0], cuts)).astype(int)
    ends = np.concatenate((cuts, [len(keys)])).astype(int)
    return [(keys[s].as_py(), s, e) for s, e in zip(starts, ends)]


def _by_key(table: pa.Table, key: str, col: str) -> dict:
    """{key value: numpy values of `col`} via one sort."""
    table = table.sort_by(key)
    vals = table[col].to_numpy()
    return {k: vals[s:e] for k, s, e in _bounds(table[key].combine_chunks())}


def _hashes_by_key(table: pa.Table, key: str, col: str) -> dict:
    """{key value: url hashes of the key's rows}: one hash pass over the
    sorted column, then numpy slices (hashing many small zero-copy arrow
    slices would scan the whole value buffer once per slice)."""
    from libfilter_ray.sketch.hashing import hash_arrow_array

    table = table.sort_by(key)
    h = hash_arrow_array(table[col])
    return {k: h[s:e] for k, s, e in _bounds(table[key].combine_chunks())}


def _absent_hashes(seed: int, n: int) -> np.ndarray:
    """Hashes of `n` urls no workload input contains."""
    from libfilter_ray.sketch.hashing import hash_arrow_array

    ids = pc.cast(pa.array(np.arange(n)), pa.string())
    return hash_arrow_array(pc.binary_join_element_wise(
        f"https://absent.example.net/{seed}/", ids, ""))


def _blocks(ds):
    """The blocks of a materialized Dataset, as the next stage sees them."""
    return ds.iter_batches(batch_size=None, batch_format="pyarrow")


def _fpp_and_misses(filters: dict, members: dict, absent: np.ndarray):
    """(pooled false-positive rate of the filters on the `absent` hashes,
    false negatives on each key's member hashes)."""
    hits = misses = 0
    for key, f in filters.items():
        if key in members:
            misses += int((~f.find_hashes(members[key])).sum())
        hits += int(f.find_hashes(absent).sum())
    return hits / max(len(absent) * len(filters), 1), misses


def add_text_len(t: pa.Table) -> pa.Table:
    """The flagship job's text-length column (KLL input)."""
    return t.append_column("text_len", pc.cast(
        pc.utf8_length(t["text_extracted"]), pa.float64()))


def replay_grouped(tracer, partials: list, key: str, specs) -> dict:
    """Replay build_grouped_multi's merge side over the partial rows the
    map side produced: (key, salt) groups, then key groups, each merged by
    from_bytes/merge plus one bulk update of the raw hash lists. Returns
    the partial-shuffle counts."""
    from libfilter_ray.sketch import registry
    from libfilter_ray.stages.sketch_build import _add_merge_shard

    table = pa.concat_tables(partials)
    names = [s[0] for s in specs]
    n_payloads = raw = nbytes = 0
    for name in names:
        nbytes += pc.sum(pc.binary_length(table[f"payload_{name}"])).as_py() \
            or 0
        raw += pc.sum(pc.equal(table[f"fmt_{name}"], "raw")).as_py() or 0
        n_payloads += table.num_rows
    shard = np.asarray(_add_merge_shard(key, NUM_SHARDS, True)(table)
                       ["mshard"])
    per_shard = np.bincount(shard, minlength=NUM_SHARDS)

    def merge(groups, finalize):
        out = []
        for rows in groups.values():
            merged = {}
            for (name, kind, params, _col) in specs:
                cls = registry.get(kind)
                acc, hashes = None, []
                for r in rows:
                    if r[f"fmt_{name}"] == "raw":
                        hashes.append(r[f"payload_{name}"])
                    else:
                        sk = cls.from_bytes(r[f"payload_{name}"])
                        acc = sk if acc is None else acc.merge(sk)
                if hashes:
                    acc = acc if acc is not None else registry.make(
                        kind, **params)
                    acc.update(np.frombuffer(b"".join(hashes),
                                             dtype=np.uint64))
                if finalize:
                    acc = acc.finalize()
                merged[f"payload_{name}"] = acc.to_bytes()
                merged[f"fmt_{name}"] = "sketch"
            merged[key] = rows[0][key]
            out.append(merged)
        return out

    with tracer.span("sketch_build.merge"):
        stage1: dict = {}
        for r in table.to_pylist():
            stage1.setdefault((r[key], r["salt"]), []).append(r)
        stage2: dict = {}
        for r in merge(stage1, False):
            stage2.setdefault(r[key], []).append(r)
        merge(stage2, True)
    return {"sketch_build.partial_rows": table.num_rows,
            "sketch_build.partial_bytes": nbytes,
            "sketch_build.raw_share": raw / max(n_payloads, 1),
            "sketch_build.shard_skew":
                float(per_shard.max() / max(per_shard.mean(), 1e-9))}


def replay_partials(tracer, ds, key: str, specs) -> list:
    """Replay build_grouped_multi's map side (the per-block partial
    function it applies) over the blocks of `ds`."""
    from libfilter_ray.sketch.hashing import DEFAULT_SEED
    from libfilter_ray.stages.sketch_build import _MultiGroupedPartialBuilder

    partial = _MultiGroupedPartialBuilder(specs, key, DEFAULT_SEED)
    partials = []
    for block in _blocks(ds):
        with tracer.span("sketch_build.map", rows=block.num_rows):
            partials.append(partial(block))
    return partials


def replay_read(tracer, paths: list, columns: list, transform=None):
    for path in paths:
        pf = pq.ParquetFile(path)
        for i in range(pf.num_row_groups):
            with tracer.span("sources") as c:
                t = pf.read_row_group(i, columns=columns)
                if transform is not None:
                    t = transform(t)
                c["rows"] = t.num_rows


class Workload:
    name = ""
    #: the input layout inputs.py writes (lang, domain or probe)
    generator = ""

    def __init__(self, work: str, seed: int, scale: float = 1.0):
        self.work, self.seed = work, seed
        self.sizes = self.input_sizes(scale)
        self.accuracy = {"fpp_measured": 0.0, "distinct_rel_err": 0.0,
                         "quantile_rank_err": 0.0}
        self.extras: dict = {}

    #: absent urls each output filter is probed with (fpp_measured)
    ABSENT = 0

    def input_sizes(self, scale: float) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def warm_up(self, ops) -> list:
        """One untimed job through `ops`; returns its gates."""
        got = ops.call(self.job)
        return [("warm_up", False)] if got is None else self.check(got[0])


class LangSketchBuild(Workload):
    name = "lang_sketch_build"
    generator = "lang"
    ABSENT = 20_000

    def input_sizes(self, scale):
        n = max(2000, int(40_000 * scale))
        return {"n_docs": n, "row_group": max(1, n // 8)}

    @property
    def path(self):
        return os.path.join(self.work, "documents.parquet")

    def specs(self):
        """The flagship job's sketch specs (pipelines/flagship.py)."""
        from libfilter_ray.sketch import sizing

        size = sizing.block_bytes_needed(self.sizes["n_docs"], FPP)
        return [("bloom", "block", {"bytes_": size}, "url"),
                ("hll", "hll", {"p": 14}, "url"),
                ("cms", "cms", {"width": 1 << 14, "depth": 4}, "url"),
                ("kll", "kll", {"k": 200}, "text_len")]

    def prepare(self):
        from libfilter_ray.sources.webpages import url_of

        t = pq.read_table(self.path, columns=["doc_id", "lang", "source",
                                              "text"])
        self.expected = _counts(t["lang"])
        t = t.append_column("url", url_of(t["doc_id"], t["lang"],
                                          t["source"]))
        t = t.append_column("len", pc.cast(pc.utf8_length(t["text"]),
                                           pa.float64()))
        self.urls = _hashes_by_key(t, "lang", "url")
        self.absent = _absent_hashes(self.seed, self.ABSENT)
        self.lengths = {k: np.sort(np.asarray(v)) for k, v in
                        _by_key(t, "lang", "len").items()}

    def job(self):
        from libfilter_ray.pipelines.flagship import \
            sketch_build_throughput_job

        t0 = _now()
        df = sketch_build_throughput_job(self.work, replicate=1)
        wall = _now() - t0
        return df, self.sizes["n_docs"], wall, wall

    def check(self, df):
        got = dict(zip(df["lang"], df["rows"].astype(int)))
        hll = [abs(r.distinct_urls_est - r.rows) / r.rows
               for r in df.itertuples()]
        rank = []
        for r in df.itertuples():
            v = self.lengths.get(r.lang)
            if v is not None:
                lt = np.searchsorted(v, r.len_p50, "left") / len(v)
                le = np.searchsorted(v, r.len_p50, "right") / len(v)
                rank.append(max(0.0, lt - 0.5, 0.5 - le))
        self.accuracy["distinct_rel_err"] = float(np.mean(hll)) if hll else 1.0
        self.accuracy["quantile_rank_err"] = \
            float(np.mean(rank)) if rank else 1.0
        return [("rows_per_lang", got == self.expected),
                ("cms_total_equals_rows",
                 bool((df["cms_total"] == df["rows"]).all())),
                ("hll_rel_err", bool(hll) and max(hll) <= HLL_TOL),
                ("kll_rank_err", len(rank) == len(self.expected)
                 and max(rank) <= KLL_TOL)]

    def corrupt(self, df):
        df = df.copy()
        df.loc[0, "rows"] += 1
        return df

    def warm_up(self, ops):
        """The flagship job's stages run one by one: the job returns only
        summaries, so its filters (and the fpp they buy) come from here."""
        from spans import Tracer

        out = ops.call(self.traced, Tracer())
        return [("warm_up", False)] if out is None else self.check_traced(out)

    def traced(self, tracer):
        from libfilter_ray.sources.webpages import read_webpages
        from libfilter_ray.stages.extract import verify_extract_stage
        from libfilter_ray.stages.sketch_build import build_grouped_multi

        with tracer.span("ray.sources"):
            pages = read_webpages(self.work).materialize()
        with tracer.span("ray.extract"):
            ext = pages.map_batches(verify_extract_stage,
                                    batch_format="pyarrow") \
                .map_batches(add_text_len, batch_format="pyarrow") \
                .select_columns(["url", "lang", "text_len"]).materialize()
        with tracer.span("ray.sketch_build"):
            out = build_grouped_multi(ext, "lang", self.specs())
        self._stages = (pages, ext)
        return out

    def check_traced(self, out):
        from libfilter_ray.sketch.block_bloom import BlockBloom

        filters = {r["lang"]: BlockBloom.from_bytes(r["payload_bloom"])
                   for _, r in out.iterrows()}
        fpp, misses = _fpp_and_misses(filters, self.urls, self.absent)
        self.accuracy["fpp_measured"] = fpp
        got = dict(zip(out["lang"], out["rows"].astype(int)))
        return [("rows_per_lang", got == self.expected),
                ("no_false_negatives", misses == 0),
                ("fpp_within_bound", fpp <= FPP)]

    def replay(self, tracer):
        from libfilter_ray.sources.webpages import synthesize_webpages
        from libfilter_ray.stages.extract import verify_extract_stage

        pages, ext = self._stages
        replay_read(tracer, [self.path], ["doc_id", "text", "lang", "source"],
                    synthesize_webpages)
        for block in _blocks(pages):
            with tracer.span("extract", rows=block.num_rows):
                add_text_len(verify_extract_stage(block)) \
                    .select(["url", "lang", "text_len"])
        partials = replay_partials(tracer, ext, "lang", self.specs())
        self.extras.update(replay_grouped(tracer, partials, "lang",
                                          self.specs()))


class _DomainTable(Workload):
    """Shared input handling of the two per-domain workloads."""

    generator = "domain"

    @property
    def paths(self):
        return sorted(glob.glob(os.path.join(self.work, "rows",
                                             "*.parquet")))

    def prepare(self):
        t = pq.read_table(self.paths)
        self.expected = _counts(t["domain"])
        self.urls = _hashes_by_key(t, "domain", "url")
        self.absent = _absent_hashes(self.seed, self.ABSENT)


class DomainSketchBuild(_DomainTable):
    name = "domain_sketch_build"
    BLOOM_BYTES = 4096
    ABSENT = 200

    def input_sizes(self, scale):
        return {"n_rows": max(5000, int(30_000 * scale)),
                "n_domains": max(100, int(1500 * min(scale, 1.0))),
                "skew": 1.3, "n_files": 8}

    SPECS = [("bloom", "block", {"bytes_": BLOOM_BYTES}, "url"),
             ("hll", "hll", {"p": 12}, "url")]

    def _source(self):
        import ray.data

        return ray.data.read_parquet(self.paths)

    def job(self):
        from libfilter_ray.stages.sketch_build import build_grouped_multi

        t0 = _now()
        out = build_grouped_multi(self._source(), "domain", self.SPECS)
        wall = _now() - t0
        return out, self.sizes["n_rows"], wall, wall

    def check(self, out):
        from libfilter_ray.sketch import sizing
        from libfilter_ray.sketch.block_bloom import BlockBloom
        from libfilter_ray.sketch.hll import HyperLogLog

        got = dict(zip(out["domain"], out["rows"].astype(int)))
        filters = {r["domain"]: BlockBloom.from_bytes(r["payload_bloom"])
                   for _, r in out.iterrows()}
        fpp, misses = _fpp_and_misses(filters, self.urls, self.absent)
        predicted = float(np.mean([sizing.block_fpp(n, self.BLOOM_BYTES)
                                   for n in self.expected.values()]))
        est = [HyperLogLog.from_bytes(p).estimate()
               for p in out["payload_hll"]]
        hll = [abs(e - n) / n for e, n in zip(est, out["rows"])]
        self.accuracy["fpp_measured"] = fpp
        self.accuracy["distinct_rel_err"] = float(np.mean(hll)) if hll else 1.0
        return [("rows_per_domain", got == self.expected),
                ("no_false_negatives", misses == 0),
                # the filters are fixed-size, so the bound is the sizing
                # model's prediction for each domain's row count
                ("fpp_within_bound", fpp <= 1.5 * predicted + 0.005),
                # over a thousand keys, two urls of a tiny domain can share
                # a register: allow every key one count of slack
                ("hll_rel_err", bool(hll) and float(np.mean(hll)) <= HLL_TOL
                 and all(abs(e - n) <= 4 * HLL_TOL * n + 1
                         for e, n in zip(est, out["rows"])))]

    def corrupt(self, out):
        out = out.copy()
        out.loc[0, "payload_bloom"] = bytes(len(out.loc[0, "payload_bloom"]))
        return out

    def traced(self, tracer):
        from libfilter_ray.stages.sketch_build import build_grouped_multi

        with tracer.span("ray.sources"):
            ds = self._source().materialize()
        with tracer.span("ray.sketch_build"):
            out = build_grouped_multi(ds, "domain", self.SPECS)
        self._stages = ds
        return out

    def check_traced(self, out):
        return self.check(out)

    def replay(self, tracer):
        replay_read(tracer, self.paths, ["url", "domain"])
        partials = replay_partials(tracer, self._stages, "domain", self.SPECS)
        self.extras.update(replay_grouped(tracer, partials, "domain",
                                          self.SPECS))


class DomainCheckpointResume(_DomainTable):
    name = "domain_checkpoint_resume"
    ABSENT = 1000
    PARAMS = {"ndv": 64, "fpp": FPP}
    PARTITIONS = 8

    def input_sizes(self, scale):
        return {"n_rows": max(2000, int(30_000 * scale)), "n_domains": 250,
                "skew": 1.3, "n_files": 1}

    def _build(self, run_dir):
        from libfilter_ray.state.checkpoint import CheckpointedBuild

        return CheckpointedBuild(
            run_dir, self.paths, kind="taffy_block", params=self.PARAMS,
            column="url", key="domain",
            target_rows=-(-self.sizes["n_rows"] // self.PARTITIONS))

    def _fresh(self, name):
        d = os.path.join(self.work, name)
        shutil.rmtree(d, ignore_errors=True)
        return d

    def warm_up(self, ops):
        """A clean single-shot build: the reference the resumed result must
        equal byte for byte."""
        ref = ops.call(self._build(self._fresh("ckpt-reference")).run)
        if ref is None:
            return [("warm_up", False)]
        self.reference = {k: v.to_bytes() for k, v in ref.items()}
        return self._filter_gates(ref)

    def job(self):
        run_dir = self._fresh("ckpt-run")
        t0 = _now()
        self._build(run_dir).run(max_partitions=self.PARTITIONS // 2)
        t1 = _now()
        out = self._build(run_dir).run()
        t2 = _now()
        return out, self.sizes["n_rows"], t2 - t0, t2 - t1

    def _filter_gates(self, out):
        fpp, misses = _fpp_and_misses(out, self.urls, self.absent)
        self.accuracy["fpp_measured"] = fpp
        # merged growable filters: the bound is the filters' own estimate
        # from their level occupancy (taffy_block.estimated_fpp)
        bound = float(np.mean([f.estimated_fpp() for f in out.values()]))
        return [("rows_per_domain", set(out) == set(self.expected)),
                ("no_false_negatives", misses == 0),
                ("fpp_within_bound", fpp <= 1.5 * bound + 0.005)]

    def check(self, out):
        out = out or {}
        same = (set(out) == set(self.reference)
                and all(out[k].to_bytes() == b
                        for k, b in self.reference.items()))
        return [("resume_equals_single_shot", same)] + \
            self._filter_gates(out)

    def corrupt(self, out):
        out = dict(out)
        out.pop(next(iter(out)))
        return out

    def traced(self, tracer):
        run_dir = self._fresh("ckpt-traced")
        with tracer.span("ray.checkpoint.stop") as c:
            c["built"] = self._build(run_dir).build_partials(
                self.PARTITIONS // 2)
        job = self._build(run_dir)
        with tracer.span("ray.checkpoint.resume") as c:
            c["skipped"] = len(job.done_ids())
            c["built"] = job.build_partials()
        with tracer.span("ray.checkpoint.merge"):
            out = job.merge()
        files = glob.glob(os.path.join(run_dir, "partials", "*.parquet"))
        ms = job.metrics().groupby("partition_id")["wall_ms"].first()
        stop, resume = (sp["counts"] for sp in tracer.spans
                        if sp["name"] in ("ray.checkpoint.stop",
                                          "ray.checkpoint.resume"))
        self.extras.update({
            "checkpoint.partitions_built": stop["built"] + resume["built"],
            "checkpoint.partitions_skipped": resume["skipped"],
            "checkpoint.bytes_written": sum(os.path.getsize(f)
                                            for f in files),
            "checkpoint.partition_ms_p50": float(ms.median()),
            "checkpoint.partition_ms_max": float(ms.max())})
        return out

    def check_traced(self, out):
        return self.check(out)

    def replay(self, tracer):
        from libfilter_ray.sketch import registry

        job = self._build(self._fresh("ckpt-replay"))
        build_partition = job._make_builder()
        for p in job.partitions:
            item = pa.table({
                "partition_id": [p.partition_id], "path": [p.path],
                "fragments": [[list(fr) for fr in p.fragments]]})
            with tracer.span("checkpoint.build", rows=p.rows):
                build_partition(item)
        cls = registry.get("taffy_block")
        with tracer.span("checkpoint.merge"):
            acc: dict = {}
            for f in sorted(glob.glob(os.path.join(job.run_dir, "partials",
                                                   "*.parquet"))):
                t = pq.read_table(f, columns=["key", "payload"])
                for k, p in zip(t["key"].to_pylist(),
                                t["payload"].to_pylist()):
                    sk = cls.from_bytes(p)
                    acc[k] = sk if k not in acc else acc[k].merge(sk)
            for sk in acc.values():
                sk.to_bytes()


class UrlMembershipProbe(Workload):
    name = "url_membership_probe"
    generator = "probe"

    def input_sizes(self, scale):
        return {"n_members": max(5000, int(400_000 * scale)),
                "n_probes": max(5000, int(600_000 * scale)),
                "n_files": 4}

    @property
    def stream_paths(self):
        return sorted(glob.glob(os.path.join(self.work, "stream",
                                             "*.parquet")))

    def prepare(self):
        """Build the per-lang filters (sized for the whole member set, as
        the flagship sizes its per-lang filters) and broadcast them once.
        Each filter is listed under both its member and absent group key;
        pickling stores the shared payload once."""
        import ray

        from libfilter_ray.sketch import sizing
        from libfilter_ray.sketch.block_bloom import BlockBloom

        members = pq.read_table(os.path.join(self.work, "members.parquet"))
        size = sizing.block_bytes_needed(members.num_rows, FPP)
        self.filter_bytes = {}
        for lang, hashes in _hashes_by_key(members, "lang", "url").items():
            f = BlockBloom(size)
            f.update(hashes)
            self.filter_bytes[lang] = f.to_bytes()
        self.payloads = {f"{lang}|{g}": b for lang, b in
                         self.filter_bytes.items() for g in "ma"}
        self.ref = ray.put(self.payloads)
        self.expected = _counts(pq.read_table(self.stream_paths,
                                              columns=["grp"])["grp"])

    def _probe(self, ds, ref):
        from ray.data.aggregate import Sum

        from libfilter_ray.sketch.block_bloom import BlockBloom
        from libfilter_ray.stages.sketch_build import grouped_probe_counts

        fn = grouped_probe_counts(ref, BlockBloom.from_bytes, "grp", "url")
        return ds.map_batches(fn, batch_format="pyarrow") \
            .groupby("grp").aggregate(Sum("found", alias_name="found"),
                                      Sum("n", alias_name="n")).to_pandas()

    def _source(self):
        import ray.data

        return ray.data.read_parquet(self.stream_paths, columns=["grp", "url"])

    def job(self):
        t0 = _now()
        out = self._probe(self._source(), self.ref)
        wall = _now() - t0
        return out, self.sizes["n_probes"], wall, wall

    def check(self, out):
        n = dict(zip(out["grp"], out["n"].astype(int)))
        found = dict(zip(out["grp"], out["found"].astype(int)))
        absent = [g for g in n if g.endswith("|a")]
        fpp = sum(found[g] for g in absent) / max(sum(n[g] for g in absent),
                                                 1)
        self.accuracy["fpp_measured"] = fpp
        return [("probes_per_group", n == self.expected),
                ("no_false_negatives", all(found[g] == n[g] for g in n
                                           if g.endswith("|m"))),
                ("fpp_within_bound", fpp <= FPP)]

    def corrupt(self, out):
        out = out.copy()
        member = out.index[out["grp"].str.endswith("|m")][0]
        out.loc[member, "found"] -= 1
        return out

    def traced(self, tracer):
        import ray

        with tracer.span("ray.broadcast"):
            ref = ray.put(self.payloads)
        with tracer.span("ray.sources"):
            ds = self._source().materialize()
        with tracer.span("ray.probe"):
            out = self._probe(ds, ref)
        self._stages = ds
        return out

    def check_traced(self, out):
        return self.check(out)

    def replay(self, tracer):
        import ray

        from libfilter_ray.sketch.block_bloom import BlockBloom
        from libfilter_ray.stages.sketch_build import grouped_probe_counts

        replay_read(tracer, self.stream_paths, ["grp", "url"])
        with tracer.span("broadcast",
                         bytes=sum(map(len, self.filter_bytes.values()))):
            ref = ray.put(self.payloads)
        fn = grouped_probe_counts(ref, BlockBloom.from_bytes, "grp", "url")
        for block in _blocks(self._stages):
            with tracer.span("sketch_build.map", rows=block.num_rows):
                fn(block)


WORKLOADS = {w.name: w for w in (LangSketchBuild, DomainSketchBuild,
                                 DomainCheckpointResume, UrlMembershipProbe)}
