"""Checkpointed, resumable sketch builds with per-partition lineage.

The reference serializes filter state as flat byte dumps
(``c/lib/block.c:20-53``); the engine extends that into a *job* contract the
north rule requires: "resumable from checkpoint with per-partition lineage +
metrics".

Design (SURVEY.md §4.2 "checkpoint/resume"):

- The input is split into deterministic **partitions** = contiguous runs of
  parquet row-groups (row-count balanced, file order). Partition identity is
  a pure function of the input listing, so a resumed run sees the same split.
- Each partition is processed by one Ray task (stateless — a pure function of
  its fragment list, so Ray retries and job resumes are both safe): read the
  row groups -> optional transform chain -> per-key partial sketches -> write
  ONE parquet checkpoint file ``partials/part-{pid:05d}.parquet`` atomically
  (tmp + rename) carrying payload AND lineage:
  ``partition_id, key, kind, params(json), seed, payload, rows_processed,
  input_fragments(json), wall_ms, engine_version``.
- **Resume = list the checkpoint dir, skip completed partition ids.** Only
  missing partitions are rebuilt; the final merge re-runs idempotently from
  the checkpoint files alone (a pure function of the directory).
- The final merge runs the engine's one keyed merge over the (tiny)
  checkpoint files (``stages/sketch_build.merge_keyed``): ONE remote task
  reads and folds a small partial set, a key-hash sharded exchange merges
  a large one. No payload is concentrated on the driver; scales to
  millions of partitions.

At 100 TB: partitions are ~row-group sized (100s of MB), checkpoint rows are
KBs, and a failed run resumes by re-listing one directory. The partials dir
doubles as the job's metrics table (rows/sec per partition, stragglers).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import __version__ as ENGINE_VERSION
from ..sketch import registry
from ..sketch.hashing import DEFAULT_SEED

PARTIALS_DIR = "partials"
MANIFEST = "manifest.json"


@dataclass(frozen=True)
class Partition:
    """One resumable unit: a contiguous row range of one parquet file,
    expressed as (row_group, start_row_within_group, n_rows) fragments so a
    row group larger than `target_rows` still splits into multiple
    partitions (and small row groups coalesce)."""

    partition_id: int
    path: str
    fragments: tuple[tuple[int, int, int], ...]  # (rg, start, len)
    rows: int


def plan_partitions(paths: list[str], target_rows: int = 1 << 20) -> list[Partition]:
    """Deterministic split of the input files into row-count-balanced
    partitions (sorted file order -> stable ids).

    NB: parquet row groups are the I/O unit — a row group larger than
    `target_rows` is split into row-range partitions, and each such
    partition decodes the WHOLE row group before slicing (k-fold read
    amplification for k-way splits). At production scale keep row groups
    <= target_rows (the normal ~128 MB layout) so splits land on row-group
    boundaries; sub-row-group splitting exists for pathological inputs and
    small test files."""
    parts: list[Partition] = []
    pid = 0
    for path in sorted(paths):
        md = pq.read_metadata(path)
        cur: list[tuple[int, int, int]] = []
        cur_rows = 0

        def flush():
            nonlocal pid, cur, cur_rows
            if cur:
                parts.append(Partition(pid, path, tuple(cur), cur_rows))
                pid += 1
                cur, cur_rows = [], 0

        for rg in range(md.num_row_groups):
            n = md.row_group(rg).num_rows
            start = 0
            while start < n:
                take = min(n - start, target_rows - cur_rows)
                cur.append((rg, start, take))
                cur_rows += take
                start += take
                if cur_rows >= target_rows:
                    flush()
        flush()
    return parts


def _atomic_write_table(table: pa.Table, dest: str) -> None:
    tmp = f"{dest}.tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp)
    os.replace(tmp, dest)  # atomic on POSIX: a crash never leaves a partial


class _PartitionWorker:
    """Shared per-partition scaffolding for checkpointed jobs: skip-if-done
    race guard, fragment read + slice, transform hook, lineage/meta
    columns, atomic write, per-partition summary rows. Subclasses implement
    ``_partial_columns(t) -> (data_columns, rows_processed)`` — the
    job-specific checkpoint payload (equal-length column dict + the
    rows_processed column, both sized to the partial's row count)."""

    def __init__(self, run_dir: str,
                 transform: Callable[[pa.Table], pa.Table] | None,
                 read_columns: list[str] | None):
        self.run_dir = run_dir
        self.transform = transform
        self.read_columns = read_columns

    def _partial_columns(self, t: pa.Table):
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_rows = []
        for row in batch.to_pylist():
            pid = int(row["partition_id"])
            dest = os.path.join(self.run_dir, PARTIALS_DIR,
                                f"part-{pid:05d}.parquet")
            if os.path.exists(dest):  # resumed + raced: already done
                continue
            t0 = time.perf_counter()
            f = pq.ParquetFile(row["path"])
            frags = [tuple(fr) for fr in row["fragments"]]
            pieces = []
            for rg, start, length in frags:
                rg_table = f.read_row_group(rg, columns=self.read_columns)
                pieces.append(rg_table.slice(start, length))
            t = pa.concat_tables(pieces)
            if self.transform is not None:
                t = self.transform(t)
            data, rows_processed = self._partial_columns(t)
            wall_ms = (time.perf_counter() - t0) * 1e3
            lineage = json.dumps({"path": row["path"],
                                  "fragments": [list(fr) for fr in frags]})
            n = len(rows_processed)

            def const_str(v: str):
                # partition-constant strings as dictionary arrays: O(1)
                # payload however many data rows the partial has (band
                # partials are rows x bands), and parquet stores the
                # dictionary once
                return pa.DictionaryArray.from_arrays(
                    pa.array(np.zeros(n, dtype=np.int32)),
                    pa.array([v], type=pa.string()))

            ck = pa.table({
                "partition_id": pa.array(np.full(n, pid), type=pa.int64()),
                **data,
                "rows_processed": pa.array(rows_processed, type=pa.int64()),
                "input_fragments": const_str(lineage),
                "wall_ms": pa.array(np.full(n, wall_ms),
                                    type=pa.float64()),
                "engine_version": const_str(ENGINE_VERSION),
            })
            _atomic_write_table(ck, dest)
            out_rows.append({"partition_id": pid, "rows": t.num_rows,
                             "wall_ms": wall_ms})
        return pa.table({
            "partition_id": pa.array([r["partition_id"] for r in out_rows],
                                     type=pa.int64()),
            "rows": pa.array([r["rows"] for r in out_rows], type=pa.int64()),
            "wall_ms": pa.array([r["wall_ms"] for r in out_rows],
                                type=pa.float64()),
        })


class _PartitionBuilder(_PartitionWorker):
    """Per-partition sketch build: fragment list -> one checkpoint file.

    Pure function of the partition spec (deterministic salt-free build), so
    both Ray task retries and whole-job resumes produce identical bytes for
    order-invariant sketches (BlockBloom/TaffyBlock/HLL/CMS/KLL)."""

    def __init__(self, run_dir: str, kind: str, params: dict, column: str,
                 key: str | None, seed: int,
                 transform: Callable[[pa.Table], pa.Table] | None,
                 read_columns: list[str] | None):
        super().__init__(run_dir, transform, read_columns)
        self.kind, self.params = kind, params
        self.column, self.key, self.seed = column, key, seed

    def _partial_columns(self, t: pa.Table):
        from ..stages import sketch_build as sb

        if self.key is None:
            p = sb._PartialBuilder(self.kind, self.params, self.column,
                                   self.seed)(t).to_pydict()
            keys, payloads, counts = pa.array(p["key"]), p["payload_s"], \
                p["rows"]
        else:
            # the one key split (sketch_build.split_by_key): null-key rows
            # are excluded, keys keep the key column's type
            spec = [(None, self.kind, self.params, self.column)]
            split = sb.split_by_key(t, self.key, *sb._spec_inputs(spec),
                                    seed=self.seed)
            keys, counts = split[0], np.diff(split[1])
            payloads, _ = sb._key_payloads(split, self.kind, self.params,
                                           self.column, self.seed,
                                           raw_ok=False)
        n = len(keys)
        return ({
            "key": keys,
            "kind": pa.array([self.kind] * n),
            "params": pa.array([json.dumps(self.params)] * n),
            "seed": pa.array([self.seed] * n, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.large_binary()),
        }, counts)


class _CheckpointedJob:
    """Shared scaffolding for resumable per-partition jobs: deterministic
    partition plan, immutable manifest (config + plan verified on resume),
    orphan-tmp sweep, done/pending accounting, and the build loop that runs
    only the missing partitions. Subclasses provide `_config()` (the
    manifest-checked identity of the job) and `_make_builder()` (the
    stateless per-partition map_batches callable)."""

    def __init__(self, run_dir: str, input_paths: list[str],
                 target_rows: int = 1 << 20):
        self.run_dir = run_dir
        os.makedirs(os.path.join(run_dir, PARTIALS_DIR), exist_ok=True)
        self._sweep_tmps()
        self.partitions = plan_partitions(input_paths, target_rows)
        self._write_manifest()

    def _config(self) -> dict:
        raise NotImplementedError

    def _make_builder(self):
        raise NotImplementedError

    def _partial_files(self) -> list[str]:
        d = os.path.join(self.run_dir, PARTIALS_DIR)
        return sorted(f for f in os.listdir(d) if f.endswith(".parquet"))

    def _metrics(self, columns: list[str],
                 first_row_only: bool = False) -> "pd.DataFrame":  # noqa: F821
        """Concatenate the requested meta columns across partial files;
        `first_row_only` collapses partials whose meta columns are
        partition-constant (data rows carry the same values)."""
        import pandas as pd

        d = os.path.join(self.run_dir, PARTIALS_DIR)
        frames = []
        for f in self._partial_files():
            t = pq.read_table(os.path.join(d, f), columns=columns) \
                .to_pandas()
            frames.append(t.iloc[:1] if first_row_only else t)
        if not frames:
            return pd.DataFrame()
        return pd.concat(frames, ignore_index=True)

    def _sweep_tmps(self) -> None:
        d = os.path.join(self.run_dir, PARTIALS_DIR)
        for name in os.listdir(d):
            if ".tmp-" in name:  # abandoned atomic-write attempt
                os.unlink(os.path.join(d, name))

    def _write_manifest(self) -> None:
        path = os.path.join(self.run_dir, MANIFEST)
        mine = self._config()
        if os.path.exists(path):
            # resume: the manifest is immutable for the run — verify this
            # job's config matches it, otherwise partials from run 1 would
            # silently merge into a differently-parameterized job
            with open(path) as f:
                old = json.load(f)
            # full two-sided comparison: a job with FEWER config keys must
            # not adopt partials written under a richer config (e.g. a
            # transform-tagged clean checkpoint resumed by a plain dedup) —
            # every manifest key except the bookkeeping fields is config
            theirs = {k: v for k, v in old.items()
                      if k not in ("engine_version", "partitions")}
            if mine != theirs:
                raise ValueError(
                    f"resume config mismatch vs manifest at {path}: "
                    f"{theirs} != {mine}")
            old_plan = [(p["partition_id"], p["path"],
                         tuple(tuple(fr) for fr in p["fragments"]))
                        for p in old["partitions"]]
            new_plan = [(p.partition_id, p.path, p.fragments)
                        for p in self.partitions]
            if old_plan != new_plan:
                raise ValueError(
                    "resume partition-plan mismatch (inputs or target_rows "
                    "changed since the original run)")
            return
        manifest = dict(mine)
        manifest["engine_version"] = ENGINE_VERSION
        manifest["partitions"] = [
            {"partition_id": p.partition_id, "path": p.path,
             "fragments": [list(fr) for fr in p.fragments], "rows": p.rows}
            for p in self.partitions]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, path)

    # -- progress ----------------------------------------------------------
    def done_ids(self) -> set[int]:
        d = os.path.join(self.run_dir, PARTIALS_DIR)
        out = set()
        for name in os.listdir(d):
            if name.startswith("part-") and name.endswith(".parquet"):
                # {pid:05d} is a MINIMUM width — parse up to the extension
                out.add(int(name[5:-len(".parquet")]))
        return out

    def status(self) -> dict:
        done = self.done_ids()
        pending = [p.partition_id for p in self.partitions
                   if p.partition_id not in done]
        return {"total": len(self.partitions), "done": len(done),
                "pending": pending}

    # -- execution ---------------------------------------------------------
    def build_partials(self, max_partitions: int | None = None) -> int:
        """Build (only) the missing partitions; returns how many were built.
        `max_partitions` deliberately stops early — the test hook for
        simulating a killed job."""
        import ray.data

        done = self.done_ids()
        pending = [p for p in self.partitions if p.partition_id not in done]
        if max_partitions is not None:
            pending = pending[:max_partitions]
        if not pending:
            return 0
        items = [{"partition_id": p.partition_id, "path": p.path,
                  "fragments": [list(fr) for fr in p.fragments]}
                 for p in pending]
        builder = self._make_builder()
        (ray.data.from_items(items, override_num_blocks=len(items))
         .map_batches(builder, batch_format="pyarrow", batch_size=1)
         .materialize())
        return len(pending)


class CheckpointedBuild(_CheckpointedJob):
    """A resumable distributed sketch-build job over parquet inputs.

    >>> job = CheckpointedBuild(run_dir, paths, kind="block",
    ...                         params={"bytes_": 4096}, column="url",
    ...                         key="lang")
    >>> job.run()              # builds missing partitions, returns merged
    >>> job.status()           # {"total": ..., "done": ..., "pending": [...]}

    ``run()`` after a crash (or a deliberate ``max_partitions`` cut) skips
    finished partitions — the kill-and-resume test asserts byte-identity with
    a clean single-shot build.

    **Single-writer-per-run_dir contract**: at most one CheckpointedBuild
    instance may be live per ``run_dir`` at a time. ``__init__`` sweeps
    orphan ``.tmp-*`` files from the partials dir (crash debris from a
    previous PROCESS), which would delete a concurrent instance's in-flight
    atomic write. Resume = sequential re-instantiation, never concurrent
    sharing; run concurrent builds in distinct run_dirs.

    **Shared-filesystem contract**: ``run_dir`` must be visible to the
    driver AND every Ray worker node (NFS / fuse-mounted object store on a
    multi-node cluster) — workers write partials there and the driver
    lists them for status/merge. A node-local path on a multi-node cluster
    silently strands partials on remote disks.
    """

    def __init__(self, run_dir: str, input_paths: list[str], *, kind: str,
                 params: dict | None = None, column: str,
                 key: str | None = None, seed: int = DEFAULT_SEED,
                 target_rows: int = 1 << 20,
                 transform: Callable[[pa.Table], pa.Table] | None = None,
                 read_columns: list[str] | None = None):
        self.kind, self.params = kind, dict(params or {})
        self.column, self.key, self.seed = column, key, seed
        self.transform, self.read_columns = transform, read_columns
        super().__init__(run_dir, input_paths, target_rows)

    def _config(self) -> dict:
        return {"kind": self.kind, "params": self.params,
                "column": self.column, "key": self.key, "seed": self.seed}

    def _make_builder(self):
        return _PartitionBuilder(self.run_dir, self.kind, self.params,
                                 self.column, self.key, self.seed,
                                 self.transform, self.read_columns)

    def merge(self):
        """Idempotent final merge, a pure function of the checkpoint dir:
        the partial files -> `sketch_build.merge_keyed` (one task reads and
        folds a small partial set, one key-hash exchange round merges a
        large one; payloads folded in canonical order either way). A torn
        or unreadable partial file raises. Returns {key: sketch} (key "" when
        ungrouped)."""
        from ..stages.sketch_build import PartialFiles, merge_keyed

        pending = self.status()["pending"]
        if pending:
            # merging a partial scan would silently return under-counted
            # sketches — same guard as CheckpointedDedup.multi_hashes
            raise RuntimeError(
                f"build incomplete: {len(pending)} partition(s) pending — "
                "call run() to finish before merging")
        cls = registry.get(self.kind)
        if not self._partial_files():
            # zero-row input planned zero partitions: an empty (never
            # updated) sketch, same as a sequential build over no rows
            if self.key is None:
                return {"": registry.make(self.kind, **self.params)}
            return {}
        # _partial_files() lists *.parquet only: orphan part-*.parquet.tmp-*
        # files from a crash inside _atomic_write_table would otherwise be
        # ingested too, double-counting partitions on resume
        d = os.path.join(self.run_dir, PARTIALS_DIR)
        files = PartialFiles(
            [os.path.join(d, f) for f in self._partial_files()],
            {"key": "key", "payload": "payload_s", "rows_processed": "rows"})
        out = merge_keyed(files, "key",
                          [("s", self.kind, self.params, self.column)],
                          finalize=False)
        if out is None:  # every partition's keys were null
            return {}
        return {k: cls.from_bytes(p) for k, p in
                zip(out["key"].to_pylist(), out["payload_s"].to_pylist())}

    def run(self, max_partitions: int | None = None):
        self.build_partials(max_partitions)
        if self.status()["pending"]:
            return None  # interrupted (test hook) — resume later
        return self.merge()

    def metrics(self) -> "pd.DataFrame":  # noqa: F821
        """Per-partition lineage + timing table straight from the checkpoint
        files, one row per (partition, key) (the job's observability
        surface)."""
        return self._metrics(["partition_id", "key", "rows_processed",
                              "wall_ms", "input_fragments",
                              "engine_version"])


class _DedupPartitionHasher(_PartitionWorker):
    """Per-partition worker for CheckpointedDedup: fragment list -> one
    hash-histogram checkpoint file ``(content_hash, n_members)`` over the
    partition's rows. Pure function of the partition spec (seed-free 64-bit
    content hash, sketch/hashing.py:hash_arrow_array), so task retries and
    job resumes write identical bytes."""

    def __init__(self, run_dir: str, column: str,
                 transform: Callable[[pa.Table], pa.Table] | None,
                 read_columns: list[str] | None):
        super().__init__(run_dir, transform, read_columns)
        self.column = column

    def _partial_columns(self, t: pa.Table):
        from ..sketch.hashing import hash_arrow_array

        h = hash_arrow_array(t[self.column]).view(np.int64)
        uniq, counts = np.unique(h, return_counts=True)
        # constant lineage/meta columns RLE/dict-encode to ~nothing in
        # parquet; the partial is ~16 B x distinct-hashes-per-partition
        return ({
            "content_hash": pa.array(uniq, type=pa.int64()),
            "n_members": pa.array(counts, type=pa.int64()),
        }, np.full(len(uniq), t.num_rows))


class CheckpointedDedup(_CheckpointedJob):
    """A resumable exact-dedup job over parquet inputs (north rule:
    "resumable from checkpoint with per-partition lineage + metrics"
    applied to the training-data family's most expensive scan).

    Phase 1 — the checkpointed part — is the full-corpus content-hash scan:
    each partition writes a ``(content_hash, n_members)`` histogram partial
    (O(distinct hashes in the partition) x 16 B; the html/text payloads are
    hashed in place and never persisted). A killed job resumes by listing
    the partials dir and rebuilding only missing partitions.

    Phase 2 — ``multi_hashes()`` — is an idempotent pure function of the
    checkpoint dir: read_parquet(partials) -> groupby(content_hash) ->
    Sum(n_members) -> the hashes with global count > 1. Driver memory is
    O(#duplicated hash groups), same bound as stages/dedup.py:exact_dedup.

    Phase 3 — ``drop_ids(ds)`` / ``dedup(ds)`` — reuses
    stages/dedup.py:exact_dedup_drop_ids with the precomputed multi-hash
    set: the streaming bloom-prune + exact payload confirm touches ONLY
    duplicate-group rows (collision-proof min-id-per-(hash, payload)), so
    re-running it after a resume is cheap — the expensive scan is what the
    checkpoint protects.

    Single-writer-per-run_dir and shared-filesystem contracts are inherited
    from CheckpointedBuild (see its docstring).
    """

    def __init__(self, run_dir: str, input_paths: list[str], *, column: str,
                 id_column: str, target_rows: int = 1 << 20,
                 transform: Callable[[pa.Table], pa.Table] | None = None,
                 read_columns: list[str] | None = None,
                 config_extra: dict | None = None,
                 keep_score: str | None = None):
        self.column, self.id_column = column, id_column
        self.transform = transform
        self.read_columns = read_columns if read_columns is not None \
            else [column]
        # survivor policy (None = min id, else max-score member). The
        # phase-1/2 hash-histogram artifacts are policy-independent, but
        # the manifest still pins the policy so a resume can't silently
        # change which rows the confirm pass keeps.
        self.keep_score = keep_score
        # transforms aren't content-hashable — callers whose transform
        # varies by options pass their identity here so a resume with
        # different options is REJECTED instead of mixing partial hashes
        # computed under different transforms
        self.config_extra = dict(config_extra or {})
        super().__init__(run_dir, input_paths, target_rows)

    def _config(self) -> dict:
        cfg = {"kind": "exact_dedup", "column": self.column,
               "key": self.id_column, **self.config_extra}
        if self.keep_score:  # absent for min-id: old manifests stay valid
            cfg["keep_score"] = self.keep_score
        return cfg

    def _make_builder(self):
        return _DedupPartitionHasher(self.run_dir, self.column,
                                     self.transform, self.read_columns)

    def multi_hashes(self) -> np.ndarray:
        """Sorted int64 content hashes whose global member count exceeds 1 —
        a distributed groupby over the (tiny) checkpoint rows; only the
        duplicated groups ever reach the driver."""
        import ray.data
        from ray.data.aggregate import Sum

        pending = self.status()["pending"]
        if pending:
            # an incomplete scan would silently UNDER-deduplicate (a text
            # split across a scanned and an unscanned partition counts 1)
            raise RuntimeError(
                f"dedup scan incomplete: {len(pending)} partition(s) "
                "pending — call run() to finish before querying results")
        if not self._partial_files():  # zero-row input: nothing duplicated
            return np.empty(0, dtype=np.int64)
        ds = ray.data.read_parquet(
            os.path.join(self.run_dir, PARTIALS_DIR),
            columns=["content_hash", "n_members"],
            file_extensions=["parquet"])
        multi = ds.groupby("content_hash") \
            .aggregate(Sum("n_members", alias_name="n")) \
            .filter(expr="n > 1").select_columns(["content_hash"]) \
            .to_pandas()
        if not len(multi) or "content_hash" not in multi.columns:
            return np.empty(0, dtype=np.int64)
        return np.sort(multi["content_hash"].to_numpy().astype(np.int64))

    def run(self, max_partitions: int | None = None) -> np.ndarray | None:
        """Build missing partials; returns the duplicated-hash set, or None
        if interrupted (`max_partitions` test hook) — resume later."""
        self.build_partials(max_partitions)
        if self.status()["pending"]:
            return None
        return self.multi_hashes()

    def drop_ids(self, ds) -> np.ndarray:
        """Sorted ids of the rows dedup removes (the min-id-per-payload
        survivor, or the max-`keep_score` member), confirmed exactly
        against `ds` using the checkpointed duplicate-hash set."""
        from ..stages.dedup import exact_dedup_drop_ids

        return exact_dedup_drop_ids(ds, self.column, self.id_column,
                                    multi_hashes=self.multi_hashes(),
                                    keep_score=self.keep_score)

    def dedup(self, ds):
        """The deduplicated Dataset: one streaming filter pass against the
        broadcast drop-id set."""
        import ray

        from ..stages.dedup import drop_id_filter

        drop = self.drop_ids(ds)
        if not len(drop):
            return ds
        return ds.map_batches(drop_id_filter(ray.put(drop), self.id_column),
                              batch_format="pyarrow")

    def metrics(self) -> "pd.DataFrame":  # noqa: F821
        """Per-partition lineage + timing straight from the checkpoint files
        (one row per partition; the hash histogram is aggregated away)."""
        return self._metrics(["partition_id", "rows_processed", "wall_ms",
                              "input_fragments", "engine_version"],
                             first_row_only=True)


class _BandPartitionWorker(_PartitionWorker):
    """Per-partition worker for CheckpointedBands: fragment list -> one
    checkpoint file of (band_key, id) LSH bucket rows (n_rows x bands).
    Pure function of the partition spec — the minhash permutations are
    seeded constants — so retries and resumes write identical bytes."""

    def __init__(self, run_dir: str, column: str, id_column: str, k: int,
                 num_perm: int, bands: int,
                 transform: Callable[[pa.Table], pa.Table] | None,
                 read_columns: list[str] | None):
        super().__init__(run_dir, transform, read_columns)
        self.column, self.id_column = column, id_column
        self.k, self.num_perm, self.bands = k, num_perm, bands

    #: signature kernel chunk: bounds the flat shingle-hash and per-perm
    #: temporaries to ~512 docs regardless of partition size (the same
    #: batch bound the streaming sig_stage uses)
    CHUNK = 512

    def _partial_columns(self, t: pa.Table):
        from ..functions.shingles import lsh_band_keys, minhash_signatures

        col = t[self.id_column]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        ids = col.to_numpy(zero_copy_only=False).astype(np.int64)
        key_chunks = []
        for s in range(0, t.num_rows, self.CHUNK):
            sig = minhash_signatures(t[self.column].slice(s, self.CHUNK),
                                     k=self.k, num_perm=self.num_perm)
            key_chunks.append(
                lsh_band_keys(sig, bands=self.bands).ravel()
                .view(np.int64))
        keys = np.concatenate(key_chunks) if key_chunks \
            else np.empty(0, dtype=np.int64)
        return ({
            "band_key": pa.array(keys, type=pa.int64()),
            self.id_column: pa.array(np.repeat(ids, self.bands),
                                     type=pa.int64()),
        }, np.full(t.num_rows * self.bands, t.num_rows))


class CheckpointedBands(_CheckpointedJob):
    """A resumable MinHash+LSH banding scan — the dominant compute of the
    near-dup pipeline (the num_perm-pass signature kernel over every
    document) checkpointed per partition. The pair scan + exact-Jaccard
    verify then run FROM THE CHECKPOINT (the partials ARE the bucket
    table) plus one tiny candidate-text gather from the source — a
    resubmitted job never re-signatures finished partitions.

    >>> job = CheckpointedBands(run_dir, paths, column="text",
    ...                         id_column="doc_id")
    >>> buckets = job.run()          # None if interrupted; resume later
    >>> pairs = minhash_pairs_from_buckets(buckets, source_ds,
    ...                                    "text", "doc_id")

    Single-writer and shared-filesystem contracts as CheckpointedBuild.
    """

    def __init__(self, run_dir: str, input_paths: list[str], *,
                 column: str, id_column: str, k: int = 5,
                 num_perm: int = 128, bands: int = 16,
                 target_rows: int = 1 << 16,
                 transform: Callable[[pa.Table], pa.Table] | None = None,
                 read_columns: list[str] | None = None,
                 config_extra: dict | None = None):
        # NB: target_rows defaults 16x smaller than the other jobs — band
        # partials are rows x bands x 16 B, so 65k docs ≈ 16 MB partials
        if id_column == "band_key":
            raise ValueError("id_column may not be named 'band_key'")
        self.column, self.id_column = column, id_column
        self.k, self.num_perm, self.bands = k, num_perm, bands
        self.transform = transform
        self.read_columns = read_columns if read_columns is not None \
            else [column, id_column]
        self.config_extra = dict(config_extra or {})
        super().__init__(run_dir, input_paths, target_rows)

    def _config(self) -> dict:
        return {"kind": "minhash_bands", "column": self.column,
                "key": self.id_column, "k": self.k,
                "num_perm": self.num_perm, "bands": self.bands,
                **self.config_extra}

    def _make_builder(self):
        return _BandPartitionWorker(self.run_dir, self.column,
                                    self.id_column, self.k, self.num_perm,
                                    self.bands, self.transform,
                                    self.read_columns)

    def buckets(self):
        """The (band_key, <id_column>) bucket Dataset straight from the
        checkpoint files — guards against reading an incomplete scan."""
        import ray.data

        pending = self.status()["pending"]
        if pending:
            raise RuntimeError(
                f"band scan incomplete: {len(pending)} partition(s) "
                "pending — call run() to finish before pairing")
        if not self._partial_files():
            return ray.data.from_arrow(pa.table({
                "band_key": pa.array([], type=pa.int64()),
                self.id_column: pa.array([], type=pa.int64())}))
        return ray.data.read_parquet(
            os.path.join(self.run_dir, PARTIALS_DIR),
            columns=["band_key", self.id_column],
            file_extensions=["parquet"])

    def run(self, max_partitions: int | None = None):
        """Build missing partials; returns the bucket Dataset, or None if
        interrupted (`max_partitions` test hook) — resume later."""
        self.build_partials(max_partitions)
        if self.status()["pending"]:
            return None
        return self.buckets()

    def metrics(self) -> "pd.DataFrame":  # noqa: F821
        return self._metrics(["partition_id", "rows_processed", "wall_ms",
                              "input_fragments", "engine_version"],
                             first_row_only=True)
