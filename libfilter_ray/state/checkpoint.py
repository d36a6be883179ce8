"""Checkpointed, resumable sketch builds with per-partition lineage.

The reference serializes filter state as flat byte dumps
(``c/lib/block.c:20-53``); the engine extends that into a *job* contract the
north rule requires: "resumable from checkpoint with per-partition lineage +
metrics". The module checkpoints one job, the sketch build
(``CheckpointedBuild``).

Design (SURVEY.md §4.2 "checkpoint/resume"):

- The input is split into deterministic **partitions** = contiguous runs of
  parquet row-groups (row-count balanced, file order). Partition identity is
  a pure function of the input listing, so a resumed run sees the same split.
- Each partition is processed by one plain Ray task (stateless — a pure
  function of its fragment list, so Ray retries and job resumes are both
  safe): read the row groups -> per-key partial sketches -> write ONE
  parquet checkpoint file ``partials/part-{pid:05d}.parquet`` atomically
  (tmp + rename) carrying payload AND lineage:
  ``partition_id, key, kind, params(json), seed, payload, rows_processed,
  input_fragments(json), wall_ms, engine_version``.
  The tasks share one builder from the object store, at most twice the
  cluster's CPU count run or wait at a time, and a task lost to a worker or
  node failure is retried without limit.
- **Resume = list the checkpoint dir, skip completed partition ids.** Only
  missing partitions are rebuilt; the final merge re-runs idempotently from
  the checkpoint files alone (a pure function of the directory). Only a
  planned partition's own ``part-{pid:05d}.parquet`` counts: any other file
  in the dir is ignored by progress, merge and metrics alike.
- The final merge runs the engine's one keyed merge over the (tiny)
  checkpoint files (``stages/sketch_build.merge_keyed``): ONE remote task
  reads and folds a small partial set; split tasks read runs of a large
  one and cut them by key hash, one fold task per shard merges them. No
  payload is concentrated on the driver; scales to millions of partitions.

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
    if target_rows < 1:
        # a zero or negative budget never advances the row cursor
        raise ValueError(f"target_rows must be >= 1, got {target_rows}")
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


def _partial_name(pid: int) -> str:
    """The one checkpoint file name of partition `pid` in ``partials/``."""
    return f"part-{pid:05d}.parquet"


class _PartitionBuilder:
    """Per-partition sketch build: ``build(partition)`` reads and slices the
    partition's row groups -> per-key partial sketches from the one
    per-block partial builder every build maps through
    (``sketch_build._MultiGroupedPartialBuilder``) -> one checkpoint file
    with the lineage/meta columns, written atomically. It skips a partition
    whose file already exists.

    ``CheckpointedBuild.build_partials`` puts one builder in the object
    store and runs ``build`` as one Ray task per pending partition. Called
    directly over a ``(partition_id, path, fragments)`` table, the builder
    builds each row in the same process and returns one summary row per
    partition built.

    Pure function of the partition spec (deterministic salt-free build), so
    both Ray task retries and whole-job resumes produce identical bytes for
    order-invariant sketches (BlockBloom/TaffyBlock/HLL/CMS/KLL)."""

    def __init__(self, run_dir: str, kind: str, params: dict, column: str,
                 key: str | None, seed: int, read_columns: list[str] | None):
        self.run_dir = run_dir
        self.kind, self.params = kind, params
        self.column, self.key, self.seed = column, key, seed
        self.read_columns = read_columns

    def _partials(self, t: pa.Table):
        """(keys, payloads, rows per key) of one partition's rows, always
        sketches (``raw=False``): null-key rows are excluded and keys keep
        the key column's type; an ungrouped build has the one key ""."""
        from ..stages.sketch_build import _MultiGroupedPartialBuilder

        keys, cols = _MultiGroupedPartialBuilder(
            [("s", self.kind, self.params, self.column)], self.key,
            self.seed, raw=False).partials(t)
        return keys, cols["payload_s"], cols["rows"]

    def build(self, p: Partition) -> tuple[int, int, float] | None:
        """Build partition `p`'s checkpoint file; returns ``(partition_id,
        rows, wall_ms)``, or None if the file already exists."""
        pid = p.partition_id
        dest = os.path.join(self.run_dir, PARTIALS_DIR, _partial_name(pid))
        if os.path.exists(dest):  # resumed + raced: already done
            return None
        t0 = time.perf_counter()
        f = pq.ParquetFile(p.path)
        t = pa.concat_tables([
            f.read_row_group(rg, columns=self.read_columns)
            .slice(start, length) for rg, start, length in p.fragments])
        keys, payloads, counts = self._partials(t)
        wall_ms = (time.perf_counter() - t0) * 1e3
        lineage = json.dumps({"path": p.path,
                              "fragments": [list(fr) for fr in p.fragments]})
        n = len(keys)

        def const_str(v: str):
            # partition-constant strings as dictionary arrays: parquet
            # stores the dictionary once however many keys the partial has
            return pa.DictionaryArray.from_arrays(
                pa.array(np.zeros(n, dtype=np.int32)),
                pa.array([v], type=pa.string()))

        ck = pa.table({
            "partition_id": pa.array(np.full(n, pid), type=pa.int64()),
            "key": keys,
            "kind": pa.array([self.kind] * n),
            "params": pa.array([json.dumps(self.params)] * n),
            "seed": pa.array([self.seed] * n, type=pa.int64()),
            "payload": payloads,
            "rows_processed": counts,
            "input_fragments": const_str(lineage),
            "wall_ms": pa.array(np.full(n, wall_ms), type=pa.float64()),
            "engine_version": const_str(ENGINE_VERSION),
        })
        _atomic_write_table(ck, dest)
        return pid, t.num_rows, wall_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        built = []
        for row in batch.to_pylist():
            frags = tuple(tuple(fr) for fr in row["fragments"])
            out = self.build(Partition(int(row["partition_id"]), row["path"],
                                       frags, sum(fr[2] for fr in frags)))
            if out is not None:
                built.append(out)
        pids, rows, walls = zip(*built) if built else ((), (), ())
        return pa.table({
            "partition_id": pa.array(pids, type=pa.int64()),
            "rows": pa.array(rows, type=pa.int64()),
            "wall_ms": pa.array(walls, type=pa.float64()),
        })


class CheckpointedBuild:
    """A resumable distributed sketch-build job over parquet inputs.

    >>> job = CheckpointedBuild(run_dir, paths, kind="block",
    ...                         params={"bytes_": 4096}, column="url",
    ...                         key="lang")
    >>> job.run()              # builds missing partitions, returns merged
    >>> job.status()           # {"total": ..., "done": ..., "pending": [...]}

    ``run()`` after a crash (or a deliberate ``max_partitions`` cut) skips
    finished partitions — the kill-and-resume test asserts byte-identity with
    a clean single-shot build. The manifest pins the build's config and
    partition plan; a resume with either changed is rejected.

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
                 read_columns: list[str] | None = None):
        self.kind, self.params = kind, dict(params or {})
        self.column, self.key, self.seed = column, key, seed
        self.read_columns = read_columns
        self.run_dir = run_dir
        d = os.path.join(run_dir, PARTIALS_DIR)
        os.makedirs(d, exist_ok=True)
        for name in os.listdir(d):
            if ".tmp-" in name:  # abandoned atomic-write attempt
                os.unlink(os.path.join(d, name))
        self.partitions = plan_partitions(input_paths, target_rows)
        self._write_manifest()

    def _make_builder(self) -> _PartitionBuilder:
        return _PartitionBuilder(self.run_dir, self.kind, self.params,
                                 self.column, self.key, self.seed,
                                 self.read_columns)

    def _write_manifest(self) -> None:
        path = os.path.join(self.run_dir, MANIFEST)
        mine = {"kind": self.kind, "params": self.params,
                "column": self.column, "key": self.key, "seed": self.seed}
        if os.path.exists(path):
            # resume: the manifest is immutable for the run — verify this
            # job's config matches it, otherwise partials from run 1 would
            # silently merge into a differently-parameterized job
            with open(path) as f:
                old = json.load(f)
            # full two-sided comparison: every manifest key except the
            # bookkeeping fields is config, so a manifest with keys this
            # build does not know never adopts its partials
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
    def _done_files(self) -> dict[int, str]:
        """{partition_id: checkpoint file path} of the planned partitions
        whose file exists, in partition order. The one listing behind
        `done_ids`, `status`, `merge` and `metrics`: any other name in the
        partials dir (a backup copy, a ``.tmp-*`` orphan, an id outside the
        plan) is ignored, so it can neither count as done nor be merged."""
        d = os.path.join(self.run_dir, PARTIALS_DIR)
        present = set(os.listdir(d))
        return {p.partition_id: os.path.join(d, _partial_name(p.partition_id))
                for p in self.partitions
                if _partial_name(p.partition_id) in present}

    def done_ids(self) -> set[int]:
        return set(self._done_files())

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
        simulating a killed job.

        One Ray task per pending partition runs `_PartitionBuilder.build`
        on its `Partition`, against one builder put in the object store.
        At most twice the cluster's CPU count of tasks are in flight, so
        thousands of partitions never flood the scheduler while every CPU
        still has a next task queued. A task lost to a system failure
        (worker or node death) is retried without limit, as Ray Data does;
        the builder is a pure function of its partition, so a retry writes
        the same bytes. An exception raised by the builder is not retried:
        it propagates from here once every task already started has
        finished, so no task of this call outlives it."""
        import ray

        done = self.done_ids()
        pending = [p for p in self.partitions if p.partition_id not in done]
        if max_partitions is not None:
            pending = pending[:max_partitions]
        if not pending:
            return 0
        task = ray.remote(max_retries=-1)(_PartitionBuilder.build)
        builder = ray.put(self._make_builder())
        bound = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
        running = []
        try:
            for p in pending:
                if len(running) >= bound:
                    ready, running = ray.wait(running, num_returns=1)
                    ray.get(ready)  # raises the builder's exception
                running.append(task.remote(builder, p))
            ray.get(running)
        finally:
            if running:  # let every started task finish before returning
                ray.wait(running, num_returns=len(running), fetch_local=False)
        return len(pending)

    def merge(self):
        """Idempotent final merge, a pure function of the checkpoint dir:
        the partial files -> `sketch_build.merge_keyed` (one task reads and
        folds a small partial set, split and per-shard fold tasks a large
        one; payloads folded in canonical order either way). A torn or
        unreadable partial file raises. Returns {key: sketch} (key "" when
        ungrouped)."""
        from ..stages.sketch_build import PartialFiles, merge_keyed

        done = self._done_files()
        if len(done) < len(self.partitions):
            # merging a partial scan would silently return under-counted
            # sketches
            raise RuntimeError(
                f"build incomplete: {len(self.partitions) - len(done)} "
                "partition(s) pending — call run() to finish before merging")
        cls = registry.get(self.kind)
        if not self.partitions:
            # zero-row input planned zero partitions: an empty (never
            # updated) sketch, same as a sequential build over no rows
            if self.key is None:
                return {"": registry.make(self.kind, **self.params)}
            return {}
        files = PartialFiles(
            list(done.values()),
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
        import pandas as pd

        frames = [pq.read_table(f, columns=[
            "partition_id", "key", "rows_processed", "wall_ms",
            "input_fragments", "engine_version"]).to_pandas()
            for f in self._done_files().values()]
        if not frames:
            return pd.DataFrame()
        return pd.concat(frames, ignore_index=True)
