"""Checkpoint/resume: per-partition lineage, kill-and-resume equivalence
(north rule: "resumable from checkpoint with per-partition lineage +
metrics")."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from libfilter_ray.state.checkpoint import (CheckpointedBuild, PARTIALS_DIR,
                                            plan_partitions)

SF = "/root/testdata/sf0.01"


@pytest.fixture()
def events_parquet():
    return [f"{SF}/events.parquet"]


def test_plan_partitions_deterministic(events_parquet):
    a = plan_partitions(events_parquet, target_rows=2048)
    b = plan_partitions(events_parquet, target_rows=2048)
    assert a == b
    assert sum(p.rows for p in a) == pq.read_metadata(events_parquet[0]).num_rows
    assert [p.partition_id for p in a] == list(range(len(a)))
    for bad in (0, -1):  # a budget below one row never advances the cursor
        with pytest.raises(ValueError, match="target_rows"):
            plan_partitions(events_parquet, target_rows=bad)


def test_build_merge_and_metrics(tmp_path, events_parquet, ray_session):
    job = CheckpointedBuild(str(tmp_path / "run"), events_parquet,
                            kind="hll", params={"p": 12}, column="user_id",
                            key="event_type", target_rows=2048)
    out = job.run()
    assert out is not None and len(out) >= 2
    # estimates within HLL bound vs exact distinct counts
    import duckdb
    exact = duckdb.sql(
        f"SELECT event_type, count(DISTINCT user_id) n FROM "
        f"read_parquet('{events_parquet[0]}') GROUP BY event_type").df()
    for _, r in exact.iterrows():
        est = out[r["event_type"]].estimate()
        assert abs(est - r["n"]) / r["n"] < 5 * 1.04 / np.sqrt(1 << 12)
    m = job.metrics()
    assert {"partition_id", "key", "rows_processed", "wall_ms",
            "input_fragments", "engine_version"} <= set(m.columns)
    frag = json.loads(m["input_fragments"].iloc[0])
    assert frag["path"].endswith("events.parquet")


def test_kill_and_resume_byte_identity(tmp_path, events_parquet, ray_session):
    """Interrupted build + resume == clean single-shot build, byte-for-byte
    (BlockBloom partial-OR merge is order invariant, SURVEY.md §2.9)."""
    kw = dict(kind="block", params={"bytes_": 4096}, column="user_id",
              target_rows=2048)
    clean = CheckpointedBuild(str(tmp_path / "clean"), events_parquet, **kw)
    ref = clean.run()[""]

    job = CheckpointedBuild(str(tmp_path / "resume"), events_parquet, **kw)
    assert len(job.partitions) >= 3
    assert job.run(max_partitions=2) is None  # "killed" mid-job
    st = job.status()
    assert st["done"] == 2 and st["pending"]

    # fresh object, same run dir — as a restarted driver would do
    job2 = CheckpointedBuild(str(tmp_path / "resume"), events_parquet, **kw)
    assert job2.status()["done"] == 2  # picked up the checkpoint
    out = job2.run()[""]
    assert out.to_bytes() == ref.to_bytes()
    # completed partitions were not rebuilt: file mtimes of the first two
    # checkpoint files predate the resume (cheap sanity: ids all present once)
    files = sorted(os.listdir(tmp_path / "resume" / PARTIALS_DIR))
    assert len(files) == len(job2.partitions)


def test_grouped_resume_matches_clean(tmp_path, events_parquet, ray_session):
    kw = dict(kind="cms", params={"width": 1024, "depth": 4},
              column="user_id", key="event_type", target_rows=2048)
    ref = CheckpointedBuild(str(tmp_path / "c"), events_parquet, **kw).run()
    job = CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw)
    job.run(max_partitions=1)
    out = CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw).run()
    assert set(out) == set(ref)
    for k in ref:
        assert out[k].to_bytes() == ref[k].to_bytes()


def test_resume_config_mismatch_rejected(tmp_path, events_parquet, ray_session):
    """Resuming with different params/plan must fail loudly — mixing
    incompatible partials would silently corrupt the merged sketch."""
    kw = dict(kind="hll", params={"p": 14}, column="user_id",
              target_rows=2048)
    CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw)
    with pytest.raises(ValueError, match="config mismatch"):
        CheckpointedBuild(str(tmp_path / "r"), events_parquet,
                          kind="hll", params={"p": 12}, column="user_id",
                          target_rows=2048)
    with pytest.raises(ValueError, match="partition-plan mismatch"):
        CheckpointedBuild(str(tmp_path / "r"), events_parquet, **{
            **kw, "target_rows": 4096})


def test_orphan_tmp_files_ignored(tmp_path, events_parquet, ray_session):
    """A crash inside the atomic write leaves part-*.parquet.tmp-* — resume
    must sweep it and merge() must never ingest it."""
    kw = dict(kind="block", params={"bytes_": 4096}, column="user_id",
              target_rows=2048)
    job = CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw)
    ref = job.run()[""]
    orphan = os.path.join(str(tmp_path / "r"), PARTIALS_DIR,
                          "part-00000.parquet.tmp-deadbeef")
    with open(orphan, "wb") as f:
        f.write(b"truncated garbage")
    job2 = CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw)
    assert not os.path.exists(orphan)  # swept at init
    assert job2.run()[""].to_bytes() == ref.to_bytes()


def test_torn_partial_file_raises_then_rebuilds(tmp_path, events_parquet,
                                               ray_session, monkeypatch):
    """A torn partial file (truncated after a full run) makes merge() raise
    instead of returning under-counted sketches, on the one-task path and
    on the sharded path (where a split task reads it); once the file is
    deleted, run() rebuilds only that partition and the result equals the
    clean build byte for byte."""
    from libfilter_ray.stages import sketch_build

    kw = dict(kind="block", params={"bytes_": 4096}, column="user_id",
              key="event_type", target_rows=2048)
    run_dir = str(tmp_path / "r")
    ref = CheckpointedBuild(run_dir, events_parquet, **kw).run()
    d = os.path.join(run_dir, PARTIALS_DIR)
    files = sorted(os.listdir(d))
    assert len(files) >= 3
    torn = os.path.join(d, files[1])
    with open(torn, "r+b") as f:
        f.truncate(os.path.getsize(torn) // 2)

    job = CheckpointedBuild(run_dir, events_parquet, **kw)
    with pytest.raises(pa.ArrowInvalid):
        job.merge()
    with monkeypatch.context() as m:
        m.setattr(sketch_build, "ONE_TASK_BYTES", 0)
        with pytest.raises(pa.ArrowInvalid):
            job.merge()

    os.unlink(torn)
    kept = {f: os.stat(os.path.join(d, f)).st_mtime_ns
            for f in files if f != files[1]}
    job = CheckpointedBuild(run_dir, events_parquet, **kw)
    assert job.status()["pending"] == [1]
    out = job.run()
    assert sorted(os.listdir(d)) == files
    assert {f: os.stat(os.path.join(d, f)).st_mtime_ns for f in kept} == kept
    assert set(out) == set(ref)
    for k in ref:
        assert out[k].to_bytes() == ref[k].to_bytes()


def test_merge_paths_agree(tmp_path, events_parquet, ray_session,
                           monkeypatch):
    """merge() gives the same bytes through the one-task fold and through
    the sharded exchange (forced by a zero one-task budget)."""
    from libfilter_ray.stages import sketch_build

    job = CheckpointedBuild(str(tmp_path / "r"), events_parquet,
                            kind="taffy_block", params={"ndv": 64},
                            column="user_id", key="event_type",
                            target_rows=2048)
    one_task = job.run()
    monkeypatch.setattr(sketch_build, "ONE_TASK_BYTES", 0)
    exchanged = job.merge()
    assert len(one_task) >= 2 and set(exchanged) == set(one_task)
    for k in one_task:
        assert exchanged[k].to_bytes() == one_task[k].to_bytes()


def test_checkpointed_build_incomplete_merge_guard(tmp_path, ray_session):
    """merge() on a partially-built checkpoint raises instead of silently
    returning under-counted sketches (review regression)."""
    paths = [f"{SF}/documents.parquet"]
    job = CheckpointedBuild(str(tmp_path / "r"), paths, kind="block",
                            params={"bytes_": 1024}, column="text",
                            target_rows=128)
    assert job.run(max_partitions=1) is None  # interrupted
    with pytest.raises(RuntimeError, match="build incomplete"):
        job.merge()


def test_empty_input_table(tmp_path, ray_session):
    """A zero-row input plans zero partitions and must still complete: build
    returns an empty (never-updated) sketch — not a crash on the empty
    partials dir."""
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "text": pa.array([], type=pa.string())}), path)
    b = CheckpointedBuild(str(tmp_path / "ck2"), [path], kind="block",
                          params={"bytes_": 1024}, column="text")
    sk = b.run()[""]
    assert sk.to_bytes() == bytes(1024)  # all-zero filter, correct size

    g = CheckpointedBuild(str(tmp_path / "ck3"), [path], kind="hll",
                          params={"p": 10}, column="text", key="doc_id")
    assert g.run() == {}  # no keys exist in an empty corpus


def test_ungrouped_checkpoint_equals_global_build(tmp_path, ray_session):
    """An ungrouped CheckpointedBuild and build_sketch map through one
    partial builder: over the same rows cut at the same boundaries (one
    partition per row group, one block per row group) they give the same
    bytes for block, hll and kll, the merge-order-sensitive KLL included."""
    import ray.data

    from libfilter_ray.stages.sketch_build import build_sketch

    gen = np.random.default_rng(4)
    n, per = 6000, 1000
    t = pa.table({"url": pa.array([f"u{v}" for v in
                                   gen.integers(0, 4000, n)]),
                  "len": pa.array(gen.normal(100, 30, n))})
    path = str(tmp_path / "in.parquet")
    pq.write_table(t, path, row_group_size=per)
    ds = ray.data.from_arrow([t.slice(i, per) for i in range(0, n, per)])
    for kind, params, column in (("block", {"bytes_": 4096}, "url"),
                                 ("hll", {"p": 10}, "url"),
                                 ("kll", {"k": 16}, "len")):
        job = CheckpointedBuild(str(tmp_path / kind), [path], kind=kind,
                                params=params, column=column,
                                target_rows=per)
        assert len(job.partitions) == n // per
        out = job.run()
        assert list(out) == [""], kind
        want = build_sketch(ds, column, kind, params)
        assert out[""].to_bytes() == want.to_bytes(), kind
    assert len(want.compactors) > 1  # the KLL partials really compacted


def test_checkpointed_build_int_keys(tmp_path, ray_session):
    """An int64 key column keeps its type through the partition partials
    (a string-typed key column used to raise ArrowTypeError); null-key rows
    are excluded and each key's sketch equals a local build of its rows."""
    from libfilter_ray.sketch.block_bloom import BlockBloom
    from libfilter_ray.sketch.hashing import hash_arrow_array

    n = 3000
    keys = [None if i % 11 == 0 else i % 7 for i in range(n)]
    vals = [f"v{i}" for i in range(n)]
    path = str(tmp_path / "in.parquet")
    pq.write_table(pa.table({"k": pa.array(keys, type=pa.int64()),
                             "v": pa.array(vals)}), path,
                   row_group_size=500)
    job = CheckpointedBuild(str(tmp_path / "run"), [path], kind="block",
                            params={"bytes_": 2048}, column="v", key="k",
                            target_rows=1000)
    out = job.run()
    assert sorted(out) == list(range(7))
    for k, sk in out.items():
        local = BlockBloom(2048)
        local.add_hashes(hash_arrow_array(pa.array(
            [v for kk, v in zip(keys, vals) if kk == k])))
        assert sk.to_bytes() == local.to_bytes()
    assert job.metrics()["rows_processed"].sum() == n - len(range(0, n, 11))


def test_all_null_keys_merge_empty(tmp_path, ray_session, monkeypatch):
    """Partitions whose keys are all null write zero-row partial files; the
    merge returns no keys through the one-task fold and through the
    sharded exchange alike."""
    from libfilter_ray.stages import sketch_build

    path = str(tmp_path / "in.parquet")
    pq.write_table(pa.table({"k": pa.array([None] * 600, type=pa.string()),
                             "v": pa.array([f"v{i}" for i in range(600)])}),
                   path, row_group_size=200)
    job = CheckpointedBuild(str(tmp_path / "run"), [path], kind="block",
                            params={"bytes_": 2048}, column="v", key="k",
                            target_rows=200)
    assert job.run() == {}
    assert len(os.listdir(tmp_path / "run" / PARTIALS_DIR)) == 3
    monkeypatch.setattr(sketch_build, "ONE_TASK_BYTES", 0)
    assert job.merge() == {}


def test_stray_partial_names_ignored(tmp_path, events_parquet, ray_session):
    """Only a planned partition's own ``part-<id>.parquet`` counts: a backup
    copy, an id outside the plan, a non-numeric or non-canonical name in
    the partials dir neither counts as done nor reaches merge() or
    metrics()."""
    import shutil

    kw = dict(kind="cms", params={"width": 1024, "depth": 4},
              column="user_id", key="event_type", target_rows=1250)
    job = CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw)
    ref = job.run()
    assert len(job.partitions) == 8
    d = tmp_path / "r" / PARTIALS_DIR
    for stray in ("backup-of-part-0.parquet", "part-old.parquet",
                  "part-0.parquet", "part-99999.parquet"):
        shutil.copy(d / "part-00000.parquet", d / stray)

    job = CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw)
    assert job.status() == {"total": 8, "done": 8, "pending": []}
    out = job.merge()
    assert set(out) == set(ref)
    for k in ref:
        assert out[k].to_bytes() == ref[k].to_bytes()
    m = job.metrics()
    assert m["rows_processed"].sum() == 10_000
    assert sorted(m["partition_id"].unique()) == list(range(8))


def test_killed_worker_is_retried(tmp_path, events_parquet, ray_session,
                                  monkeypatch):
    """A worker process that dies mid-partition (after leaving a temp file
    behind) is a system failure: Ray retries the partition's task, and the
    merge equals a single-shot build byte for byte."""
    from libfilter_ray.state import checkpoint

    kw = dict(kind="block", params={"bytes_": 4096}, column="user_id",
              key="event_type", target_rows=2048)
    ref = CheckpointedBuild(str(tmp_path / "clean"), events_parquet,
                            **kw).run()
    marker = str(tmp_path / "killed-once")
    build = checkpoint._PartitionBuilder.build

    def dies_on_first_attempt(self, p):
        if p.partition_id == 1 and not os.path.exists(marker):
            open(marker, "w").close()
            with open(os.path.join(self.run_dir, PARTIALS_DIR,
                                   "part-00001.parquet.tmp-killed"),
                      "wb") as f:
                f.write(b"half a file")
            os._exit(1)
        return build(self, p)

    monkeypatch.setattr(checkpoint._PartitionBuilder, "build",
                        dies_on_first_attempt)
    job = CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw)
    assert job.build_partials() == len(job.partitions)
    assert os.path.exists(marker)  # the first attempt did die
    out = job.merge()
    assert set(out) == set(ref)
    for k in ref:
        assert out[k].to_bytes() == ref[k].to_bytes()


def test_more_partitions_than_in_flight_bound(tmp_path, events_parquet,
                                              ray_session, monkeypatch):
    """~50 pending partitions, several times the in-flight bound, stop and
    resume to single-shot bytes, and no ray.wait ever watches more than the
    bound (twice the cluster's CPUs)."""
    import ray

    kw = dict(kind="hll", params={"p": 10}, column="user_id",
              key="event_type", target_rows=200)
    ref = CheckpointedBuild(str(tmp_path / "c"), events_parquet, **kw).run()
    watched = []
    wait = ray.wait

    def counting_wait(refs, **kwargs):
        watched.append(len(refs))
        return wait(refs, **kwargs)

    monkeypatch.setattr(ray, "wait", counting_wait)
    job = CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw)
    assert len(job.partitions) == 50
    assert job.run(max_partitions=23) is None
    out = CheckpointedBuild(str(tmp_path / "r"), events_parquet, **kw).run()
    assert set(out) == set(ref)
    for k in ref:
        assert out[k].to_bytes() == ref[k].to_bytes()
    bound = 2 * int(ray.cluster_resources()["CPU"])
    assert watched and max(watched) <= bound < 27


def test_builder_exception_propagates(tmp_path, ray_session):
    """An input file truncated after planning makes its partitions' builder
    raise: build_partials raises it, the other file's partitions finish,
    and no checkpoint file exists for a failed partition. After the input
    is restored, run() completes and equals a single-shot build."""
    paths = []
    for i in range(2):
        path = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(pa.table({
            "k": [f"k{j % 5}" for j in range(600)],
            "v": [f"f{i}-v{j}" for j in range(600)]}), path,
            row_group_size=200)
        paths.append(path)
    kw = dict(kind="block", params={"bytes_": 2048}, column="v", key="k",
              target_rows=200)
    ref = CheckpointedBuild(str(tmp_path / "c"), paths, **kw).run()

    job = CheckpointedBuild(str(tmp_path / "r"), paths, **kw)
    broken = [p.partition_id for p in job.partitions if p.path == paths[1]]
    assert broken == [3, 4, 5]
    intact = open(paths[1], "rb").read()
    with open(paths[1], "r+b") as f:
        f.truncate(len(intact) // 2)
    with pytest.raises(pa.ArrowInvalid):
        job.build_partials()
    assert job.done_ids() == {0, 1, 2}
    assert not [f for f in os.listdir(tmp_path / "r" / PARTIALS_DIR)
                if f.startswith(("part-00003", "part-00004", "part-00005"))]

    with open(paths[1], "wb") as f:
        f.write(intact)
    out = CheckpointedBuild(str(tmp_path / "r"), paths, **kw).run()
    assert set(out) == set(ref)
    for k in ref:
        assert out[k].to_bytes() == ref[k].to_bytes()
