"""Partitioned parquet sink: hive layout, _SUCCESS protocol, resume."""

from __future__ import annotations

import os

import ray

from libfilter_ray.stages.sink import (is_complete, read_partitioned,
                                       write_partitioned)

SF = "/root/testdata/sf0.001"


def test_write_read_resume(tmp_path, ray_session):
    out = str(tmp_path / "docs_by_lang")
    ds = ray.data.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])
    assert write_partitioned(ds, out, partition_cols=["lang"]) is True
    assert is_complete(out)
    dirs = {d for d in os.listdir(out) if d.startswith("lang=")}
    assert len(dirs) == 5
    back = read_partitioned(out).to_pandas()
    assert len(back) == 500
    assert set(back["lang"].unique()) == {d.split("=")[1] for d in dirs}
    # resume: completed output is reused, not rewritten
    assert write_partitioned(ds, out, partition_cols=["lang"]) is False


def test_crashed_attempt_is_rewritten(tmp_path, ray_session):
    out = str(tmp_path / "o")
    ds = ray.data.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "lang"])
    os.makedirs(out)  # simulate crashed attempt: dir exists, no _SUCCESS
    with open(os.path.join(out, "garbage.parquet"), "w") as f:
        f.write("partial")
    assert write_partitioned(ds, out, partition_cols=["lang"]) is True
    assert not os.path.exists(os.path.join(out, "garbage.parquet"))
    assert read_partitioned(out).count() == 500
