"""The benchmark's hooks into the engine: the single-process replay that
`perfbench/run.py --trace 1` runs calls engine internals
(`_MultiGroupedPartialBuilder`, `_add_merge_shard`,
`CheckpointedBuild._make_builder`). A refactor that breaks them fails here,
in seconds, instead of in a benchmark run."""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def perfbench(monkeypatch):
    # run.py imports its modules by bare name from its own directory
    monkeypatch.syspath_prepend(PERFBENCH)
    import inputs
    import spans
    import workloads

    return inputs, spans, workloads


def _block(lo: int, hi: int) -> pa.Table:
    langs = ["en", "zh", "es"]
    return pa.table({
        "url": [f"https://x{i % 5}.example/{i}" for i in range(lo, hi)],
        "lang": [langs[i % 3] for i in range(lo, hi)],
        "text_len": [float(i % 97) for i in range(lo, hi)]})


def test_grouped_replay_hooks(perfbench, tmp_path, ray_session):
    import ray.data

    _inputs, spans, workloads = perfbench
    specs = workloads.LangSketchBuild(str(tmp_path), 1, 0.05).specs()
    ds = ray.data.from_arrow([_block(0, 300), _block(300, 500)])
    tracer = spans.Tracer()
    with tracer.wrap_library():
        partials = workloads.replay_partials(tracer, ds, "lang", specs)
        extras = workloads.replay_grouped(tracer, partials, "lang", specs)
    assert len(partials) == 2
    assert extras["sketch_build.partial_rows"] == 6  # 3 langs x 2 blocks
    assert {"sketch_build.map", "sketch_build.merge", "hashing",
            "sketch.insert"} <= set(tracer.layers())


def test_checkpoint_replay_hook(perfbench, tmp_path):
    inputs, spans, workloads = perfbench
    w = workloads.DomainCheckpointResume(str(tmp_path / "in"), 1, 0.02)
    inputs.generate(w.generator, w.work, w.seed, w.sizes)
    tracer = spans.Tracer()
    with tracer.wrap_library():
        w.replay(tracer)  # _make_builder() on each partition, then merge
    layers = tracer.layers()
    assert layers["checkpoint.build"]["spans"] == w.PARTITIONS
    assert layers["checkpoint.build"]["rows"] == w.sizes["n_rows"]
    assert layers["hashing"]["keys"] == w.sizes["n_rows"]
