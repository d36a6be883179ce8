"""The web-page read (sources/webpages.read_webpages): one Ray read task
per run of consecutive row groups, fused with the maps after it."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from libfilter_ray.sources.webpages import synthesize_webpages

COLS = ["doc_id", "text", "lang", "source"]

#: ragged row-group sizes, 12 groups (at least 2 x the session's 4 CPUs)
RAGGED = [7, 1, 30, 2, 11, 5, 1, 19, 3, 8, 13, 4]


def _write_docs(tmp_path, sizes) -> str:
    """A documents.parquet with one row group per entry of `sizes`."""
    n = sum(sizes)
    ids = np.arange(n, dtype=np.int64)
    t = pa.table({
        "doc_id": ids,
        "text": pc.binary_join_element_wise(
            "body ", pc.cast(pa.array(ids), pa.string()), "\nend", ""),
        "lang": pa.array(np.array(["en", "de", "fr"])[ids % 3]),
        "source": pa.array(np.array(["src0", "src1"])[ids % 2]),
        "n_chars": pa.array(ids * 2),
    })
    with pq.ParquetWriter(tmp_path / "documents.parquet", t.schema) as w:
        for lo, hi in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
            w.write_table(t.slice(lo, hi - lo))
    assert pq.ParquetFile(tmp_path / "documents.parquet") \
        .metadata.num_row_groups == len(sizes)
    return str(tmp_path)


def _two_per_cpu() -> int:
    import ray

    return 2 * int(ray.cluster_resources()["CPU"])


def _read(sf_dir, **kwargs):
    from libfilter_ray.sources.webpages import read_webpages

    return read_webpages(sf_dir, **kwargs).materialize()


@pytest.fixture()
def ordered():
    """Blocks come out in read order (Ray's default does not promise it)."""
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    was, opts.preserve_order = opts.preserve_order, True
    yield
    opts.preserve_order = was


def _rows(ds) -> pa.Table:
    """The dataset's rows in block order. Ray's split of a read task can
    leave empty blocks without columns; they hold no rows."""
    import ray

    return pa.concat_tables(t for t in ray.get(ds.to_arrow_refs())
                            if t.num_rows)


def _operators(ds) -> list[str]:
    return [line.split(":")[0].split(" ", 2)[2]
            for line in ds.stats().splitlines()
            if line.startswith("Operator ")]


def test_row_groups_give_two_blocks_per_cpu(ray_session, tmp_path):
    assert _read(_write_docs(tmp_path, RAGGED)).num_blocks() == \
        _two_per_cpu()


@pytest.mark.parametrize("k", [1, 3, 5, 12])
def test_parallelism_sets_block_count(ray_session, tmp_path, k):
    assert _read(_write_docs(tmp_path, RAGGED), parallelism=k) \
        .num_blocks() == k


@pytest.mark.parametrize("sizes", [[40], [9, 2, 6]])
def test_fewer_row_groups_are_split(ray_session, tmp_path, sizes):
    """Fewer row groups than 2 x CPUs: Ray splits each read task's block
    into ceil(2 x CPUs / row groups), so one row group gives 2 x CPUs."""
    ds = _read(_write_docs(tmp_path, sizes))
    assert ds.num_blocks() == \
        -(-_two_per_cpu() // len(sizes)) * len(sizes)
    assert ds.count() == sum(sizes)
    assert any("SplitBlocks" in op for op in _operators(ds))


def test_zero_row_file(ray_session, tmp_path):
    ds = _read(_write_docs(tmp_path, [0]))
    assert ds.count() == 0
    assert ds.to_pandas().empty


@pytest.mark.parametrize("sizes", [RAGGED, [25], [3, 9, 1]])
@pytest.mark.parametrize("k", [None, 1, 4])
def test_rows_and_order_equal_the_file(ray_session, tmp_path, ordered,
                                       sizes, k):
    import ray
    import ray.data

    from libfilter_ray.sources.webpages import _row_group_source

    sf_dir = _write_docs(tmp_path, sizes)
    path = f"{sf_dir}/documents.parquet"
    want = pq.read_table(path, columns=COLS)
    raw = ray.data.read_datasource(_row_group_source(path, COLS),
                                   override_num_blocks=k).materialize()
    assert _rows(raw).equals(want)
    assert _rows(_read(sf_dir, parallelism=k)) \
        .equals(synthesize_webpages(want))


def test_multi_row_group_read_fuses_with_maps(ray_session, tmp_path):
    """No SplitBlocks and no read operator of its own: the read, the
    synthesis and the map after it run as one task per block."""
    from libfilter_ray.sources.webpages import read_webpages
    from libfilter_ray.stages.extract import verify_extract_stage

    ds = read_webpages(_write_docs(tmp_path, RAGGED)).map_batches(
        verify_extract_stage, batch_format="pyarrow").materialize()
    assert _operators(ds) == [
        "ReadRowGroup->MapBatches(synthesize_webpages)"
        "->MapBatches(verify_extract_stage)"]
    assert "SplitBlocks" not in ds.stats()
