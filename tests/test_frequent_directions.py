"""sketch/frequent_directions.py — mergeable FD matrix sketch."""

from __future__ import annotations

import numpy as np
import pytest

from libfilter_ray.sketch.frequent_directions import FrequentDirections


def _cov_err(A: np.ndarray, sk: FrequentDirections) -> float:
    B = sk.sketch_matrix()
    D = A.T @ A - B.T @ B
    return float(np.linalg.norm(D, 2))


def _lowrank(rng, n, d, r):
    A = (rng.standard_normal((n, r)) * np.linspace(10, 1, r)) \
        @ rng.standard_normal((r, d))
    return A + 0.1 * rng.standard_normal((n, d))


def test_fd_covariance_bound_random(rng):
    n, d, ell = 3000, 32, 12
    A = _lowrank(rng, n, d, 6)
    sk = FrequentDirections(dim=d, ell=ell).update(A).finalize()
    assert sk.count == n
    assert sk.fnorm2 == pytest.approx(float((A * A).sum()))
    assert _cov_err(A, sk) <= sk.cov_error_bound() * (1 + 1e-9)
    # the sketch is far smaller than the data it summarizes
    assert sk.sketch_matrix().shape[0] <= ell


def test_fd_merge_bound_any_partitioning(rng):
    """Partial sketches over arbitrary splits merge to a sketch that
    still satisfies the published bound (the mergeability theorem)."""
    n, d, ell = 4000, 24, 10
    A = _lowrank(rng, n, d, 5)
    cuts = np.sort(rng.choice(np.arange(1, n), 7, replace=False))
    parts = np.split(A, cuts)
    sks = [FrequentDirections(dim=d, ell=ell).update(p) for p in parts]
    merged = sks[0]
    for s in sks[1:]:
        merged = merged.merge(s)
    merged = merged.finalize()
    assert merged.count == n
    assert merged.fnorm2 == pytest.approx(float((A * A).sum()))
    assert _cov_err(A, merged) <= merged.cov_error_bound() * (1 + 1e-9)


def test_fd_serde_roundtrip(rng):
    A = rng.standard_normal((500, 16))
    sk = FrequentDirections(dim=16, ell=8).update(A)
    back = FrequentDirections.from_bytes(sk.to_bytes())
    assert back.count == sk.count and back.fnorm2 == sk.fnorm2
    np.testing.assert_array_equal(back.sketch_matrix(),
                                  sk.sketch_matrix())
    # deterministic for identical insertion order
    sk2 = FrequentDirections(dim=16, ell=8).update(A)
    assert sk2.to_bytes() == sk.to_bytes()


def test_fd_rejects_bad_shapes(rng):
    sk = FrequentDirections(dim=8, ell=4)
    with pytest.raises(ValueError, match="expected"):
        sk.update(rng.standard_normal((10, 9)))
    with pytest.raises(ValueError, match="incompatible"):
        sk.merge(FrequentDirections(dim=9, ell=4))


def test_fd_build_sketch_over_dataset(ray_session, rng):
    """Registry + vectors input path: build_sketch over a list<float>
    column returns a bound-satisfying sketch with exact count/fnorm2."""
    import pyarrow as pa
    import ray.data

    from libfilter_ray.stages.sketch_build import build_sketch

    n, d = 2000, 16
    A = _lowrank(rng, n, d, 4)
    rows = [None if i % 97 == 0 else A[i].tolist() for i in range(n)]
    kept = np.array([i % 97 != 0 for i in range(n)])
    ds = ray.data.from_arrow(pa.table({
        "emb": pa.array(rows, type=pa.list_(pa.float64()))})) \
        .repartition(8)
    sk = build_sketch(ds, "emb", "fd", {"dim": d, "ell": 8})
    Ak = A[kept]
    assert sk.count == int(kept.sum())
    assert sk.fnorm2 == pytest.approx(float((Ak * Ak).sum()))
    assert _cov_err(Ak, sk) <= sk.cov_error_bound() * (1 + 1e-9)


def test_fd_through_job_build_cli(tmp_path, ray_session):
    """The registry integration closes the loop: `job build` with a
    kind-fd spec over the embeddings table writes a payload parquet
    whose deserialized sketch satisfies the covariance bound."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from conftest import SF_DIR_01
    from libfilter_ray.job import main

    emb = pq.read_table(f"{SF_DIR_01}/embeddings.parquet",
                        columns=["embedding"])
    dim = len(emb["embedding"][0])
    spec = {"table": "embeddings",
            "sketches": [{"name": "cov", "kind": "fd",
                          "params": {"dim": dim, "ell": 8},
                          "column": "embedding"}]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(spec))
    out = tmp_path / "fd.parquet"
    assert main(["build", "--config", str(cfg), "--input", SF_DIR_01,
                 "--output", str(out)]) == 0
    payload = pq.read_table(out).to_pandas()["payload"].iloc[0]
    sk = FrequentDirections.from_bytes(payload)
    A = np.asarray(emb["embedding"].combine_chunks().flatten(),
                   dtype=np.float64).reshape(-1, dim)
    assert sk.count == len(A)
    assert sk.fnorm2 == pytest.approx(float((A * A).sum()))
    assert _cov_err(A, sk) <= sk.cov_error_bound() * (1 + 1e-9)


def test_fd_grouped_build_per_label(ray_session, rng):
    """Vectors input through the keyed GROUPED merge:
    per-label FD sketches each satisfy the covariance bound against
    that label's exact rows."""
    import pyarrow as pa
    import ray.data

    from libfilter_ray.stages.sketch_build import build_grouped_multi

    n, d = 1500, 12
    labels = rng.integers(0, 3, n)
    A = _lowrank(rng, n, d, 4)
    ds = ray.data.from_arrow(pa.table({
        "label": pa.array([f"l{v}" for v in labels]),
        "emb": pa.array(A.tolist(), type=pa.list_(pa.float64()))})) \
        .repartition(6)
    out = build_grouped_multi(ds, "label",
                              [("fd", "fd", {"dim": d, "ell": 6}, "emb")])
    _check_fd_per_label(out, "payload_fd", A, labels)


def _check_fd_per_label(out, payload: str, A, labels) -> None:
    assert sorted(out["label"]) == ["l0", "l1", "l2"]
    for _, row in out.iterrows():
        sk = FrequentDirections.from_bytes(row[payload]).finalize()
        lab = int(row["label"][1])
        Ak = A[labels == lab]
        assert sk.count == len(Ak) == row["rows"]
        assert sk.fnorm2 == pytest.approx(float((Ak * Ak).sum()))
        assert _cov_err(Ak, sk) <= sk.cov_error_bound() * (1 + 1e-9)


def test_fd_first_spec_in_grouped_multi(ray_session, rng):
    """A vector spec FIRST in build_grouped_multi: the per-block salt
    fingerprint cannot hash list<float>, so it falls back to the block's
    first key (it used to raise TypeError); a hash spec rides along."""
    import pyarrow as pa
    import ray.data

    from libfilter_ray.sketch.hll import HyperLogLog
    from libfilter_ray.stages.sketch_build import build_grouped_multi

    n, d = 900, 8
    labels = rng.integers(0, 3, n)
    A = _lowrank(rng, n, d, 3)
    ds = ray.data.from_arrow(pa.table({
        "label": pa.array([f"l{v}" for v in labels]),
        "id": pa.array(np.arange(n)),
        "emb": pa.array(A.tolist(), type=pa.list_(pa.float64()))})) \
        .repartition(4)
    out = build_grouped_multi(ds, "label", [
        ("fd", "fd", {"dim": d, "ell": 5}, "emb"),
        ("ids", "hll", {"p": 10}, "id")])
    _check_fd_per_label(out, "payload_fd", A, labels)
    for _, row in out.iterrows():
        est = HyperLogLog.from_bytes(row["payload_ids"]).estimate()
        assert abs(est - row["rows"]) <= 0.15 * row["rows"]
