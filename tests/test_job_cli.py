"""`python -m libfilter_ray.job` — the ray-job-submit entry surface.

main() is driven in-process (the session fixture owns Ray; _ensure_ray
attaches instead of initialising, exactly the `ray job submit` case where
the cluster session already exists)."""

from __future__ import annotations

import json

import pyarrow.parquet as pq
import pytest

from conftest import SF_DIR_01
from libfilter_ray.job import main


def test_query_subcommand_writes_parquet(tmp_path, ray_session):
    out = tmp_path / "q.parquet"
    assert main(["query", "--name", "pricing_summary",
                 "--input", SF_DIR_01, "--output", str(out)]) == 0
    t = pq.read_table(out)
    from libfilter_ray.pipelines.queries import QUERIES

    direct = QUERIES["pricing_summary"](SF_DIR_01)
    assert t.num_rows == len(direct)
    assert set(direct.columns) <= set(t.column_names)


def test_query_unknown_name_exits(ray_session):
    with pytest.raises(SystemExit):
        main(["query", "--name", "nope", "--input", SF_DIR_01])


def test_list_enumerates_registry(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    from libfilter_ray.pipelines.queries import ORACLES, QUERIES

    assert len(lines) == len(QUERIES)
    assert sum("sql-oracled" in ln for ln in lines) == len(ORACLES)


def test_build_subcommand_matches_run_config(tmp_path, ray_session):
    spec = {"table": "events", "columns": ["event_type", "user_id"],
            "key": "event_type",
            "sketches": [{"name": "users", "kind": "hll",
                          "params": {"p": 12}, "column": "user_id"}]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(spec))
    out = tmp_path / "build.parquet"
    assert main(["build", "--config", str(cfg), "--input", SF_DIR_01,
                 "--output", str(out)]) == 0
    got = pq.read_table(out).to_pandas()
    from libfilter_ray.pipelines.config import run_config

    ref = run_config(spec, SF_DIR_01)
    # grouped single-sketch output is normalized to (key, kind, payload) —
    # the same probe-able layout the checkpointed path writes
    assert sorted(got["key"]) == sorted(ref["event_type"])
    a = got.set_index("key")["payload"]
    b = ref.set_index("event_type")["payload_users"]
    assert all(a[k] == b[k] for k in a.index)


def test_build_checkpointed_resumes_and_matches(tmp_path, ray_session):
    """Same submit command twice against one checkpoint dir: run 2 finds all
    partitions done (resume semantics) and the merged payload matches an
    uncheckpointed build byte-for-byte."""
    spec = {"table": "events",
            "sketches": [{"name": "f", "kind": "block",
                          "params": {"bytes_": 4096}, "column": "user_id"}]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(spec))
    args = ["build", "--config", str(cfg), "--input", SF_DIR_01,
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--target-rows", "4096"]
    out1, out2 = tmp_path / "o1.parquet", tmp_path / "o2.parquet"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0  # resubmit: pure resume
    p1 = pq.read_table(out1).to_pandas()["payload"].iloc[0]
    assert p1 == pq.read_table(out2).to_pandas()["payload"].iloc[0]
    from libfilter_ray.pipelines.config import run_config

    assert p1 == run_config(spec, SF_DIR_01)["payload"].iloc[0]


def test_probe_roundtrip_ungrouped(tmp_path, ray_session):
    """build -> persist -> probe across separate main() invocations: every
    inserted member is found (no false negatives through the file hand-off)."""
    spec = {"table": "events", "sketches": [
        {"name": "users", "kind": "block", "params": {"bytes_": 1 << 16},
         "column": "user_id"}]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(spec))
    filt = tmp_path / "filters.parquet"
    assert main(["build", "--config", str(cfg), "--input", SF_DIR_01,
                 "--output", str(filt)]) == 0
    out = tmp_path / "probed"
    assert main(["probe", "--filters", str(filt), "--input", SF_DIR_01,
                 "--table", "events", "--column", "user_id",
                 "--output", str(out)]) == 0
    t = pq.read_table(str(out), columns=["found"])
    assert t.num_rows > 0
    assert t.column("found").to_pandas().all()  # members: zero false negs

    hits = tmp_path / "hits"
    assert main(["probe", "--filters", str(filt), "--input", SF_DIR_01,
                 "--table", "events", "--column", "user_id", "--only-hits",
                 "--output", str(hits)]) == 0
    assert pq.read_table(str(hits)).num_rows == t.num_rows


def test_probe_grouped_counts(tmp_path, ray_session):
    """Grouped build file + --key: per-key (n_probed, n_found) counts;
    probing the build corpus finds every member of its own key."""
    spec = {"table": "events", "key": "event_type", "sketches": [
        {"name": "users", "kind": "block", "params": {"bytes_": 1 << 16},
         "column": "user_id"}]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(spec))
    filt = tmp_path / "filters.parquet"
    assert main(["build", "--config", str(cfg), "--input", SF_DIR_01,
                 "--checkpoint-dir", str(tmp_path / "ck"),
                 "--output", str(filt)]) == 0
    out = tmp_path / "counts.parquet"
    assert main(["probe", "--filters", str(filt), "--input", SF_DIR_01,
                 "--table", "events", "--column", "user_id",
                 "--key", "event_type", "--output", str(out)]) == 0
    c = pq.read_table(str(out)).to_pandas()
    assert len(c) == 5
    assert (c["n_found"] == c["n_probed"]).all()

    with pytest.raises(SystemExit, match="--key is required"):
        main(["probe", "--filters", str(filt), "--input", SF_DIR_01,
              "--table", "events", "--column", "user_id"])


def test_sharded_table_dir_inputs(tmp_path, ray_session):
    """`{input}/{table}/` shard directories work for the checkpointed build:
    same merged payload as the single-file layout, partitions span
    shards deterministically."""
    import pyarrow as pa

    full = pq.read_table(f"{SF_DIR_01}/events.parquet",
                         columns=["event_type", "user_id"])
    inp = tmp_path / "in" / "events"
    inp.mkdir(parents=True)
    third = full.num_rows // 3
    for i in range(3):
        n = third if i < 2 else full.num_rows - 2 * third
        pq.write_table(full.slice(i * third, n),
                       str(inp / f"shard-{i}.parquet"))
    spec = {"table": "events", "sketches": [
        {"name": "f", "kind": "block", "params": {"bytes_": 4096},
         "column": "user_id"}]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(spec))
    out = tmp_path / "o.parquet"
    assert main(["build", "--config", str(cfg),
                 "--input", str(tmp_path / "in"),
                 "--checkpoint-dir", str(tmp_path / "ck"),
                 "--output", str(out)]) == 0
    from libfilter_ray.pipelines.config import run_config

    ref = run_config(spec, SF_DIR_01)  # single-file layout
    assert pq.read_table(out).to_pandas()["payload"].iloc[0] \
        == ref["payload"].iloc[0]
    # uncheckpointed build reads the shard dir through run_config too
    out2 = tmp_path / "o2.parquet"
    assert main(["build", "--config", str(cfg),
                 "--input", str(tmp_path / "in"),
                 "--output", str(out2)]) == 0
    assert pq.read_table(out2).to_pandas()["payload"].iloc[0] \
        == ref["payload"].iloc[0]

    nope = tmp_path / "nope.json"
    nope.write_text(json.dumps({**spec, "table": "nope"}))
    with pytest.raises(SystemExit, match="not found under"):
        main(["build", "--config", str(nope), "--input", str(tmp_path / "in"),
              "--checkpoint-dir", str(tmp_path / "ck2")])


def test_clean_subcommand_composes_all_stages(tmp_path, ray_session):
    """`job clean` = scrub -> line dedup -> doc dedup, verified against the
    same stages composed directly on the library surface."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    texts = [
        "intro line\nFOOTER\nmail bob@x.example.com",   # PII + boilerplate
        "other intro\nFOOTER\nmail bob@x.example.com",  # same mail line
        "intro line\nFOOTER\nmail bob@x.example.com",   # full dup of doc 1
        "standalone doc",
    ]
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
                  "text": pa.array(texts)}),
        str(inp / "documents.parquet"))
    out = tmp_path / "cleaned"
    assert main(["clean", "--input", str(inp), "--table", "documents",
                 "--column", "text", "--id-column", "doc_id",
                 "--output", str(out)]) == 0
    got = pq.read_table(str(out)).to_pandas() \
        .set_index("doc_id")["text"].to_dict()

    from libfilter_ray.functions.textstats import scrub_text
    from libfilter_ray.stages.dedup import exact_dedup, line_dedup

    ds = ray.data.read_parquet(str(inp / "documents.parquet"))
    ds = ds.map_batches(
        lambda t: t.set_column(t.schema.get_field_index("text"), "text",
                               scrub_text(t["text"])),
        batch_format="pyarrow")
    ds = line_dedup(ds, "text", "doc_id")
    ref = exact_dedup(ds, "text", "doc_id").to_pandas() \
        .set_index("doc_id")["text"].to_dict()
    assert got == ref
    # semantic spot checks: PII masked, boilerplate collapsed, dup dropped
    assert got[1] == "intro line\nFOOTER\nmail [EMAIL]"
    assert got[2] == "other intro"      # FOOTER + mail line deduped away
    assert 3 in got or got.keys() == ref.keys()
    # docs 2 and 3 both collapse to distinct texts; doc 3 ("") may remain
    assert got[4] == "standalone doc"
    # a non-empty output dir (a killed write attempt) is refused
    with pytest.raises(SystemExit, match="not empty"):
        main(["clean", "--input", str(inp), "--table", "documents",
              "--column", "text", "--id-column", "doc_id",
              "--output", str(out)])


def test_pack_subcommand_assignments(tmp_path, ray_session):
    """`job pack --key lang` emits per-lang next-fit sequence ids matching
    the kernel run directly on the sorted token stream."""
    import numpy as np

    out = tmp_path / "packed"
    assert main(["pack", "--input", SF_DIR_01, "--table", "documents",
                 "--column", "text", "--id-column", "doc_id",
                 "--key", "lang", "--budget", "256",
                 "--output", str(out)]) == 0
    got = pq.read_table(str(out)).to_pandas()
    assert {"doc_id", "lang", "n_tokens", "seq_id"} <= set(got.columns)

    from libfilter_ray.functions.packing import next_fit_pack

    for lang, g in got.groupby("lang"):
        g = g.sort_values("doc_id").reset_index(drop=True)
        np.testing.assert_array_equal(
            g["seq_id"].to_numpy(),
            next_fit_pack(g["n_tokens"].to_numpy(), 256))
        # every sequence within budget unless it is a single oversize doc
        fills = g.groupby("seq_id")["n_tokens"].agg(["sum", "count"])
        bad = fills[(fills["sum"] > 256) & (fills["count"] > 1)]
        assert bad.empty


def test_review_fix_regressions(tmp_path, ray_session):
    """Code-review regressions: (a) exact spec + --checkpoint-dir is
    rejected, not silently merge-built; (b) probing a corpus with keys the
    filter file lacks reports n_found=0 instead of a worker KeyError;
    (c) probe on run_config's grouped payload_<name> frame exits cleanly."""
    import pyarrow as pa

    # (a)
    spec = {"table": "events", "sketches": [
        {"name": "f", "kind": "taffy_block", "params": {"ndv": 256},
         "column": "user_id", "exact": True}]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(spec))
    with pytest.raises(SystemExit, match="exact"):
        main(["build", "--config", str(cfg), "--input", SF_DIR_01,
              "--checkpoint-dir", str(tmp_path / "ck")])

    # (b): filter built on a single-key slice, probed against all keys
    inp = tmp_path / "narrow"
    inp.mkdir()
    full = pq.read_table(f"{SF_DIR_01}/events.parquet",
                         columns=["event_type", "user_id"])
    one = full.filter(pa.compute.equal(full["event_type"], "click"))
    pq.write_table(one, str(inp / "events.parquet"))
    spec2 = {"table": "events", "key": "event_type", "sketches": [
        {"name": "u", "kind": "block", "params": {"bytes_": 1 << 14},
         "column": "user_id"}]}
    cfg2 = tmp_path / "job2.json"
    cfg2.write_text(json.dumps(spec2))
    filt = tmp_path / "filters.parquet"
    assert main(["build", "--config", str(cfg2), "--input", str(inp),
                 "--checkpoint-dir", str(tmp_path / "ck2"),
                 "--output", str(filt)]) == 0
    out = tmp_path / "counts.parquet"
    assert main(["probe", "--filters", str(filt), "--input", SF_DIR_01,
                 "--table", "events", "--column", "user_id",
                 "--key", "event_type", "--output", str(out)]) == 0
    c = pq.read_table(str(out)).to_pandas().set_index("event_type")
    assert len(c) == 5                       # all probe-corpus keys present
    assert c.loc["click", "n_found"] == c.loc["click", "n_probed"]
    absent = c.drop(index="click")
    assert (absent["n_found"] == 0).all()    # unseen keys: nothing found

    # (c) grouped single-sketch uncheckpointed output is normalized and
    # probe-able; MULTI-sketch grouped output stays the payload_<name>
    # frame and probe rejects it cleanly
    normalized = tmp_path / "normalized.parquet"
    assert main(["build", "--config", str(cfg2), "--input", str(inp),
                 "--output", str(normalized)]) == 0
    out_c = tmp_path / "counts_c.parquet"
    assert main(["probe", "--filters", str(normalized),
                 "--input", str(inp), "--table", "events",
                 "--column", "user_id", "--key", "event_type",
                 "--output", str(out_c)]) == 0
    cc = pq.read_table(str(out_c)).to_pandas()
    assert (cc["n_found"] == cc["n_probed"]).all()
    spec3 = {"table": "events", "key": "event_type", "sketches": [
        {"name": "a", "kind": "block", "params": {"bytes_": 1 << 12},
         "column": "user_id"},
        {"name": "b", "kind": "hll", "params": {"p": 10},
         "column": "user_id"}]}
    cfg3 = tmp_path / "job3.json"
    cfg3.write_text(json.dumps(spec3))
    multi_frame = tmp_path / "multi.parquet"
    assert main(["build", "--config", str(cfg3), "--input", str(inp),
                 "--output", str(multi_frame)]) == 0
    with pytest.raises(SystemExit, match="not a probe-able"):
        main(["probe", "--filters", str(multi_frame),
              "--input", SF_DIR_01, "--table", "events",
              "--column", "user_id", "--key", "event_type"])


def test_profile_subcommand_within_sketch_bounds(tmp_path, ray_session):
    """`job profile` estimates stay inside their published error bounds vs
    exact DuckDB stats — keyed numeric column and ungrouped string column."""
    import duckdb

    out = tmp_path / "prof.parquet"
    assert main(["profile", "--input", SF_DIR_01, "--table", "events",
                 "--column", "value", "--key", "event_type",
                 "--output", str(out)]) == 0
    prof = pq.read_table(str(out)).to_pandas().set_index("event_type")
    con = duckdb.connect()
    exact = con.sql(
        "SELECT event_type, COUNT(*) n, COUNT(DISTINCT value) ndv,"
        " median(value) p50 FROM"
        f" read_parquet('{SF_DIR_01}/events.parquet')"
        " GROUP BY event_type").df().set_index("event_type")
    for k in exact.index:
        assert prof.loc[k, "rows"] == exact.loc[k, "n"]
        # HLL p=14: ~0.8% std error; allow 5 sigma
        assert abs(prof.loc[k, "ndv_est"] - exact.loc[k, "ndv"]) \
            <= 0.05 * exact.loc[k, "ndv"]
        # KLL k=200 rank error ~1.3%: p50 value within the p45-p55 band
        lo, hi = con.sql(
            "SELECT quantile_cont(value, 0.44), quantile_cont(value, 0.56)"
            f" FROM read_parquet('{SF_DIR_01}/events.parquet')"
            f" WHERE event_type = '{k}'").fetchone()
        assert lo <= prof.loc[k, "p50"] <= hi

    out2 = tmp_path / "prof2.parquet"
    assert main(["profile", "--input", SF_DIR_01, "--table", "documents",
                 "--column", "text", "--output", str(out2)]) == 0
    p2 = pq.read_table(str(out2)).to_pandas()
    ndv_exact = con.sql(
        "SELECT COUNT(DISTINCT text) FROM"
        f" read_parquet('{SF_DIR_01}/documents.parquet')").fetchone()[0]
    assert abs(p2["ndv_est"].iloc[0] - ndv_exact) <= 0.05 * ndv_exact
    assert "p50" not in p2.columns  # string column: no quantiles


def test_profile_exact_quantiles_match_duckdb(tmp_path, ray_session):
    """`profile --exact-quantiles` returns EXACT order statistics (the
    value at rank floor(q*(n-1))), bit-equal to DuckDB rank selection —
    not KLL estimates; and rejects non-numeric columns up front."""
    import duckdb
    import pytest

    out = tmp_path / "prof.parquet"
    assert main(["profile", "--input", SF_DIR_01, "--table", "events",
                 "--column", "value", "--key", "event_type",
                 "--exact-quantiles", "--output", str(out)]) == 0
    prof = pq.read_table(str(out)).to_pandas().set_index("event_type")
    con = duckdb.connect()
    exact = con.sql(
        "WITH r AS (SELECT event_type, value,"
        " row_number() OVER (PARTITION BY event_type ORDER BY value) - 1 rk,"
        " count(*) OVER (PARTITION BY event_type) n"
        f" FROM read_parquet('{SF_DIR_01}/events.parquet')"
        " WHERE value IS NOT NULL)"
        " SELECT event_type,"
        " max(CASE WHEN rk = CAST(floor(0.05*(n-1)) AS BIGINT)"
        "     THEN value END) p05,"
        " max(CASE WHEN rk = CAST(floor(0.50*(n-1)) AS BIGINT)"
        "     THEN value END) p50,"
        " max(CASE WHEN rk = CAST(floor(0.99*(n-1)) AS BIGINT)"
        "     THEN value END) p99"
        " FROM r GROUP BY event_type").df().set_index("event_type")
    for k in exact.index:
        for c in ("p05", "p50", "p99"):
            assert prof.loc[k, c] == exact.loc[k, c], (k, c)

    with pytest.raises(SystemExit, match="requires a numeric column"):
        main(["profile", "--input", SF_DIR_01, "--table", "documents",
              "--column", "text", "--exact-quantiles"])


def test_profile_edge_cases(tmp_path, ray_session):
    """Profile review regressions: unsupported column types exit cleanly;
    zero-row tables produce an empty profile, not a KeyError; ungrouped
    output carries no internal sentinel column."""
    import pyarrow as pa

    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(
        pa.table({"ts": pa.array([1, 2], type=pa.timestamp("us")),
                  "v": pa.array([1.0, 2.0])}),
        str(inp / "t.parquet"))
    with pytest.raises(SystemExit, match="cannot profile column"):
        main(["profile", "--input", str(inp), "--table", "t",
              "--column", "ts"])

    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(pa.table({"v": pa.array([], type=pa.float64())}),
                   str(empty / "t.parquet"))
    out = tmp_path / "p.parquet"
    assert main(["profile", "--input", str(empty), "--table", "t",
                 "--column", "v", "--output", str(out)]) == 0
    assert pq.read_table(str(out)).num_rows == 0

    out2 = tmp_path / "p2.parquet"
    assert main(["profile", "--input", str(inp), "--table", "t",
                 "--column", "v", "--output", str(out2)]) == 0
    p2 = pq.read_table(str(out2)).to_pandas()
    assert "__all__" not in p2.columns
    assert p2["rows"].iloc[0] == 2


def test_build_checkpoint_rejects_multi_sketch(tmp_path, ray_session):
    spec = {"table": "events", "sketches": [
        {"name": "a", "kind": "block", "params": {"bytes_": 1024},
         "column": "user_id"},
        {"name": "b", "kind": "hll", "params": {"p": 10},
         "column": "user_id"}]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(spec))
    with pytest.raises(SystemExit, match="single-sketch"):
        main(["build", "--config", str(cfg), "--input", SF_DIR_01,
              "--checkpoint-dir", str(tmp_path / "ck")])


def test_curate_subcommand_composes_all_stages(tmp_path, ray_session):
    """End-to-end crawl curation: planted recrawls + a hot domain + a
    contaminated doc + rare-token docs, every stage verified against an
    independent pandas reference."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    rng = np.random.default_rng(21)
    common = ["data", "engine", "fast", "key", "the"]
    n = 180
    rows = []
    for i in range(n):
        words = rng.choice(common, size=24)
        text = " ".join(words)
        if i % 9 == 0:
            text = " ".join(rng.choice([f"r{j}" for j in range(4000)],
                                       size=24))  # rare-token doc
        domain = "hot.example.org" if i % 2 else f"d{i % 13}.example.org"
        rows.append({
            "url": f"https://{domain}/p{i}",
            "warc_ts": pd.Timestamp("2024-03-01") +
            pd.Timedelta(seconds=int(i)),
            "text": text,
            "lang": ("en", "de")[i % 2],
            "row_id": np.int64(i * 10),
        })
    # recrawl of p0: newer capture wins
    rows.append({**rows[0], "warc_ts": pd.Timestamp("2024-04-01"),
                 "text": rows[0]["text"] + " updated",
                 "row_id": np.int64(9999)})
    df = pd.DataFrame(rows)
    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        src / "pages.parquet")
    bench = tmp_path / "bench.parquet"
    pa.parquet.write_table(
        pa.Table.from_pandas(pd.DataFrame({"text": [rows[3]["text"]]}),
                             preserve_index=False), bench)

    out = tmp_path / "curated"
    assert main(["curate", "--input", str(src), "--table", "pages",
                 "--column", "text", "--id-column", "row_id",
                 "--domain-cap", "30", "--benchmark", str(bench),
                 "--min-commonness", "10",
                 "--output", str(out)]) == 0
    got = pq.read_table(out).to_pandas()

    # url dedup: the stale p0 capture is gone, the recrawl kept
    assert 0 not in set(got["row_id"])
    # rare docs gone (their tokens are near-unique)
    assert not (got["row_id"] % 90 == 0).any()
    # benchmark doc (and its identical-text twins) decontaminated
    assert 30 not in set(got["row_id"])
    # hot domain capped at 30
    domains = got["url"].str.split("/").str[2]
    assert (got.groupby(domains).size() <= 30).all()
    assert len(got) > 0


def test_curate_no_stages_exits(tmp_path, ray_session):
    import pandas as pd
    import pyarrow as pa

    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(pa.Table.from_pandas(pd.DataFrame({
        "url": ["https://a/b"], "warc_ts": [pd.Timestamp("2024-01-01")],
        "text": ["x"], "lang": ["en"], "row_id": [1]}),
        preserve_index=False), src / "pages.parquet")
    with pytest.raises(SystemExit):
        main(["curate", "--input", str(src), "--table", "pages",
              "--column", "text", "--id-column", "row_id",
              "--no-url-dedup"])


def test_curate_checkpointed_matches_streaming(tmp_path, ray_session):
    """curate --checkpoint-dir must (1) produce identical output to the
    streaming run, (2) re-attach to every cached artifact on resubmit
    (same output, artifacts untouched), (3) refuse a flag change."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    rng = np.random.default_rng(31)
    words = ["data", "engine", "fast", "key", "the", "block"]
    rows = []
    for i in range(160):
        text = " ".join(rng.choice(words, size=20))
        domain = f"d{i % 6}.example.org"
        rows.append({
            "url": f"https://{domain}/p{i}",
            "warc_ts": pd.Timestamp("2024-03-01")
            + pd.Timedelta(seconds=int(i % 40)),  # forced url collisions
            "text": text, "lang": ("en", "de")[i % 2],
            "row_id": np.int64(i)})
    # duplicate captures of the first 20 urls, one day later
    for i in range(20):
        rows.append({**rows[i], "warc_ts": pd.Timestamp("2024-04-02"),
                     "row_id": np.int64(1000 + i)})
    df = pd.DataFrame(rows)
    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        src / "pages.parquet")
    bench = tmp_path / "bench.parquet"
    pa.parquet.write_table(pa.Table.from_pandas(
        pd.DataFrame({"text": [rows[7]["text"]]}), preserve_index=False),
        bench)

    common = ["curate", "--input", str(src), "--table", "pages",
              "--column", "text", "--id-column", "row_id",
              "--domain-cap", "20", "--benchmark", str(bench),
              "--min-commonness", "3", "--token-budget", "300"]
    out_s = tmp_path / "stream"
    assert main(common + ["--output", str(out_s)]) == 0
    stream = pq.read_table(out_s).to_pandas() \
        .sort_values("row_id").reset_index(drop=True)

    ck = str(tmp_path / "ck")
    out_c = tmp_path / "ck_out"
    assert main(common + ["--checkpoint-dir", ck,
                          "--output", str(out_c)]) == 0
    ck_run = pq.read_table(out_c).to_pandas() \
        .sort_values("row_id").reset_index(drop=True)
    assert stream["row_id"].tolist() == ck_run["row_id"].tolist()

    import os
    for art in ("curate.json", "urls", "domains",
                "bench_shingles.parquet", "vocab.parquet",
                "budget.json", "budget_keep.parquet"):
        assert os.path.exists(os.path.join(ck, art)), art
    mtimes = {a: os.path.getmtime(os.path.join(ck, a))
              for a in ("bench_shingles.parquet", "vocab.parquet",
                        "budget.json")}

    out_c2 = tmp_path / "ck_out2"
    assert main(common + ["--checkpoint-dir", ck,
                          "--output", str(out_c2)]) == 0
    resumed = pq.read_table(out_c2).to_pandas() \
        .sort_values("row_id").reset_index(drop=True)
    assert stream["row_id"].tolist() == resumed["row_id"].tolist()
    for a, m in mtimes.items():  # artifacts re-attached, not rewritten
        assert os.path.getmtime(os.path.join(ck, a)) == m, a

    with pytest.raises(SystemExit):
        main(common[:-2] + ["--token-budget", "999",
                            "--checkpoint-dir", ck,
                            "--output", str(tmp_path / "x")])


def test_curate_metrics_recorded(tmp_path, ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(pa.Table.from_pandas(pd.DataFrame({
        "url": [f"https://d.example.org/{i}" for i in range(20)],
        "warc_ts": pd.to_datetime(np.arange(20) * 1000, unit="us"),
        "text": [f"w{i} " * 5 for i in range(20)],
        "lang": ["en"] * 20,
        "row_id": np.arange(20, dtype=np.int64)}),
        preserve_index=False), src / "pages.parquet")
    ck = str(tmp_path / "ck")
    common = ["curate", "--input", str(src), "--table", "pages",
              "--column", "text", "--id-column", "row_id",
              "--token-budget", "50", "--checkpoint-dir", ck]
    assert main(common + ["--output", str(tmp_path / "o1")]) == 0
    assert main(common + ["--output", str(tmp_path / "o2")]) == 0
    lines = [json.loads(ln) for ln in
             open(f"{ck}/metrics.jsonl").read().splitlines()]
    stages = [(m["stage"], m["cached"]) for m in lines]
    # run 1 builds, run 2 re-attaches
    assert ("url-dedup", False) in stages and ("url-dedup", True) in stages
    assert ("token-budget", False) in stages \
        and ("token-budget", True) in stages
    assert all("sec" in m and "n" in m for m in lines)


def test_curate_manifest_from_passage_dedup_era(tmp_path):
    """A curate.json written before the passage-dedup stage was removed
    still pins its flags: `passage_dedup: 0` (stage off) is adopted, a
    nonzero value is refused — its cached artifacts were computed on
    passage-stripped text."""
    from libfilter_ray.job import _curate_manifest_guard, make_parser

    args = make_parser().parse_args([
        "curate", "--input", str(tmp_path), "--table", "pages",
        "--column", "text", "--id-column", "row_id"])
    args.blocklist_digest = None  # set by the curate job before the guard
    ck = str(tmp_path / "ck")
    _curate_manifest_guard(ck, args)  # fresh dir: writes the manifest
    mpath = tmp_path / "ck" / "curate.json"
    ident = json.loads(mpath.read_text())
    assert "passage_dedup" not in ident

    mpath.write_text(json.dumps({**ident, "passage_dedup": 0}))
    _curate_manifest_guard(ck, args)  # adopted

    mpath.write_text(json.dumps({**ident, "passage_dedup": 40}))
    with pytest.raises(SystemExit, match="passage_dedup"):
        _curate_manifest_guard(ck, args)


def test_curate_lm_quality_stage(tmp_path, ray_session):
    """--lm-threshold drops exactly the docs whose avg bigram NLL under
    the self-trained LM exceeds tau (brute-force reference); the
    checkpointed run re-attaches to the parquet model and matches."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from libfilter_ray.stages.corpus import LM_MIN_COUNT

    rng = np.random.default_rng(17)
    common = ["the", "data", "engine", "fast", "key"]
    rows = []
    for i in range(150):
        if i % 5 == 0:  # improbable-bigram docs
            words = rng.choice([f"z{j}" for j in range(3000)], size=16)
        else:  # docs built from a handful of repeated bigrams
            words = np.array(common * 4)[:16]
        rows.append({
            "url": f"https://d{i % 4}.org/p{i}",
            "warc_ts": pd.Timestamp("2024-03-01"),
            "text": " ".join(words), "lang": ("en", "de")[i % 2],
            "row_id": np.int64(i)})
    rows.append({"url": "https://d0.org/empty",
                 "warc_ts": pd.Timestamp("2024-03-01"),
                 "text": "solo", "lang": "en",
                 "row_id": np.int64(5000)})  # unscoreable -> kept
    df = pd.DataFrame(rows)
    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        src / "pages.parquet")

    # brute-force per-doc avg NLL to pick tau between the two modes
    from tests.test_corpus import _brute_lm_nll

    ref = _brute_lm_nll(df.rename(columns={"row_id": "doc_id"}),
                        min_count=LM_MIN_COUNT)
    avg = {did: nll / n for did, (n, nll) in ref.items() if n}
    lo = max(v for v in avg.values() if v < np.median(list(avg.values())))
    hi = min(v for v in avg.values() if v > lo)
    tau = (lo + hi) / 2
    want_kept = {did for did, (n, nll) in ref.items()
                 if n == 0 or nll <= tau * n}

    out = tmp_path / "out"
    assert main(["curate", "--input", str(src), "--table", "pages",
                 "--column", "text", "--id-column", "row_id",
                 "--no-url-dedup", "--lm-threshold", str(tau),
                 "--output", str(out)]) == 0
    got = set(pq.read_table(out)["row_id"].to_pylist())
    assert got == want_kept
    assert 5000 in got  # the unscoreable doc survived

    # checkpointed: build, then resume from the parquet model
    ck = tmp_path / "ck"
    for tag in ("c1", "c2"):
        o = tmp_path / tag
        assert main(["curate", "--input", str(src), "--table", "pages",
                     "--column", "text", "--id-column", "row_id",
                     "--no-url-dedup", "--lm-threshold", str(tau),
                     "--checkpoint-dir", str(ck),
                     "--output", str(o)]) == 0
        assert set(pq.read_table(o)["row_id"].to_pylist()) == want_kept
    assert (ck / "lm_model.parquet").exists()


def test_curate_blocklist_stage(tmp_path, ray_session):
    """--blocklist drops blocked hosts and subdomains; a checkpointed
    run pins the blocklist CONTENT, so editing the file under the same
    checkpoint dir is refused."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    hosts = ["keep.org", "bad.org", "sub.bad.org", "fine.net"]
    df = pd.DataFrame({
        "url": [f"https://{hosts[i % 4]}/p{i}" for i in range(120)],
        "warc_ts": pd.Timestamp("2024-03-01"),
        "text": ["alpha beta gamma"] * 120,
        "lang": ["en"] * 120,
        "row_id": np.arange(120, dtype=np.int64)})
    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        src / "pages.parquet")
    blk = tmp_path / "blk.txt"
    blk.write_text("# comment\nbad.org\n")

    out = tmp_path / "out"
    ck = tmp_path / "ck"
    argv = ["curate", "--input", str(src), "--table", "pages",
            "--column", "text", "--id-column", "row_id",
            "--no-url-dedup", "--blocklist", str(blk),
            "--token-budget", "10_000_000".replace("_", ""),
            "--checkpoint-dir", str(ck), "--output", str(out)]
    assert main(argv) == 0
    got = pq.read_table(out).to_pandas()
    h = got["url"].str.split("/").str[2]
    assert set(h) == {"keep.org", "fine.net"}
    assert len(got) == 60

    # same content resubmits fine; edited content is refused
    assert main(argv[:-1] + [str(tmp_path / "out2")]) == 0
    blk.write_text("bad.org\nfine.net\n")
    with pytest.raises(SystemExit, match="curate run with"):
        main(argv[:-1] + [str(tmp_path / "out3")])


def test_index_subcommand_build_and_search(tmp_path, ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    df = pd.DataFrame({
        "doc_id": np.arange(30, dtype=np.int64),
        "text": [("alpha beta " * (i % 3 + 1)).strip() if i % 5
                 else "gamma delta" for i in range(30)]})
    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        src / "docs.parquet")
    ixd = tmp_path / "ix"
    out = tmp_path / "hits.parquet"
    assert main(["index", "--input", str(src), "--table", "docs",
                 "--index-dir", str(ixd)]) == 0
    # search without rebuild (no --input needed once built)
    assert main(["index", "--index-dir", str(ixd), "--search",
                 "gamma delta", "--mode", "and",
                 "--output", str(out)]) == 0
    hits = pq.read_table(out).to_pandas()
    assert set(hits["doc_id"]) == set(range(0, 30, 5))
    # bm25 mode returns ranked scores
    out2 = tmp_path / "ranked.parquet"
    assert main(["index", "--index-dir", str(ixd), "--search", "alpha",
                 "--mode", "bm25", "--k", "3",
                 "--output", str(out2)]) == 0
    ranked = pq.read_table(out2).to_pandas()
    assert list(ranked.columns) == ["rank", "doc_id", "score"]
    assert len(ranked) == 3
    assert (ranked["score"].diff().dropna() <= 0).all()
    # unbuilt dir without --input is refused
    with pytest.raises(SystemExit, match="needs"):
        main(["index", "--index-dir", str(tmp_path / "nope"),
              "--search", "x"])


def test_index_incremental_merge_cli(tmp_path, ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    def write(dirname, ids):
        d = tmp_path / dirname
        d.mkdir()
        pa.parquet.write_table(pa.Table.from_pandas(pd.DataFrame({
            "doc_id": np.array(ids, dtype=np.int64),
            "text": [f"alpha tok{i % 4} beta" for i in ids]}),
            preserve_index=False), d / "docs.parquet")
        return d

    base_src = write("base", range(20))
    new_src = write("new", range(100, 115))
    assert main(["index", "--input", str(base_src), "--table", "docs",
                 "--index-dir", str(tmp_path / "ixa"),
                 "--buckets", "8"]) == 0
    out = tmp_path / "hits.parquet"
    assert main(["index", "--input", str(new_src), "--table", "docs",
                 "--index-dir", str(tmp_path / "ixb"), "--buckets", "8",
                 "--merge-base", str(tmp_path / "ixa"),
                 "--merged-out", str(tmp_path / "ixm"),
                 "--search", "alpha", "--mode", "and",
                 "--output", str(out)]) == 0
    hits = set(pq.read_table(out)["doc_id"].to_pylist())
    assert hits == set(range(20)) | set(range(100, 115))
    with pytest.raises(SystemExit, match="merged-out"):
        main(["index", "--index-dir", str(tmp_path / "ixb"),
              "--merge-base", str(tmp_path / "ixa")])


def test_curate_split_partitions(tmp_path, ray_session):
    """--split writes deterministic hash-split hive partitions whose
    membership matches hash_split_stage exactly; bad specs refused."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    df = pd.DataFrame({
        "url": [f"https://d.org/p{i}" for i in range(200)],
        "warc_ts": pd.Timestamp("2024-03-01"),
        "text": ["alpha beta"] * 200, "lang": ["en"] * 200,
        "row_id": np.arange(200, dtype=np.int64)})
    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        src / "pages.parquet")
    out = tmp_path / "out"
    assert main(["curate", "--input", str(src), "--table", "pages",
                 "--column", "text", "--id-column", "row_id",
                 "--no-url-dedup", "--split", "train=90,val=5,test=5",
                 "--output", str(out)]) == 0

    import ray.data

    from libfilter_ray.stages.corpus import hash_split_stage

    want = ray.data.from_pandas(df).map_batches(
        hash_split_stage("row_id", {"train": 90, "val": 5, "test": 5}),
        batch_format="pyarrow").to_pandas()
    got = pq.read_table(out).to_pandas()
    assert len(got) == 200
    m = got.merge(want[["row_id", "split"]], on="row_id",
                  suffixes=("", "_want"))
    assert (m["split"].astype(str) == m["split_want"]).all()
    with pytest.raises(SystemExit, match="integer percents"):
        main(["curate", "--input", str(src), "--table", "pages",
              "--column", "text", "--id-column", "row_id",
              "--no-url-dedup", "--split", "train=80,val=5",
              "--output", str(tmp_path / "o2")])


def test_curate_shuffle_offramp(tmp_path, ray_session):
    """--shuffle-out: the curated (url-deduped) corpus lands in
    hash-range shard files in deterministic splitmix64 order; the union
    of shard files is exactly the curated row set; --split is refused
    alongside."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from libfilter_ray.sketch.hashing import splitmix64
    from libfilter_ray.stages.shuffle import SHUFFLE_SEED

    n = 300
    df = pd.DataFrame({
        "url": [f"https://d.org/p{i % 250}" for i in range(n)],  # 50 dups
        "warc_ts": pd.to_datetime(np.arange(n) * 1000, unit="us"),
        "text": [f"alpha beta {i}" for i in range(n)],
        "lang": ["en"] * n,
        "row_id": np.arange(n, dtype=np.int64)})
    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        src / "pages.parquet")
    shards = tmp_path / "shards"
    rep = tmp_path / "report.parquet"
    assert main(["curate", "--input", str(src), "--table", "pages",
                 "--column", "text", "--id-column", "row_id",
                 "--shuffle-out", str(shards),
                 "--shuffle-shards-log2", "2",
                 "--output", str(rep)]) == 0
    report = pd.read_parquet(rep)
    # url-dedup keeps the newest capture per url: 250 survivors
    assert report["n_docs"].sum() == 250
    parts = []
    for _, r in report.iterrows():
        t = pq.read_table(r["path"]).to_pandas()
        h = splitmix64(t["row_id"].to_numpy().astype(np.uint64),
                       seed=SHUFFLE_SEED)
        assert (np.diff(h) > 0).all()  # shuffled order inside the shard
        parts.append(t)
    whole = pd.concat(parts)
    # newest capture per url == row_ids 50..299 here (dups are 0..49)
    assert sorted(whole["row_id"]) == list(range(50, 300))
    assert set(whole.columns) == {"url", "warc_ts", "text", "lang",
                                  "row_id"}
    with pytest.raises(SystemExit, match="mutually exclusive"):
        main(["curate", "--input", str(src), "--table", "pages",
              "--column", "text", "--id-column", "row_id",
              "--no-url-dedup", "--split", "train=90,val=5,test=5",
              "--shuffle-out", str(tmp_path / "s2"),
              "--output", str(tmp_path / "o2")])


def test_curate_full_composition_resumes(tmp_path, ray_session):
    """ALL eight curate stages composed in one checkpointed run —
    blocklist -> url-dedup -> domain-cap -> decontaminate ->
    freq-quality -> lm-quality -> token-budget(mix) -> split — then a
    resubmit re-attaches every artifact and produces identical output."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    rng = np.random.default_rng(5)
    common = ["data", "engine", "fast", "key", "the", "block"]
    rows = []
    for i in range(200):
        text = " ".join(rng.choice(common, size=24))
        if i % 11 == 0:
            text = " ".join(rng.choice(
                [f"r{j}" for j in range(5000)], size=24))
        dom = "blocked.org" if i % 13 == 0 else \
            ("hot.org" if i % 2 else f"d{i % 7}.org")
        rows.append({
            "url": f"https://{dom}/p{i}",
            "warc_ts": pd.Timestamp("2024-03-01")
            + pd.Timedelta(seconds=int(i % 50)),
            "text": text, "lang": ("en", "de")[i % 2],
            "row_id": np.int64(i)})
    for i in range(6):  # recrawls
        rows.append({**rows[i], "warc_ts": pd.Timestamp("2024-04-01"),
                     "row_id": np.int64(2000 + i)})
    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(
        pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False),
        src / "pages.parquet")
    bench = tmp_path / "bench.parquet"
    pa.parquet.write_table(pa.Table.from_pandas(
        pd.DataFrame({"text": [rows[3]["text"]]}),
        preserve_index=False), bench)
    blk = tmp_path / "blk.txt"
    blk.write_text("blocked.org\n")

    argv = ["curate", "--input", str(src), "--table", "pages",
            "--column", "text", "--id-column", "row_id",
            "--blocklist", str(blk), "--domain-cap", "40",
            "--benchmark", str(bench),
            "--min-commonness", "5", "--lm-threshold", "2.5",
            "--token-budget", "2500", "--mix", "en=0.6,de=0.4",
            "--split", "train=90,val=5,test=5",
            "--checkpoint-dir", str(tmp_path / "ck")]
    outs = []
    for tag in ("o1", "o2"):
        assert main(argv + ["--output", str(tmp_path / tag)]) == 0
        df = pq.read_table(tmp_path / tag).to_pandas() \
            .sort_values("row_id").reset_index(drop=True)
        outs.append(df.drop(columns=["split"], errors="ignore"))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert len(outs[0]) > 0
    hosts = outs[0]["url"].str.split("/").str[2]
    assert not (hosts == "blocked.org").any()
    assert (hosts.value_counts() <= 40).all()


def test_import_warc_subcommand(tmp_path, ray_session):
    """import-warc: .warc.gz archives -> bucket-partitioned parquet with
    extracted text; resumable (second run reuses the completed output)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from libfilter_ray.sources.warc import write_warc_gz
    from libfilter_ray.sources.webpages import synthesize_webpages

    docs = pa.table({
        "doc_id": np.arange(60, dtype=np.int64),
        "text": [f"hello page {i}\n\nsecond paragraph & <tag>"
                 for i in range(60)],
        "lang": ["en", "de", "fr"] * 20,
        "source": ["cc"] * 60,
    })
    pages = synthesize_webpages(docs)
    ts = pages["warc_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    w1 = str(tmp_path / "a.warc.gz")
    w2 = str(tmp_path / "b.warc.gz")
    write_warc_gz(w1, pages["url"].to_pylist()[:30], ts[:30],
                  pages["html"].to_pylist()[:30])
    write_warc_gz(w2, pages["url"].to_pylist()[30:], ts[30:],
                  pages["html"].to_pylist()[30:])

    out = tmp_path / "table"
    assert main(["import-warc", "--warc", str(tmp_path / "*.warc.gz"),
                 "--out", str(out), "--buckets", "4"]) == 0
    back = ray.data.read_parquet(str(out)).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    want = pages.to_pandas().sort_values("url").reset_index(drop=True)
    assert len(back) == 60
    assert list(back["url"]) == list(want["url"])
    assert list(back["text"]) == list(want["text"])   # extraction exact
    assert "html" not in back.columns                 # wide payload dropped
    assert back["bucket"].nunique() >= 2              # really partitioned

    assert main(["import-warc", "--warc",
                 str(tmp_path / "*.warc.gz"),
                 "--out", str(out), "--buckets", "4"]) == 0


def test_import_warc_lang_id(tmp_path, ray_session):
    """--lang-id annotates lang_pred from the extracted text."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from libfilter_ray.sources.warc import write_warc_gz
    from libfilter_ray.sources.webpages import synthesize_webpages

    texts = {"en": "the quick brown fox and the lazy dog with a plan",
             "de": "der schnelle braune fuchs und die katze mit einem",
             "fr": "le renard brun rapide et le chien avec une idee"}
    docs = pa.table({
        "doc_id": np.arange(30, dtype=np.int64),
        "text": [texts[("en", "de", "fr")[i % 3]] for i in range(30)],
        "lang": [("en", "de", "fr")[i % 3] for i in range(30)],
        "source": ["cc"] * 30,
    })
    pages = synthesize_webpages(docs)
    ts = pages["warc_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    w = str(tmp_path / "c.warc.gz")
    write_warc_gz(w, pages["url"].to_pylist(), ts,
                  pages["html"].to_pylist())
    out = tmp_path / "table"
    assert main(["import-warc", "--warc", w, "--out", str(out),
                 "--buckets", "2", "--lang-id"]) == 0
    back = ray.data.read_parquet(str(out)).to_pandas()
    # url embeds the true lang: .../<lang>/page-...
    true_lang = back["url"].str.extract(r"org/(\w+)/")[0]
    assert (back["lang_pred"] == true_lang).mean() >= 0.9

    with pytest.raises(SystemExit, match="lang-id"):
        main(["import-warc", "--warc", w, "--out", str(out),
              "--no-extract", "--lang-id"])


def test_graph_subcommand_pagerank_and_components(tmp_path, ray_session):
    """`graph` over a real edge parquet must reproduce the formula-path
    results exactly (same graph, built from the synthesis formula)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as _pq

    from libfilter_ray.stages.graph import _edges_of

    n = 200
    src, dst = _edges_of(np.arange(n, dtype=np.int64), n)
    ep = tmp_path / "edges.parquet"
    _pq.write_table(pa.table({"src": pa.array(src),
                              "dst": pa.array(dst)}), str(ep))

    out = tmp_path / "pr.parquet"
    assert main(["graph", "--edges", str(ep), "--mode", "pagerank",
                 "--iters", "2", "--top", "5", "--shards", "4",
                 "--output", str(out)]) == 0
    got = _pq.read_table(out).to_pandas()
    assert len(got) == 5
    assert got["pr_micro"].is_monotonic_decreasing
    # exact parity with the formula-scatter path on the same graph —
    # note the CLI derives nodes from edge ENDPOINTS (isolated formula
    # nodes are absent), which for this graph is all n nodes
    from libfilter_ray.stages.graph import integer_pagerank
    import ray.data

    docs = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64))}))
    ref = integer_pagerank(docs, n, iters=2).to_pandas()
    ref = ref.sort_values(["pr_micro", "v"],
                          ascending=[False, True]).head(5)
    assert got["node"].tolist() == ref["v"].tolist()
    assert got["pr_micro"].tolist() == ref["pr_micro"].tolist()

    outc = tmp_path / "cc.parquet"
    assert main(["graph", "--edges", str(ep), "--mode", "components",
                 "--output", str(outc)]) == 0
    hist = _pq.read_table(outc).to_pandas()
    # every node is covered exactly once across components
    assert int((hist["size"] * hist["n_components"]).sum()) == n


def test_shuffle_subcommand(tmp_path, ray_session):
    """`shuffle` report == the oracle-verified library pipeline; --out
    writes one parquet per shard carrying the payload columns."""
    import pandas as pd

    from libfilter_ray.pipelines.queries import q_shuffle_shard_report

    rep = tmp_path / "report.parquet"
    assert main(["shuffle", "--input", SF_DIR_01, "--table", "documents",
                 "--column", "doc_id", "--shards-log2", "4",
                 "--output", str(rep)]) == 0
    got = pd.read_parquet(rep)
    want = q_shuffle_shard_report(SF_DIR_01)
    assert got.equals(want)

    out = tmp_path / "shards"
    rep2 = tmp_path / "report2.parquet"
    assert main(["shuffle", "--input", SF_DIR_01, "--table", "documents",
                 "--column", "doc_id", "--payload", "lang,source",
                 "--shards-log2", "2", "--out", str(out),
                 "--output", str(rep2)]) == 0
    got2 = pd.read_parquet(rep2)
    assert len(got2) == 4 and got2["n_docs"].sum() == want["n_docs"].sum()
    for p in got2["path"]:
        t = pd.read_parquet(p)
        assert list(t.columns) == ["doc_id", "lang", "source"]
    with pytest.raises(SystemExit):
        main(["shuffle", "--input", SF_DIR_01, "--table", "documents",
              "--column", "doc_id", "--shards-log2", "99"])


def test_export_subcommand_jsonl_roundtrip(tmp_path, ray_session):
    """export --format jsonl ships a parquet table as gzip'd JSONL
    shards; reading them back reproduces the projected table."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as _pq

    from conftest import SF_DIR
    from libfilter_ray.sources.jsonl import read_jsonl

    out = tmp_path / "shards"
    man = tmp_path / "manifest.parquet"
    assert main(["export", "--input", SF_DIR, "--table", "documents",
                 "--format", "jsonl", "--columns", "doc_id,lang,text",
                 "--out", str(out), "--output", str(man)]) == 0
    manifest = _pq.read_table(man).to_pandas()
    orig = _pq.read_table(f"{SF_DIR}/documents.parquet",
                          columns=["doc_id", "lang", "text"]).to_pandas()
    assert int(manifest["n_records"].sum()) == len(orig)
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                        ("text", pa.string())])
    back = read_jsonl(sorted(manifest["shard_path"]),
                      schema=schema).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert back.equals(orig.sort_values("doc_id").reset_index(drop=True))


def test_export_subcommand_rejects_non_json_native(tmp_path, ray_session):
    """orders carries a timestamp column — the jsonl sink must fail
    fast, not silently stringify."""
    with pytest.raises(Exception, match="non-JSON-native"):
        main(["export", "--input", SF_DIR_01, "--table", "orders",
              "--format", "jsonl", "--out", str(tmp_path / "x")])


def test_bpe_subcommand_matches_reference(tmp_path, ray_session):
    import pyarrow.parquet as _pq

    from conftest import SF_DIR
    from libfilter_ray.stages.bpe import bpe_reference

    out = tmp_path / "merges.parquet"
    assert main(["bpe", "--input", SF_DIR, "--merges", "3",
                 "--shards", "4", "--output", str(out)]) == 0
    got = _pq.read_table(out).to_pandas()
    texts = _pq.read_table(f"{SF_DIR}/documents.parquet",
                           columns=["text"])["text"].to_pylist()
    ref = bpe_reference(texts, k=3)
    assert got.to_dict("records") == ref


def test_bpe_save_dir_roundtrips_into_loader(tmp_path, ray_session):
    """CLI --save-dir exports merges.txt + vocab.json; loading them back
    segments the corpus identically to the learned merge frame (the
    save -> load -> apply parity the artifact format exists for)."""
    import pyarrow.parquet as _pq

    from conftest import SF_DIR
    from libfilter_ray.stages.bpe import (
        load_bpe_artifacts, segment_words)

    out = tmp_path / "merges.parquet"
    save = tmp_path / "tok"
    assert main(["bpe", "--input", SF_DIR, "--merges", "3",
                 "--shards", "4", "--output", str(out),
                 "--save-dir", str(save)]) == 0
    learned = _pq.read_table(out).to_pandas()
    merges = list(zip(learned["left"], learned["right"]))
    loaded, vocab = load_bpe_artifacts(str(save))
    assert loaded == [(str(a), str(b)) for a, b in merges]
    texts = _pq.read_table(f"{SF_DIR}/documents.parquet",
                           columns=["text"])["text"].to_pylist()
    words = sorted({w for t in texts if t for w in t.split(" ") if w})
    segs = segment_words(words, loaded)
    assert segs == segment_words(words, merges)
    assert {s for seg in segs for s in seg} <= set(vocab)


def test_topk_subcommand_exact_string_and_int(tmp_path, ray_session):
    """`topk` == plain GROUP BY ... HAVING on both column families."""
    import duckdb
    import pandas as pd

    out = tmp_path / "hh.parquet"
    assert main(["topk", "--input", SF_DIR_01, "--table", "events",
                 "--column", "user_id", "--k", "256", "--phi", "1/200",
                 "--output", str(out)]) == 0
    got = pd.read_parquet(out)
    want = duckdb.sql(f"""
        WITH c AS (SELECT user_id, count(*)::BIGINT AS n
                   FROM '{SF_DIR_01}/events.parquet' GROUP BY 1),
             t AS (SELECT count(*) AS total
                   FROM '{SF_DIR_01}/events.parquet')
        SELECT user_id, n FROM c, t WHERE 200 * n >= total
        ORDER BY n DESC, user_id""").df().astype("int64")
    g = got[["user_id", "n"]].sort_values(
        ["n", "user_id"], ascending=[False, True]).reset_index(drop=True)
    assert g.equals(want.reset_index(drop=True))
    assert (got["share_ppm"] == got["n"] * 1_000_000 // 10_000).all()

    out2 = tmp_path / "hh2.parquet"
    assert main(["topk", "--input", SF_DIR_01, "--table", "documents",
                 "--column", "source", "--k", "64", "--phi", "1/25",
                 "--output", str(out2)]) == 0
    got2 = pd.read_parquet(out2)
    want2 = duckdb.sql(f"""
        WITH c AS (SELECT source, count(*)::BIGINT AS n
                   FROM '{SF_DIR_01}/documents.parquet' GROUP BY 1),
             t AS (SELECT count(*) AS total
                   FROM '{SF_DIR_01}/documents.parquet')
        SELECT source, n FROM c, t WHERE 25 * n >= total
        ORDER BY n DESC, source""").df()
    g2 = got2[["source", "n"]].sort_values(
        ["n", "source"], ascending=[False, True]).reset_index(drop=True)
    assert g2.equals(want2.reset_index(drop=True))


def test_topk_by_key_exact(tmp_path, ray_session):
    """`topk --by` == per-key GROUP BY ... HAVING with per-key totals."""
    import duckdb
    import pandas as pd

    out = tmp_path / "ghh.parquet"
    assert main(["topk", "--input", SF_DIR_01, "--table", "events",
                 "--column", "user_id", "--by", "event_type",
                 "--k", "256", "--phi", "1/100",
                 "--output", str(out)]) == 0
    got = pd.read_parquet(out)
    want = duckdb.sql(f"""
        WITH c AS (SELECT event_type, user_id, count(*)::BIGINT AS n
                   FROM '{SF_DIR_01}/events.parquet' GROUP BY 1, 2),
             t AS (SELECT event_type, count(*)::BIGINT AS total
                   FROM '{SF_DIR_01}/events.parquet' GROUP BY 1)
        SELECT c.event_type, c.user_id, c.n, c.n * 1000000 // t.total
               AS share_ppm
        FROM c JOIN t USING (event_type) WHERE 100 * c.n >= t.total
        ORDER BY c.event_type, c.n DESC, c.user_id""").df()
    want[["user_id", "n", "share_ppm"]] = \
        want[["user_id", "n", "share_ppm"]].astype("int64")
    g = got.sort_values(["event_type", "n", "user_id"],
                        ascending=[True, False, True]) \
        .reset_index(drop=True)[list(want.columns)]
    assert g.equals(want.reset_index(drop=True))


def test_topk_guarantee_gate(ray_session):
    with pytest.raises(SystemExit):
        main(["topk", "--input", SF_DIR_01, "--table", "events",
              "--column", "user_id", "--k", "100", "--phi", "1/200"])
    with pytest.raises(SystemExit):
        main(["topk", "--input", SF_DIR_01, "--table", "events",
              "--column", "user_id", "--by", "user_id", "--phi", "1/100"])
    with pytest.raises(SystemExit):
        main(["topk", "--input", SF_DIR_01, "--table", "events",
              "--column", "value", "--k", "64", "--phi", "1/25"])
    with pytest.raises(SystemExit):
        main(["topk", "--input", SF_DIR_01, "--table", "events",
              "--column", "user_id", "--phi", "bogus"])


def test_outliers_subcommand_matches_stage(tmp_path, ray_session):
    """`job outliers` reproduces stages/robust.py:mad_outlier_stats over
    the events table (exact per-key median/MAD/outlier counts)."""
    import pandas as pd
    import ray.data

    out = tmp_path / "o.parquet"
    assert main(["outliers", "--input", SF_DIR_01, "--table", "events",
                 "--column", "value", "--by", "event_type",
                 "--scale", "2.5", "--output", str(out)]) == 0
    got = pd.read_parquet(out)
    from libfilter_ray.stages.robust import mad_outlier_stats

    ds = ray.data.read_parquet(f"{SF_DIR_01}/events.parquet",
                               columns=["event_type", "value"])
    ref = mad_outlier_stats(ds, "event_type", "value", scale=2.5)
    pd.testing.assert_frame_equal(got.reset_index(drop=True), ref)
    assert (got["n_outliers"] > 0).any()      # the rule actually fires


def test_rollup_subcommand_matches_duckdb(tmp_path, ray_session):
    """`job rollup` over lineitem equals GROUP BY ROLLUP in DuckDB."""
    import duckdb
    import pandas as pd

    out = tmp_path / "r.parquet"
    assert main(["rollup", "--input", SF_DIR_01, "--table", "lineitem",
                 "--keys", "l_returnflag,l_linestatus",
                 "--value", "l_quantity", "--output", str(out)]) == 0
    got = pd.read_parquet(out) \
        .sort_values(["lvl", "l_returnflag", "l_linestatus"]) \
        .reset_index(drop=True)
    con = duckdb.connect()
    ref = con.execute(f"""
        SELECT CAST(2 - GROUPING(l_returnflag) - GROUPING(l_linestatus)
                    AS BIGINT) AS lvl,
               COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               sum(l_quantity) AS sum_l_quantity,
               count(*)::BIGINT AS n
        FROM read_parquet('{SF_DIR_01}/lineitem.parquet')
        GROUP BY ROLLUP(l_returnflag, l_linestatus)
        ORDER BY lvl, l_returnflag, l_linestatus""").df()
    pd.testing.assert_frame_equal(got, ref)


def test_fuzzy_subcommand_finds_planted_typos(tmp_path, ray_session):
    """`job fuzzy` over a keys table recovers exactly the DuckDB
    levenshtein()=1 cross-join pairs."""
    import duckdb
    import pandas as pd
    import pyarrow as pa

    keys = ["alpha", "alpa", "alphax", "beta", "bteа".replace("а", "a"),
            "gamma", "gamm", "delta", "delta-", "unrelated"]
    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(pa.table({"k": keys * 3}), str(inp / "keys.parquet"))
    out = tmp_path / "p.parquet"
    assert main(["fuzzy", "--input", str(inp), "--table", "keys",
                 "--column", "k", "--num-shards", "8",
                 "--output", str(out)]) == 0
    got = pd.read_parquet(out)
    con = duckdb.connect()
    ref = con.execute(f"""
        WITH v AS (SELECT DISTINCT k FROM
                   read_parquet('{inp}/keys.parquet'))
        SELECT a.k AS w1, b.k AS w2 FROM v a JOIN v b
        ON a.k < b.k AND levenshtein(a.k, b.k) = 1
        ORDER BY w1, w2""").df()
    pd.testing.assert_frame_equal(got, ref)
    assert len(got) >= 3


def test_rank_subcommand_matches_duckdb(tmp_path, ray_session):
    """`job rank` percent_rank equals the DuckDB window function
    bit-for-bit."""
    import duckdb
    import pandas as pd

    out = tmp_path / "pr.parquet"
    assert main(["rank", "--input", SF_DIR_01, "--table", "events",
                 "--column", "value", "--by", "event_type",
                 "--id-cols", "event_id", "--output", str(out)]) == 0
    got = pd.read_parquet(out).sort_values("event_id") \
        .reset_index(drop=True)[["event_id", "event_type", "pr"]]
    con = duckdb.connect()
    ref = con.execute(f"""
        SELECT event_id, event_type,
               percent_rank() OVER (PARTITION BY event_type
                                    ORDER BY value) AS pr
        FROM read_parquet('{SF_DIR_01}/events.parquet')
        WHERE value IS NOT NULL ORDER BY event_id""").df()
    pd.testing.assert_frame_equal(got, ref)


def test_chunk_subcommand_roundtrip(tmp_path, ray_session):
    """`job chunk` writes the same chunks the stage computes and every
    chunk rejoins into its source doc slice."""
    import pandas as pd

    out = tmp_path / "chunks"
    assert main(["chunk", "--input", SF_DIR_01, "--table", "documents",
                 "--column", "text", "--id-column", "doc_id",
                 "--window", "16", "--stride", "8",
                 "--output", str(out)]) == 0
    got = pq.read_table(str(out)).to_pandas() \
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    docs = pq.read_table(f"{SF_DIR_01}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .set_index("doc_id")["text"]
    assert (got["n_tokens"] <= 16).all()
    # chunk 0 of every doc is the doc's first 16 tokens verbatim
    first = got[got["chunk_id"] == 0]
    assert len(first) == docs.notna().sum()
    for _, r in first.sample(20, random_state=0).iterrows():
        assert r["chunk"] == " ".join(
            docs.loc[r["doc_id"]].split(" ")[:16])


def test_curate_chunk_offramp(tmp_path, ray_session):
    """--chunk-out: the curated (url-deduped) corpus expands into
    sliding-window chunks matching stages/chunk.py over the curated
    rows exactly; exclusive with the other off-ramps."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from libfilter_ray.stages.chunk import chunk_documents

    n = 200
    df = pd.DataFrame({
        "url": [f"https://d.org/p{i % 150}" for i in range(n)],
        "warc_ts": pd.to_datetime(np.arange(n) * 1000, unit="us"),
        "text": [" ".join(f"w{j}" for j in range(i % 30 + 1))
                 for i in range(n)],
        "lang": ["en"] * n,
        "row_id": np.arange(n, dtype=np.int64)})
    src = tmp_path / "in"
    src.mkdir()
    pa.parquet.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        src / "pages.parquet")
    chunks_dir = tmp_path / "chunks"
    assert main(["curate", "--input", str(src), "--table", "pages",
                 "--column", "text", "--id-column", "row_id",
                 "--chunk-out", str(chunks_dir),
                 "--chunk-window", "8", "--chunk-stride", "4"]) == 0
    got = pq.read_table(str(chunks_dir)).to_pandas() \
        .sort_values(["row_id", "chunk_id"]).reset_index(drop=True)
    # reference: chunk the url-dedup survivors (newest per url)
    survivors = df[df["row_id"] >= 50]
    ref = chunk_documents(
        ray.data.from_pandas(survivors[["row_id", "text"]]),
        "text", "row_id", window=8, stride=4).to_pandas() \
        .sort_values(["row_id", "chunk_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref)
    assert (got["n_tokens"] <= 8).all() and got["chunk_id"].max() > 0
    with pytest.raises(SystemExit, match="exclusive"):
        main(["curate", "--input", str(src), "--table", "pages",
              "--column", "text", "--id-column", "row_id",
              "--chunk-out", str(tmp_path / "c2"),
              "--shuffle-out", str(tmp_path / "s2")])
    with pytest.raises(SystemExit, match="chunk-stride"):
        main(["curate", "--input", str(src), "--table", "pages",
              "--column", "text", "--id-column", "row_id",
              "--chunk-out", str(tmp_path / "c3"),
              "--chunk-window", "4", "--chunk-stride", "9"])


def test_links_subcommand_extracts_edges(tmp_path, ray_session):
    """`job links` over a pages table with an html column writes the
    (src, dst) edge parquet exactly."""
    import pandas as pd
    import pyarrow as pa

    inp = tmp_path / "in"
    inp.mkdir()
    pq.write_table(pa.table({
        "url": ["https://s/a", "https://s/b", "https://s/c"],
        "html": [b'<a href="https://t/1">x</a><a href="https://t/2">y</a>',
                 b"nothing here",
                 b'<a href="https://t/3">z</a>'],
    }), str(inp / "pages.parquet"))
    out = tmp_path / "edges"
    assert main(["links", "--input", str(inp), "--table", "pages",
                 "--output", str(out)]) == 0
    got = pq.read_table(str(out)).to_pandas() \
        .sort_values(["src", "dst"]).reset_index(drop=True)
    ref = pd.DataFrame({
        "src": ["https://s/a", "https://s/a", "https://s/c"],
        "dst": ["https://t/1", "https://t/2", "https://t/3"]})
    pd.testing.assert_frame_equal(got, ref)
