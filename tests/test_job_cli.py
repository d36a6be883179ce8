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


def test_docstring_lists_every_subcommand():
    """The module docstring documents exactly the subcommands the parser
    registers, in the parser's order (no Ray session)."""
    import argparse
    import re

    from libfilter_ray import job

    sub = next(a for a in job.make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    documented = re.findall(r"^- ``(\w+)``", job.__doc__, re.M)
    assert documented == list(sub.choices)
