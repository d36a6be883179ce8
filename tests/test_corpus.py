"""Corpus curation stages (stages/corpus.py): self-trained frequency
quality and per-language token-budget sampling."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _docs(n=300, seed=11):
    rng = np.random.default_rng(seed)
    common = ["the", "fast", "key", "data", "engine"]
    rare_pool = [f"xq{i}" for i in range(5000)]
    texts, langs = [], []
    for i in range(n):
        if i % 10 == 0:  # rare-token docs
            words = rng.choice(rare_pool, size=20)
        else:
            words = rng.choice(common, size=20)
        texts.append(" ".join(words))
        langs.append(("en", "de", "fr")[i % 3])
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": texts, "lang": langs})


def test_commonness_flags_match_bruteforce(ray_session):
    import ray.data

    from libfilter_ray.stages.corpus import (build_vocab_ref,
                                             commonness_flags)

    df = _docs()
    ds = ray.data.from_pandas(df).repartition(6)
    ref = build_vocab_ref(ds, "text", top_v=1 << 16)
    flags = ds.map_batches(
        commonness_flags("text", "doc_id", ref, rare_factor=50),
        batch_format="pyarrow").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    # brute force: full vocabulary fits under top_v so counts are global
    from collections import Counter
    cnt = Counter(w for t in df["text"] for w in t.split(" ") if w)
    for _, row in flags.iterrows():
        words = [w for w in df["text"][int(row["doc_id"])].split(" ") if w]
        assert row["n_tokens"] == len(words)
        assert row["sum_commonness"] == sum(cnt[w] for w in words)
        assert bool(row["rare"]) == (
            row["sum_commonness"] < len(words) * 50)
    # the planted rare docs flag, the common ones don't
    assert flags.loc[flags["doc_id"] % 10 == 0, "rare"].all()
    assert not flags.loc[flags["doc_id"] % 10 != 0, "rare"].any()


def test_vocab_top_v_truncates_by_count_then_word(ray_session):
    import ray.data

    from libfilter_ray.sketch.hashing import hash_arrow_array
    from libfilter_ray.stages.corpus import build_vocab_ref

    df = pd.DataFrame({"text": ["a a a b b c d", "b c c e"]})
    # counts: a=3, b=3, c=3, d=1, e=1 -> top 3 = a, b, c (ties by word)
    ref = build_vocab_ref(ray.data.from_pandas(df), "text", top_v=3)
    import ray
    vh, vc = ray.get(ref)
    want = {w: c for w, c in [("a", 3), ("b", 3), ("c", 3)]}
    wh = hash_arrow_array(pa.array(list(want))).astype(np.uint64)
    assert sorted(vh.tolist()) == sorted(wh.tolist())
    assert sorted(vc.tolist()) == [3, 3, 3]


def _budget_reference(df, budget):
    from libfilter_ray.stages.crawl import cap_rank_of

    n_tok = df["text"].map(
        lambda t: sum(1 for w in t.split(" ") if w)).to_numpy()
    ref = df.assign(n_tok=n_tok,
                    rank=cap_rank_of(df["doc_id"].to_numpy()))
    kept = []
    for lang, grp in ref.groupby("lang"):
        grp = grp.sort_values(["rank", "doc_id"], kind="stable")
        cum = grp["n_tok"].cumsum()
        kept.append(grp[cum <= budget])
    return pd.concat(kept)


def test_token_budget_sample_matches_reference(ray_session):
    import ray.data

    from libfilter_ray.stages.corpus import (space_token_counts,
                                             token_budget_sample)

    df = _docs(n=240)
    ds = ray.data.from_pandas(df).repartition(8)
    kept = token_budget_sample(
        ds, "lang", "doc_id", lambda t: space_token_counts(t["text"]),
        budget=700).to_pandas()
    want = _budget_reference(df, 700)
    assert sorted(kept["doc_id"]) == sorted(want["doc_id"])


def test_token_budget_boundary_refinement(ray_session):
    """Force tiny rank buckets (bucket_bits=2 -> 4 buckets) so several
    languages land mid-bucket and the exact boundary resolution is
    exercised, not just whole-bucket keeps."""
    import ray.data

    from libfilter_ray.stages.corpus import (space_token_counts,
                                             token_budget_sample)

    df = _docs(n=240)
    ds = ray.data.from_pandas(df).repartition(8)
    kept = token_budget_sample(
        ds, "lang", "doc_id", lambda t: space_token_counts(t["text"]),
        budget=700, bucket_bits=2).to_pandas()
    want = _budget_reference(df, 700)
    assert sorted(kept["doc_id"]) == sorted(want["doc_id"])


def test_token_budget_large_budget_keeps_all(ray_session):
    import ray.data

    from libfilter_ray.stages.corpus import (space_token_counts,
                                             token_budget_sample)

    df = _docs(n=60)
    kept = token_budget_sample(
        ray.data.from_pandas(df), "lang", "doc_id",
        lambda t: space_token_counts(t["text"]),
        budget=10**9).to_pandas()
    assert len(kept) == len(df)


def _weighted_reference(df, budgets: dict):
    from libfilter_ray.stages.crawl import cap_rank_of

    n_tok = df["text"].map(
        lambda t: sum(1 for w in t.split(" ") if w)).to_numpy()
    ref = df.assign(n_tok=n_tok,
                    rank=cap_rank_of(df["doc_id"].to_numpy()))
    kept = []
    for lang, grp in ref.groupby("lang"):
        grp = grp.sort_values(["rank", "doc_id"], kind="stable")
        cum = grp["n_tok"].cumsum()
        kept.append(grp[cum <= budgets.get(str(lang), 0)])
    return pd.concat(kept)


def test_mixture_budgets_floor_and_validation():
    import pytest

    from libfilter_ray.stages.corpus import mixture_budgets

    got = mixture_budgets({"en": 0.5, "zh": 0.2, "de": 0.15,
                           "fr": 0.1, "es": 0.05}, 20_000)
    assert got == {"en": 10_000, "zh": 4_000, "de": 3_000,
                   "fr": 2_000, "es": 1_000}
    # unnormalized weights normalize; floor rounds down
    assert mixture_budgets({"a": 2, "b": 1}, 100) == {"a": 66, "b": 33}
    with pytest.raises(ValueError):
        mixture_budgets({"a": -1, "b": 2}, 100)
    with pytest.raises(ValueError):
        mixture_budgets({"a": 0.0}, 100)


def test_weighted_mixture_matches_reference(ray_session):
    import ray.data

    from libfilter_ray.stages.corpus import (mixture_budgets,
                                             space_token_counts,
                                             weighted_token_budget_sample)

    df = _docs(n=240)
    ds = ray.data.from_pandas(df).repartition(8)
    weights = {"en": 0.6, "de": 0.3, "fr": 0.1}
    kept = weighted_token_budget_sample(
        ds, "lang", "doc_id", lambda t: space_token_counts(t["text"]),
        weights=weights, total_budget=1_500).to_pandas()
    want = _weighted_reference(df, mixture_budgets(weights, 1_500))
    assert sorted(kept["doc_id"]) == sorted(want["doc_id"])
    # each language's kept tokens respects ITS budget, not the total
    n_tok = kept["text"].map(
        lambda t: sum(1 for w in t.split(" ") if w))
    per_lang = n_tok.groupby(kept["lang"]).sum()
    for lang, b in mixture_budgets(weights, 1_500).items():
        assert per_lang.get(lang, 0) <= b


def test_weighted_mixture_drops_absent_langs(ray_session):
    import ray.data

    from libfilter_ray.stages.corpus import (space_token_counts,
                                             weighted_token_budget_sample)

    df = _docs(n=120)  # langs en/de/fr round-robin
    kept = weighted_token_budget_sample(
        ray.data.from_pandas(df).repartition(4), "lang", "doc_id",
        lambda t: space_token_counts(t["text"]),
        weights={"en": 0.7, "de": 0.3}, total_budget=10**9).to_pandas()
    assert set(kept["lang"]) == {"en", "de"}
    # the named langs keep everything under an effectively infinite budget
    assert len(kept) == int((df["lang"] != "fr").sum())


def test_dict_budget_boundary_refinement(ray_session):
    """Per-lang budgets through the tiny-bucket (bucket_bits=2) path so
    dict budgets exercise exact mid-bucket boundary resolution too."""
    import ray.data

    from libfilter_ray.stages.corpus import (space_token_counts,
                                             token_budget_sample)

    df = _docs(n=240)
    budgets = {"en": 700, "de": 300, "fr": 120}
    kept = token_budget_sample(
        ray.data.from_pandas(df).repartition(8), "lang", "doc_id",
        lambda t: space_token_counts(t["text"]),
        budget=budgets, bucket_bits=2).to_pandas()
    want = _weighted_reference(df, budgets)
    assert sorted(kept["doc_id"]) == sorted(want["doc_id"])


def test_token_budget_zero_keeps_none(ray_session):
    import ray.data

    from libfilter_ray.stages.corpus import (space_token_counts,
                                             token_budget_sample)

    df = _docs(n=60)
    kept = token_budget_sample(
        ray.data.from_pandas(df), "lang", "doc_id",
        lambda t: space_token_counts(t["text"]), budget=0).to_pandas()
    assert len(kept) == 0


def test_space_token_counts_edges(ray_session):
    from libfilter_ray.stages.corpus import space_token_counts

    col = pa.array(["a b  c", "", "  ", "single"])
    assert space_token_counts(col).tolist() == [3, 0, 0, 1]


def test_token_budget_random_corpora_property(ray_session):
    """Randomized corpora x budgets x bucket widths against the pandas
    reference — the two-level refinement must be exact everywhere."""
    import ray.data

    from libfilter_ray.stages.corpus import (space_token_counts,
                                             token_budget_sample)

    rng = np.random.default_rng(99)
    for trial in range(4):
        n = int(rng.integers(20, 150))
        df = pd.DataFrame({
            "doc_id": rng.choice(10_000, size=n, replace=False)
            .astype(np.int64),
            "text": [" ".join(["w"] * int(rng.integers(0, 40)))
                     for _ in range(n)],
            "lang": rng.choice(["en", "de", "fr", "zh"], size=n),
        })
        budget = int(rng.integers(0, 400))
        bits = int(rng.integers(2, 13))
        kept = token_budget_sample(
            ray.data.from_pandas(df).repartition(5), "lang", "doc_id",
            lambda t: space_token_counts(t["text"]),
            budget=budget, bucket_bits=bits).to_pandas()
        want = _budget_reference(df, budget)
        assert sorted(kept["doc_id"]) == sorted(want["doc_id"]), \
            (trial, budget, bits)


def _brute_lm_nll(df, min_count=2):
    """Set/dict reference implementation of the bigram LM scoring."""
    from collections import Counter

    bg = Counter()
    pf = Counter()
    vocab = {}
    toks = {}
    for _, r in df.iterrows():
        words = [w for w in r["text"].split(" ") if w]
        toks[r["doc_id"]] = words
        vocab.setdefault(r["lang"], set()).update(words)
        for a, b in zip(words, words[1:]):
            bg[(r["lang"], a, b)] += 1
            pf[(r["lang"], a)] += 1
    out = {}
    for _, r in df.iterrows():
        words = toks[r["doc_id"]]
        V = len(vocab[r["lang"]])
        nll, n = 0.0, 0
        for a, b in zip(words, words[1:]):
            c2 = bg[(r["lang"], a, b)]
            c2 = c2 if c2 >= min_count else 0
            nll += -np.log((c2 + 1.0) / (pf[(r["lang"], a)] + V))
            n += 1
        out[r["doc_id"]] = (n, nll)
    return out


def test_bigram_lm_matches_bruteforce(ray_session):
    import ray.data

    from libfilter_ray.stages.corpus import (build_bigram_lm_ref,
                                             lm_nll_stage)

    df = _docs(120, seed=3)
    # edge rows: empty, single-token, double-space, repeated bigram
    extra = pd.DataFrame({
        "doc_id": np.array([1000, 1001, 1002, 1003], dtype=np.int64),
        "text": ["", "solo", "the  fast key", "loop loop loop loop"],
        "lang": ["en", "en", "de", "fr"]})
    df = pd.concat([df, extra], ignore_index=True)
    ds = ray.data.from_pandas(df).repartition(5)
    ref = build_bigram_lm_ref(ds, "text", "lang")
    got = ds.map_batches(lm_nll_stage("text", "doc_id", "lang", ref),
                         batch_format="pyarrow").to_pandas() \
        .set_index("doc_id").sort_index()
    want = _brute_lm_nll(df)
    assert len(got) == len(want)
    for did, (n, nll) in want.items():
        assert got.loc[did, "n_bigrams"] == n
        assert abs(got.loc[did, "nll_sum"] - nll) < 1e-9, did


def test_bigram_lm_block_invariance(ray_session):
    """Model and scores are independent of how the corpus is blocked."""
    import ray.data

    from libfilter_ray.stages.corpus import (build_bigram_lm_ref,
                                             lm_nll_stage)

    df = _docs(90, seed=5)
    outs = []
    for blocks in (1, 7):
        ds = ray.data.from_pandas(df).repartition(blocks)
        ref = build_bigram_lm_ref(ds, "text", "lang")
        outs.append(ds.map_batches(
            lm_nll_stage("text", "doc_id", "lang", ref),
            batch_format="pyarrow").to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_keyword_topk_matches_bruteforce(ray_session):
    import ray.data

    from libfilter_ray.stages.corpus import (build_doc_freq_ref,
                                             keyword_topk_stage)

    df = _docs(80, seed=9)
    extra = pd.DataFrame({
        "doc_id": np.array([900, 901, 902], dtype=np.int64),
        "text": ["", "one one  two", "a b"],
        "lang": ["en", "en", "en"]})
    df = pd.concat([df, extra], ignore_index=True)
    ds = ray.data.from_pandas(df).repartition(4)
    ref = build_doc_freq_ref(ds, "text")
    got = ds.map_batches(keyword_topk_stage("text", "doc_id", ref, k=3),
                         batch_format="pyarrow").to_pandas() \
        .sort_values(["doc_id", "rank"]).reset_index(drop=True)

    # brute force
    docs_words = {r.doc_id: [w for w in r.text.split(" ") if w]
                  for r in df.itertuples()}
    dfreq = {}
    for ws in docs_words.values():
        for w in set(ws):
            dfreq[w] = dfreq.get(w, 0) + 1
    rows = []
    for did, ws in docs_words.items():
        tf = {}
        for w in ws:
            tf[w] = tf.get(w, 0) + 1
        ranked = sorted(tf.items(),
                        key=lambda kv: (-kv[1] / dfreq[kv[0]], kv[0]))
        for r, (w, c) in enumerate(ranked[:3], 1):
            rows.append((did, r, w, c, dfreq[w]))
    want = pd.DataFrame(rows, columns=["doc_id", "rank", "word", "tf",
                                       "df"]) \
        .sort_values(["doc_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"rank": "int64", "tf": "int64", "df": "int64"}),
        want.astype({"rank": "int64", "tf": "int64", "df": "int64"}))
    assert 900 not in set(got["doc_id"])     # empty doc: no rows
    assert (got[got.doc_id == 902].shape[0] == 2)  # < k distinct words


def test_hash_split_stable_and_validated(ray_session):
    import pytest
    import ray.data

    from libfilter_ray.stages.corpus import hash_split_stage

    with pytest.raises(ValueError, match="sum"):
        hash_split_stage("doc_id", {"train": 80, "val": 10})

    df = _docs(200, seed=13)
    split = hash_split_stage("doc_id", {"train": 90, "val": 5,
                                        "test": 5})
    outs = []
    for blocks in (1, 6):
        ds = ray.data.from_pandas(df).repartition(blocks)
        out = ds.map_batches(split, batch_format="pyarrow").to_pandas()
        outs.append(out.set_index("doc_id")["split"].sort_index())
    pd.testing.assert_series_equal(outs[0], outs[1])
    # growing the corpus never moves an existing doc between splits
    bigger = pd.concat([df, _docs(100, seed=99).assign(
        doc_id=lambda d: d.doc_id + 10_000)], ignore_index=True)
    out2 = ray.data.from_pandas(bigger) \
        .map_batches(split, batch_format="pyarrow").to_pandas() \
        .set_index("doc_id")["split"]
    pd.testing.assert_series_equal(outs[0], out2.loc[outs[0].index])


def test_collocations_never_collect_bigram_table(ray_session,
                                                 monkeypatch):
    """Scale guard: q_top_collocations may collect only the sharded
    top-5-per-lang remainder — never the distinct-bigram count table."""
    import ray.data

    import libfilter_ray.pipelines.queries as Q

    collected: list[int] = []
    orig = ray.data.Dataset.to_pandas

    def spy(self, *a, **k):
        out = orig(self, *a, **k)
        collected.append(len(out))
        return out

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    out = Q.q_top_collocations("/root/testdata/sf0.001")
    assert len(out) > 0 and collected
    # 5 langs x top-5 = 25 final rows; allow shard-remainder slack
    assert max(collected) <= 25 * 16, collected


def test_keyword_topk_join_path_matches_broadcast(ray_session):
    """The word-hash join path (scale) and the broadcast path are both
    exact and must return identical rows."""
    import ray.data

    from libfilter_ray.stages.corpus import keyword_topk_auto

    df = _docs(80, seed=9)
    extra = pd.DataFrame({
        "doc_id": np.array([900, 901, 902], dtype=np.int64),
        "text": ["", "one one  two", "a b"],
        "lang": ["en", "en", "en"]})
    df = pd.concat([df, extra], ignore_index=True)
    ds = ray.data.from_pandas(df).repartition(4)
    broadcast = keyword_topk_auto(ds, "text", "doc_id", k=3) \
        .to_pandas().sort_values(["doc_id", "rank"]) \
        .reset_index(drop=True)
    joined = keyword_topk_auto(ds, "text", "doc_id", k=3,
                               max_broadcast_vocab=0, num_shards=8) \
        .to_pandas().sort_values(["doc_id", "rank"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(
        broadcast.astype({"rank": "int64"}),
        joined.astype({"rank": "int64"}))


def test_keyword_join_never_collects_vocab(ray_session, monkeypatch):
    """Scale guard: past the broadcast bound, keyword extraction must
    not collect any O(vocabulary) frame to the driver — the only
    driver-side to_pandas is the caller's own result collect."""
    import ray.data

    from libfilter_ray.stages.corpus import keyword_topk_auto

    df = _docs(120, seed=21)
    ds = ray.data.from_pandas(df).repartition(4)
    collected: list[int] = []
    orig = ray.data.Dataset.to_pandas

    def spy(self, *a, **k):
        out = orig(self, *a, **k)
        collected.append(len(out))
        return out

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    result = keyword_topk_auto(ds, "text", "doc_id", k=3,
                               max_broadcast_vocab=0, num_shards=8)
    assert collected == []          # path choice collected nothing
    out = result.to_pandas()
    assert len(out) > 0
    assert collected == [len(out)]  # only the final result crossed


def test_lm_model_collect_is_pruned(ray_session, monkeypatch):
    """Scale guard: build_bigram_lm_ref's driver collect is O(pruned
    model), not O(all distinct bigrams) — the min_count filter runs
    inside the Dataset, and token rows fold to per-lang partials."""
    import ray
    import ray.data

    from libfilter_ray.stages.corpus import build_bigram_lm_ref

    # 400 docs of 20 globally-unique rare tokens each -> 7600 distinct
    # bigrams/prefixes seen exactly once; only the repeated common-doc
    # bigrams survive the prunes
    texts = [" ".join(f"zz{i * 20 + j}" for j in range(20))
             for i in range(400)]
    texts += ["the fast key engine"] * 10  # repeated bigrams survive
    df = pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts,
        "lang": ["en"] * len(texts)})
    ds = ray.data.from_pandas(df).repartition(4)

    collected: list[int] = []
    orig = ray.data.Dataset.to_pandas

    def spy(self, *a, **k):
        out = orig(self, *a, **k)
        collected.append(len(out))
        return out

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    ref = build_bigram_lm_ref(ds, "text", "lang", prefix_min_count=2)
    bh, bc, ph, pcnt, vby = ray.get(ref)
    n_distinct_bigrams_unpruned = 400 * 19 + 3  # >= (every rare bigram)
    # collected = pruned bigrams + pruned prefixes + (langs x blocks)
    # vocab partials; the unpruned distinct-bigram table alone would
    # exceed this bound by orders of magnitude
    assert collected, "no driver collect observed"
    assert max(collected) <= len(bh) + len(ph) + 64, collected
    assert max(collected) < n_distinct_bigrams_unpruned * 0.1, collected
    assert len(bh) == 3        # the / fast, fast / key, key / engine
    assert (bc == 10).all()
    assert len(ph) == 3        # prefixes the / fast / key (count 10)
    assert vby["en"] == 400 * 20 + 4  # vocabulary still counted exactly


def test_lm_prefix_min_count_prunes_and_scores_unseen(ray_session):
    """prefix_min_count prunes rare prefixes from the model; pruned
    prefixes score as unseen (c1 = 0) — documented model change."""
    import ray
    import ray.data

    from libfilter_ray.stages.corpus import (build_bigram_lm_ref,
                                             lm_nll_stage)

    df = pd.DataFrame({
        "doc_id": np.array([0, 1, 2], dtype=np.int64),
        "text": ["a b a b a b", "c d", "a b c"],
        "lang": ["en"] * 3})
    ds = ray.data.from_pandas(df).repartition(2)
    full = ray.get(build_bigram_lm_ref(ds, "text", "lang",
                                       min_count=1))
    pruned = ray.get(build_bigram_lm_ref(ds, "text", "lang",
                                         min_count=1,
                                         prefix_min_count=3))
    assert len(pruned[2]) < len(full[2])     # some prefixes dropped
    assert pruned[4] == full[4]              # vocab sizes unchanged
    # scoring still runs; pruned prefixes hit the c1=0 branch
    ref = ray.put(pruned)
    got = ds.map_batches(lm_nll_stage("text", "doc_id", "lang", ref),
                         batch_format="pyarrow").to_pandas()
    assert (got["n_bigrams"].to_numpy() >= 0).all()
    assert np.isfinite(got["nll_sum"].to_numpy()).all()
