"""Link-graph analysis over the document table — the web-scale classics.

Web curation pipelines use link structure two ways: connected components
(mirror/site clusters, spam farms) and PageRank-style centrality (quality
priors for crawl scheduling and corpus weighting). Both are iterative
all-to-all computations, the exact shape the reference engine never has
to face — here they run as Ray Data shuffle rounds.

The graph itself is synthesized deterministically from ``doc_id`` so the
driver's DuckDB oracle can rebuild the identical edge set in SQL: with
N documents and contiguous ids 0..N-1,

- anchor edge   ``u -> u - (u % 7)``          for every ``u % 7 != 0``
  (each 7-block stars onto its smallest member), and
- long-range    ``u -> (31*u + 13) % N``      for every ``u % 13 == 0``
  with self-loops dropped (none exist for the test Ns, but guarded),

which yields many small components occasionally chained together by the
long-range links — enough structure to exercise multi-round label
propagation without blowing up the oracle's transitive closure.

PageRank is computed in EXACT integer arithmetic (micro-ranks, base
1_000_000) so the oracle matches bit-for-bit: every step is int64 floor
division / multiplication, no float summation order anywhere. The
damping step is ``r' = 150_000 + (85 * s) // 100`` with
``s = sum(r_u // outdeg(u))`` over in-neighbors — dangling mass is
dropped rather than redistributed (a documented simplification; both
engines compute the same recurrence). At web scale the int64 headroom
is the constraint: 85 * total_mass must stay under 2^63, i.e. rescale
the base below 1e6 beyond ~10^11 nodes.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

ANCHOR_MOD = 7
LONG_MOD = 13
LONG_MUL = 31
LONG_ADD = 13
PR_BASE = 1_000_000
PR_TELEPORT = 150_000  # 0.15 * base
PR_DAMP_NUM, PR_DAMP_DEN = 85, 100


def _edges_of(u: np.ndarray, n_docs: int):
    """(src, dst) int64 arrays of the synthesized out-edges of nodes u."""
    u = u.astype(np.int64)
    a_mask = (u % ANCHOR_MOD) != 0
    a_src = u[a_mask]
    a_dst = a_src - (a_src % ANCHOR_MOD)
    l_src = u[(u % LONG_MOD) == 0]
    l_dst = (l_src * LONG_MUL + LONG_ADD) % np.int64(n_docs)
    keep = l_dst != l_src  # no self-loops
    l_src, l_dst = l_src[keep], l_dst[keep]
    return (np.concatenate([a_src, l_src]),
            np.concatenate([a_dst, l_dst]))


def _outdeg_of(u: np.ndarray, n_docs: int) -> np.ndarray:
    u = u.astype(np.int64)
    d = ((u % ANCHOR_MOD) != 0).astype(np.int64)
    long_dst = (u * LONG_MUL + LONG_ADD) % np.int64(n_docs)
    d += (((u % LONG_MOD) == 0) & (long_dst != u)).astype(np.int64)
    return d


def _pr_init(t: pa.Table, id_col: str) -> pa.Table:
    """(v, pr_micro=PR_BASE) init rows — shared by both PageRank faces."""
    v = np.asarray(t[id_col], dtype=np.int64)
    return pa.table({"v": pa.array(v), "pr_micro": pa.array(
        np.full(len(v), PR_BASE, dtype=np.int64))})


def _pr_damp(t: pa.Table) -> pa.Table:
    """The damping recurrence r' = teleport + (85*s)//100 — the single
    home of the rule both PageRank faces (and their oracles) encode."""
    s = np.asarray(t["s"], dtype=np.int64)
    r = PR_TELEPORT + (PR_DAMP_NUM * s) // PR_DAMP_DEN
    return pa.table({"v": t["v"], "pr_micro": pa.array(r)})


def _pr_damp_with(extra: int, keep: tuple[str, ...] = ()):
    """Damping with the per-node dangling share folded in:
    r' = teleport + (85*(s + extra))//100, extra = D // N with D the
    round's total dangling mass (standard-PageRank redistribution, in
    the same exact-int arithmetic). `keep` names carrier columns to
    pass through (the edges face keeps the out-degree column)."""
    def f(t: pa.Table) -> pa.Table:
        s = np.asarray(t["s"], dtype=np.int64)
        r = PR_TELEPORT + (PR_DAMP_NUM * (s + extra)) // PR_DAMP_DEN
        cols = {"v": t["v"], "pr_micro": pa.array(r)}
        for c in keep:
            cols[c] = t[c]
        return pa.table(cols)
    return f


def _fill_deg(t: pa.Table) -> pa.Table:
    """(v, pr_micro, d-with-nulls) -> (v, pr_micro, deg): the left-outer
    degree join leaves dangling nodes null; they are exactly the
    deg=0 rows the redistribute recurrence needs to see."""
    import pyarrow.compute as pc

    deg = pc.coalesce(pc.cast(t["d"], pa.int64()), pa.scalar(0))
    return pa.table({"v": t["v"], "pr_micro": t["pr_micro"],
                     "deg": deg})


def synth_link_edges(docs_ds, n_docs: int, *, id_col: str = "doc_id"):
    """Directed (src, dst) edge Dataset from the formula above — the
    stand-in for reading a real anchor-href edge table. Streaming
    map_batches; no shuffle."""
    def gen(t: pa.Table) -> pa.Table:
        src, dst = _edges_of(np.asarray(t[id_col], dtype=np.int64),
                             n_docs)
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    return docs_ds.map_batches(gen, batch_format="pyarrow")


def component_size_histogram_edges(edges_ds, nodes_ds, *,
                                   node_col: str = "node",
                                   src_col: str = "src",
                                   dst_col: str = "dst"):
    """(size, n_components) pandas frame for an arbitrary undirected
    (src, dst) edge Dataset — distributed connected components
    (stages/cluster.py: sharded local CC + min-label contraction,
    O(log d) rounds), then two grouped counts. Nodes touching no edge
    count as singleton components via a left join (never a driver-side
    node scan)."""
    from ray.data.aggregate import Count

    from .cluster import connected_components
    from .joins import hash_equi_join

    labels = connected_components(edges_ds, id_a=src_col, id_b=dst_col)
    joined = hash_equi_join(
        nodes_ds, labels, left_on=node_col, right_on="node",
        left_cols=[], right_cols=["label"], how="left outer")

    def lab(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        label = pc.coalesce(pc.cast(t["label"], pa.int64()),
                            pc.cast(t[node_col], pa.int64()))
        return pa.table({"label": label})

    sizes = joined.map_batches(lab, batch_format="pyarrow") \
        .groupby("label").aggregate(Count(alias_name="size"))
    hist = sizes.groupby("size") \
        .aggregate(Count(alias_name="n_components")).to_pandas()
    hist = hist.sort_values("size").reset_index(drop=True)
    for c in ("size", "n_components"):
        hist[c] = hist[c].astype("int64")
    return hist


def component_size_histogram(docs_ds, n_docs: int, *,
                             id_col: str = "doc_id"):
    """`component_size_histogram_edges` over the synthesized graph."""
    edges = synth_link_edges(docs_ds, n_docs, id_col=id_col)
    return component_size_histogram_edges(edges, docs_ds,
                                          node_col=id_col)


def integer_pagerank(docs_ds, n_docs: int, *, iters: int = 3,
                     id_col: str = "doc_id", dangling: str = "drop"):
    """Dataset (v, pr_micro) after ``iters`` exact-integer PageRank
    rounds. Each round is one scatter (map_batches emits
    ``r_u // outdeg(u)`` onto each out-neighbor, generated from the node
    id — for a real edge table this becomes a hash join against the
    co-partitioned adjacency shard) and one groupby-sum shuffle; ranks
    never pass through the driver. A zero contribution is emitted for
    every node itself so in-degree-0 nodes survive the groupby.

    ``dangling`` picks the recurrence: "drop" (the documented
    simplification — dangling mass vanishes) or "redistribute" (the
    standard formulation real link graphs need: each round's total
    dangling mass D folds back uniformly, r' = teleport +
    (85*(s + D//N))//100, still exact int64). Redistribute costs one
    extra scalar tree-aggregate per round (D reaches the driver as one
    int — no shuffle) plus a materialize (the round consumes the
    carrier twice, the iterative-lineage guard)."""
    from ray.data.aggregate import Sum

    if dangling not in ("drop", "redistribute"):
        raise ValueError(f"dangling must be 'drop' or 'redistribute', "
                         f"got {dangling!r}")

    ranks = docs_ds.map_batches(lambda t: _pr_init(t, id_col),
                                batch_format="pyarrow")

    def scatter(t: pa.Table) -> pa.Table:
        u = np.asarray(t["v"], dtype=np.int64)
        r = np.asarray(t["pr_micro"], dtype=np.int64)
        share = r // np.maximum(_outdeg_of(u, n_docs), 1)
        a_mask = (u % ANCHOR_MOD) != 0
        l_dst = (u * LONG_MUL + LONG_ADD) % np.int64(n_docs)
        l_mask = ((u % LONG_MOD) == 0) & (l_dst != u)
        return pa.table({
            "v": pa.array(np.concatenate(
                [u[a_mask] - (u[a_mask] % ANCHOR_MOD),
                 l_dst[l_mask], u])),
            "contrib": pa.array(np.concatenate(
                [share[a_mask], share[l_mask],
                 np.zeros(len(u), dtype=np.int64)])),
        })

    def dangling_mass(t: pa.Table) -> pa.Table:
        u = np.asarray(t["v"], dtype=np.int64)
        r = np.asarray(t["pr_micro"], dtype=np.int64)
        dm = int(r[_outdeg_of(u, n_docs) == 0].sum())
        return pa.table({"dm": pa.array([dm], type=pa.int64())})

    for _ in range(iters):
        extra = 0
        if dangling == "redistribute":
            ranks = ranks.materialize()  # consumed twice this round
            d_total = ranks.map_batches(
                dangling_mass, batch_format="pyarrow").sum("dm") or 0
            extra = int(d_total) // n_docs
        ranks = ranks.map_batches(scatter, batch_format="pyarrow") \
            .groupby("v").aggregate(Sum("contrib", alias_name="s")) \
            .map_batches(_pr_damp_with(extra) if extra or
                         dangling == "redistribute" else _pr_damp,
                         batch_format="pyarrow")
    return ranks


def integer_pagerank_edges(edges_ds, nodes_ds, *, iters: int = 3,
                           node_col: str = "node",
                           src_col: str = "src", dst_col: str = "dst",
                           num_shards: int = 64,
                           dangling: str = "drop"):
    """The real-edge-table face of `integer_pagerank`: same exact-int
    recurrence, but the adjacency comes from a (src, dst) Dataset
    instead of the id formula. Out-degrees attach to the edge table
    once (one groupby + one hash join, reused every round); each round
    is then hash_equi_join(edges, ranks, on=src) -> contribution
    map_batches -> union with per-node zero rows -> groupby-sum ->
    damp. Two shuffles per iteration — the unavoidable all-to-all of
    link analysis; co-partition the edge table by src on disk to make
    the first one a local exchange. Setup validates node uniqueness
    (one O(nodes) aggregate): a duplicated node id would replicate the
    node's out-edges through every round's join, silently multiplying
    its contribution mass.

    ``dangling="redistribute"`` applies the standard dangling-mass
    recurrence (see `integer_pagerank`). The per-node out-degree rides
    the rank carrier itself (zero rows carry ``dd=d``, contribution
    rows ``dd=-1``, a Max aggregate recovers it through the
    groupby-sum), so each round's dangling total D is one scalar
    tree-aggregate over the carrier — no extra join or shuffle."""
    from ray.data.aggregate import Count, Max, Sum

    from .joins import hash_equi_join

    if dangling not in ("drop", "redistribute"):
        raise ValueError(f"dangling must be 'drop' or 'redistribute', "
                         f"got {dangling!r}")
    redis = dangling == "redistribute"

    # read the edge table once: it feeds both the out-degree groupby
    # and the join's left side, which would otherwise re-scan the
    # source (double I/O at exactly the scale this function targets)
    edges_ds = edges_ds.materialize()
    deg = edges_ds.groupby(src_col).aggregate(Count(alias_name="d"))
    edges_d = hash_equi_join(
        edges_ds, deg, left_on=src_col, right_on=src_col,
        left_cols=[dst_col], right_cols=["d"],
        num_shards=num_shards).materialize()

    ranks = nodes_ds.map_batches(
        lambda t: _pr_init(t, node_col),
        batch_format="pyarrow").materialize()
    n_nodes = ranks.count()
    n_distinct = ranks.groupby("v").count().count()
    if n_distinct != n_nodes:
        raise ValueError(
            f"nodes table has duplicate {node_col!r} ids "
            f"({n_nodes} rows, {n_distinct} distinct) — duplicates "
            "would silently multiply those nodes' contribution mass")
    if redis:
        # attach each node's out-degree to the carrier once (0 for
        # dangling nodes) — one setup join, reused every round via the
        # Max trick below
        ranks = hash_equi_join(
            ranks, deg, left_on="v", right_on=src_col,
            left_cols=["pr_micro"], right_cols=["d"],
            num_shards=num_shards, how="left outer") \
            .map_batches(_fill_deg, batch_format="pyarrow")

    def contrib(t: pa.Table) -> pa.Table:
        r = np.asarray(t["pr_micro"], dtype=np.int64)
        d = np.asarray(t["d"], dtype=np.int64)
        cols = {
            "v": pa.array(np.asarray(t[dst_col], dtype=np.int64)),
            "contrib": pa.array(r // np.maximum(d, 1)),
        }
        if redis:
            cols["dd"] = pa.array(np.full(t.num_rows, -1,
                                          dtype=np.int64))
        return pa.table(cols)

    def zero(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"], dtype=np.int64)
        cols = {"v": pa.array(v), "contrib": pa.array(
            np.zeros(len(v), dtype=np.int64))}
        if redis:
            cols["dd"] = t["deg"]
        return pa.table(cols)

    def dangling_mass(t: pa.Table) -> pa.Table:
        r = np.asarray(t["pr_micro"], dtype=np.int64)
        d = np.asarray(t["deg"], dtype=np.int64)
        return pa.table({"dm": pa.array([int(r[d == 0].sum())],
                                        type=pa.int64())})

    for _ in range(iters):
        # Two iterative-dataflow guards, both load-bearing:
        # 1. materialize — each round consumes `ranks` TWICE (join
        #    branch + zero-row branch); without a checkpoint the lazy
        #    lineage doubles per round and replays all prior rounds
        #    2^iters times. O(nodes) rows in the object store,
        #    spillable — the standard trade.
        # 2. repartition — every shuffle round emits ~as many blocks as
        #    it consumes, so block count would MULTIPLY per iteration
        #    (measured 64 -> 160 -> 352 on a 500-row graph, with
        #    per-round wall time growing to match); pinning ranks back
        #    to `num_shards` blocks keeps every round the same cost.
        ranks = ranks.repartition(num_shards).materialize()
        extra = 0
        if redis:
            d_total = ranks.map_batches(
                dangling_mass, batch_format="pyarrow").sum("dm") or 0
            extra = int(d_total) // n_nodes
        joined = hash_equi_join(
            edges_d, ranks, left_on=src_col, right_on="v",
            left_cols=[dst_col, "d"], right_cols=["pr_micro"],
            num_shards=num_shards)
        agg = [Sum("contrib", alias_name="s")]
        if redis:
            agg.append(Max("dd", alias_name="deg"))
        ranks = joined.map_batches(contrib, batch_format="pyarrow") \
            .union(ranks.map_batches(zero, batch_format="pyarrow")) \
            .groupby("v").aggregate(*agg) \
            .map_batches(
                _pr_damp_with(extra, keep=("deg",)) if redis
                else _pr_damp,
                batch_format="pyarrow")
    if redis:
        ranks = ranks.drop_columns(["deg"])
    return ranks


def topk_from_ranks(ranks_ds, k: int, *, id_name: str = "doc_id"):
    """Distributed top-k over a (v, pr_micro) rank Dataset: per-block
    partial top-k, then a k-row driver sort — ties break by node id.
    The single home of the tie-break rule; both the query path and the
    graph CLI use it."""
    def partial_topk(t: pa.Table) -> pa.Table:
        v = np.asarray(t["v"], dtype=np.int64)
        r = np.asarray(t["pr_micro"], dtype=np.int64)
        order = np.lexsort((v, -r))[:k]
        return pa.table({"v": pa.array(v[order]),
                         "pr_micro": pa.array(r[order])})

    parts = ranks_ds.map_batches(partial_topk,
                                 batch_format="pyarrow").to_pandas()
    out = parts.sort_values(["pr_micro", "v"],
                            ascending=[False, True]).head(k)
    out = out.rename(columns={"v": id_name}).reset_index(drop=True)
    for c in (id_name, "pr_micro"):
        out[c] = out[c].astype("int64")
    return out


def pagerank_topk(docs_ds, n_docs: int, *, k: int = 10, iters: int = 3,
                  id_col: str = "doc_id", dangling: str = "drop"):
    """Top-k (doc_id, pr_micro) pandas frame, ties broken by doc_id —
    distributed per-block partial top-k (sort is on a k-row result,
    never the full rank table)."""
    ranks = integer_pagerank(docs_ds, n_docs, iters=iters,
                             id_col=id_col, dangling=dangling)
    return topk_from_ranks(ranks, k, id_name="doc_id")
