"""Distributed connected components over a pair Dataset, with nothing
collected to the driver (a driver-side union-find over all pairs does not
scale: a large graph makes pairs O(corpus)). stages/graph.py labels the
link graph with it.

Two stages:

1. **Contraction pre-pass** (2 shuffles, no iteration): shard edges by
   hash(src) and run a vectorized local label propagation per shard
   (numpy pointer-jumping — no per-edge Python), emitting each node's
   shard-local component min id. Folding those mappings by node yields a
   contracted graph whose nodes are shard-local minima: edges that share
   their `id_a` co-shard and collapse to a single node here, so for
   clique- or star-shaped components the contracted graph is typically
   empty or tiny.
2. **Min-label propagation loop** on the contracted graph (only if any
   cross-shard edges remain). Each round: one hash-partitioned equi-join
   pushes labels across edges, one self-join pointer-jumps
   label <- label(label) (O(log diameter) rounds for chains), and ONE
   groupby folds {old labels, propagated, jumped} with a strict-decrease
   count for convergence. Labels only ever hold member ids >= the
   component min, so changed == 0 means every component sits uniformly at
   its min.

Scale shape: every stage is a narrow (int64, int64) shuffle of O(E) rows;
nothing is ever collected to the driver but per-round COUNTs. `num_shards`
defaults to "auto" (scales with edge count, floor 1 so test-size graphs
run as a single vectorized task); pass the cluster's task budget
explicitly for real runs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

#: "no previous label" sentinel for propagated rows in the fold groupby
_NO_OLD = np.iinfo(np.int64).max

#: target edges per shard when num_shards="auto"
_AUTO_EDGES_PER_SHARD = 200_000


def _np_components(src: np.ndarray, dst: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, min-id labels) for the edge list — vectorized min-label
    propagation with pointer jumping over index arrays (no per-edge
    Python loop; O(E log d) numpy work)."""
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    e0, e1 = inv[: len(src)], inv[len(src):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        new = lab.copy()
        # push each endpoint's label across the edge, both directions
        np.minimum.at(new, e0, lab[e1])
        np.minimum.at(new, e1, lab[e0])
        # pointer-jump to the current chain end
        while True:
            nn = new[new]
            if np.array_equal(nn, new):
                break
            new = nn
        if np.array_equal(new, lab):
            return nodes, nodes[lab]
        lab = new


def _resolve_shards(num_shards, n_edges: int) -> int:
    if num_shards == "auto":
        return int(max(1, min(64, n_edges // _AUTO_EDGES_PER_SHARD)))
    return int(num_shards)


def connected_components(pairs_ds, *, id_a: str = "id_a",
                         id_b: str = "id_b", num_shards="auto",
                         max_iters: int = 50):
    """Labels Dataset (node:int64, label:int64) for the undirected graph
    given by the (id_a, id_b) pair Dataset; label = min node id of the
    node's component. Nodes absent from any pair are absent here (they are
    their own singleton clusters). Raises after `max_iters` non-converged
    rounds rather than return wrong labels."""
    import ray.data
    from ray.data.aggregate import Min

    from ..sketch.hashing import shard_of_values
    from .joins import hash_equi_join

    def to_edges(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        a = pc.cast(t[id_a], pa.int64())
        b = pc.cast(t[id_b], pa.int64())
        return pa.table({"src": a, "dst": b})

    edges = pairs_ds.map_batches(to_edges,
                                 batch_format="pyarrow").materialize()
    n_edges = edges.count()
    empty = ray.data.from_arrow(pa.table({
        "node": pa.array([], type=pa.int64()),
        "label": pa.array([], type=pa.int64())}))
    if n_edges == 0:
        return empty
    shards = _resolve_shards(num_shards, n_edges)

    # ---- stage 1: sharded local CC + cross-shard fold (2 shuffles) ----
    def add_eshard(t: pa.Table) -> pa.Table:
        return t.append_column("eshard", pa.array(
            shard_of_values(t["src"], shards).astype(np.int64)))

    def local_cc(df: pd.DataFrame) -> pd.DataFrame:
        nodes, lab = _np_components(df["src"].to_numpy(np.int64),
                                    df["dst"].to_numpy(np.int64))
        return pd.DataFrame({"node": nodes, "lroot": lab})

    mapping = edges.map_batches(add_eshard, batch_format="pyarrow") \
        .groupby("eshard").map_groups(local_cc, batch_format="pandas")

    def add_nshard(t: pa.Table) -> pa.Table:
        return t.append_column("nshard", pa.array(
            shard_of_values(t["node"], shards).astype(np.int64)))

    def fold_node(df: pd.DataFrame) -> pd.DataFrame:
        """Per node: r0 = min local root -> (node, r0[, contracted edges
        (r0, ri) for every other local root ri])."""
        df = df.sort_values(["node", "lroot"]) \
            .drop_duplicates(["node", "lroot"])
        node = df["node"].to_numpy(np.int64)
        lroot = df["lroot"].to_numpy(np.int64)
        first = np.ones(len(node), dtype=bool)
        first[1:] = node[1:] != node[:-1]
        r0 = lroot[np.maximum.accumulate(np.where(first,
                                                  np.arange(len(node)),
                                                  0))]
        rest = ~first
        return pd.DataFrame({
            "node": node, "r0": r0,
            # contracted edge target (NaN-free: self-edge on first rows,
            # dropped downstream)
            "ri": np.where(rest, lroot, r0),
        })

    folded = mapping.map_batches(add_nshard, batch_format="pyarrow") \
        .groupby("nshard").map_groups(fold_node, batch_format="pandas") \
        .materialize()
    # exactly one row per node: the first (ri == r0) row — rest rows are
    # the contracted edges and carry duplicate (node, r0) pairs
    mapping_ds = folded.filter(expr="ri == r0") \
        .select_columns(["node", "r0"])
    cedges = folded.filter(expr="ri != r0").select_columns(["r0", "ri"])
    n_cedges = cedges.count()
    if n_cedges == 0:
        # every component lived inside one shard — mapping is final
        return mapping_ds.map_batches(
            lambda t: t.rename_columns(["node", "label"]),
            batch_format="pyarrow")

    # ---- stage 2: min-label propagation on the contracted graph ----
    cshards = _resolve_shards("auto", n_cedges) \
        if num_shards == "auto" else shards

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["r0"].combine_chunks() \
            if isinstance(t["r0"], pa.ChunkedArray) else t["r0"]
        b = t["ri"].combine_chunks() \
            if isinstance(t["ri"], pa.ChunkedArray) else t["ri"]
        return pa.table({"src": pa.concat_arrays([a, b]),
                         "dst": pa.concat_arrays([b, a])})

    cc_edges = cedges.map_batches(both_dirs, batch_format="pyarrow") \
        .repartition(cshards).materialize()

    def init_label(t: pa.Table) -> pa.Table:
        src = np.asarray(t["src"], dtype=np.int64)
        dst = np.asarray(t["dst"], dtype=np.int64)
        return pa.table({"node": pa.array(src),
                         "label": pa.array(np.minimum(src, dst))})

    # repartition-coalesce after each materialize caps the per-round task
    # count at O(shards) instead of snowballing groupby output blocks
    labels = cc_edges.map_batches(init_label, batch_format="pyarrow") \
        .groupby("node").aggregate(Min("label", alias_name="label")) \
        .repartition(cshards).materialize()

    def tag_old(t: pa.Table) -> pa.Table:
        lab = t["label"].combine_chunks() \
            if isinstance(t["label"], pa.ChunkedArray) else t["label"]
        return pa.table({"node": t["node"], "label": lab, "old": lab})

    def tag_new(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["dst"], "label": t["label"],
            "old": pa.array(np.full(t.num_rows, _NO_OLD, dtype=np.int64)),
        })

    def rename_jump(t: pa.Table) -> pa.Table:
        return t.rename_columns(["jnode", "jlabel"])

    def tag_jump(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"], "label": t["jlabel"],
            "old": pa.array(np.full(t.num_rows, _NO_OLD, dtype=np.int64)),
        })

    done = None
    for _ in range(max_iters):
        # push label(src) across each edge to dst
        prop = hash_equi_join(cc_edges, labels, left_on="src",
                              right_on="node", left_cols=["dst"],
                              right_cols=["label"], num_shards=cshards)
        # pointer jump: label(v) <- label(label(v)) — labels are always
        # node ids present in `labels`, so the self-join is total. Halves
        # the remaining hop distance: O(log diameter) rounds for chains.
        jump = hash_equi_join(
            labels,
            labels.map_batches(rename_jump, batch_format="pyarrow"),
            left_on="label", right_on="jnode", left_cols=["node"],
            right_cols=["jlabel"], num_shards=cshards)
        folded = labels.map_batches(tag_old, batch_format="pyarrow") \
            .union(prop.map_batches(tag_new, batch_format="pyarrow")) \
            .union(jump.map_batches(tag_jump, batch_format="pyarrow")) \
            .groupby("node").aggregate(
                Min("label", alias_name="label"),
                Min("old", alias_name="old")) \
            .repartition(cshards).materialize()
        changed = folded.filter(expr="label < old").count()
        labels = folded.select_columns(["node", "label"])
        if changed == 0:
            # edge fixpoint: label(u) == label(v) on every edge, and
            # labels only ever hold member ids >= the component min — so
            # every component is uniformly at its min. (Jump rows can
            # only have moved labels DOWN the same component.)
            done = labels
            break
    if done is None:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} "
            "rounds — a pathological chain; raise max_iters")

    # ---- resolve: node label = contracted label of its local root ----
    clab = done.map_batches(
        lambda t: t.rename_columns(["cnode", "clabel"]),
        batch_format="pyarrow")
    joined = hash_equi_join(mapping_ds, clab, left_on="r0",
                            right_on="cnode", left_cols=["node"],
                            right_cols=["clabel"], num_shards=shards,
                            how="left outer")

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # local roots untouched by any contracted edge keep label = r0
        lab = pc.coalesce(pc.cast(t["clabel"], pa.int64()), t["r0"])
        return pa.table({"node": t["node"], "label": lab})

    return joined.map_batches(finish, batch_format="pyarrow")

