"""Config-driven sketch pipelines (SURVEY.md §2.10: the engine equivalent of
the reference's duck-typed filter protocol + factories —
``java/.../FilterWithBytesFactory.java``, ``cpp/include/filter/block.hpp``
templates). A pipeline is a plain dict, so jobs can live in JSON/YAML and new
sketch kinds plug in through the registry without touching driver code.

Spec shape::

    {
      "table": "documents" | "webpages" | "events" | "<name>",
      "columns": ["lang", "text"],          # optional read pruning
      "filter": "n_chars >= 150",           # optional row filter (expr)
      "dedup": {"column": "text",           # optional exact-dedup
                "id_column": "doc_id"},     #   (min-id survivor) pre-stage
      "key": "lang",                        # optional -> grouped build
      "sketches": [
        {"name": "bloom", "kind": "block", "params": {"bytes_": 4096},
         "column": "url"},
        {"name": "users", "kind": "hll", "params": {"p": 14},
         "column": "user_id"},
        {"name": "tbf", "kind": "taffy_block", "params": {"ndv": 256},
         "column": "url", "exact": true},   # partition-invariant build
      ],
    }

Grouped specs run in ONE pass via build_grouped_multi (single read + one
keyed merge); ungrouped specs build one global sketch each via build_sketch
(the same keyed merge over one key) — or via build_sketch_exact when the
spec carries ``"exact": true``: each block ships its raw hash list and the
same merge inserts the sorted hash multiset once, the partition-invariant
path for growth-order-sensitive sketches.
"""

from __future__ import annotations

from typing import Any

import pandas as pd


def _load_table(spec: dict, sf_dir: str):
    import ray.data

    import os

    table = spec["table"]
    cols = spec.get("columns")
    if table == "webpages":
        from ..sources.webpages import read_webpages

        ds = read_webpages(sf_dir, include_html=False)
        return ds.select_columns(cols) if cols else ds
    # `{dir}/{table}.parquet` single file, or `{dir}/{table}/` shard dir
    # (the normal many-files layout for large corpora)
    path = f"{sf_dir}/{table}.parquet"
    if not os.path.isfile(path) and os.path.isdir(f"{sf_dir}/{table}"):
        path = f"{sf_dir}/{table}"
    return ray.data.read_parquet(path, columns=cols)


def run_config(spec: dict[str, Any], sf_dir: str) -> pd.DataFrame:
    """Execute a config-described sketch build; returns the payload frame
    (grouped: one row per key with payload_<name> columns; ungrouped: one
    row per sketch with its payload)."""
    from ..sketch import registry
    from ..stages.sketch_build import (build_grouped_multi, build_sketch,
                                       build_sketch_exact)

    sketches = spec["sketches"]
    key = spec.get("key")
    for s in sketches:
        cls = registry.get(s["kind"])  # fail fast on unknown kinds
        if s.get("exact"):
            # fail fast, not silently-wrong: exact is the raw-HASH
            # canonicalized path (ungrouped only; value sketches like
            # kll/tdigest must see raw values, and the grouped branch
            # would drop the flag and run the merge build instead)
            if key:
                raise ValueError(
                    f"spec {s['name']!r}: \"exact\" is not supported for "
                    "grouped builds (key present) — the grouped path is "
                    "merge-based")
            if getattr(cls, "input", "hashes") != "hashes":
                raise ValueError(
                    f"spec {s['name']!r}: \"exact\" requires a "
                    f"hash-consuming sketch kind, not {s['kind']!r}")
    ds = _load_table(spec, sf_dir)
    if spec.get("filter"):
        ds = ds.filter(expr=spec["filter"])
    if spec.get("dedup"):
        from ..stages.dedup import exact_dedup

        d = spec["dedup"]
        ds = exact_dedup(ds, d["column"], d["id_column"])
    if key:
        specs = [(s["name"], s["kind"], s.get("params", {}), s["column"])
                 for s in sketches]
        return build_grouped_multi(ds, key, specs)
    rows = []
    for s in sketches:
        build = build_sketch_exact if s.get("exact") else build_sketch
        sk = build(ds, s["column"], s["kind"], s.get("params", {}))
        rows.append({"name": s["name"], "kind": s["kind"],
                     "payload": sk.to_bytes()})
    return pd.DataFrame(rows)
