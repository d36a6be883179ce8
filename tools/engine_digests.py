"""Digests of the engine's outputs on the benchmark's inputs, for checking
that a refactor leaves every output byte unchanged.

    python3 tools/engine_digests.py <checkout> <out.json> [--seed N]

Runs the engine of `<checkout>` (one Ray session, one CPU) on the seeded
inputs `perfbench/inputs.py` writes, and stores sha256 prefixes of:

- `build_grouped_multi` payloads per key: the flagship specs (Bloom, HLL,
  CMS, KLL) on the lang input and the `domain_sketch_build` specs on its
  input; a one-spec Bloom build (`lang_single`) on the lang input;
- `lang_multi_order_invariant`: whether the flagship build over the same
  materialized blocks in reversed block order gives the same digests (it
  must be true: the keyed merge folds in a canonical order);
- `global`: `build_sketch` (one unkeyed sketch) of each flagship spec over
  the same lang blocks, and `global_order_invariant`, whether the reversed
  blocks give the same digests (it must be true);
- `exact`: `build_sketch_exact` (TaffyBlock) of the urls over the same lang
  blocks, and `exact_order_invariant` for the reversed blocks (true);
- `CheckpointedBuild.run()` payloads per key on the
  `domain_checkpoint_resume` input, single-shot and stopped-then-resumed,
  and `ckpt_global`, the same build with no key (one sketch over every
  row);
- `grouped_probe_counts` `(n, found)` per group on the probe input.

Run it on two checkouts and compare the files (`cmp a.json b.json`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile


def _h(b) -> str:
    return hashlib.sha256(bytes(b)).hexdigest()[:16]


def digests(seed: int, work: str) -> dict:
    import inputs
    from spans import Tracer
    from workloads import WORKLOADS

    import ray.data

    from libfilter_ray.stages.sketch_build import (build_grouped_multi,
                                                   build_sketch,
                                                   build_sketch_exact)
    from libfilter_ray.state.checkpoint import CheckpointedBuild

    def workload(name):
        w = WORKLOADS[name](os.path.join(work, name), seed)
        inputs.generate(w.generator, w.work, seed, w.sizes)
        w.prepare()
        return w

    def per_key(df, key, names):
        return {str(r[key]): {"rows": int(r["rows"]),
                              **{n: _h(r[f"payload_{n}"]) for n in names}}
                for _, r in df.iterrows()}

    out = {}
    w = workload("lang_sketch_build")
    names = [s[0] for s in w.specs()]
    out["lang_multi"] = per_key(w.traced(Tracer()), "lang", names)
    ext = w._stages[1]
    reversed_blocks = ray.data.from_arrow_refs(ext.to_arrow_refs()[::-1])
    out["lang_multi_order_invariant"] = out["lang_multi"] == per_key(
        build_grouped_multi(reversed_blocks, "lang", w.specs()), "lang",
        names)

    def global_digests(ds):
        return {name: _h(build_sketch(ds, column, kind, params).to_bytes())
                for (name, kind, params, column) in w.specs()}

    out["global"] = global_digests(ext)
    out["global_order_invariant"] = out["global"] == global_digests(
        reversed_blocks)
    def exact_digest(ds):
        return _h(build_sketch_exact(ds, "url", "taffy_block",
                                     {"ndv": 256, "fpp": 0.01}).to_bytes())

    out["exact"] = exact_digest(ext)
    out["exact_order_invariant"] = out["exact"] == exact_digest(
        reversed_blocks)
    out["lang_single"] = per_key(build_grouped_multi(
        ext, "lang", [("block", "block", {"bytes_": 4096}, "url")]), "lang",
        ["block"])

    w = workload("domain_sketch_build")
    out["domain_multi"] = per_key(w.job()[0], "domain",
                                  [s[0] for s in w.SPECS])

    w = workload("domain_checkpoint_resume")
    one = w._build(os.path.join(work, "ckpt-single")).run()
    run_dir = os.path.join(work, "ckpt-resume")
    w._build(run_dir).run(max_partitions=w.PARTITIONS // 2)
    resumed = w._build(run_dir).run()
    out["ckpt_single"] = {str(k): _h(v.to_bytes()) for k, v in one.items()}
    out["ckpt_resume"] = {str(k): _h(v.to_bytes())
                          for k, v in resumed.items()}
    whole = CheckpointedBuild(
        os.path.join(work, "ckpt-global"), w.paths, kind="taffy_block",
        params=w.PARAMS, column="url", key=None,
        target_rows=-(-w.sizes["n_rows"] // w.PARTITIONS)).run()
    out["ckpt_global"] = {str(k): _h(v.to_bytes()) for k, v in whole.items()}

    w = workload("url_membership_probe")
    probe = w._probe(w._source(), w.ref)
    out["probe"] = {r["grp"]: [int(r["n"]), int(r["found"])]
                    for _, r in probe.iterrows()}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout")
    ap.add_argument("out")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    root = os.path.abspath(args.checkout)
    bench = os.path.join(root, "perfbench")
    sys.path[:0] = [root, bench]
    # Ray workers unpickle the workloads' stage functions too
    os.environ["PYTHONPATH"] = os.pathsep.join([root, bench])

    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20)
    from libfilter_ray.context import apply_scale_defaults

    apply_scale_defaults()
    DataContext.get_current().enable_progress_bars = False
    work = tempfile.mkdtemp(prefix="engine-digests-")
    try:
        out = digests(args.seed, work)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    out["ckpt_resume_equals_single"] = out["ckpt_single"] == \
        out["ckpt_resume"]
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
    print({k: len(v) if isinstance(v, dict) else v for k, v in out.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
